"""Cross-module integration tests.

These exercise the full pipeline and assert system-level invariants
that no single module's unit tests cover: mixing contraction on real
model states, overfitting-leakage coupling, and feature composition
(canaries + DP + dynamics in one run).
"""

import numpy as np
import pytest

from repro import StudyConfig, run_study
from repro.data import make_node_splits, make_synthetic_tabular_dataset
from repro.gossip import (
    FlatGossipSimulator,
    BatchedTrainer,
    SimulatorConfig,
    TrainerConfig,
    make_protocol,
)
from repro.nn import build_mlp, get_state
from repro.nn.serialize import state_to_vector


def mixing_only_simulator(protocol_name, seed=0, n_nodes=8):
    """A simulator whose nodes never train (local_epochs=0), with
    distinct initial models — isolates the mixing dynamics."""
    model = build_mlp(12, 3, hidden=(6,), rng=np.random.default_rng(0))
    trainer = BatchedTrainer(
        model,
        TrainerConfig(learning_rate=0.05, local_epochs=0, batch_size=8),
    )
    train, _ = make_synthetic_tabular_dataset(
        "t", 200, 20, num_features=12, num_classes=3, seed=seed
    )
    splits = make_node_splits(train, n_nodes, train_per_node=8,
                              test_per_node=4, seed=seed)
    sim = FlatGossipSimulator(
        SimulatorConfig(
            n_nodes=n_nodes, view_size=2, ticks_per_round=20,
            wake_mu=20, wake_sigma=2, seed=seed,
        ),
        make_protocol(protocol_name, trainer),
        splits,
        get_state(model),
    )
    # Give every node a distinct model so mixing is observable.
    rng = np.random.default_rng(seed + 99)
    for node in sim.nodes:
        for arr in node.state.values():
            arr += rng.normal(0, 1.0, size=arr.shape)
    return sim


class TestPureMixing:
    @pytest.mark.parametrize("protocol", ["samo", "base_gossip"])
    def test_models_contract_toward_consensus(self, protocol):
        sim = mixing_only_simulator(protocol)
        vecs = np.stack([state_to_vector(s) for s in sim.states()])
        spread_before = np.linalg.norm(vecs - vecs.mean(axis=0), axis=1).mean()
        sim.run(rounds=6)
        vecs = np.stack([state_to_vector(s) for s in sim.states()])
        spread_after = np.linalg.norm(vecs - vecs.mean(axis=0), axis=1).mean()
        assert spread_after < spread_before * 0.7

    @pytest.mark.parametrize("protocol", ["samo", "base_gossip"])
    def test_states_stay_in_convex_hull(self, protocol):
        """Averaging can never leave the coordinate-wise convex hull of
        the initial models — a safety property of both protocols."""
        sim = mixing_only_simulator(protocol)
        vecs = np.stack([state_to_vector(s) for s in sim.states()])
        lo, hi = vecs.min(axis=0), vecs.max(axis=0)
        sim.run(rounds=4)
        after = np.stack([state_to_vector(s) for s in sim.states()])
        assert np.all(after >= lo - 1e-9)
        assert np.all(after <= hi + 1e-9)

    def test_samo_contracts_faster_than_base(self):
        """SAMO's merge-many + send-all mixes faster per round."""
        def final_spread(protocol):
            sim = mixing_only_simulator(protocol, seed=1)
            sim.run(rounds=4)
            vecs = np.stack([state_to_vector(s) for s in sim.states()])
            return np.linalg.norm(vecs - vecs.mean(axis=0), axis=1).mean()

        assert final_spread("samo") < final_spread("base_gossip")


class TestOverfittingLeakageCoupling:
    def test_more_local_epochs_more_leakage(self):
        """Overfitting drives MIA: more local epochs on the same data
        yield a more vulnerable system."""
        def run(epochs):
            return run_study(
                StudyConfig(
                    name=f"epochs{epochs}",
                    dataset="purchase100",
                    n_train=600, n_test=150, num_features=64,
                    n_nodes=6, view_size=2, protocol="samo", rounds=3,
                    train_per_node=24, test_per_node=12,
                    mlp_hidden=(64, 32), local_epochs=epochs, batch_size=12,
                    seed=7,
                )
            )

        light = run(1)
        heavy = run(5)
        assert heavy.max_mia_accuracy > light.max_mia_accuracy
        assert (
            heavy.rounds[-1].generalization_error
            > light.rounds[-1].generalization_error - 0.02
        )


class TestFeatureComposition:
    def test_canaries_dp_dynamics_compose(self):
        """All features on at once: non-iid + canaries + DP + PeerSwap."""
        result = run_study(
            StudyConfig(
                name="kitchen-sink",
                dataset="purchase100",
                n_train=600, n_test=150, num_features=64,
                n_nodes=6, view_size=2, protocol="samo", rounds=2,
                dynamic=True, beta=0.5, dp_epsilon=50.0, n_canaries=12,
                train_per_node=24, test_per_node=12,
                mlp_hidden=(32, 16), local_epochs=1, batch_size=12,
                label_smoothing=0.05, lr_decay=0.9,
                seed=11,
            )
        )
        assert len(result.rounds) == 2
        final = result.rounds[-1]
        assert final.epsilon is not None and final.epsilon <= 50.0 * 1.01
        assert final.canary_tpr_at_1_fpr is not None
        assert result.metadata["sampler"] == "peerswap"

    def test_failure_injection_composes_with_protocols(self):
        for protocol in ("samo", "base_gossip", "base_gossip_partial"):
            result = run_study(
                StudyConfig(
                    name=f"faulty-{protocol}",
                    dataset="purchase100",
                    n_train=600, n_test=150, num_features=64,
                    n_nodes=6, view_size=2, protocol=protocol, rounds=2,
                    drop_prob=0.3, failure_prob=0.2,
                    train_per_node=24, test_per_node=12,
                    mlp_hidden=(32, 16), local_epochs=1, batch_size=12,
                    seed=13,
                )
            )
            assert len(result.rounds) == 2
            assert 0.0 <= result.max_mia_accuracy <= 1.0


class TestLatencyMixingCoupling:
    def test_latency_slows_consensus_in_full_study(self):
        """Network latency delays mixing, so after few rounds the
        delayed system's model spread is at least the instant one's."""
        def spread(delay):
            result = run_study(
                StudyConfig(
                    name=f"latency{delay}",
                    dataset="purchase100",
                    n_train=600, n_test=150, num_features=64,
                    n_nodes=6, view_size=2, protocol="samo", rounds=3,
                    delay_ticks=delay,
                    train_per_node=24, test_per_node=12,
                    mlp_hidden=(32, 16), local_epochs=1, batch_size=12,
                    seed=17,
                )
            )
            return result.rounds[-1].model_spread

        assert spread(60) >= spread(0) * 0.9
