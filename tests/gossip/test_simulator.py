"""Integration tests for the discrete-event gossip simulator."""

import numpy as np
import pytest

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


def build_simulator(
    protocol_name="samo",
    n_nodes=6,
    view_size=2,
    dynamic=False,
    seed=0,
    ticks_per_round=20,
    local_epochs=1,
):
    model = build_mlp(16, 4, hidden=(8,), rng=np.random.default_rng(0))
    trainer = BatchedTrainer(
        model,
        TrainerConfig(
            learning_rate=0.05,
            momentum=0.0,
            local_epochs=local_epochs,
            batch_size=8,
        ),
    )
    train, _ = make_synthetic_tabular_dataset(
        "t", 300, 30, num_features=16, num_classes=4, seed=seed
    )
    splits = make_node_splits(
        train, n_nodes, train_per_node=16, test_per_node=8, seed=seed
    )
    protocol = make_protocol(protocol_name, trainer)
    config = SimulatorConfig(
        n_nodes=n_nodes,
        view_size=view_size,
        dynamic=dynamic,
        ticks_per_round=ticks_per_round,
        wake_mu=ticks_per_round,
        wake_sigma=ticks_per_round / 10,
        seed=seed,
    )
    return FlatGossipSimulator(config, protocol, splits, get_state(model)), model


class TestConstruction:
    def test_all_nodes_start_from_shared_model(self):
        sim, _ = build_simulator()
        vecs = [state_to_vector(s) for s in sim.states()]
        for v in vecs[1:]:
            np.testing.assert_array_equal(v, vecs[0])

    def test_rejects_split_count_mismatch(self):
        sim, model = build_simulator()
        with pytest.raises(ValueError):
            FlatGossipSimulator(
                sim.config, sim.protocol, sim.nodes[0:2], get_state(model)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=1)
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=4)


class TestExecution:
    def test_messages_flow(self):
        sim, _ = build_simulator()
        sim.run(rounds=2)
        assert sim.messages_sent > 0

    def test_models_diverge_from_init_and_each_other(self):
        sim, _ = build_simulator()
        init = state_to_vector(sim.states()[0]).copy()
        sim.run(rounds=3)
        vecs = [state_to_vector(s) for s in sim.states()]
        assert any(not np.allclose(v, init) for v in vecs)
        # Nodes hold different data, so models differ across nodes.
        assert any(not np.allclose(vecs[0], v) for v in vecs[1:])

    def test_round_callback_invoked_each_round(self):
        sim, _ = build_simulator()
        calls = []
        sim.run(rounds=4, round_callback=lambda r, s: calls.append(r))
        assert calls == [0, 1, 2, 3]

    def test_clock_advances_by_round_ticks(self):
        sim, _ = build_simulator(ticks_per_round=20)
        sim.run(rounds=3)
        assert sim.clock.tick == 60

    def test_samo_sends_view_size_models_per_wake(self):
        """SAMO message count per wake equals the view size."""
        sim, _ = build_simulator(protocol_name="samo", view_size=2)
        sim.run(rounds=2)
        # Each wake-up sends exactly 2; total must be even.
        assert sim.messages_sent % 2 == 0

    def test_base_gossip_sends_fewer_messages_than_samo(self):
        base, _ = build_simulator(protocol_name="base_gossip", view_size=3, seed=1)
        samo, _ = build_simulator(protocol_name="samo", view_size=3, seed=1)
        base.run(rounds=3)
        samo.run(rounds=3)
        assert samo.messages_sent > base.messages_sent

    def test_deterministic_given_seed(self):
        a, _ = build_simulator(seed=11)
        b, _ = build_simulator(seed=11)
        a.run(rounds=2)
        b.run(rounds=2)
        for sa, sb in zip(a.states(), b.states()):
            np.testing.assert_array_equal(state_to_vector(sa), state_to_vector(sb))

    def test_different_seeds_differ(self):
        a, _ = build_simulator(seed=11)
        b, _ = build_simulator(seed=12)
        a.run(rounds=2)
        b.run(rounds=2)
        assert any(
            not np.array_equal(state_to_vector(sa), state_to_vector(sb))
            for sa, sb in zip(a.states(), b.states())
        )

    def test_dynamic_topology_changes_views(self):
        sim, _ = build_simulator(dynamic=True)
        before = sim.sampler.views()
        sim.run(rounds=2)
        assert sim.sampler.views() != before

    def test_static_topology_views_frozen(self):
        sim, _ = build_simulator(dynamic=False)
        before = sim.sampler.views()
        sim.run(rounds=2)
        assert sim.sampler.views() == before

    def test_no_self_messages(self):
        sim, _ = build_simulator()
        sim.log.keep_payloads = True
        sim.run(rounds=2)
        for m in sim.log.messages:
            assert m.sender != m.receiver


class TestConvergence:
    def test_gossip_brings_models_closer_than_isolated_training(self):
        """With mixing, node models stay closer together than purely
        local training would leave them — the consensus effect that
        Section 4 formalizes."""
        sim, _ = build_simulator(protocol_name="samo", view_size=3, seed=2)
        sim.run(rounds=4)
        vecs = np.stack([state_to_vector(s) for s in sim.states()])
        spread_gossip = np.linalg.norm(vecs - vecs.mean(axis=0), axis=1).mean()

        # Isolated: same trainer, no communication.
        iso, _ = build_simulator(protocol_name="samo", view_size=3, seed=2)
        for node in iso.nodes:
            for _ in range(4):
                iso.protocol.trainer.train_block(
                    iso.arena.row(node.node_id)[None],
                    [node.train_x], [node.train_y], [node.rng], [0],
                    node_ids=[node.node_id],
                )
        iso_vecs = np.stack([state_to_vector(s) for s in iso.states()])
        spread_iso = np.linalg.norm(
            iso_vecs - iso_vecs.mean(axis=0), axis=1
        ).mean()
        assert spread_gossip < spread_iso
