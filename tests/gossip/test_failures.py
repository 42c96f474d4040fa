"""Tests for failure injection (message loss, node churn) and the
partial-aggregation protocol variant."""

import numpy as np
import pytest

from repro.data import make_node_splits, make_synthetic_tabular_dataset
from repro.gossip import (
    FlatGossipSimulator,
    BatchedTrainer,
    PartialMergeGossipProtocol,
    SimulatorConfig,
    TrainerConfig,
    make_protocol,
)
from repro.nn import build_mlp, get_state
from repro.nn.serialize import average_states, state_to_vector


def build_simulator(drop_prob=0.0, failure_prob=0.0, sampler=None,
                    protocol_name="samo", seed=0):
    model = build_mlp(16, 4, hidden=(8,), rng=np.random.default_rng(0))
    trainer = BatchedTrainer(
        model,
        TrainerConfig(learning_rate=0.05, momentum=0.0, local_epochs=1,
                      batch_size=8),
    )
    train, _ = make_synthetic_tabular_dataset(
        "t", 300, 30, num_features=16, num_classes=4, seed=seed
    )
    splits = make_node_splits(train, 6, train_per_node=16, test_per_node=8,
                              seed=seed)
    config = SimulatorConfig(
        n_nodes=6, view_size=2, sampler=sampler,
        ticks_per_round=20, wake_mu=20, wake_sigma=2,
        drop_prob=drop_prob, failure_prob=failure_prob, seed=seed,
    )
    return FlatGossipSimulator(
        config, make_protocol(protocol_name, trainer), splits, get_state(model)
    )


class TestMessageLoss:
    def test_no_drops_by_default(self):
        sim = build_simulator()
        sim.run(rounds=2)
        assert sim.messages_dropped == 0

    def test_drops_happen_and_are_counted(self):
        sim = build_simulator(drop_prob=0.5)
        sim.run(rounds=3)
        assert sim.messages_dropped > 0
        # Dropped messages never reach the log.
        total_attempts = sim.messages_sent + sim.messages_dropped
        assert sim.messages_sent < total_attempts

    def test_heavy_loss_still_progresses(self):
        """Gossip degrades gracefully: even at 70% loss, training
        continues and models evolve."""
        sim = build_simulator(drop_prob=0.7)
        init = state_to_vector(sim.states()[0]).copy()
        sim.run(rounds=3)
        assert any(
            not np.allclose(state_to_vector(s), init) for s in sim.states()
        )

    def test_drop_prob_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, drop_prob=1.0)


class TestNodeChurn:
    def test_no_skips_by_default(self):
        sim = build_simulator()
        sim.run(rounds=2)
        assert sim.wakes_skipped == 0

    def test_skips_counted(self):
        sim = build_simulator(failure_prob=0.5)
        sim.run(rounds=3)
        assert sim.wakes_skipped > 0

    def test_failed_wake_sends_nothing(self):
        quiet = build_simulator(failure_prob=0.9, seed=3)
        noisy = build_simulator(failure_prob=0.0, seed=3)
        quiet.run(rounds=2)
        noisy.run(rounds=2)
        assert quiet.messages_sent < noisy.messages_sent

    def test_failure_prob_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, failure_prob=-0.1)


class TestSamplerSelection:
    def test_fresh_sampler_by_name(self):
        sim = build_simulator(sampler="fresh")
        assert sim.sampler.dynamic
        before = sim.sampler.views()
        sim.run(rounds=3)
        assert sim.sampler.views() != before

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            build_simulator(sampler="smallworld")

    def test_sampler_name_derivation(self):
        assert SimulatorConfig(n_nodes=4, view_size=2).sampler_name == "static"
        assert (
            SimulatorConfig(n_nodes=4, view_size=2, dynamic=True).sampler_name
            == "peerswap"
        )
        assert (
            SimulatorConfig(n_nodes=4, view_size=2, sampler="fresh").sampler_name
            == "fresh"
        )


class TestPartialMerge:
    def test_registered_in_factory(self):
        sim = build_simulator(protocol_name="base_gossip_partial")
        assert isinstance(sim.protocol, PartialMergeGossipProtocol)
        assert sim.protocol.merge_weight == 0.25

    def test_partial_merge_keeps_state_closer_to_own(self):
        model = build_mlp(16, 4, hidden=(8,), rng=np.random.default_rng(0))
        trainer = BatchedTrainer(
            model,
            TrainerConfig(learning_rate=0.05, momentum=0.0, local_epochs=0,
                          batch_size=8),
        )
        from repro.gossip import BaseGossipProtocol

        train, _ = make_synthetic_tabular_dataset(
            "t", 100, 10, num_features=16, num_classes=4, seed=0
        )
        splits = make_node_splits(train, 3, train_per_node=16,
                                  test_per_node=8, seed=0)
        init = get_state(model)
        config = SimulatorConfig(n_nodes=3, view_size=2, seed=0)

        def merged_distance(protocol):
            sim = FlatGossipSimulator(config, protocol, splits, init)
            incoming = sim.arena.row(1) + 1.0
            sim._pending.append((1, 0, incoming))
            sim._process_pending()  # node 0 receives
            return np.linalg.norm(
                state_to_vector(sim.nodes[0].state) - state_to_vector(init)
            )

        full = merged_distance(BaseGossipProtocol(trainer))
        partial = merged_distance(PartialMergeGossipProtocol(trainer))
        assert partial < full  # partial merge moves less toward the peer

    def test_merge_weight_validation(self):
        model = build_mlp(8, 2, hidden=(4,), rng=np.random.default_rng(0))
        trainer = BatchedTrainer(model, TrainerConfig())
        from repro.gossip import BaseGossipProtocol

        with pytest.raises(ValueError):
            BaseGossipProtocol(trainer, merge_weight=0.0)
        with pytest.raises(ValueError):
            BaseGossipProtocol(trainer, merge_weight=1.5)

    def test_exact_partial_average(self):
        """merge_weight w gives (1-w) own + w incoming exactly."""
        s0 = {"w": np.array([0.0])}
        s1 = {"w": np.array([8.0])}
        out = average_states([s0, s1], weights=[0.75, 0.25])
        assert out["w"][0] == pytest.approx(2.0)


class TestMessageLatency:
    def test_zero_delay_is_instant(self):
        sim = build_simulator()
        sim.run(rounds=2)
        assert sim.messages_in_flight == 0

    def test_delayed_messages_queue_then_deliver(self):
        model = build_mlp(16, 4, hidden=(8,), rng=np.random.default_rng(0))
        trainer = BatchedTrainer(
            model,
            TrainerConfig(learning_rate=0.05, momentum=0.0, local_epochs=0,
                          batch_size=8),
        )
        train, _ = make_synthetic_tabular_dataset(
            "t", 300, 30, num_features=16, num_classes=4, seed=0
        )
        splits = make_node_splits(train, 6, train_per_node=16,
                                  test_per_node=8, seed=0)
        config = SimulatorConfig(
            n_nodes=6, view_size=2, ticks_per_round=20, wake_mu=20,
            wake_sigma=2, delay_ticks=5, seed=0,
        )
        sim = FlatGossipSimulator(
            config, make_protocol("samo", trainer), splits, get_state(model)
        )
        sim.run_round()
        sent = sim.messages_sent
        assert sent > 0
        # All sent messages eventually arrive: SAMO buffers them, so
        # total receptions equal deliveries.
        for _ in range(3):
            sim.run_round()
        received = sum(n.models_received for n in sim.nodes)
        assert received == sim.messages_sent - sim.messages_in_flight
        sim.close()

    def test_latency_slows_mixing(self):
        """Stale models mix worse: with large delays the node models
        stay further apart after the same number of rounds."""
        from repro.nn.serialize import state_to_vector

        def spread(delay):
            sim = build_simulator(seed=4)
            # Rebuild with delay via a fresh config.
            config = SimulatorConfig(
                n_nodes=6, view_size=2, ticks_per_round=20, wake_mu=20,
                wake_sigma=2, delay_ticks=delay, seed=4,
            )
            sim2 = FlatGossipSimulator(
                config, sim.protocol, [n.split for n in sim.nodes],
                sim.nodes[0].snapshot(),
            )
            rng = np.random.default_rng(42)
            for node in sim2.nodes:
                for arr in node.state.values():
                    arr += rng.normal(0, 1.0, size=arr.shape)
            sim2.run(rounds=4)
            vecs = np.stack([state_to_vector(s) for s in sim2.states()])
            sim2.close()
            return np.linalg.norm(vecs - vecs.mean(axis=0), axis=1).mean()

        assert spread(0) < spread(15)

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, delay_ticks=-1)
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, delay_jitter=-1)

    def test_jitter_spreads_delivery(self):
        config = SimulatorConfig(
            n_nodes=4, view_size=2, delay_ticks=2, delay_jitter=3
        )
        assert config.delay_jitter == 3


class TestInFlightIsolation:
    """Messages in flight must be immune to later sender mutations."""

    def _delayed_sim(self, delay_ticks=5, local_epochs=0):
        model = build_mlp(16, 4, hidden=(8,), rng=np.random.default_rng(0))
        trainer = BatchedTrainer(
            model,
            TrainerConfig(learning_rate=0.05, momentum=0.0,
                          local_epochs=local_epochs, batch_size=8),
        )
        train, _ = make_synthetic_tabular_dataset(
            "t", 300, 30, num_features=16, num_classes=4, seed=0
        )
        splits = make_node_splits(train, 6, train_per_node=16,
                                  test_per_node=8, seed=0)
        config = SimulatorConfig(
            n_nodes=6, view_size=2, ticks_per_round=20, wake_mu=20,
            wake_sigma=2, delay_ticks=delay_ticks, seed=0,
        )
        return FlatGossipSimulator(
            config, make_protocol("samo", trainer), splits, get_state(model)
        )

    def test_sender_mutation_does_not_reach_in_flight_payload(self):
        """Regression: a send that enqueued the sender's live model by
        reference let a sender training after the send rewrite the
        message on the wire."""
        sim = self._delayed_sim(delay_ticks=3)
        original = sim.arena.row(0).copy()
        neighbors = sorted(sim.sampler.view(0))
        sim._samo_wakes([0])  # node 0 sends to its whole view
        sim.arena.row(0)[:] += 1234.5  # sender keeps training...
        for _ in range(4):  # ...while the message rides the wire
            sim.clock.advance()
        sim._deliver_due()
        sim._process_pending()
        for neighbor in neighbors:
            assert len(sim.nodes[neighbor].inbox) == 1
            np.testing.assert_array_equal(
                sim.nodes[neighbor].inbox[0], original
            )

    def test_run_tallies_undelivered_messages(self):
        """Messages still in flight at the end of run() are counted,
        and messages due at the final tick are delivered."""
        sim = self._delayed_sim(delay_ticks=10_000)
        sim.run(rounds=2)
        assert sim.messages_sent > 0
        assert sim.messages_undelivered == sim.messages_in_flight
        assert sim.messages_undelivered == sim.messages_sent

    def test_run_delivers_messages_due_at_final_tick(self):
        sim = self._delayed_sim(delay_ticks=1)
        sim._send_vector(0, 1, sim._copy_payload(sim.arena.row(0)))  # due at tick 1
        sim.clock.advance()  # horizon ends exactly at the due tick
        sim.run(rounds=0)
        assert len(sim.nodes[1].inbox) == 1
        assert sim.messages_undelivered == sim.messages_in_flight
