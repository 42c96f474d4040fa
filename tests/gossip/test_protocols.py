"""Tests for Base Gossip (Algorithm 1) and SAMO (Algorithm 2).

Each protocol is defined once, in the engine: a wake runs
``_base_wakes``/``_samo_wakes`` and a reception runs
``_process_pending``. These tests drive those steps on one node of a
small simulator, with the node's view pinned per test.
"""

import numpy as np
import pytest

from reference_nn import average_states, state_to_vector, unpack
from repro.data import make_node_splits, make_synthetic_tabular_dataset
from repro.gossip import (
    BaseGossipProtocol,
    FlatGossipSimulator,
    BatchedTrainer,
    SAMOProtocol,
    SimulatorConfig,
    TrainerConfig,
    make_protocol,
)
from repro.nn import build_mlp, get_state


@pytest.fixture
def env():
    """Trainer, real data for three nodes, and the shared initial model."""
    model = build_mlp(16, 4, hidden=(8,), rng=np.random.default_rng(0))
    trainer = BatchedTrainer(
        model,
        TrainerConfig(learning_rate=0.05, momentum=0.0, local_epochs=1, batch_size=8),
    )
    train, _ = make_synthetic_tabular_dataset(
        "t", 120, 20, num_features=16, num_classes=4, seed=0
    )
    splits = make_node_splits(train, 3, train_per_node=16, test_per_node=8, seed=0)
    return trainer, splits, get_state(model)


def simulator(env, protocol_cls, view=None):
    """A 3-node simulator running ``protocol_cls``; ``view`` pins node
    0's neighbors."""
    trainer, splits, init = env
    sim = FlatGossipSimulator(
        SimulatorConfig(n_nodes=3, view_size=2, seed=0),
        protocol_cls(trainer),
        splits,
        init,
    )
    if view is not None:
        sim.sampler.view = lambda node_id: set(view) if node_id == 0 else set()
    return sim


def receive(sim, payload, receiver=0, sender=1):
    """Deliver one message and run the protocol's reception step."""
    sim._pending.append((sender, receiver, payload))
    sim._process_pending()


def sends(sim):
    """Messages the last wake step queued, as (sender, receiver, payload)."""
    return list(sim._pending)


def row(sim, node_id=0):
    return sim.arena.row(node_id).copy()


class TestBaseGossip:
    def test_wake_sends_to_exactly_one_neighbor(self, env):
        sim = simulator(env, BaseGossipProtocol, view={1, 2})
        sim._base_wakes([0])
        sent = sends(sim)
        assert len(sent) == 1
        assert sent[0][0] == 0
        assert sent[0][1] in {1, 2}

    def test_wake_with_empty_view_sends_nothing(self, env):
        sim = simulator(env, BaseGossipProtocol, view=set())
        sim._base_wakes([0])
        assert sends(sim) == []

    def test_receive_aggregates_pairwise_then_trains(self, env):
        _, _, init = env
        sim = simulator(env, BaseGossipProtocol)
        node = sim.nodes[0]
        incoming = row(sim) + 2.0
        before_updates = node.updates_performed
        receive(sim, incoming)
        assert node.updates_performed == before_updates + 1
        # The state should be near the pairwise average (training then
        # perturbs it, but aggregation is exact before local steps).
        expected_avg = average_states([init, unpack(sim.layout, incoming)])
        # After training it moved, but should be closer to the average
        # than to either endpoint by construction of one small step.
        d_avg = np.linalg.norm(row(sim) - state_to_vector(expected_avg))
        d_init = np.linalg.norm(row(sim) - state_to_vector(init))
        assert d_avg < d_init

    def test_receive_does_not_buffer(self, env):
        sim = simulator(env, BaseGossipProtocol)
        receive(sim, row(sim, 1))
        assert sim.nodes[0].inbox == []

    def test_wake_does_not_train(self, env):
        """Algorithm 1 trains only on reception."""
        sim = simulator(env, BaseGossipProtocol, view={1})
        before = sim.nodes[0].updates_performed
        sim._base_wakes([0])
        assert sim.nodes[0].updates_performed == before


class TestSAMO:
    def test_receive_only_buffers(self, env):
        sim = simulator(env, SAMOProtocol)
        before = row(sim)
        receive(sim, row(sim, 1))
        assert len(sim.nodes[0].inbox) == 1
        np.testing.assert_array_equal(row(sim), before)
        assert sim.nodes[0].updates_performed == 0

    def test_wake_sends_to_all_neighbors(self, env):
        sim = simulator(env, SAMOProtocol, view={1, 2})
        sim._samo_wakes([0])
        assert sorted(receiver for _, receiver, _ in sends(sim)) == [1, 2]

    def test_wake_without_inbox_skips_merge_and_training(self, env):
        """Algorithm 2 line 3: only merge/train when |Theta_i| > 1."""
        sim = simulator(env, SAMOProtocol, view={1})
        before = row(sim)
        sim._samo_wakes([0])
        np.testing.assert_array_equal(row(sim), before)
        assert sim.nodes[0].updates_performed == 0
        assert len(sends(sim)) == 1  # still disseminates

    def test_wake_with_inbox_merges_all_then_trains(self, env):
        _, _, init = env
        sim = simulator(env, SAMOProtocol, view={1})
        m1 = row(sim) + 3.0
        m2 = row(sim) - 3.0
        receive(sim, m1)
        receive(sim, m2)
        sim._samo_wakes([0])
        assert sim.nodes[0].updates_performed == 1
        assert sim.nodes[0].inbox == []
        # Average of init, init+3, init-3 is init; state then trained a
        # little, so it should be near init.
        drift = np.linalg.norm(row(sim) - state_to_vector(init))
        assert drift < np.linalg.norm(m1 - state_to_vector(init))

    def test_sent_payload_is_snapshot(self, env):
        """Mutating the node after sending must not alter the payload."""
        sim = simulator(env, SAMOProtocol, view={1})
        sim._samo_wakes([0])
        payload = sends(sim)[0][2]
        before = payload.copy()
        sim.arena.row(0)[:] += 100.0
        np.testing.assert_array_equal(payload, before)


class TestFactory:
    def test_known_names(self, env):
        trainer, _, _ = env
        assert isinstance(make_protocol("base_gossip", trainer), BaseGossipProtocol)
        assert isinstance(make_protocol("samo", trainer), SAMOProtocol)

    def test_unknown_name(self, env):
        trainer, _, _ = env
        with pytest.raises(ValueError):
            make_protocol("epidemic", trainer)
