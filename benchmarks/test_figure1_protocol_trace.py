"""Figure 1 — protocol behavior trace (GL vs SAMO).

Reconstructs the exact scenario of Figure 1: node x with incoming
neighbors y1..y3 and outgoing neighbors z1..z3, and checks the event
sequences the figure illustrates:

* Base GL: every reception triggers an immediate merge + local update
  (steps 1-4); a wake-up sends to exactly ONE neighbor (step 5).
* SAMO: receptions are buffered (steps 1-3); the wake-up performs one
  merge + one update (step 4) and sends to ALL neighbors (step 5).
"""

import numpy as np

from repro.data import make_node_splits, make_synthetic_tabular_dataset
from repro.gossip import (
    BaseGossipProtocol,
    FlatGossipSimulator,
    BatchedTrainer,
    SAMOProtocol,
    SimulatorConfig,
    TrainerConfig,
)
from repro.nn import build_mlp, get_state

from benchmarks.conftest import run_once


def build_simulator(protocol_cls):
    """Node x = node 0 of a 4-node simulator; nodes 1-3 play both the
    y (incoming) and z (outgoing) neighbors, and x's view is pinned to
    them."""
    model = build_mlp(16, 4, hidden=(8,), rng=np.random.default_rng(0))
    trainer = BatchedTrainer(
        model,
        TrainerConfig(learning_rate=0.05, momentum=0.0, local_epochs=1, batch_size=8),
    )
    train, _ = make_synthetic_tabular_dataset(
        "t", 160, 20, num_features=16, num_classes=4, seed=0
    )
    splits = make_node_splits(train, 4, train_per_node=16, test_per_node=8, seed=0)
    sim = FlatGossipSimulator(
        SimulatorConfig(n_nodes=4, view_size=3, seed=7),
        protocol_cls(trainer),
        splits,
        get_state(model),
    )
    sim.sampler.view = lambda node_id: {1, 2, 3}
    return sim


def trace_protocol(protocol_cls):
    sim = build_simulator(protocol_cls)
    node = sim.nodes[0]
    events = []
    # Steps 1-3: three models arrive from y1, y2, y3.
    for sender, shift in ((1, 1.0), (2, 2.0), (3, 3.0)):
        incoming = sim.arena.row(sender) + shift
        updates_before = node.updates_performed
        sim._pending.append((sender, 0, incoming))
        sim._process_pending()
        if node.updates_performed > updates_before:
            events.append(("merge_and_update", None))
        else:
            events.append(("buffered", None))
    # Steps 4-5: node x wakes up with z1, z2, z3 in its view.
    updates_before = node.updates_performed
    if isinstance(sim.protocol, SAMOProtocol):
        sim._samo_wakes([0])
    else:
        sim._base_wakes([0])
    if node.updates_performed > updates_before:
        events.append(("merge_and_update", None))
    events += [("send", receiver) for _, receiver, _ in sim._pending]
    return events, node


def test_figure1_protocol_traces(benchmark):
    def run():
        return trace_protocol(BaseGossipProtocol), trace_protocol(SAMOProtocol)

    (gl_events, gl_node), (samo_events, samo_node) = run_once(benchmark, run)

    print("\nBase GL event trace :", [e[0] for e in gl_events])
    print("SAMO event trace    :", [e[0] for e in samo_events])

    # Base GL: merge+update on EVERY reception, single send on wake.
    gl_kinds = [e[0] for e in gl_events]
    assert gl_kinds.count("merge_and_update") == 3
    assert gl_kinds.count("send") == 1
    assert gl_node.updates_performed == 3

    # SAMO: buffer on every reception, ONE merge+update, send to all 3.
    samo_kinds = [e[0] for e in samo_events]
    assert samo_kinds.count("buffered") == 3
    assert samo_kinds.count("merge_and_update") == 1
    assert samo_kinds.count("send") == 3
    assert samo_node.updates_performed == 1
