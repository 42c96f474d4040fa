"""Discrete-event gossip simulator.

Drives the tick clock, the peer-sampling service and the protocol
hooks. Message delivery is instantaneous (a send at tick t is received
at tick t), matching the GossiPy-style simulation used by the paper.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.data.partition import NodeSplit
from repro.gossip.clock import TickClock, WakeSchedule
from repro.gossip.messages import MessageLog, ModelMessage
from repro.gossip.node import GossipNode
from repro.gossip.protocols import GossipProtocol
from repro.graph.peer_sampling import PeerSampler, make_sampler_by_name
from repro.nn.serialize import State

__all__ = ["SimulatorConfig", "GossipSimulator"]

# round_callback(round_index, simulator) -> None
RoundCallback = Callable[[int, "GossipSimulator"], None]


@dataclass(frozen=True)
class SimulatorConfig:
    """Static description of one gossip run's communication layer.

    ``sampler`` selects the peer-sampling service by name ("static",
    "peerswap", "fresh"); when None it is derived from ``dynamic`` for
    backward compatibility with the paper's two-setting grid.

    Failure injection (both default off):

    * ``drop_prob`` — every message is independently lost with this
      probability (lossy links);
    * ``failure_prob`` — a waking node is unavailable with this
      probability and skips the wake entirely (crash-recovery churn).

    ``delay_ticks``/``delay_jitter`` model network latency: a message
    sent at tick t is delivered at ``t + delay_ticks + U{0..jitter}``.
    The default 0 reproduces the paper's instantaneous exchanges.

    Execution engine (see DESIGN.md, "Flat-state execution engine"):

    * ``engine`` — "flat" (the default) stores all node models in one
      contiguous ``(n_nodes, dim)`` arena and vectorizes aggregation;
      "dict" keeps the legacy per-key dict-``State`` hot path.
      Semantic note: the flat engine runs *phased* ticks (all sends of
      a tick become visible only after every wake of that tick), which
      makes serial and parallel execution bit-identical; the dict
      engine interleaves delivery with the wake loop. The two engines
      are statistically equivalent but not bitwise comparable.
    * ``executor`` — "serial", "process", "batched" or "sharded"; the
      flat engine can run the local updates of independently waking
      nodes in a process pool, train them in lockstep as one
      ``(B, dim)`` block ("batched" — DP-SGD and models without a
      batched backward fall back per row), or partition arena rows
      across long-lived shard workers that each run the batched
      kernels over a zero-copy shared-memory arena ("sharded").
      Ignored by the dict engine.
    * ``n_workers`` — process-pool size (0 = one per CPU, capped).
    * ``n_shards`` — shard-worker count for the sharded executor
      (0 = one per CPU, capped; always clamped to ``n_nodes``).
    * ``shard_partition`` — how arena rows map to shards:
      "contiguous" row ranges, or "balanced" greedy assignment by
      per-node sample count (equalizes shard compute when splits are
      uneven).
    * ``train_batch`` — rows per blocked training op for the batched
      executor (and for each shard of the sharded one): 0 = one block
      per same-size group of a tick's wake tasks, N > 0 = blocks of at
      most N rows (bounds peak activation memory for conv models),
      -1 = force the per-row path. Ignored by the other executors.
    * ``arena_dtype`` — storage dtype of the flat arena; evaluation
      *and* batched-executor training math stay in this dtype (no
      float64 promotion).
    """

    n_nodes: int = 16
    view_size: int = 2
    dynamic: bool = False
    sampler: str | None = None
    ticks_per_round: int = 100
    wake_mu: float = 100.0
    wake_sigma: float = 10.0
    drop_prob: float = 0.0
    failure_prob: float = 0.0
    delay_ticks: int = 0
    delay_jitter: int = 0
    engine: str = "flat"
    executor: str = "serial"
    n_workers: int = 0
    n_shards: int = 0
    shard_partition: str = "contiguous"
    train_batch: int = 0
    arena_dtype: str = "float64"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes")
        if not 0 < self.view_size < self.n_nodes:
            raise ValueError("view_size must be in (0, n_nodes)")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in [0, 1)")
        if self.delay_ticks < 0 or self.delay_jitter < 0:
            raise ValueError("delays must be non-negative")
        if self.engine not in ("dict", "flat"):
            raise ValueError("engine must be 'dict' or 'flat'")
        if self.executor not in ("serial", "process", "batched", "sharded"):
            raise ValueError(
                "executor must be 'serial', 'process', 'batched' "
                "or 'sharded'"
            )
        if self.n_workers < 0:
            raise ValueError("n_workers must be non-negative")
        if self.n_shards < 0:
            raise ValueError("n_shards must be non-negative")
        if self.shard_partition not in ("contiguous", "balanced"):
            raise ValueError(
                "shard_partition must be 'contiguous' or 'balanced'"
            )
        if self.train_batch < -1:
            raise ValueError("train_batch must be >= -1")
        if self.arena_dtype not in ("float32", "float64"):
            raise ValueError("arena_dtype must be 'float32' or 'float64'")

    @property
    def sampler_name(self) -> str:
        if self.sampler is not None:
            return self.sampler
        return "peerswap" if self.dynamic else "static"


class GossipSimulator:
    """Owns nodes, topology, clock and message log for one run."""

    def __init__(
        self,
        config: SimulatorConfig,
        protocol: GossipProtocol,
        splits: list[NodeSplit],
        initial_state: State,
        keep_payloads: bool = False,
    ):
        if len(splits) != config.n_nodes:
            raise ValueError(
                f"got {len(splits)} data splits for {config.n_nodes} nodes"
            )
        self.config = config
        self.protocol = protocol
        self.rng = np.random.default_rng(config.seed)
        self.sampler: PeerSampler = make_sampler_by_name(
            config.sampler_name, config.n_nodes, config.view_size, self.rng
        )
        self.messages_dropped = 0
        self.wakes_skipped = 0
        self.messages_undelivered = 0
        # In-flight messages as a min-heap of (deliver_tick, seq, ...);
        # the sequence number breaks ties FIFO.
        self._in_flight: list[tuple[int, int, int, int, State]] = []
        self._send_seq = 0
        self.clock = TickClock(config.ticks_per_round)
        self.schedule = WakeSchedule(
            config.n_nodes, self.rng, mu=config.wake_mu, sigma=config.wake_sigma
        )
        self.log = MessageLog(keep_payloads=keep_payloads)
        self.nodes = [
            GossipNode(
                node_id=split.node_id,
                state=self._node_initial_state(initial_state),
                split=split,
                rng=np.random.default_rng(
                    self.rng.integers(0, 2**63 - 1)
                ),
            )
            for split in splits
        ]

    def _node_initial_state(self, initial_state: State) -> State:
        """Per-node copy of the shared initial model (engine hook: the
        flat engine skips the copy — node states become arena views)."""
        return {k: v.copy() for k, v in initial_state.items()}

    # -- messaging ------------------------------------------------------

    def _transmission_delay(self, sender: int, receiver: int) -> int | None:
        """Shared channel model for both engines: validate the link,
        decide drop (None) and the delivery delay in ticks. Draw order
        (drop first, then jitter) is part of the reproducibility
        contract."""
        if receiver == sender:
            raise ValueError(f"node {sender} attempted to message itself")
        if self.config.drop_prob and self.rng.random() < self.config.drop_prob:
            self.messages_dropped += 1
            return None
        delay = self.config.delay_ticks
        if self.config.delay_jitter:
            delay += int(self.rng.integers(0, self.config.delay_jitter + 1))
        return delay

    def _send(self, sender: int, receiver: int, payload: State) -> None:
        delay = self._transmission_delay(sender, receiver)
        if delay is None:
            return
        self.log.record(
            ModelMessage(
                sender=sender,
                receiver=receiver,
                tick=self.clock.tick,
                payload=payload,
            )
        )
        if delay == 0:
            self.protocol.on_receive(self.nodes[receiver], payload)
        else:
            # Copy-on-enqueue: the sender may keep training and mutate
            # its state while the message is in flight; the network must
            # deliver the bytes that were sent, not the sender's future.
            frozen = {name: arr.copy() for name, arr in payload.items()}
            heapq.heappush(
                self._in_flight,
                (self.clock.tick + delay, self._send_seq, sender, receiver, frozen),
            )
            self._send_seq += 1

    def _deliver_due(self) -> None:
        """Deliver every in-flight message whose time has come."""
        while self._in_flight and self._in_flight[0][0] <= self.clock.tick:
            _, _, _, receiver, payload = heapq.heappop(self._in_flight)
            self.protocol.on_receive(self.nodes[receiver], payload)

    @property
    def messages_in_flight(self) -> int:
        return len(self._in_flight)

    # -- main loop ------------------------------------------------------

    def run_tick(self) -> None:
        """Process one tick: deliver due messages, wake nodes in random
        order, then advance the clock."""
        self._deliver_due()
        waking = self.schedule.waking_nodes(self.clock.tick)
        if waking:
            self.rng.shuffle(waking)
            for node_id in waking:
                node_id = int(node_id)
                if (
                    self.config.failure_prob
                    and self.rng.random() < self.config.failure_prob
                ):
                    self.wakes_skipped += 1
                    continue
                # PeerSwap happens "before doing anything else" (S2.4).
                self.sampler.on_wake(node_id)
                self.protocol.on_wake(
                    self.nodes[node_id],
                    self.sampler.view(node_id),
                    self._send,
                )
        self.clock.advance()

    def run_round(self) -> None:
        """Advance exactly one communication round."""
        target = self.clock.tick + self.config.ticks_per_round
        while self.clock.tick < target:
            self.run_tick()

    def run(self, rounds: int, round_callback: RoundCallback | None = None) -> None:
        """Run ``rounds`` communication rounds, invoking the callback
        (e.g. the omniscient attacker) at each round boundary.

        Messages still in flight when the horizon ends are delivered if
        due at the final tick, and the remainder is tallied in
        ``messages_undelivered`` instead of silently lingering.
        """
        for round_index in range(rounds):
            self.run_round()
            if round_callback is not None:
                round_callback(round_index, self)
        self.finish()

    def finish(self) -> None:
        """End-of-run bookkeeping: deliver messages due at the final
        tick and tally the remainder in ``messages_undelivered``. The
        streaming session API calls this once the configured horizon is
        reached; :meth:`run` calls it for the one-shot path."""
        self._flush_end_of_run()
        self.messages_undelivered = len(self._in_flight)

    def _flush_end_of_run(self) -> None:
        """Deliver messages due at the final tick (engine hook)."""
        self._deliver_due()

    def set_trainer_config(self, config) -> None:
        """Swap the shared trainer's config (validated, loss rebuilt).

        The supported way to change hyperparameters mid-run (e.g. DP
        installation); the flat engine additionally propagates the swap
        to a live executor and its workers.
        """
        self.protocol.trainer.set_config(config)

    def fallback_counts(self) -> dict[str, int]:
        """Per-reason tallies of rows that left the blocked fast path.

        The dict engine has no blocked path, so this is always empty;
        the flat engine reports its executor's counters.
        """
        return {}

    def close(self) -> None:
        """Release engine resources (idempotent). No-op for the dict
        engine; the flat engine overrides it to shut down executor
        workers and shared-memory segments."""

    def __enter__(self) -> "GossipSimulator":
        """Context-manager support: ``with make_simulator(...) as sim:``
        guarantees :meth:`close` runs — pools and shared-memory
        segments are released even when a run raises mid-round."""
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- state capture (checkpoint/resume) --------------------------------

    def _copy_payload(self, payload):
        """Deep-copy one message payload (engine hook: the dict engine
        ships dict states, the flat engine ships flat vectors)."""
        return {name: arr.copy() for name, arr in payload.items()}

    def _capture_node_model(self, node: GossipNode):
        """The node's model parameters, detached from live storage
        (engine hook: the flat engine stores models in the arena
        snapshot instead and returns None here)."""
        return {name: arr.copy() for name, arr in node.state.items()}

    def _restore_node_model(self, node: GossipNode, saved) -> None:
        if saved is not None:
            node.state = {name: arr.copy() for name, arr in saved.items()}

    def _memo_copy(self, copies: dict, payload):
        """:meth:`_copy_payload` memoized by id over one capture/restore
        pass: a payload several receivers share is copied (and pickled)
        once and stays shared. The source keeps each id alive, so unique."""
        if id(payload) not in copies:
            copies[id(payload)] = self._copy_payload(payload)
        return copies[id(payload)]

    def capture_state(self) -> dict:
        """Snapshot every piece of mutable run state.

        Together with the (deterministically rebuildable) construction
        state, the returned dict fully determines the rest of the run:
        the tick clock, the simulator RNG stream (shared with the peer
        sampler), sampler views, per-node models / inboxes / RNG
        streams / counters, the in-flight message heap, the message log
        and the drop/skip tallies. ``restore_state`` inverts it;
        engines extend both via the ``_copy_payload`` /
        ``_capture_node_model`` hooks and ``_capture/_restore_state``.
        """
        return self._capture_state(partial(self._memo_copy, {}))

    def _capture_state(self, copy: Callable) -> dict:
        trainer = self.protocol.trainer
        return {
            "tick": self.clock.tick,
            "rng": self.rng.bit_generator.state,
            "sampler": self.sampler.capture_state(),
            "send_seq": self._send_seq,
            "in_flight": [
                (tick, seq, sender, receiver, copy(payload))
                for tick, seq, sender, receiver, payload in self._in_flight
            ],
            "messages_dropped": self.messages_dropped,
            "wakes_skipped": self.wakes_skipped,
            "messages_undelivered": self.messages_undelivered,
            "log": {
                "count": self.log.count,
                "per_sender": dict(self.log.per_sender),
                "messages": list(self.log.messages),
            },
            # The dict engine's lr_decay bookkeeping lives on the shared
            # trainer (the flat engine tracks sessions itself).
            "trainer_sessions": dict(trainer._sessions),
            "trainer_steps": trainer.steps_taken,
            "nodes": [
                {
                    "model": self._capture_node_model(node),
                    "inbox": [copy(p) for p in node.inbox],
                    "rng": node.rng.bit_generator.state,
                    "updates_performed": node.updates_performed,
                    "models_received": node.models_received,
                }
                for node in self.nodes
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`capture_state` snapshot onto a freshly
        built simulator (same config). Every RNG stream is restored
        exactly, so the continued run is bit-identical to one that was
        never interrupted."""
        self._restore_state(state, partial(self._memo_copy, {}))

    def _restore_state(self, state: dict, copy: Callable) -> None:
        self.clock.tick = state["tick"]
        # The sampler shares this generator object; one restore covers
        # both draw streams.
        self.rng.bit_generator.state = state["rng"]
        self.sampler.restore_state(state["sampler"])
        self._send_seq = state["send_seq"]
        self._in_flight = [
            (tick, seq, sender, receiver, copy(payload))
            for tick, seq, sender, receiver, payload in state["in_flight"]
        ]
        heapq.heapify(self._in_flight)
        self.messages_dropped = state["messages_dropped"]
        self.wakes_skipped = state["wakes_skipped"]
        self.messages_undelivered = state["messages_undelivered"]
        self.log.count = state["log"]["count"]
        self.log.per_sender = dict(state["log"]["per_sender"])
        self.log.messages = list(state["log"]["messages"])
        trainer = self.protocol.trainer
        trainer._sessions = dict(state["trainer_sessions"])
        trainer.steps_taken = state["trainer_steps"]
        for node, saved in zip(self.nodes, state["nodes"]):
            self._restore_node_model(node, saved["model"])
            node.inbox = [copy(p) for p in saved["inbox"]]
            node.rng.bit_generator.state = saved["rng"]
            node.updates_performed = saved["updates_performed"]
            node.models_received = saved["models_received"]

    # -- introspection ----------------------------------------------------

    def states(self) -> list[State]:
        """Snapshot of every node's current model (attacker's view)."""
        return [node.snapshot() for node in self.nodes]

    def state_matrix(self, layout=None) -> np.ndarray:
        """All node models as one ``(n_nodes, dim)`` float matrix.

        The row-batch evaluation path reads node models through this
        hook. The base implementation packs each dict ``State`` through
        a :class:`~repro.nn.flat.StateLayout` (built from node 0 when
        not supplied); the flat engine overrides it to return its arena
        zero-copy. Treat the result as read-only — under the flat
        engine it IS the live arena.
        """
        from repro.nn.flat import StateLayout

        if layout is None:
            layout = StateLayout.from_state(self.nodes[0].state)
        # Pack in the states' own dtype so float32 models are evaluated
        # in float32 here too, matching the flat engine's arena dtype.
        dtype = np.result_type(*(slot.dtype for slot in layout.slots))
        out = np.empty((self.config.n_nodes, layout.dim), dtype=dtype)
        for node in self.nodes:
            layout.pack(node.state, out=out[node.node_id])
        return out

    @property
    def messages_sent(self) -> int:
        return self.log.count
