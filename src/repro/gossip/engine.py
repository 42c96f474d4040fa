"""The gossip simulator: both protocols over one flat-state arena.

Every node's model is one row of a contiguous ``(n_nodes, dim)``
:class:`StateArena` (layout computed once by
:class:`~repro.nn.flat.StateLayout`), so gossip aggregation is a
vectorized numpy op over rows, and the per-tick local updates of
independently waking nodes go to an :class:`Executor`, in process:
:class:`BatchedExecutor` trains one row per call or stacked ``(B,
dim)`` blocks with the one blocked kernel,
:meth:`~repro.gossip.trainer.BatchedTrainer.train_block`.

:class:`FlatGossipSimulator` drives the tick clock, the peer-sampling
service and the channel model, and implements the two protocols of
:mod:`repro.gossip.protocols` directly over arena rows. Tick semantics
are deliberately executor-order independent, so every executor is
bit-identical to serial: within one tick, first due delayed messages
are delivered, then every surviving wake merges / trains / sends, and
sends become visible to receivers only after all wakes of the tick
have been processed.

Models exist only as arena rows: the observer and attacks read them
through :meth:`FlatGossipSimulator.state_matrix` (scored as row blocks
by :class:`~repro.metrics.evaluation.BatchedEvaluator`), messages carry
read-only flat copies, and checkpoints pickle the arena itself.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from repro.data.partition import NodeSplit
from repro.gossip.clock import TickClock, WakeSchedule
from repro.gossip.messages import MessageLog, ModelMessage
from repro.gossip.node import GossipNode
from repro.gossip.protocols import (
    BaseGossipProtocol,
    GossipProtocol,
    SAMOProtocol,
)
from repro.gossip.simulator import SimulatorConfig
from repro.gossip.trainer import BatchedTrainer, TrainerConfig
from repro.graph.peer_sampling import PeerSampler, make_sampler_by_name
from repro.nn.flat import StateLayout
from repro.nn.serialize import State
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "StateArena",
    "UpdateTask",
    "Executor",
    "BatchedExecutor",
    "FlatGossipSimulator",
]

# round_callback(round_index, simulator) -> None
RoundCallback = Callable[[int, "FlatGossipSimulator"], None]


class StateArena:
    """All node models as rows of one contiguous ``(n_nodes, dim)`` array.

    Layout contract: row ``i`` is node ``i``'s model flattened by the
    arena's :class:`~repro.nn.flat.StateLayout` (sorted-name slot
    order). Dtype contract: ``data`` is stored and aggregated in
    ``dtype`` (float32 or float64); dict states packed in are cast to
    it. :meth:`merge_row` mutates a row in place; :meth:`mix` reads all
    rows at once.
    """

    def __init__(
        self,
        layout: StateLayout,
        n_nodes: int,
        dtype: np.dtype | str = np.float64,
    ):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.layout = layout
        self.dtype = np.dtype(dtype)
        self.data = np.zeros((n_nodes, layout.dim), dtype=self.dtype)

    @property
    def n_nodes(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def row(self, node_id: int) -> np.ndarray:
        """The node's flat model vector (a live view, not a copy)."""
        return self.data[node_id]

    def load_state(self, node_id: int, state: State) -> None:
        """Pack a dict state into the node's row (casting to the arena dtype)."""
        self.layout.pack(state, out=self.data[node_id])

    def merge_row(self, node_id: int, payload: np.ndarray, weight: float) -> None:
        """Pairwise merge ``row <- (1-weight)*row + weight*payload`` in place."""
        row = self.data[node_id]
        row *= 1.0 - weight
        row += weight * np.asarray(payload, dtype=self.dtype)

    def mix(self, weights: np.ndarray) -> np.ndarray:
        """All nodes' aggregations as ONE op: ``weights @ data``.

        ``weights`` is an ``(n_nodes, n_nodes)`` mixing matrix (row i =
        the weights node i gives every model, zeros for non-neighbors);
        one BLAS call covers every node's average.
        """
        w = np.asarray(weights, dtype=self.dtype)
        if w.shape != (self.n_nodes, self.n_nodes):
            raise ValueError(
                f"weights must be ({self.n_nodes}, {self.n_nodes}), got {w.shape}"
            )
        return w @ self.data


def mean_vectors(
    vectors: Sequence[np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Uniform average accumulated in place: ``out = 0.0 + vectors[0]``
    (``out`` may alias ``vectors[0]``; None allocates), add the rest in
    order, divide by the count. That is exactly the sequential sum of
    ``np.stack(vectors).mean(axis=0)``, so it is bit identical in
    float32 and float64 without the ``(k, dim)`` stack."""
    if not vectors:
        raise ValueError("cannot average zero vectors")
    out = np.add(vectors[0], 0.0, out=out)
    for vector in vectors[1:]:
        out += vector
    out /= len(vectors)
    return out


@dataclass(frozen=True)
class UpdateTask:
    """One node's local update.

    ``session`` is the node's lr_decay session index and MUST be
    tracked by the engine (``FlatGossipSimulator._sessions``), never
    inferred from ``node_id`` inside a trainer: per-trainer bookkeeping
    diverges the moment two trainers see different subsets of a node's
    updates.
    """

    node_id: int
    vector: np.ndarray
    rng: np.random.Generator
    session: int

    def __post_init__(self) -> None:
        if self.session is None:
            raise ValueError(
                "UpdateTask.session must be an explicit session index; "
                "per-trainer node_id inference is not reproducible "
                "across executors"
            )


class Executor:
    """Runs a batch of independent local updates, preserving order.

    ``close`` must be idempotent on every backend. Every task's
    ``vector`` is the node's live arena row: executors train it in place
    and return ``(task.vector, generator)`` per task, so the engine
    makes no per-task copy and writes nothing back.

    ``fallback_counts`` is always empty: every row trains on the
    blocked kernel. It stays because run metadata and the service
    status report it.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.fallback_counts: Counter[str] = Counter()

    def train_batch(
        self, tasks: list[UpdateTask]
    ) -> list[tuple[np.ndarray, np.random.Generator]]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class BatchedExecutor(Executor):
    """In-process training of a tick's wake tasks on the blocked kernel.

    Groups tasks by local-sample count (lockstep mini-batch geometry)
    and trains each group with
    :meth:`~repro.gossip.trainer.BatchedTrainer.train_block`.
    ``train_batch`` caps the rows per call: 0 = one block per group,
    N > 0 = chunks of N. ``train_batch=1`` is what ``executor="serial"``
    runs: each row trains as the live arena view itself, with no stack
    and no scatter. Larger blocks are stacked, trained, then scattered
    back. A row's result does not depend on its block, so every
    ``train_batch`` gives the same bits on float64 arenas (and agrees
    within rounding on float32, where training stays in float32).
    """

    name = "batched"

    def __init__(
        self,
        trainer: BatchedTrainer,
        splits: Sequence[NodeSplit],
        train_batch: int = 0,
    ):
        super().__init__()
        if train_batch < 0:
            raise ValueError("train_batch must be >= 0")
        self.trainer = trainer
        # (train_x, train_y) by node id.
        self.splits = [(s.train.x, s.train.y) for s in splits]
        self.block_size = train_batch

    def train_batch(
        self, tasks: list[UpdateTask]
    ) -> list[tuple[np.ndarray, np.random.Generator]]:
        groups: dict[int, list[UpdateTask]] = {}
        for task in tasks:
            n = self.splits[task.node_id][0].shape[0]
            groups.setdefault(n, []).append(task)
        for group in groups.values():
            step = self.block_size or len(group)
            for start in range(0, len(group), step):
                chunk = group[start : start + step]
                vectors = [task.vector for task in chunk]
                block = vectors[0][None] if len(chunk) == 1 else np.stack(vectors)
                self.trainer.train_block(
                    block,
                    [self.splits[task.node_id][0] for task in chunk],
                    [self.splits[task.node_id][1] for task in chunk],
                    [task.rng for task in chunk],
                    [task.session for task in chunk],
                    node_ids=[task.node_id for task in chunk],
                )
                if len(chunk) > 1:
                    for vector, trained in zip(vectors, block):
                        vector[...] = trained
        return [(task.vector, task.rng) for task in tasks]


class FlatGossipSimulator:
    """Owns nodes, topology, clock, channel and message log for one run.

    Implements the SAMO and Base Gossip semantics directly over arena
    rows (the protocol object supplies hyperparameters, the trainer and
    the update cap). Within a tick, execution is phased — deliver,
    wake/merge, batch-train, send — so the executor backend cannot
    change results.

    Dtype contract: all gossip aggregation, local training and
    evaluation reads run in ``config.arena_dtype``.
    :meth:`state_matrix` exposes the arena zero-copy and read-only to
    the row-batch evaluation path
    (:class:`~repro.metrics.evaluation.BatchedEvaluator`), which is how
    the observer and attacks read models.

    Use it as a context manager (``with FlatGossipSimulator(...) as
    sim:``) so :meth:`close` releases the executor even when a run
    raises mid-round.
    """

    def __init__(
        self,
        config: SimulatorConfig,
        protocol: GossipProtocol,
        splits: list[NodeSplit],
        initial_state: State,
        keep_payloads: bool = False,
        telemetry: Telemetry | None = None,
    ):
        if len(splits) != config.n_nodes:
            raise ValueError(
                f"got {len(splits)} data splits for {config.n_nodes} nodes"
            )
        if isinstance(protocol, SAMOProtocol):
            self._mode = "samo"
            self._merge_weight = 0.5
        elif isinstance(protocol, BaseGossipProtocol):
            self._mode = "base"
            self._merge_weight = protocol.merge_weight
        else:
            raise ValueError(
                f"flat engine does not support protocol {protocol.name!r}"
            )
        self.config = config
        self.protocol = protocol
        # Draw order is part of the reproducibility contract: the
        # sampler, then the wake schedule, then one seed per node.
        self.rng = np.random.default_rng(config.seed)
        self.sampler: PeerSampler = make_sampler_by_name(
            config.sampler_name, config.n_nodes, config.view_size, self.rng
        )
        self.messages_dropped = 0
        self.wakes_skipped = 0
        self.messages_undelivered = 0
        # In-flight messages as a min-heap of (deliver_tick, seq, ...);
        # the sequence number breaks ties FIFO.
        self._in_flight: list[tuple[int, int, int, int, np.ndarray]] = []
        self._send_seq = 0
        self.clock = TickClock(config.ticks_per_round)
        self.schedule = WakeSchedule(
            config.n_nodes, self.rng, mu=config.wake_mu, sigma=config.wake_sigma
        )
        self.log = MessageLog(keep_payloads=keep_payloads)
        self.layout = StateLayout.from_state(initial_state)
        self.arena = StateArena(
            self.layout, config.n_nodes, dtype=config.arena_dtype
        )
        # Pack the shared initial model once and broadcast it into all
        # rows.
        self.arena.data[:] = self.layout.pack(
            initial_state, dtype=self.arena.dtype
        )
        self.nodes = [
            GossipNode(
                node_id=split.node_id,
                split=split,
                rng=np.random.default_rng(
                    self.rng.integers(0, 2**63 - 1)
                ),
            )
            for split in splits
        ]
        self._sessions = [0] * config.n_nodes
        # Messages sent this tick, visible to receivers once the tick's
        # wakes are all processed: (sender, receiver, vector).
        self._pending: list[tuple[int, int, np.ndarray]] = []
        # Built on first use; it trains with the protocol's trainer, so
        # a late config swap (DP installation) reaches it.
        self._executor: Executor | None = None
        # Telemetry: phase timings accumulate in flat floats per tick
        # and flush to histograms once per round (in run_round),
        # so the enabled hot path adds a few perf_counter calls and the
        # disabled one a single `is None` branch per phase. Timing uses
        # the wall clock only — no RNG is ever touched, which keeps
        # fixed-seed results bit-identical with telemetry on.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = self.telemetry if self.telemetry.enabled else None
        if self._tel is not None:
            reg = self.telemetry.registry
            phase_hist = reg.histogram(
                "repro_engine_phase_ms",
                "Per-round wall-clock of each round-loop phase",
                labels=("phase",),
            )
            self._phase_acc = {
                "deliver": 0.0, "wake": 0.0, "train": 0.0, "aggregate": 0.0
            }
            self._phase_series = {
                phase: phase_hist.child(phase=phase) for phase in self._phase_acc
            }
            # Bound on the first train_batch, so a run that trains
            # nothing exports no executor series.
            self._batch_ms = None
            self._tasks_total = None

    # -- executor -----------------------------------------------------

    def executor(self) -> Executor:
        """The executor of ``config.executor``, built on first use.

        ``"serial"`` is the in-process :class:`BatchedExecutor` at one
        row per call, and ``"batched"`` stacks up to ``train_batch``
        rows. Both train with the protocol's blocked trainer.
        """
        if self._executor is None:
            self._executor = BatchedExecutor(
                self.protocol.trainer,
                [node.split for node in self.nodes],
                train_batch=(
                    self.config.train_batch
                    if self.config.executor == "batched"
                    else 1
                ),
            )
        return self._executor

    def set_trainer_config(self, config: TrainerConfig) -> None:
        """Swap the trainer config (e.g. DP installation).

        The protocol's trainer revalidates the swap. Every executor
        trains with that trainer, so a live executor follows.
        """
        self.protocol.trainer.set_config(config)

    def fallback_counts(self) -> dict[str, int]:
        """Always empty: every row trains on the blocked kernel. Kept
        for the run metadata and service status that report it."""
        if self._executor is None:
            return {}
        return dict(self._executor.fallback_counts)

    def close(self) -> None:
        """Release the executor. Idempotent; arena data stays readable
        afterwards."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "FlatGossipSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- state capture (checkpoint/resume) ----------------------------

    def _copy_payload(self, payload):
        """A read-only flat vector: also the snapshot one wake sends."""
        payload = np.array(payload)
        payload.flags.writeable = False
        return payload

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
        sampler), sampler views, the arena rows, per-node inboxes / RNG
        streams / counters / lr_decay sessions, the in-flight heap and
        this tick's pending messages, the message log and the drop/skip
        tallies. :meth:`restore_state` inverts it.
        """
        copy = partial(self._memo_copy, {})
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
            "nodes": [
                {
                    "inbox": [copy(p) for p in node.inbox],
                    "rng": node.rng.bit_generator.state,
                    "updates_performed": node.updates_performed,
                    "models_received": node.models_received,
                }
                for node in self.nodes
            ],
            "arena": self.arena.data.copy(),
            "sessions": list(self._sessions),
            "pending": [
                (sender, receiver, copy(payload))
                for sender, receiver, payload in self._pending
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`capture_state` snapshot onto a freshly
        built simulator (same config). Every RNG stream is restored
        exactly, so the continued run is bit-identical to one that was
        never interrupted. Keys that snapshots written by older builds
        carry and this engine no longer reads (per-node ``model``,
        ``trainer_sessions``, ``trainer_steps``) are ignored."""
        copy = partial(self._memo_copy, {})
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
        for node, saved in zip(self.nodes, state["nodes"]):
            node.inbox = [copy(p) for p in saved["inbox"]]
            node.rng.bit_generator.state = saved["rng"]
            node.updates_performed = saved["updates_performed"]
            node.models_received = saved["models_received"]
        self.arena.data[...] = state["arena"]
        self._sessions = list(state["sessions"])
        self._pending = [
            (sender, receiver, copy(payload))
            for sender, receiver, payload in state["pending"]
        ]

    # -- introspection ------------------------------------------------

    @property
    def messages_sent(self) -> int:
        return self.log.count

    @property
    def messages_in_flight(self) -> int:
        return len(self._in_flight)

    def state_matrix(self, layout=None) -> np.ndarray:
        """The live arena, zero-copy (read-only by contract).

        Rows are in ``arena_dtype`` and follow the arena layout; a
        ``layout`` argument that addresses slots differently (names,
        offsets or shapes) is rejected rather than silently re-packed.
        """
        if layout is not None and not layout.compatible_with(self.layout):
            raise ValueError(
                f"layout does not match the arena layout "
                f"({layout!r} vs {self.layout!r})"
            )
        # A non-writable view enforces the read-only contract at zero
        # copy cost — an in-place op on it raises instead of silently
        # corrupting every node's model.
        view = self.arena.data.view()
        view.flags.writeable = False
        return view

    # -- messaging ----------------------------------------------------

    def _transmission_delay(self, sender: int, receiver: int) -> int | None:
        """The channel model: validate the link, decide drop (None) and
        the delivery delay in ticks. Draw order (drop first, then
        jitter) is part of the reproducibility contract."""
        if receiver == sender:
            raise ValueError(f"node {sender} attempted to message itself")
        if self.config.drop_prob and self.rng.random() < self.config.drop_prob:
            self.messages_dropped += 1
            return None
        delay = self.config.delay_ticks
        if self.config.delay_jitter:
            delay += int(self.rng.integers(0, self.config.delay_jitter + 1))
        return delay

    def _send_vector(self, sender: int, receiver: int, payload: np.ndarray) -> None:
        """Enqueue a wake's read-only snapshot as is: every receiver, the
        in-flight heap and the log share the one array."""
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
            self._pending.append((sender, receiver, payload))
        else:
            heapq.heappush(
                self._in_flight,
                (self.clock.tick + delay, self._send_seq, sender, receiver, payload),
            )
            self._send_seq += 1

    def _deliver_due(self) -> None:
        while self._in_flight and self._in_flight[0][0] <= self.clock.tick:
            _, _, sender, receiver, payload = heapq.heappop(self._in_flight)
            self._pending.append((sender, receiver, payload))

    def _process_pending(self) -> None:
        """Hand delivered messages to the protocol semantics."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        if self._mode == "samo":
            # Algorithm 2 buffers on receive; merging happens on wake.
            for _, receiver, payload in pending:
                node = self.nodes[receiver]
                node.inbox.append(payload)
                node.models_received += 1
            return
        # Algorithm 1 merges pairwise and trains per reception. Batch
        # in waves of distinct receivers so a node receiving twice in
        # one flush still processes its messages sequentially.
        while pending:
            wave: list[tuple[int, int, np.ndarray]] = []
            rest: list[tuple[int, int, np.ndarray]] = []
            seen: set[int] = set()
            for item in pending:
                if item[1] in seen:
                    rest.append(item)
                else:
                    seen.add(item[1])
                    wave.append(item)
            tel = self._tel
            start = perf_counter() if tel is not None else 0.0
            for _, receiver, payload in wave:
                node = self.nodes[receiver]
                node.models_received += 1
                self.arena.merge_row(receiver, payload, self._merge_weight)
            if tel is not None:
                self._phase_acc["aggregate"] += (perf_counter() - start) * 1000.0
            self._train_nodes([receiver for _, receiver, _ in wave])
            pending = rest

    # -- training -----------------------------------------------------

    def _train_nodes(self, node_ids: list[int]) -> None:
        """Run the local updates of independent nodes as one batch."""
        if not node_ids:
            return
        executor = self.executor()
        cap = self.protocol.max_updates_per_node
        tasks: list[UpdateTask] = []
        for node_id in node_ids:
            node = self.nodes[node_id]
            if cap is not None and node.updates_performed >= cap:
                continue
            node.updates_performed += 1
            if node.train_x.shape[0] == 0:
                continue  # the trainer no-ops; the session must not advance
            session = self._sessions[node_id]
            self._sessions[node_id] += 1
            # Executors train the live row and advance the node's own
            # generator in place.
            tasks.append(
                UpdateTask(node_id, self.arena.row(node_id), node.rng, session)
            )
        if not tasks:
            return
        if self._tel is None:
            executor.train_batch(tasks)
        else:
            start = perf_counter()
            executor.train_batch(tasks)
            self._record_train_batch(
                len(tasks), (perf_counter() - start) * 1000.0
            )

    # -- telemetry ----------------------------------------------------

    def _record_train_batch(self, n_tasks: int, elapsed_ms: float) -> None:
        """Fold one train_batch call into the telemetry accumulators."""
        self._phase_acc["train"] += elapsed_ms
        if self._batch_ms is None:
            reg = self.telemetry.registry
            # Labelled by the config value: "serial" and "batched" run
            # the same executor class at different block sizes.
            self._batch_ms = reg.histogram(
                "repro_executor_batch_ms",
                "Wall-clock of one executor train_batch call",
                labels=("executor",),
            ).child(executor=self.config.executor)
            self._tasks_total = reg.counter(
                "repro_executor_tasks_total",
                "Local-update tasks dispatched, by executor",
                labels=("executor",),
            ).child(executor=self.config.executor)
        self._batch_ms.observe(elapsed_ms)
        self._tasks_total.inc(n_tasks)

    # -- main loop ----------------------------------------------------

    def run_round(self) -> None:
        """Advance exactly one communication round."""
        target = self.clock.tick + self.config.ticks_per_round
        while self.clock.tick < target:
            self.run_tick()
        if self._tel is not None:
            # Flush the per-tick accumulators once per round: histogram
            # samples are per-round phase totals (mmb-style batched
            # counter flushes), not per-tick noise.
            for phase, series in self._phase_series.items():
                series.observe(self._phase_acc[phase])
                self._phase_acc[phase] = 0.0

    def run(self, rounds: int, round_callback: RoundCallback | None = None) -> None:
        """Run ``rounds`` communication rounds, invoking the callback
        (e.g. the omniscient attacker) at each round boundary, then
        :meth:`finish`."""
        for round_index in range(rounds):
            self.run_round()
            if round_callback is not None:
                round_callback(round_index, self)
        self.finish()

    def finish(self) -> None:
        """End-of-run bookkeeping: deliver and process messages due at
        the final tick, and tally the remainder in
        ``messages_undelivered`` instead of letting it linger silently.
        The streaming session API calls this once the configured horizon
        is reached; :meth:`run` calls it for the one-shot path."""
        self._deliver_due()
        self._process_pending()
        self.messages_undelivered = len(self._in_flight)

    def run_tick(self) -> None:
        """Phased tick: deliver, wake (merge / batch-train / send),
        publish this tick's sends, advance the clock."""
        tel = self._tel
        start = perf_counter() if tel is not None else 0.0
        self._deliver_due()
        self._process_pending()
        if tel is not None:
            self._phase_acc["deliver"] += (perf_counter() - start) * 1000.0
        waking = self.schedule.waking_nodes(self.clock.tick)
        if waking:
            start = perf_counter() if tel is not None else 0.0
            self.rng.shuffle(waking)
            alive: list[int] = []
            for node_id in waking:
                node_id = int(node_id)
                if (
                    self.config.failure_prob
                    and self.rng.random() < self.config.failure_prob
                ):
                    self.wakes_skipped += 1
                    continue
                self.sampler.on_wake(node_id)
                alive.append(node_id)
            if self._mode == "samo":
                self._samo_wakes(alive)
            else:
                self._base_wakes(alive)
            self._process_pending()
            if tel is not None:
                self._phase_acc["wake"] += (perf_counter() - start) * 1000.0
        self.clock.advance()

    def _samo_wakes(self, alive: list[int]) -> None:
        """Algorithm 2: merge-once, train (batched), push to all."""
        tel = self._tel
        start = perf_counter() if tel is not None else 0.0
        train_ids: list[int] = []
        for node_id in alive:
            node = self.nodes[node_id]
            if node.inbox:
                inbox, node.inbox = node.inbox, []
                row = self.arena.row(node_id)
                mean_vectors([row] + inbox, out=row)
                train_ids.append(node_id)
        if tel is not None:
            self._phase_acc["aggregate"] += (perf_counter() - start) * 1000.0
        self._train_nodes(train_ids)
        for node_id in alive:
            view = sorted(self.sampler.view(node_id))
            if view:
                payload = self._copy_payload(self.arena.row(node_id))
                for neighbor in view:
                    self._send_vector(node_id, neighbor, payload)

    def _base_wakes(self, alive: list[int]) -> None:
        """Algorithm 1: push to one random neighbor."""
        for node_id in alive:
            node = self.nodes[node_id]
            view = self.sampler.view(node_id)
            if not view:
                continue
            neighbor = int(node.rng.choice(sorted(view)))
            payload = self._copy_payload(self.arena.row(node_id))
            self._send_vector(node_id, neighbor, payload)
