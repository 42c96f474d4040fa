"""The gossip simulator: both protocols over one flat-state arena.

Every node's model is one row of a contiguous ``(n_nodes, dim)``
:class:`StateArena` (layout computed once by
:class:`~repro.nn.flat.StateLayout`), so gossip aggregation is a
vectorized numpy op over rows, and the per-tick local updates of
independently waking nodes go to an :class:`Executor` — serial, blocked
over one ``(B, dim)`` block (:class:`BatchedExecutor`), or sharded
across worker processes (:mod:`repro.gossip.shard`).

:class:`FlatGossipSimulator` drives the tick clock, the peer-sampling
service and the channel model, and implements the two protocols of
:mod:`repro.gossip.protocols` directly over arena rows. Tick semantics
are deliberately executor-order independent, so every executor is
bit-identical to serial: within one tick, first due delayed messages
are delivered, then every surviving wake merges / trains / sends, and
sends become visible to receivers only after all wakes of the tick
have been processed.

``GossipNode.state`` is a live dict *view* over the node's arena row,
so attacks, metrics and ``states()`` snapshots read dict states on top
of the flat representation.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Mapping, Sequence

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
from repro.gossip.trainer import BatchedTrainer, LocalTrainer, TrainerConfig
from repro.graph.peer_sampling import PeerSampler, make_sampler_by_name
from repro.nn.batched import supports_batched_backward
from repro.nn.flat import SharedArena, StateLayout
from repro.nn.layers import Module
from repro.nn.serialize import State, normalize_weights
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "StateArena",
    "UpdateTask",
    "Executor",
    "SerialExecutor",
    "BatchedExecutor",
    "FlatGossipSimulator",
    "fallback_reason",
]

# round_callback(round_index, simulator) -> None
RoundCallback = Callable[[int, "FlatGossipSimulator"], None]


class StateArena:
    """All node models as rows of one contiguous ``(n_nodes, dim)`` array.

    Layout contract: row ``i`` is node ``i``'s model flattened by the
    arena's :class:`~repro.nn.flat.StateLayout` (sorted-name slot
    order, interchangeable with ``state_to_vector``). Dtype contract:
    ``data`` is stored and aggregated in ``dtype`` (float32 or
    float64); dict states packed in are cast to it, and views unpacked
    out carry it. Aggregation primitives (:meth:`average_rows`,
    :meth:`merge_row`, :meth:`mix`) mutate or read rows in place —
    dict-``State`` views over rows stay live across all of them.

    ``shared=True`` places ``data`` in a :class:`~repro.nn.flat.SharedArena`
    (a named shared-memory segment) so shard worker processes can attach
    to the same rows by name; :meth:`release` detaches, keeping a
    private copy readable. Callers holding row views across a release
    must rebuild them (the flat simulator rebinds its node views).
    """

    def __init__(
        self,
        layout: StateLayout,
        n_nodes: int,
        dtype: np.dtype | str = np.float64,
        shared: bool = False,
    ):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.layout = layout
        self.dtype = np.dtype(dtype)
        self._shared: SharedArena | None = None
        if shared:
            self._shared = SharedArena(n_nodes, layout.dim, dtype=self.dtype)
            self.data = self._shared.data
        else:
            self.data = np.zeros((n_nodes, layout.dim), dtype=self.dtype)

    @property
    def shared_name(self) -> str | None:
        """Segment name for worker attachment; None on private arenas."""
        return self._shared.name if self._shared is not None else None

    def release(self) -> None:
        """Detach from the shared segment, keeping a private copy.

        Idempotent; a no-op for private arenas. ``data`` stays readable
        (and writable) afterwards, but existing row views still address
        the dead segment — rebuild them.
        """
        if self._shared is None:
            return
        shared, self._shared = self._shared, None
        self.data = np.array(shared.data)
        shared.close()

    @property
    def n_nodes(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def row(self, node_id: int) -> np.ndarray:
        """The node's flat model vector (a live view, not a copy)."""
        return self.data[node_id]

    def state_view(self, node_id: int) -> State:
        """Dict-``State`` view over the node's row (compat layer)."""
        return self.layout.unpack(self.data[node_id])

    def load_state(self, node_id: int, state: State) -> None:
        """Pack a dict state into the node's row (casting to the arena dtype)."""
        self.layout.pack(state, out=self.data[node_id])

    def average_rows(
        self, node_ids: Sequence[int], weights: Sequence[float] | None = None
    ) -> np.ndarray:
        """Weighted average of the selected rows as one vectorized op."""
        block = self.data[np.asarray(node_ids, dtype=np.intp)]
        if weights is None:
            return block.mean(axis=0)
        w = np.asarray(normalize_weights(list(weights)), dtype=self.dtype)
        return w @ block

    def merge_row(self, node_id: int, payload: np.ndarray, weight: float) -> None:
        """Pairwise merge ``row <- (1-weight)*row + weight*payload`` in place."""
        row = self.data[node_id]
        row *= 1.0 - weight
        row += weight * np.asarray(payload, dtype=self.dtype)

    def mix(self, weights: np.ndarray) -> np.ndarray:
        """All nodes' aggregations as ONE op: ``weights @ data``.

        ``weights`` is an ``(n_nodes, n_nodes)`` mixing matrix (row i =
        the weights node i gives every model, zeros for non-neighbors);
        one BLAS call replaces n_nodes dict-``State`` averages.
        """
        w = np.asarray(weights, dtype=self.dtype)
        if w.shape != (self.n_nodes, self.n_nodes):
            raise ValueError(
                f"weights must be ({self.n_nodes}, {self.n_nodes}), got {w.shape}"
            )
        return w @ self.data

    def apply_mix(self, weights: np.ndarray) -> None:
        """In-place :meth:`mix`; existing state views remain live."""
        self.data[...] = self.mix(weights)


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
    """One node's local update, shippable to a worker process.

    ``session`` is the node's lr_decay session index and MUST be
    tracked by the engine (``FlatGossipSimulator._sessions``), never
    inferred from ``node_id`` inside a trainer: per-trainer bookkeeping
    diverges the moment two executors (shard workers, the batched
    trainer, the serial workspace) see different subsets of a node's
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


# Node-id -> (train_x, train_y); executors index it by task.node_id.
SplitArrays = Mapping[int, tuple[np.ndarray, np.ndarray]]


def as_split_arrays(
    splits: Sequence[NodeSplit] | SplitArrays,
) -> SplitArrays | list[tuple[np.ndarray, np.ndarray]]:
    """Training arrays addressable by node id.

    Accepts either the engine's full ``NodeSplit`` list (node id ==
    position) or a prebuilt mapping holding only some nodes' arrays —
    shard workers ship just their own slice of the data.
    """
    if isinstance(splits, Mapping):
        return splits
    return [(s.train.x, s.train.y) for s in splits]


def _train_task(
    trainer: LocalTrainer,
    layout: StateLayout,
    splits: SplitArrays,
    task: UpdateTask,
) -> tuple[np.ndarray, np.random.Generator]:
    """Run one local update on a workspace trainer, packing the result
    back into ``task.vector`` in place; shared by executors."""
    x, y = splits[task.node_id]
    # node_id keys the dropout mask streams; the session index comes
    # from the engine's per-node bookkeeping.
    new_state = trainer.train(
        layout.unpack(task.vector), x, y, task.rng,
        node_id=task.node_id, session=task.session,
    )
    return layout.pack(new_state, out=task.vector), task.rng


def fallback_reason(
    task: UpdateTask,
    *,
    supported: bool,
    block_size: int,
    n_samples: int,
) -> str | None:
    """Why ``task`` cannot ride the blocked fast path (None = it can).

    The single source of truth for the per-row fallback predicate,
    shared by :class:`BatchedExecutor` and the shard workers. Reasons:

    * ``"no_batched_backward"`` — the model has a layer without a
      blocked train-mode backward (e.g. legacy-mode dropout).
    * ``"forced_per_row"`` — ``train_batch == -1`` explicitly disables
      blocking.
    * ``"empty_split"`` — the node owns no training samples (the
      trainer no-ops).

    DP-SGD and stream-mode dropout are deliberately NOT reasons: both
    ride the blocked path since the vectorized per-sample-gradient
    refactor.
    """
    if not supported:
        return "no_batched_backward"
    if block_size == -1:
        return "forced_per_row"
    if n_samples == 0:
        return "empty_split"
    return None


class Executor:
    """Runs a batch of independent local updates, preserving order.

    ``close`` must be idempotent on every backend. Every task's
    ``vector`` is the node's live arena row: executors train it in place
    and return ``(task.vector, generator)`` per task, so the engine
    makes no per-task copy and writes nothing back.

    ``fallback_counts`` tallies per-row slow-path hits by
    :func:`fallback_reason`; backends with no blocked path leave it
    empty.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.fallback_counts: Counter[str] = Counter()

    def train_batch(
        self, tasks: list[UpdateTask]
    ) -> list[tuple[np.ndarray, np.random.Generator]]:
        raise NotImplementedError

    def set_config(self, config: TrainerConfig) -> None:
        """Swap the trainer config on this backend (validated upstream).

        The default reaches the in-process trainer; backends owning
        remote workers override to propagate the swap.
        """
        trainer = getattr(self, "trainer", None)
        if trainer is not None:
            trainer.set_config(config)

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class SerialExecutor(Executor):
    """In-process execution on the protocol's shared workspace model."""

    name = "serial"

    def __init__(
        self,
        trainer: LocalTrainer,
        layout: StateLayout,
        splits: Sequence[NodeSplit] | SplitArrays,
    ):
        super().__init__()
        self.trainer = trainer
        self.layout = layout
        self.splits = as_split_arrays(splits)

    def train_batch(
        self, tasks: list[UpdateTask]
    ) -> list[tuple[np.ndarray, np.random.Generator]]:
        return [
            _train_task(self.trainer, self.layout, self.splits, task)
            for task in tasks
        ]


class BatchedExecutor(Executor):
    """Blocked multi-model training over a tick's wake tasks.

    Stacks the independent local updates of same-tick waking nodes into
    ``(B, dim)`` blocks and trains them in lockstep with
    :class:`~repro.gossip.trainer.BatchedTrainer` — the training
    counterpart of the PR-2 batched evaluator. Tasks are grouped by
    local-sample count (lockstep mini-batch geometry); ``train_batch``
    caps the rows per block (0 = one block per group, N > 0 = chunks of
    N, -1 = force the per-row path). DP-SGD rides the blocked path
    (vectorized per-sample gradients) and so does stream-mode dropout
    (counter-based mask streams); the remaining per-row fallbacks —
    see :func:`fallback_reason` — run on the shared workspace trainer
    and are tallied in ``fallback_counts``. Results match
    :class:`SerialExecutor` bit for bit on float64 arenas (and within
    rounding on float32, where the blocked path stays in float32).
    """

    name = "batched"

    def __init__(
        self,
        trainer: LocalTrainer,
        layout: StateLayout,
        splits: Sequence[NodeSplit] | SplitArrays,
        train_batch: int = 0,
    ):
        super().__init__()
        if train_batch < -1:
            raise ValueError("train_batch must be >= -1")
        self.trainer = trainer
        self.layout = layout
        self.splits = as_split_arrays(splits)
        self.block_size = train_batch
        # Models without a batched backward (legacy-mode dropout) run
        # entirely on the per-row fallback; constructing the blocked
        # trainer would raise for them.
        self._supported = supports_batched_backward(trainer.model)
        self.batched = (
            BatchedTrainer(trainer.model, trainer.config, layout)
            if self._supported
            else None
        )

    def set_config(self, config: TrainerConfig) -> None:
        self.trainer.set_config(config)
        if self.batched is not None:
            self.batched.set_config(config)

    def train_batch(
        self, tasks: list[UpdateTask]
    ) -> list[tuple[np.ndarray, np.random.Generator]]:
        # Config may have been swapped after construction (legacy
        # direct-assignment path); re-read it.
        config = self.trainer.config
        if self.batched is not None:
            self.batched.config = config
        results: list = [None] * len(tasks)
        groups: dict[int, list[int]] = {}
        fallback: list[int] = []
        for i, task in enumerate(tasks):
            n = self.splits[task.node_id][0].shape[0]
            reason = fallback_reason(
                task,
                supported=self._supported,
                block_size=self.block_size,
                n_samples=n,
            )
            if reason is not None:
                self.fallback_counts[reason] += 1
                fallback.append(i)
            else:
                groups.setdefault(n, []).append(i)
        for n, indices in sorted(groups.items()):
            step = len(indices) if self.block_size == 0 else self.block_size
            for start in range(0, len(indices), step):
                chunk = indices[start : start + step]
                vectors = [tasks[i].vector for i in chunk]
                # One row trains as the live view itself; larger blocks
                # are stacked, trained, then scattered back to the rows.
                block = vectors[0][None] if len(chunk) == 1 else np.stack(vectors)
                self.batched.train_block(
                    block,
                    [self.splits[tasks[i].node_id][0] for i in chunk],
                    [self.splits[tasks[i].node_id][1] for i in chunk],
                    [tasks[i].rng for i in chunk],
                    [tasks[i].session for i in chunk],
                    node_ids=[tasks[i].node_id for i in chunk],
                )
                if len(chunk) > 1:
                    for vector, trained in zip(vectors, block):
                        vector[...] = trained
                for i in chunk:
                    results[i] = (tasks[i].vector, tasks[i].rng)
        for i in fallback:
            results[i] = _train_task(
                self.trainer, self.layout, self.splits, tasks[i]
            )
        return results


class FlatGossipSimulator:
    """Owns nodes, topology, clock, channel and message log for one run.

    Implements the SAMO and Base Gossip semantics directly over arena
    rows (the protocol object supplies hyperparameters, the trainer and
    the update cap). Within a tick, execution is phased — deliver,
    wake/merge, batch-train, send — so the executor backend cannot
    change results.

    Dtype contract: all gossip aggregation and all evaluation reads run
    in ``config.arena_dtype``; only the local-update step unpacks a row
    into the trainer's workspace model. :meth:`state_matrix` exposes
    the arena zero-copy to the row-batch evaluation path
    (:class:`~repro.metrics.evaluation.BatchedEvaluator`), so the
    per-round attack observation never materializes per-node dict
    views.

    Use it as a context manager (``with FlatGossipSimulator(...) as
    sim:``) so :meth:`close` releases shard workers and shared-memory
    segments even when a run raises mid-round.
    """

    def __init__(
        self,
        config: SimulatorConfig,
        protocol: GossipProtocol,
        splits: list[NodeSplit],
        initial_state: State,
        keep_payloads: bool = False,
        model_builder: Callable[[], Module] | None = None,
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
        # The sharded executor's workers attach to the arena by name, so
        # it must be born in shared memory — migrating it later would
        # orphan every node-state view handed out below.
        self.arena = StateArena(
            self.layout,
            config.n_nodes,
            dtype=config.arena_dtype,
            shared=config.executor == "sharded",
        )
        # Pack the shared initial model once and broadcast it into all
        # rows; node states are live views over their row.
        self.arena.data[:] = self.layout.pack(
            initial_state, dtype=self.arena.dtype
        )
        self.nodes = [
            GossipNode(
                node_id=split.node_id,
                state=self.arena.state_view(split.node_id),
                split=split,
                rng=np.random.default_rng(
                    self.rng.integers(0, 2**63 - 1)
                ),
            )
            for split in splits
        ]
        self.model_builder = model_builder
        self._sessions = [0] * config.n_nodes
        # Messages sent this tick, visible to receivers once the tick's
        # wakes are all processed: (sender, receiver, vector).
        self._pending: list[tuple[int, int, np.ndarray]] = []
        # Built lazily so late config changes (DP installation swaps
        # the trainer config and update cap) reach shard workers.
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
            self._fallback_total = reg.counter(
                "repro_engine_fallback_total",
                "Rows that left the blocked fast path, by reason",
                labels=("reason",),
            )
            self._fallback_seen: Counter[str] = Counter()
            # Bound lazily on first train_batch: the executor (and its
            # name label) does not exist yet.
            self._batch_ms = None
            self._tasks_total = None

    # -- executor -----------------------------------------------------

    def executor(self) -> Executor:
        if self._executor is None:
            trainer = self.protocol.trainer
            splits = [node.split for node in self.nodes]
            if self.config.executor == "batched":
                self._executor = BatchedExecutor(
                    trainer,
                    self.layout,
                    splits,
                    train_batch=self.config.train_batch,
                )
            elif self.config.executor == "sharded":
                # Imported here: shard.py builds on this module.
                from repro.gossip.shard import ShardedExecutor

                self._executor = ShardedExecutor(
                    self.model_builder,
                    trainer.config,
                    self.layout,
                    splits,
                    self.arena,
                    n_shards=self.config.n_shards,
                    train_batch=self.config.train_batch,
                    partition=self.config.shard_partition,
                    trainer=trainer,
                    telemetry=self.telemetry,
                )
            else:
                self._executor = SerialExecutor(trainer, self.layout, splits)
        return self._executor

    def set_trainer_config(self, config: TrainerConfig) -> None:
        """Swap the trainer config, propagating to a live executor.

        The supported mid-run config path (e.g. DP installation): the
        shared trainer revalidates, and an already-built executor
        forwards the swap to its blocked trainer / worker processes.
        """
        self.protocol.trainer.set_config(config)
        if self._executor is not None:
            self._executor.set_config(config)

    def fallback_counts(self) -> dict[str, int]:
        """Per-reason tallies of rows that left the blocked fast path."""
        if self._executor is None:
            return {}
        return dict(self._executor.fallback_counts)

    def close(self) -> None:
        """Release executor resources (worker processes and shared
        memory). Idempotent; arena data stays readable afterwards —
        a shared-backed arena is copied private and node-state views
        are rebound over the copy."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        if self.arena.shared_name is not None:
            self.arena.release()
            for node in self.nodes:
                node.state = self.arena.state_view(node.node_id)

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
        # Written in place so existing node-state views (and, for the
        # sharded executor, the shared-memory segment the workers are
        # attached to) stay bound to the restored rows.
        self.arena.data[...] = state["arena"]
        self._sessions = list(state["sessions"])
        self._pending = [
            (sender, receiver, copy(payload))
            for sender, receiver, payload in state["pending"]
        ]

    # -- introspection ------------------------------------------------

    def states(self) -> list[State]:
        """Snapshot of every node's current model (attacker's view)."""
        return [node.snapshot() for node in self.nodes]

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
        # Building the dict view is per-slot work the log discards
        # unless it actually retains payloads.
        logged = self.layout.unpack(payload) if self.log.keep_payloads else {}
        self.log.record(
            ModelMessage(
                sender=sender,
                receiver=receiver,
                tick=self.clock.tick,
                payload=logged,
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
            # Executors train the live row in place.
            tasks.append(
                UpdateTask(node_id, self.arena.row(node_id), node.rng, session)
            )
        if not tasks:
            return
        if self._tel is None:
            results = executor.train_batch(tasks)
        else:
            start = perf_counter()
            results = executor.train_batch(tasks)
            self._record_train_batch(
                executor, len(tasks), (perf_counter() - start) * 1000.0
            )
        for task, (_, rng) in zip(tasks, results):
            # Shard workers return a rebuilt generator; rebind it
            # so the node's stream advances exactly as it would serially.
            self.nodes[task.node_id].rng = rng

    # -- telemetry ----------------------------------------------------

    def _record_train_batch(
        self, executor: Executor, n_tasks: int, elapsed_ms: float
    ) -> None:
        """Fold one train_batch call into the telemetry accumulators."""
        self._phase_acc["train"] += elapsed_ms
        if self._batch_ms is None:
            reg = self.telemetry.registry
            self._batch_ms = reg.histogram(
                "repro_executor_batch_ms",
                "Wall-clock of one executor train_batch call",
                labels=("executor",),
            ).child(executor=executor.name)
            self._tasks_total = reg.counter(
                "repro_executor_tasks_total",
                "Local-update tasks dispatched, by executor",
                labels=("executor",),
            ).child(executor=executor.name)
        self._batch_ms.observe(elapsed_ms)
        self._tasks_total.inc(n_tasks)
        # The executor's fallback tallies are cumulative; convert to
        # counter increments by diffing against what was already shipped.
        for reason, count in executor.fallback_counts.items():
            delta = count - self._fallback_seen[reason]
            if delta > 0:
                self._fallback_total.inc(delta, reason=reason)
                self._fallback_seen[reason] = count

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
