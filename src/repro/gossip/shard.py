"""Sharded shared-memory execution subsystem.

The in-process executor trains a tick's wake tasks on one core. Here
arena rows are partitioned across long-lived *shard workers*, each of
which attaches to the engine's :class:`~repro.nn.flat.SharedArena`
segment once, owns a model of its own plus its shard's data slices, and
runs the same blocked training kernel over its rows in place.

Per tick, a shard receives only ``(row_index, session, rng_state)``
triples — never a state vector. Workers read their rows straight out of
the shared segment, train, and write results straight back; the only
payload returned is each task's advanced generator state. That is the
zero-copy contract: task traffic is O(tasks), not O(tasks * dim).

The same workers double as **observer shards**: after a one-time
``observe_init`` that ships the fixed global-test subsample and each
row's attack arrays, a per-round ``observe`` message carries only
subsample index arrays. Each worker scores its own arena rows with a
:class:`~repro.metrics.evaluation.BatchedEvaluator` (evaluation and MPE
scoring never leave the shard) and replies with per-row score vectors
and accuracies; the parent merges, balances, and builds the reports.

Determinism: each task travels with its node's exact generator state
and lr_decay session index, and every shard trains through the same
:class:`~repro.gossip.engine.BatchedExecutor` logic, so a sharded run
is bit-identical to the in-process executors on a float64 arena for a
fixed seed — the engine's phased ticks make results independent of
which process trains which row.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from repro.data.partition import NodeSplit
from repro.gossip.engine import (
    BatchedExecutor,
    Executor,
    SplitArrays,
    StateArena,
    UpdateTask,
    as_split_arrays,
)
from repro.gossip.trainer import BatchedTrainer, TrainerConfig
from repro.metrics.evaluation import BatchedEvaluator, row_block
from repro.nn.flat import SharedArena, StateLayout
from repro.nn.layers import Module
from repro.telemetry import Registry, Telemetry

__all__ = ["RowPartitioner", "ShardedExecutor", "auto_shard_count"]

# Cap on the automatic (n_shards=0) worker count.
_MAX_AUTO_SHARDS = 8

_TRAIN = "train"
_OBSERVE_INIT = "observe_init"
_OBSERVE = "observe"
_STOP = "stop"


class RowPartitioner:
    """Maps arena row indices to shards.

    Strategies:

    * ``"contiguous"`` — equal-length contiguous row ranges (shard 0
      gets the first rows, and so on). Predictable, cache-friendly.
    * ``"balanced"`` — greedy longest-processing-time assignment by
      per-row sample count: rows are placed largest-first onto the
      currently lightest shard, equalizing training compute when node
      splits are uneven (ties break toward fewer rows, then the lower
      shard id, so the result is deterministic).

    ``partition`` always returns exactly ``n_shards`` disjoint,
    ascending index arrays covering ``range(n_rows)``; trailing shards
    may be empty when ``n_shards > n_rows`` (the executor clamps its
    worker count so it never spawns one for an empty shard).
    """

    strategies = ("contiguous", "balanced")

    def __init__(self, strategy: str = "contiguous"):
        if strategy not in self.strategies:
            raise ValueError(
                f"unknown partition strategy {strategy!r}; "
                f"expected one of {self.strategies}"
            )
        self.strategy = strategy

    def partition(
        self,
        n_rows: int,
        n_shards: int,
        sample_counts: Sequence[int] | None = None,
    ) -> list[np.ndarray]:
        if n_rows <= 0:
            raise ValueError("n_rows must be positive")
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if sample_counts is not None and len(sample_counts) != n_rows:
            raise ValueError(
                f"got {len(sample_counts)} sample counts for {n_rows} rows"
            )
        if self.strategy == "contiguous":
            return [
                np.asarray(chunk, dtype=np.intp)
                for chunk in np.array_split(np.arange(n_rows), n_shards)
            ]
        counts = (
            np.ones(n_rows)
            if sample_counts is None
            else np.asarray(sample_counts, dtype=np.float64)
        )
        order = sorted(range(n_rows), key=lambda row: (-counts[row], row))
        loads = [0.0] * n_shards
        sizes = [0] * n_shards
        shards: list[list[int]] = [[] for _ in range(n_shards)]
        for row in order:
            target = min(
                range(n_shards), key=lambda s: (loads[s], sizes[s], s)
            )
            shards[target].append(row)
            loads[target] += counts[row]
            sizes[target] += 1
        return [np.asarray(sorted(rows), dtype=np.intp) for rows in shards]


def auto_shard_count(n_shards: int, n_rows: int) -> int:
    """Shard workers one sharded run starts: ``n_shards``, or one per
    CPU (capped) when 0, clamped to the arena's row count."""
    requested = n_shards or min(os.cpu_count() or 1, _MAX_AUTO_SHARDS)
    return max(1, min(requested, n_rows))


def _restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a Generator from a ``bit_generator.state`` dict."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def encode_tasks(tasks: Sequence[UpdateTask]) -> list[tuple]:
    """The exact per-task payload shipped to a shard worker.

    Row index, lr_decay session, generator state — and nothing else.
    State vectors never cross the pipe; they live in the shared arena
    both ways. Kept as a standalone function so tests can assert the
    no-pickle contract on the real payload.
    """
    return [
        (task.node_id, task.session, task.rng.bit_generator.state)
        for task in tasks
    ]


def _shard_worker(
    conn,
    segment: str,
    n_rows: int,
    dim: int,
    dtype: np.dtype,
    model_builder: Callable[[], Module],
    trainer_config: TrainerConfig,
    layout: StateLayout,
    split_arrays: SplitArrays,
    train_batch: int,
    shard_index: int = 0,
    telemetry_enabled: bool = False,
) -> None:
    """Long-lived shard worker loop.

    Attaches to the shared arena once, builds its blocked trainer and
    a :class:`BatchedExecutor` over its split slice once, then serves
    requests until told to stop:

    * ``("train", items, config_or_None)`` — rebuild each task's
      generator, train, write result rows into the shared segment, and
      reply with the advanced generator states plus (when telemetry is
      on) the worker-local metric-registry delta, which travels with
      the task results, never out of band;
    * ``("observe_init", payload)`` — store the observation inputs and
      build the shard's :class:`BatchedEvaluator` once;
    * ``("observe", items)`` — score this shard's rows against the live
      arena and reply with per-row scores and accuracies.
    """
    arena = None
    executor = None
    try:
        arena = SharedArena.attach(segment, n_rows, dim, dtype)
        trainer = BatchedTrainer(model_builder(), trainer_config, layout)
        executor = BatchedExecutor(trainer, split_arrays, train_batch=train_batch)
        evaluator = None
        observe_state: dict = {}
        # Worker-local registry: recorded here, drained into a delta
        # that rides each train reply.
        registry = Registry() if telemetry_enabled else None
        shard_train_ms = shard_tasks = None
        if registry is not None:
            shard_train_ms = registry.histogram(
                "repro_shard_train_ms",
                "Wall-clock of one shard worker's train batch",
                labels=("shard",),
            ).child(shard=str(shard_index))
            shard_tasks = registry.counter(
                "repro_shard_tasks_total",
                "Local-update tasks trained, by shard",
                labels=("shard",),
            ).child(shard=str(shard_index))
        while True:
            message = conn.recv()
            if message[0] == _STOP:
                break
            if message[0] == _OBSERVE_INIT:
                x_global, y_global, attack_arrays, eval_batch = message[1]
                observe_state = {
                    "x_global": x_global,
                    "y_global": y_global,
                    "attack": attack_arrays,
                }
                evaluator = BatchedEvaluator(
                    trainer.model, layout=layout, eval_batch=eval_batch
                )
                conn.send(("ok", None))
                continue
            if message[0] == _OBSERVE:
                conn.send(
                    (
                        "ok",
                        _observe_rows(
                            evaluator, observe_state, arena, message[1]
                        ),
                    )
                )
                continue
            _, items, new_config = message
            if new_config is not None:
                # The parent's trainer config was swapped after this
                # worker spawned (DP install does that); mirror it.
                trainer.set_config(new_config)
            tasks = [
                UpdateTask(
                    node_id,
                    arena.data[node_id],
                    _restore_generator(rng_state),
                    session,
                )
                for node_id, session, rng_state in items
            ]
            # The executor trains the shared rows in place.
            if registry is None:
                executor.train_batch(tasks)
            else:
                start = perf_counter()
                executor.train_batch(tasks)
                shard_train_ms.observe((perf_counter() - start) * 1000.0)
                shard_tasks.inc(len(tasks))
            telemetry_delta = (
                registry.collect_delta() if registry is not None else None
            )
            conn.send(
                (
                    "ok",
                    (
                        [
                            (task.node_id, task.rng.bit_generator.state)
                            for task in tasks
                        ],
                        telemetry_delta,
                    ),
                )
            )
    except EOFError:  # pragma: no cover - parent vanished mid-recv
        pass
    except BaseException:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - pipe already gone
            pass
    finally:
        if executor is not None:
            executor.close()
        if arena is not None:
            arena.close()
        conn.close()


def _observe_rows(
    evaluator: BatchedEvaluator | None,
    state: dict,
    arena: SharedArena,
    items: list[tuple],
) -> list[tuple]:
    """Score one shard's rows for one observation round.

    ``items`` holds ``(row, train_idx, test_idx)`` triples — the
    subsample index arrays the parent drew from the observer RNG
    (``None`` means the whole split). Models are read straight out of
    the live arena; only score vectors and accuracy floats go back.
    """
    if evaluator is None:
        raise RuntimeError("observe message before observe_init")
    rows = [row for row, _, _ in items]
    xs_train: list[np.ndarray] = []
    ys_train: list[np.ndarray] = []
    xs_test: list[np.ndarray] = []
    ys_test: list[np.ndarray] = []
    for row, train_idx, test_idx in items:
        train_x, train_y, test_x, test_y = state["attack"][row]
        if train_idx is not None:
            train_x, train_y = train_x[train_idx], train_y[train_idx]
        if test_idx is not None:
            test_x, test_y = test_x[test_idx], test_y[test_idx]
        xs_train.append(train_x)
        ys_train.append(train_y)
        xs_test.append(test_x)
        ys_test.append(test_y)
    params = arena.data
    own = row_block(params, rows)  # a slice for a contiguous shard
    global_acc = evaluator.accuracy_rows(own, state["x_global"], state["y_global"])
    obs = evaluator.attack_observations(
        params, xs_train + xs_test, ys_train + ys_test, rows=rows + rows
    )
    n = len(rows)
    return [
        (
            row,
            obs[i][0],  # member MPE scores
            obs[n + i][0],  # non-member MPE scores
            obs[i][1],  # local-train accuracy
            obs[n + i][1],  # local-test accuracy
            float(global_acc[i]),
        )
        for i, row in enumerate(rows)
    ]


def _mp_context():
    """Fork where available (fast, nothing needs pickling at spawn
    time); spawn elsewhere — worker arguments stay picklable either
    way."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ShardedExecutor(Executor):
    """Arena rows partitioned across persistent shard-worker processes.

    Construction spawns one worker per (non-empty) shard; each attaches
    to the arena's shared-memory segment by name and builds its own
    blocked trainer, so per-tick traffic is row indices and generator
    states only. ``train_batch`` is forwarded to every shard's internal
    :class:`BatchedExecutor`, whose grouping rules apply unchanged
    within each shard.

    ``close`` is idempotent and must run eventually (the engine's
    ``close``/context manager does); workers are daemons, so even an
    abandoned executor cannot outlive its process.

    When the engine passes its live ``trainer``, config swaps made
    after construction (DP installation replaces the dataclass on the
    protocol's trainer) are pushed to the involved shards alongside the
    next batch; without a trainer, ``trainer_config`` is final.
    """

    name = "sharded"

    def __init__(
        self,
        model_builder: Callable[[], Module] | None,
        trainer_config: TrainerConfig,
        layout: StateLayout,
        splits: Sequence[NodeSplit] | SplitArrays,
        arena: StateArena,
        n_shards: int = 0,
        train_batch: int = 0,
        partition: str = "contiguous",
        trainer: BatchedTrainer | None = None,
        telemetry: Telemetry | None = None,
    ):
        if model_builder is None:
            raise ValueError(
                "the sharded executor needs a picklable model_builder "
                "(e.g. functools.partial(build_model, ...)) to construct "
                "per-shard models"
            )
        segment = getattr(arena, "shared_name", None)
        if segment is None:
            raise ValueError(
                "the sharded executor needs a shared-memory arena "
                "(StateArena(..., shared=True)); a private arena's rows "
                "are invisible to shard workers"
            )
        super().__init__()
        split_arrays = as_split_arrays(splits)
        n_rows = arena.n_nodes
        requested = auto_shard_count(n_shards, n_rows)
        counts = [split_arrays[i][0].shape[0] for i in range(n_rows)]
        self.partitioner = RowPartitioner(partition)
        shard_rows = [
            rows
            for rows in self.partitioner.partition(
                n_rows, requested, sample_counts=counts
            )
            if rows.size
        ]
        self.n_shards = len(shard_rows)
        self.shard_rows = shard_rows
        self._shard_of = np.empty(n_rows, dtype=np.intp)
        for shard, rows in enumerate(shard_rows):
            self._shard_of[rows] = shard
        self._data = arena.data
        self._closed = False
        # When the engine hands us its live trainer, follow config
        # swaps made after construction (shards get the delta pushed).
        self._trainer = trainer
        self._shard_config: list[TrainerConfig] = []
        self._observe_ready = False
        # Shard workers record into worker-local registries; replies
        # carry collect_delta() payloads that are folded in here.
        telemetry_enabled = telemetry is not None and telemetry.enabled
        self._registry = telemetry.registry if telemetry_enabled else None
        self._conns = []
        self._procs = []
        ctx = _mp_context()
        for shard_index, rows in enumerate(shard_rows):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker,
                args=(
                    child_conn,
                    segment,
                    n_rows,
                    arena.dim,
                    arena.dtype,
                    model_builder,
                    trainer_config,
                    layout,
                    {int(i): split_arrays[int(i)] for i in rows},
                    train_batch,
                    shard_index,
                    telemetry_enabled,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
            self._shard_config.append(trainer_config)

    def train_batch(
        self, tasks: list[UpdateTask]
    ) -> list[tuple[np.ndarray, np.random.Generator]]:
        if self._closed:
            raise RuntimeError("executor is closed")
        by_shard: dict[int, list[int]] = {}
        for i, task in enumerate(tasks):
            by_shard.setdefault(int(self._shard_of[task.node_id]), []).append(i)
        config = self._trainer.config if self._trainer is not None else None
        # Fan out to every involved shard first; they train in
        # parallel while we collect replies in the same order.
        for shard, indices in by_shard.items():
            push = None
            if config is not None and config != self._shard_config[shard]:
                self._shard_config[shard] = config
                push = config
            try:
                self._conns[shard].send(
                    (_TRAIN, encode_tasks([tasks[i] for i in indices]), push)
                )
            except (BrokenPipeError, OSError):
                # The worker died — most likely after sending a
                # diagnostic that is still buffered in the pipe; read
                # it so the caller sees the real traceback instead of
                # a bare broken pipe.
                self._recv(shard)
                raise RuntimeError(
                    f"shard worker {shard} died without a diagnostic"
                ) from None
        results: list = [None] * len(tasks)
        for shard, indices in by_shard.items():
            rng_states, telemetry_delta = self._recv(shard)
            if telemetry_delta and self._registry is not None:
                self._registry.merge_delta(telemetry_delta)
            for i, (node_id, rng_state) in zip(indices, rng_states):
                task = tasks[i]
                if task.node_id != node_id:
                    raise RuntimeError(
                        f"shard {shard} replied out of order "
                        f"(row {node_id}, expected {task.node_id})"
                    )
                # Advance the node's own generator to where the worker
                # left its copy — streams continue exactly as serially.
                task.rng.bit_generator.state = rng_state
                results[i] = (self._data[node_id], task.rng)
        return results

    # -- sharded observation ------------------------------------------

    def observe_init(
        self,
        x_global: np.ndarray,
        y_global: np.ndarray,
        attack_arrays: dict[int, tuple],
        eval_batch: int = 0,
    ) -> None:
        """Ship the per-round-invariant observation inputs once.

        ``attack_arrays`` maps every row to its full
        ``(train_x, train_y, test_x, test_y)`` arrays; each shard only
        receives its own rows' slice plus the (already subsampled)
        global test set. After this, per-round ``observe`` traffic is
        index arrays in, score vectors out.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        for shard, rows in enumerate(self.shard_rows):
            shard_arrays = {int(row): attack_arrays[int(row)] for row in rows}
            self._conns[shard].send(
                (_OBSERVE_INIT, (x_global, y_global, shard_arrays, eval_batch))
            )
        for shard in range(self.n_shards):
            self._recv(shard)
        self._observe_ready = True

    def observe(
        self, plans: dict[int, tuple[np.ndarray | None, np.ndarray | None]]
    ) -> dict[int, tuple[np.ndarray, np.ndarray, float, float, float]]:
        """Score every planned row on its own shard, against the live arena.

        ``plans`` maps row -> ``(train_idx, test_idx)`` subsample index
        arrays (``None`` = whole split), pre-drawn by the observer so
        RNG consumption matches the single-process path. Returns
        row -> ``(member_scores, nonmember_scores, train_accuracy,
        test_accuracy, global_accuracy)`` with raw (unbalanced) score
        vectors; balancing and report building stay with the caller.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if not self._observe_ready:
            raise RuntimeError("observe() called before observe_init()")
        involved = []
        for shard, rows in enumerate(self.shard_rows):
            items = [
                (int(row), plans[int(row)][0], plans[int(row)][1])
                for row in rows
                if int(row) in plans
            ]
            if not items:
                continue
            self._conns[shard].send((_OBSERVE, items))
            involved.append(shard)
        out: dict[int, tuple] = {}
        for shard in involved:
            for row, member, nonmember, train_acc, test_acc, global_acc in (
                self._recv(shard)
            ):
                out[row] = (member, nonmember, train_acc, test_acc, global_acc)
        return out

    def _recv(self, shard: int):
        try:
            tag, payload = self._conns[shard].recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker {shard} died unexpectedly"
            ) from None
        if tag != "ok":
            raise RuntimeError(f"shard worker {shard} failed:\n{payload}")
        return payload

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send((_STOP,))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            conn.close()
        for process in self._procs:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=10)
