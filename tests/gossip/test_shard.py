"""Tests for the sharded shared-memory execution subsystem."""

import os
import pickle
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from repro.data import make_node_splits, make_synthetic_tabular_dataset
from reference_trainer import ReferenceExecutor
from repro.gossip import (
    RowPartitioner,
    ShardedExecutor,
    StateArena,
    TrainerConfig,
    UpdateTask,
)
from repro.gossip.shard import _restore_generators, encode_tasks
from repro.gossip.trainer import BatchedTrainer
from repro.nn import build_mlp, get_state
from repro.nn.flat import SharedArena, StateLayout
from repro.nn.models import build_model


def segment_exists(name: str) -> bool:
    """Probe a shared-memory segment without registering an attachment."""
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    shm.close()
    return True


class TestRowPartitioner:
    def test_contiguous_covers_rows_disjointly(self):
        shards = RowPartitioner("contiguous").partition(10, 3)
        assert len(shards) == 3
        combined = np.concatenate(shards)
        np.testing.assert_array_equal(np.sort(combined), np.arange(10))
        # Contiguous means each shard is a run of consecutive rows.
        for rows in shards:
            np.testing.assert_array_equal(
                rows, np.arange(rows[0], rows[0] + rows.size)
            )

    def test_contiguous_row_counts_balanced(self):
        shards = RowPartitioner("contiguous").partition(11, 4)
        sizes = [rows.size for rows in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_rows_leaves_trailing_empties(self):
        shards = RowPartitioner("contiguous").partition(2, 5)
        assert len(shards) == 5
        assert [rows.size for rows in shards] == [1, 1, 0, 0, 0]

    def test_balanced_equal_counts_balances_row_counts(self):
        shards = RowPartitioner("balanced").partition(10, 3)
        combined = np.concatenate(shards)
        np.testing.assert_array_equal(np.sort(combined), np.arange(10))
        sizes = [rows.size for rows in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_balanced_equalizes_sample_loads(self):
        """Greedy LPT: no shard's sample total can exceed another's by
        more than the largest single node (the classic LPT bound is
        even tighter; this is the property the executor relies on)."""
        counts = [100, 1, 1, 1, 50, 50, 2, 3, 97, 1]
        shards = RowPartitioner("balanced").partition(
            10, 3, sample_counts=counts
        )
        combined = np.concatenate(shards)
        np.testing.assert_array_equal(np.sort(combined), np.arange(10))
        loads = [sum(counts[i] for i in rows) for rows in shards]
        assert max(loads) - min(loads) <= max(counts)
        # This instance solves exactly: 102 / 102 / 102.
        assert loads == [102, 102, 102]

    def test_balanced_is_deterministic(self):
        counts = [7, 7, 3, 3, 5, 5, 1]
        first = RowPartitioner("balanced").partition(7, 2, sample_counts=counts)
        second = RowPartitioner("balanced").partition(7, 2, sample_counts=counts)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            RowPartitioner("roundrobin")
        partitioner = RowPartitioner()
        with pytest.raises(ValueError, match="n_rows"):
            partitioner.partition(0, 2)
        with pytest.raises(ValueError, match="n_shards"):
            partitioner.partition(4, 0)
        with pytest.raises(ValueError, match="sample counts"):
            partitioner.partition(4, 2, sample_counts=[1, 2])


MODEL_BUILDER = partial(build_mlp, 16, 4, hidden=(8,))


def _exploding_builder():
    raise RuntimeError("workspace model construction exploded")


def make_fixture(n_nodes=6, dtype=np.float64, seed=0, shared=True):
    """Layout, splits, trainer config and a loaded arena for executor
    tests (no simulator involved)."""
    model = MODEL_BUILDER(rng=np.random.default_rng(0))
    template = get_state(model)
    layout = StateLayout.from_state(template)
    train, _ = make_synthetic_tabular_dataset(
        "t", 300, 30, num_features=16, num_classes=4, seed=seed
    )
    splits = make_node_splits(
        train, n_nodes, train_per_node=16, test_per_node=8, seed=seed
    )
    config = TrainerConfig(
        learning_rate=0.05, momentum=0.9, local_epochs=1, batch_size=8,
        lr_decay=0.5,
    )
    arena = StateArena(layout, n_nodes, dtype=dtype, shared=shared)
    rng = np.random.default_rng(seed + 1)
    for i in range(n_nodes):
        arena.load_state(
            i,
            {k: v + 0.1 * rng.normal(size=v.shape) for k, v in template.items()},
        )
    return model, layout, splits, config, arena


def make_tasks(arena, n_nodes, seed=100, copy=False):
    return [
        UpdateTask(
            i,
            arena.row(i).copy() if copy else arena.row(i),
            np.random.default_rng(seed + i),
            session=i % 3,
        )
        for i in range(n_nodes)
    ]


class TestShardedExecutor:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_shards=1),  # degenerate single shard
            dict(n_shards=2),
            dict(n_shards=2, partition="balanced"),
            dict(n_shards=99),  # more shards than nodes: clamps
        ],
        ids=["one-shard", "two-shards", "balanced", "overshard"],
    )
    def test_same_tasks_match_serial(self, kwargs):
        model, layout, splits, config, arena = make_fixture()
        reference = ReferenceExecutor(
            BatchedTrainer(model, config, layout), splits
        )
        reference_results = reference.train_batch(
            make_tasks(arena, 6, copy=True)
        )
        sharded = ShardedExecutor(
            MODEL_BUILDER, config, layout, splits, arena, **kwargs
        )
        try:
            # Result vectors are views into the shared segment; copy
            # them out before releasing it (the documented contract).
            sharded_results = [
                (vector.copy(), rng)
                for vector, rng in sharded.train_batch(make_tasks(arena, 6))
            ]
        finally:
            reference.close()
            sharded.close()
            arena.release()
        assert sharded.n_shards <= 6
        for (ref_vec, ref_rng), (sharded_vec, sharded_rng) in zip(
            reference_results, sharded_results
        ):
            np.testing.assert_array_equal(ref_vec, sharded_vec)
            assert ref_rng.random() == sharded_rng.random()

    def test_consecutive_batches_match_serial(self):
        """Workers keep their generators between batches; a second
        batch over other rows, in another order, must still continue
        every node's stream exactly."""
        model, layout, splits, config, arena = make_fixture()
        reference = ReferenceExecutor(
            BatchedTrainer(model, config, layout), splits
        )
        sharded = ShardedExecutor(
            MODEL_BUILDER, config, layout, splits, arena, n_shards=2
        )
        ref_tasks = make_tasks(arena, 6, copy=True)
        tasks = make_tasks(arena, 6)
        try:
            for pick in (slice(None), slice(None, 1, -1)):
                ref_results = reference.train_batch(ref_tasks[pick])
                results = sharded.train_batch(tasks[pick])
                for (ref_vec, ref_rng), (vec, rng) in zip(ref_results, results):
                    np.testing.assert_array_equal(ref_vec, vec)
                    assert ref_rng.bit_generator.state == rng.bit_generator.state
        finally:
            reference.close()
            sharded.close()
            arena.release()

    def test_restored_generators_are_distinct_and_reused(self):
        states = [np.random.default_rng(7).bit_generator.state] * 2
        pool: list = []
        first = _restore_generators(states, pool)
        assert first[0] is not first[1]  # a repeated row gets its own
        assert first[0].random() == first[1].random()
        philox = np.random.Generator(np.random.Philox(3))
        second = _restore_generators(
            [np.random.default_rng(8).bit_generator.state,
             philox.bit_generator.state],
            pool,
        )
        assert second[0] is first[0]  # same type: state reassigned
        assert second[0].random() == np.random.default_rng(8).random()
        assert isinstance(second[1].bit_generator, np.random.Philox)
        assert second[1].random() == philox.random()

    def test_results_written_into_shared_arena(self):
        """The executor's outputs ARE the arena rows (no copy-back)."""
        model, layout, splits, config, arena = make_fixture()
        before = arena.data.copy()
        sharded = ShardedExecutor(
            MODEL_BUILDER, config, layout, splits, arena, n_shards=2
        )
        try:
            results = sharded.train_batch(make_tasks(arena, 6))
        finally:
            sharded.close()
        for i, (vector, _) in enumerate(results):
            assert np.shares_memory(vector, arena.data)
            assert not np.array_equal(vector, before[i])
        arena.release()

    def test_task_payload_carries_no_state_vectors(self):
        """The zero-copy contract, asserted on the real wire payload:
        what goes to a shard worker is row indices, sessions and
        generator states — its pickled size must not scale with the
        model dimension, and it must contain no arrays at all."""
        model, layout, splits, config, arena = make_fixture()
        try:
            tasks = make_tasks(arena, 6)
            payload = encode_tasks(tasks)

            def walk(obj):
                if isinstance(obj, np.ndarray):
                    yield obj
                elif isinstance(obj, dict):
                    for value in obj.values():
                        yield from walk(value)
                elif isinstance(obj, (list, tuple)):
                    for value in obj:
                        yield from walk(value)

            assert list(walk(payload)) == []
            # ~100 bytes per task (ints + a PCG64 state dict); the
            # model vector alone would be dim * 8 = a lot more.
            assert len(pickle.dumps(payload)) < 250 * len(tasks)
            assert len(pickle.dumps(payload)) < layout.dim * 8
        finally:
            arena.release()

    def test_requires_shared_arena(self):
        model, layout, splits, config, arena = make_fixture(shared=False)
        with pytest.raises(ValueError, match="shared-memory arena"):
            ShardedExecutor(MODEL_BUILDER, config, layout, splits, arena)

    def test_requires_model_builder(self):
        model, layout, splits, config, arena = make_fixture()
        try:
            with pytest.raises(ValueError, match="model_builder"):
                ShardedExecutor(None, config, layout, splits, arena)
        finally:
            arena.release()

    def test_close_is_idempotent_and_train_after_close_raises(self):
        model, layout, splits, config, arena = make_fixture()
        sharded = ShardedExecutor(
            MODEL_BUILDER, config, layout, splits, arena, n_shards=2
        )
        sharded.close()
        sharded.close()
        assert all(not p.is_alive() for p in sharded._procs)
        with pytest.raises(RuntimeError, match="closed"):
            sharded.train_batch(make_tasks(arena, 6))
        arena.release()

    def test_worker_init_failure_surfaces_traceback_not_broken_pipe(self):
        """A worker that dies during setup (bad model_builder) sends a
        diagnostic and exits; the first train_batch must raise that
        traceback as a RuntimeError, never a bare BrokenPipeError."""
        model, layout, splits, config, arena = make_fixture()
        sharded = ShardedExecutor(
            _exploding_builder, config, layout, splits, arena, n_shards=2
        )
        try:
            with pytest.raises(RuntimeError, match="shard worker"):
                sharded.train_batch(make_tasks(arena, 6))
        finally:
            sharded.close()
            arena.release()

    def test_config_swap_after_construction_reaches_workers(self):
        """The engine swaps trainer.config after construction (DP
        install); with the live trainer attached, shards must train
        with the new config — matching the workspace-loop reference
        bit for bit."""
        from dataclasses import replace

        model, layout, splits, config, arena = make_fixture()
        trainer = BatchedTrainer(model, config, layout)
        sharded = ShardedExecutor(
            MODEL_BUILDER, config, layout, splits, arena, n_shards=2,
            trainer=trainer,
        )
        try:
            swapped = replace(config, learning_rate=0.005, lr_decay=0.9)
            trainer.config = swapped
            reference = ReferenceExecutor(
                BatchedTrainer(MODEL_BUILDER(rng=np.random.default_rng(0)),
                               swapped, layout),
                splits,
            )
            reference_results = reference.train_batch(
                make_tasks(arena, 6, copy=True)
            )
            reference.close()
            sharded_results = [
                (vector.copy(), rng)
                for vector, rng in sharded.train_batch(make_tasks(arena, 6))
            ]
        finally:
            sharded.close()
            arena.release()
        for (reference_vec, _), (sharded_vec, _) in zip(
            reference_results, sharded_results
        ):
            np.testing.assert_array_equal(reference_vec, sharded_vec)

    def test_worker_failure_surfaces_as_runtime_error(self):
        """A task for a row the shard has no split for blows up inside
        the worker; the parent must get the traceback, not a hang."""
        model, layout, splits, config, arena = make_fixture()
        sharded = ShardedExecutor(
            MODEL_BUILDER, config, layout, splits, arena, n_shards=2
        )
        try:
            bad_rng = np.random.default_rng(0)
            # node_id 5 belongs to shard 1; send it a task claiming
            # node 0's row is its own via a forged shard map.
            sharded._shard_of[0] = 1
            with pytest.raises(RuntimeError, match="failed"):
                sharded.train_batch(
                    [UpdateTask(0, arena.row(0), bad_rng, session=0)]
                )
        finally:
            sharded.close()
            arena.release()


ARCHS = [
    ("mlp", dict(in_features=20, num_classes=7, hidden=(16, 8)), (20,)),
    ("cnn", dict(in_channels=3, image_size=8, num_classes=5, width=4),
     (3, 8, 8)),
    ("resnet8", dict(in_channels=3, num_classes=6, width=4), (3, 8, 8)),
]


class TestShardedFamilies:
    """The sharded executor against every Table-2 model family:
    bit-identical to the workspace-loop reference in float64, bounded
    drift in float32."""

    def _run(self, arch, kwargs, sample_shape, dtype):
        n_nodes, n = 5, 12
        builder = partial(build_model, arch, **kwargs)
        model = builder()
        template = get_state(model)
        layout = StateLayout.from_state(template)
        rng = np.random.default_rng(3)
        arena = StateArena(layout, n_nodes, dtype=dtype, shared=True)
        splits = {}
        for i in range(n_nodes):
            arena.load_state(
                i,
                {
                    k: v + 0.1 * rng.normal(size=v.shape)
                    for k, v in template.items()
                },
            )
            splits[i] = (
                rng.normal(size=(n,) + sample_shape),
                rng.integers(0, kwargs["num_classes"], size=n),
            )
        config = TrainerConfig(
            learning_rate=0.05, momentum=0.9, weight_decay=5e-4,
            local_epochs=2, batch_size=5, lr_decay=0.7,
        )
        reference = ReferenceExecutor(
            BatchedTrainer(model, config, layout), splits
        )
        reference_results = reference.train_batch(
            make_tasks(arena, n_nodes, copy=True)
        )
        reference.close()
        sharded = ShardedExecutor(
            builder, config, layout, splits, arena, n_shards=2
        )
        try:
            sharded_results = [
                (vector.copy(), rng)
                for vector, rng in sharded.train_batch(
                    make_tasks(arena, n_nodes)
                )
            ]
        finally:
            sharded.close()
            arena.release()
        return reference_results, sharded_results

    @pytest.mark.parametrize("arch,kwargs,sample_shape", ARCHS)
    def test_bit_identical_to_serial_in_float64(
        self, arch, kwargs, sample_shape
    ):
        reference_results, sharded_results = self._run(
            arch, kwargs, sample_shape, np.float64
        )
        for (reference_vec, _), (sharded_vec, _) in zip(
            reference_results, sharded_results
        ):
            np.testing.assert_array_equal(reference_vec, sharded_vec)

    @pytest.mark.parametrize("arch,kwargs,sample_shape", ARCHS)
    def test_float32_drift_bounded(self, arch, kwargs, sample_shape):
        """On a float32 arena both paths train in float32; they may
        round differently (blocked vs per-row op order) but must stay
        within rounding distance of each other."""
        reference_results, sharded_results = self._run(
            arch, kwargs, sample_shape, np.float32
        )
        for (reference_vec, _), (sharded_vec, _) in zip(
            reference_results, sharded_results
        ):
            assert sharded_vec.dtype == np.float32
            scale = np.linalg.norm(reference_vec.astype(np.float64))
            drift = np.linalg.norm(
                sharded_vec.astype(np.float64)
                - reference_vec.astype(np.float64)
            )
            assert drift / scale < 1e-4


class TestSharedSegmentLifecycle:
    def test_crash_cleanup_unlinks_segment(self, tmp_path):
        """A process that creates a shared arena and dies on an
        exception mid-run must not leak its /dev/shm segment: the
        finalizer guard releases it at interpreter exit."""
        name_file = tmp_path / "segment_name"
        script = (
            "import sys\n"
            "from repro.gossip import StateArena\n"
            "from repro.nn import build_mlp, get_state\n"
            "from repro.nn.flat import StateLayout\n"
            "import numpy as np\n"
            "layout = StateLayout.from_state("
            "get_state(build_mlp(8, 3, hidden=(4,))))\n"
            "arena = StateArena(layout, 4, shared=True)\n"
            f"open({str(name_file)!r}, 'w').write(arena.shared_name)\n"
            "raise RuntimeError('simulated crash mid-run')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode != 0
        assert "simulated crash" in proc.stderr
        name = name_file.read_text()
        assert name
        assert not segment_exists(name)

    def test_explicit_release_keeps_data_readable(self):
        model, layout, splits, config, arena = make_fixture()
        name = arena.shared_name
        snapshot = arena.data.copy()
        arena.release()
        assert arena.shared_name is None
        assert not segment_exists(name)
        np.testing.assert_array_equal(arena.data, snapshot)
        arena.release()  # idempotent

    def test_simulator_context_manager_releases_everything(self):
        from repro.gossip import (
            FlatGossipSimulator,
            BatchedTrainer as LT,
            SimulatorConfig,
            make_protocol,
        )

        model = MODEL_BUILDER(rng=np.random.default_rng(0))
        trainer = LT(
            model,
            TrainerConfig(learning_rate=0.05, local_epochs=1, batch_size=8),
        )
        train, _ = make_synthetic_tabular_dataset(
            "t", 300, 30, num_features=16, num_classes=4, seed=0
        )
        splits = make_node_splits(
            train, 6, train_per_node=16, test_per_node=8, seed=0
        )
        config = SimulatorConfig(
            n_nodes=6, view_size=2, ticks_per_round=20, wake_mu=20,
            wake_sigma=2, executor="sharded", n_shards=2, seed=0,
        )
        with FlatGossipSimulator(
            config, make_protocol("samo", trainer), splits,
            get_state(model), model_builder=MODEL_BUILDER,
        ) as sim:
            sim.run(2)
            name = sim.arena.shared_name
            assert name is not None
            executor = sim.executor()
            trained = sim.arena.data.copy()
        assert not segment_exists(name)
        assert all(not p.is_alive() for p in executor._procs)
        # The arena was copied private: the trained rows stay readable
        # after the segment died.
        assert sim.arena.shared_name is None
        np.testing.assert_array_equal(sim.state_matrix(), trained)

    def test_context_manager_releases_on_exception(self):
        from repro.gossip import (
            FlatGossipSimulator,
            BatchedTrainer as LT,
            SimulatorConfig,
            make_protocol,
        )

        model = MODEL_BUILDER(rng=np.random.default_rng(0))
        trainer = LT(
            model,
            TrainerConfig(learning_rate=0.05, local_epochs=1, batch_size=8),
        )
        train, _ = make_synthetic_tabular_dataset(
            "t", 300, 30, num_features=16, num_classes=4, seed=0
        )
        splits = make_node_splits(
            train, 6, train_per_node=16, test_per_node=8, seed=0
        )
        config = SimulatorConfig(
            n_nodes=6, view_size=2, ticks_per_round=20, wake_mu=20,
            wake_sigma=2, executor="sharded", n_shards=2, seed=0,
        )
        with pytest.raises(RuntimeError, match="boom"):
            with FlatGossipSimulator(
                config, make_protocol("samo", trainer), splits,
                get_state(model), model_builder=MODEL_BUILDER,
            ) as sim:
                sim.run(1)
                name = sim.arena.shared_name
                raise RuntimeError("boom")
        assert not segment_exists(name)
