"""Tests for the flat-buffer execution engine."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference_nn import state_to_vector, unpack
from reference_trainer import ReferenceExecutor, use_reference
from repro.data import make_node_splits, make_synthetic_tabular_dataset
from repro.gossip import (
    BatchedExecutor,
    BatchedTrainer,
    FlatGossipSimulator,
    SimulatorConfig,
    StateArena,
    TrainerConfig,
    UpdateTask,
    make_protocol,
)
from repro.gossip.engine import mean_vectors
from repro.nn import build_mlp, get_state
from repro.nn.flat import StateLayout

MODEL_BUILDER = partial(build_mlp, 16, 4, hidden=(8,))


def build_flat(
    protocol_name="samo",
    n_nodes=6,
    executor="serial",
    arena_dtype="float64",
    seed=0,
    lr_decay=1.0,
    momentum=0.0,
    dp=None,
    dropout=0.0,
    max_updates=None,
    view_size=2,
    n_samples=300,
    **config_kwargs,
):
    builder = (
        MODEL_BUILDER
        if dropout == 0.0
        else partial(build_mlp, 16, 4, hidden=(8,), dropout=dropout)
    )
    model = builder(rng=np.random.default_rng(0))
    trainer = BatchedTrainer(
        model,
        TrainerConfig(
            learning_rate=0.05,
            momentum=momentum,
            local_epochs=1,
            batch_size=8,
            lr_decay=lr_decay,
            dp=dp,
        ),
    )
    train, _ = make_synthetic_tabular_dataset(
        "t", n_samples, 30, num_features=16, num_classes=4, seed=seed
    )
    splits = make_node_splits(
        train, n_nodes, train_per_node=16, test_per_node=8, seed=seed
    )
    protocol = make_protocol(protocol_name, trainer)
    protocol.max_updates_per_node = max_updates
    config = SimulatorConfig(
        n_nodes=n_nodes,
        view_size=view_size,
        ticks_per_round=20,
        wake_mu=20,
        wake_sigma=2,
        executor=executor,
        arena_dtype=arena_dtype,
        seed=seed,
        **config_kwargs,
    )
    return FlatGossipSimulator(config, protocol, splits, get_state(model))


class TestStateArena:
    def _arena(self, n_nodes=4, dtype=np.float64):
        state = get_state(MODEL_BUILDER(rng=np.random.default_rng(0)))
        layout = StateLayout.from_state(state)
        return StateArena(layout, n_nodes, dtype=dtype), state

    def test_load_and_view_round_trip(self):
        arena, state = self._arena()
        arena.load_state(2, state)
        view = unpack(arena.layout, arena.row(2))
        np.testing.assert_array_equal(
            state_to_vector(view), state_to_vector(state)
        )

    def test_views_are_live(self):
        arena, state = self._arena()
        arena.load_state(0, state)
        view = unpack(arena.layout, arena.row(0))
        arena.row(0)[:] = 7.0
        name = arena.layout.names[0]
        assert view[name].flat[0] == 7.0

    def test_mix_rows_are_weighted_averages(self):
        arena, _ = self._arena()
        rng = np.random.default_rng(3)
        arena.data[:] = rng.normal(size=arena.data.shape)
        weights = np.zeros((4, 4))
        weights[0, [0, 1, 3]] = 1.0 / 3.0
        weights[1, [0, 1]] = [2.0 / 3.0, 1.0 / 3.0]
        mixed = arena.mix(weights)
        np.testing.assert_allclose(mixed[0], arena.data[[0, 1, 3]].mean(axis=0))
        np.testing.assert_allclose(
            mixed[1], (2.0 * arena.data[0] + arena.data[1]) / 3.0
        )
        np.testing.assert_array_equal(mixed[2:], 0.0)
        with pytest.raises(ValueError, match="weights"):
            arena.mix(np.ones((3, 4)))

    def test_merge_row_pairwise(self):
        arena, _ = self._arena()
        arena.data[0] = 1.0
        payload = np.full(arena.dim, 3.0)
        arena.merge_row(0, payload, weight=0.5)
        np.testing.assert_allclose(arena.row(0), np.full(arena.dim, 2.0))

    def test_float32_storage(self):
        arena, state = self._arena(dtype=np.float32)
        arena.load_state(0, state)
        assert arena.data.dtype == np.float32
        np.testing.assert_array_equal(
            arena.row(0), arena.layout.pack(state).astype(np.float32)
        )


@st.composite
def vector_stacks(draw):
    """k = 1..32 vectors of one float dtype, as a (k, dim) array."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(1, 32)), draw(st.integers(1, 9)))
    elements = st.floats(
        width=np.dtype(dtype).itemsize * 8, allow_nan=False, allow_infinity=False
    )
    return draw(arrays(dtype, shape, elements=elements))


class TestMeanVectors:
    """The in-place average is the stacked mean, bit for bit."""

    @given(vector_stacks(), st.booleans())
    def test_matches_stacked_mean_bitwise(self, stack, alias_out):
        vectors = [row.copy() for row in stack]
        expected = np.stack(vectors).mean(axis=0)
        out = vectors[0] if alias_out else None
        result = mean_vectors(vectors, out=out)
        if alias_out:
            assert result is vectors[0]
        assert result.dtype == expected.dtype
        assert result.tobytes() == expected.tobytes()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_vectors([])


class TestSimulatorConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, executor="thread")
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, executor="process")
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, arena_dtype="float16")
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, executor="sharded")


class TestFlatSimulator:
    def test_nodes_share_initial_model(self):
        sim = build_flat()
        assert np.all(sim.arena.data == sim.arena.data[0])

    @pytest.mark.parametrize("protocol_name", ["samo", "base_gossip"])
    def test_run_trains_and_communicates(self, protocol_name):
        sim = build_flat(protocol_name)
        initial = sim.arena.data.copy()
        sim.run(3)
        sim.close()
        assert sim.messages_sent > 0
        assert sum(n.updates_performed for n in sim.nodes) > 0
        assert not np.array_equal(sim.arena.data, initial)
        assert np.isfinite(sim.arena.data).all()

    def test_update_cap_respected(self):
        sim = build_flat(max_updates=2)
        sim.run(5)
        assert all(n.updates_performed <= 2 for n in sim.nodes)

    def test_partial_merge_weight_honored(self):
        sim = build_flat("base_gossip_partial")
        assert sim._merge_weight == pytest.approx(0.25)
        sim.run(2)
        assert sim.messages_sent > 0

    def test_float32_arena_runs(self):
        sim = build_flat(arena_dtype="float32")
        sim.run(2)
        assert sim.arena.data.dtype == np.float32
        assert sim.state_matrix().dtype == np.float32
        assert np.isfinite(sim.arena.data).all()

    def test_message_drop_and_failure_injection(self):
        sim = build_flat(drop_prob=0.5, failure_prob=0.3, seed=2)
        sim.run(4)
        assert sim.messages_dropped > 0
        assert sim.wakes_skipped > 0

    def test_delayed_messages_tallied_at_end(self):
        sim = build_flat(delay_ticks=10_000)
        sim.run(2)
        assert sim.messages_undelivered == sim.messages_sent
        assert sim.messages_undelivered == sim.messages_in_flight

    def test_in_flight_payload_frozen_at_send_time(self):
        """A wake sends one read-only snapshot of the sender's row to
        every neighbour: training the row while the message is delayed
        must not alter the payload, and the payload refuses writes."""
        sim = build_flat(delay_ticks=3)
        sent = sim.arena.row(0).copy()
        sim._samo_wakes([0])
        sim.arena.row(0)[:] += 99.0
        payloads = [entry[4] for entry in sim._in_flight]
        assert len(payloads) == len(sim.sampler.view(0)) > 1
        assert all(p is payloads[0] for p in payloads)
        np.testing.assert_array_equal(payloads[0], sent)
        with pytest.raises(ValueError):
            payloads[0][0] = 1.0

    def test_one_read_only_payload_per_wake(self):
        """After a 32-node, view-4 SAMO round every queued payload is
        read-only and no wake produced more than one payload object."""
        sim = build_flat(n_nodes=32, view_size=4, n_samples=1000, delay_jitter=2)
        # id -> (payload, {(sender, tick)}); holding the payload keeps
        # its id from being reused by a later snapshot.
        sent: dict[int, tuple] = {}
        send = sim._send_vector

        def spy(sender, receiver, payload):
            sent.setdefault(id(payload), (payload, set()))[1].add(
                (sender, sim.clock.tick)
            )
            send(sender, receiver, payload)

        sim._send_vector = spy
        sim.run_round()  # run() would flush the in-flight heap
        queued = [p for node in sim.nodes for p in node.inbox]
        queued += [p for _, _, p in sim._pending]
        queued += [entry[4] for entry in sim._in_flight]
        assert queued and sim._in_flight
        assert not any(p.flags.writeable for p in queued)
        wakes = [w for _, w in sent.values()]
        assert all(len(w) == 1 for w in wakes)  # one wake per payload
        assert len(set().union(*wakes)) == len(sent)  # one payload per wake
        assert {id(p) for p in queued} <= set(sent)

    def test_empty_split_node_skips_sessions(self):
        """A node without data still gossips (updates_performed grows)
        but its lr_decay session counter must not advance."""
        sim = build_flat(lr_decay=0.5)
        node = sim.nodes[1]
        empty_train = node.split.train.__class__(
            base=node.split.train.base, indices=node.split.train.indices[:0]
        )
        node.split = node.split.__class__(
            node_id=node.split.node_id, train=empty_train, test=node.split.test
        )
        sim.run(3)
        assert sim._sessions[1] == 0
        assert any(s > 0 for s in sim._sessions)

    @pytest.mark.parametrize(
        "executor,block_size", [("serial", 1), ("batched", 0)]
    )
    def test_in_process_executor_trains_with_protocol_trainer(
        self, executor, block_size
    ):
        """"serial" and "batched" are one executor class at two block
        sizes, both training with the protocol's blocked trainer."""
        sim = build_flat(executor=executor)
        sim.run(1)
        live = sim.executor()
        assert type(live) is BatchedExecutor
        assert live.trainer is sim.protocol.trainer
        assert live.block_size == block_size
        sim.close()

    def test_rejects_unknown_protocol(self):
        class FakeProtocol:
            name = "fake"
            trainer = None
            max_updates_per_node = None

        model = MODEL_BUILDER(rng=np.random.default_rng(0))
        train, _ = make_synthetic_tabular_dataset(
            "t", 100, 20, num_features=16, num_classes=4, seed=0
        )
        splits = make_node_splits(
            train, 4, train_per_node=8, test_per_node=4, seed=0
        )
        config = SimulatorConfig(n_nodes=4, view_size=2, seed=0)
        with pytest.raises(ValueError, match="flat engine"):
            FlatGossipSimulator(config, FakeProtocol(), splits, get_state(model))


class TestExecutorContract:
    """The shared executor contract, one parametrized suite for every
    ``executor`` value: same tasks -> the same final states as the
    workspace-loop reference (``tests/reference_trainer.py``), bit for
    bit on a float64 arena."""

    @staticmethod
    def _reference(protocol_name="samo", **kwargs):
        """Run ``build_flat`` on the workspace loop; returns the arena."""
        sim = build_flat(protocol_name, **kwargs)
        use_reference(sim)
        sim.run(2)
        sim.close()
        return sim

    @pytest.mark.parametrize(
        "executor,kwargs",
        [
            ("serial", dict()),
            ("batched", dict()),
            ("batched", dict(train_batch=2)),  # chunked blocks
            ("batched", dict(train_batch=1)),  # one-row blocks
        ],
        ids=["serial", "batched", "batched-chunk2", "batched-one-row"],
    )
    @pytest.mark.parametrize("protocol_name", ["samo", "base_gossip"])
    def test_run_bit_identical_to_reference(
        self, protocol_name, executor, kwargs
    ):
        reference = self._reference(
            protocol_name, seed=5, lr_decay=0.5, momentum=0.9
        )
        other = build_flat(
            protocol_name, executor=executor, seed=5, lr_decay=0.5,
            momentum=0.9, **kwargs,
        )
        other.run(2)
        other.close()
        assert np.array_equal(reference.arena.data, other.arena.data)
        assert reference.messages_sent == other.messages_sent
        assert [n.updates_performed for n in reference.nodes] == [
            n.updates_performed for n in other.nodes
        ]
        assert reference._sessions == other._sessions

    @pytest.mark.parametrize("train_batch", [0, 1, 3])
    def test_same_tasks_same_results(self, train_batch):
        """Task-level contract: feeding the same UpdateTask batch to the
        in-process executor yields the reference's outputs."""
        sim = build_flat(lr_decay=0.5, momentum=0.9)
        trainer = sim.protocol.trainer
        splits = [node.split for node in sim.nodes]
        reference = ReferenceExecutor(trainer, splits)
        other = BatchedExecutor(trainer, splits, train_batch=train_batch)

        def make_tasks():
            return [
                UpdateTask(
                    i,
                    sim.arena.row(i).copy(),
                    np.random.default_rng(200 + i),
                    session=i % 3,
                )
                for i in range(sim.config.n_nodes)
            ]

        reference_results = reference.train_batch(make_tasks())
        other_results = other.train_batch(make_tasks())
        assert len(reference_results) == len(other_results)
        for (ref_vec, ref_rng), (other_vec, other_rng) in zip(
            reference_results, other_results
        ):
            np.testing.assert_array_equal(ref_vec, other_vec)
            assert ref_rng.random() == other_rng.random()
        reference.close()
        other.close()
        sim.close()

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    @pytest.mark.parametrize("dp", [False, True], ids=["plain", "dp"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["nodrop", "drop"])
    @pytest.mark.parametrize("protocol_name", ["samo", "base_gossip"])
    def test_matrix_float64(self, protocol_name, executor, dp, dropout):
        """Every core scenario (protocol x executor x DP x dropout)
        trains on the blocked kernel, bit-identical to the workspace
        loop in float64."""
        from repro.privacy.dp import DPSGDConfig

        dp_config = (
            DPSGDConfig(clip_norm=1.0, noise_multiplier=0.3) if dp else None
        )
        reference = self._reference(
            protocol_name, dp=dp_config, dropout=dropout, seed=11
        )
        other = build_flat(
            protocol_name, dp=dp_config, dropout=dropout, executor=executor,
            seed=11,
        )
        other.run(2)
        counts = other.fallback_counts()
        other.close()
        assert counts == {}
        assert sum(n.updates_performed for n in other.nodes) > 0
        assert np.array_equal(reference.arena.data, other.arena.data)

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    @pytest.mark.parametrize("dp", [False, True], ids=["plain", "dp"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["nodrop", "drop"])
    @pytest.mark.parametrize("seed", [9, 11])
    def test_matrix_float32(self, executor, dp, dropout, seed):
        """On a float32 arena the kernel trains in float32 and drifts
        from the float32 workspace loop only within rounding, with and
        without DP and dropout. A drift gate can pass on one seed and
        fail on another, so two seeds run."""
        from repro.privacy.dp import DPSGDConfig

        dp_config = (
            DPSGDConfig(clip_norm=1.0, noise_multiplier=0.3) if dp else None
        )
        reference = self._reference(
            dp=dp_config, dropout=dropout, arena_dtype="float32", seed=seed
        )
        other = build_flat(
            dp=dp_config, dropout=dropout, executor=executor,
            arena_dtype="float32", seed=seed,
        )
        other.run(2)
        other.close()
        assert other.arena.data.dtype == np.float32
        np.testing.assert_allclose(
            reference.arena.data, other.arena.data, rtol=1e-4, atol=1e-5
        )

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_set_trainer_config_reaches_live_executor(self, executor):
        """A mid-run config swap through the simulator must reach the
        live executor (the protocol's trainer) — training after the swap
        matches the reference bit for bit."""
        from dataclasses import replace

        def run(ex):
            sim = build_flat(
                executor="serial" if ex == "reference" else ex, seed=3
            )
            if ex == "reference":
                use_reference(sim)
            sim.run(1)
            sim.set_trainer_config(
                replace(
                    sim.protocol.trainer.config,
                    learning_rate=0.005,
                    lr_decay=0.9,
                )
            )
            sim.run(1)
            data = sim.arena.data.copy()
            sim.close()
            return data

        np.testing.assert_array_equal(run("reference"), run(executor))

    def test_set_trainer_config_rejects_non_config(self):
        sim = build_flat()
        try:
            with pytest.raises(TypeError):
                sim.set_trainer_config({"learning_rate": 0.1})
        finally:
            sim.close()

    def test_set_trainer_config_before_executor_built(self):
        sim = build_flat()
        try:
            from dataclasses import replace

            new = replace(sim.protocol.trainer.config, learning_rate=0.005)
            sim.set_trainer_config(new)
            assert sim.protocol.trainer.config.learning_rate == 0.005
            assert sim.fallback_counts() == {}
        finally:
            sim.close()

    def test_per_row_train_batch_is_gone(self):
        """train_batch=-1 selected the removed per-row trainer."""
        sim = build_flat()
        splits = [node.split for node in sim.nodes]
        with pytest.raises(ValueError, match="train_batch"):
            BatchedExecutor(sim.protocol.trainer, splits, train_batch=-1)
        with pytest.raises(ValueError, match="train_batch"):
            SimulatorConfig(train_batch=-1)
        sim.close()


class TestInPlaceTraining:
    """Executors train the live arena rows: the engine hands every task
    its node's row view, makes no per-task copy and writes nothing
    back."""

    @pytest.mark.parametrize(
        "executor,kwargs",
        [
            ("serial", dict()),
            ("batched", dict()),
            ("batched", dict(train_batch=2)),  # stacked, then scattered
        ],
        ids=["serial", "batched", "batched-chunk2"],
    )
    @pytest.mark.parametrize("protocol_name", ["samo", "base_gossip"])
    def test_tasks_carry_live_rows(self, protocol_name, executor, kwargs):
        sim = build_flat(protocol_name, executor=executor, **kwargs)
        live = sim.executor()
        train_batch = live.train_batch
        seen = []

        def spy(tasks):
            results = train_batch(tasks)
            for task, (vector, _) in zip(tasks, results):
                seen.append(
                    (np.shares_memory(task.vector, sim.arena.data),
                     vector is task.vector)
                )
            return results

        live.train_batch = spy
        try:
            sim.run(1)
        finally:
            sim.close()
        assert seen
        assert all(shared and same for shared, same in seen)


class TestSimulatorLifecycle:
    """Idempotent close and context-manager support: the executor is
    released exactly once, even when a run raises."""

    def test_close_is_idempotent(self):
        sim = build_flat()
        sim.run(1)
        sim.close()
        sim.close()

    def test_context_manager_closes_on_success(self):
        with build_flat() as sim:
            sim.run(1)
            assert sim._executor is not None
        assert sim._executor is None

    def test_context_manager_closes_on_exception(self):
        with pytest.raises(RuntimeError, match="mid-run"):
            with build_flat() as sim:
                sim.run(1)
                assert sim._executor is not None
                raise RuntimeError("mid-run")
        assert sim._executor is None


class TestMessageLogPayloads:
    def test_payloads_kept_only_on_request(self):
        sim = build_flat()
        sim.run(1)
        assert sim.log.messages == []  # default: counters only

    def test_keep_payloads_records_snapshot_dicts(self):
        """With keep_payloads, each logged message holds the read-only
        flat snapshot its send enqueued."""
        model = MODEL_BUILDER(rng=np.random.default_rng(0))
        trainer = BatchedTrainer(
            model,
            TrainerConfig(learning_rate=0.05, momentum=0.0, local_epochs=0,
                          batch_size=8),
        )
        train, _ = make_synthetic_tabular_dataset(
            "t", 100, 20, num_features=16, num_classes=4, seed=0
        )
        splits = make_node_splits(
            train, 4, train_per_node=8, test_per_node=4, seed=0
        )
        config = SimulatorConfig(
            n_nodes=4, view_size=2, ticks_per_round=10, wake_mu=10,
            wake_sigma=1, seed=0,
        )
        with FlatGossipSimulator(
            config, make_protocol("samo", trainer), splits,
            get_state(model), keep_payloads=True,
        ) as sim:
            sim.run(1)
        assert sim.log.messages
        message = sim.log.messages[0]
        assert message.payload.shape == (sim.layout.dim,)
        assert not message.payload.flags.writeable
        assert message.payload_size == sim.layout.dim


class TestOneEngine:
    """The flat simulator is the only engine, in one process: no knob
    selects another engine, a process-pool executor or shard workers."""

    def test_no_engine_or_worker_knobs(self):
        from dataclasses import fields

        from repro.core import StudyConfig

        for cls in (SimulatorConfig, StudyConfig):
            names = {f.name for f in fields(cls)}
            assert not names & {"engine", "n_workers"}, cls.__name__

    def test_no_shard_knobs(self):
        from dataclasses import fields

        from repro.core import StudyConfig
        from repro.gossip.simulator import EXECUTORS

        assert EXECUTORS == ("serial", "batched")
        for cls in (SimulatorConfig, StudyConfig):
            names = {f.name for f in fields(cls)}
            assert not names & {"n_shards", "shard_partition"}, cls.__name__


class TestSessionFlowsThroughTask:
    """lr_decay sessions are engine bookkeeping, never per-trainer state:
    the task carries the session index so every trainer sees the same
    learning rate for the same update."""

    def test_update_task_requires_explicit_session(self):
        with pytest.raises(ValueError, match="session"):
            UpdateTask(0, np.zeros(4), np.random.default_rng(0), session=None)

    def test_worker_trainers_reproduce_shared_trainer_sessions(self):
        """Trainers are stateless across sessions: one shared trainer
        fed sessions 0 and 1 matches two fresh worker trainers fed the
        same sessions — the failure mode being any per-trainer count
        (each worker would start its own at 0)."""
        model = MODEL_BUILDER(rng=np.random.default_rng(0))
        config = TrainerConfig(
            learning_rate=0.1, momentum=0.0, local_epochs=1, batch_size=8,
            lr_decay=0.5,
        )
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 16))
        y = rng.integers(0, 4, size=16)
        start = state_to_vector(get_state(model))[None]
        shared = BatchedTrainer(model, config)
        expected = start.copy()
        for session in range(2):  # node 3 trains twice on one trainer
            shared.train_block(
                expected, [x], [y], [np.random.default_rng(4)], [session],
                node_ids=[3],
            )
        # Engine-style: each update may land on a DIFFERENT worker
        # trainer; the session index travels with the task.
        out = start.copy()
        for session in range(2):
            worker = BatchedTrainer(
                MODEL_BUILDER(rng=np.random.default_rng(0)), config
            )
            worker.train_block(
                out, [x], [y], [np.random.default_rng(4)], [session],
                node_ids=[3],
            )
            assert not hasattr(worker, "_sessions")  # no bookkeeping
        np.testing.assert_array_equal(expected, out)

    def test_engine_sessions_survive_executor_choice(self):
        """The engine's session counters are identical across executors
        (covered broadly by TestExecutorContract; this pins the counter
        values themselves under lr_decay)."""
        serial = build_flat(lr_decay=0.5, seed=11)
        serial.run(3)
        serial.close()
        batched = build_flat(lr_decay=0.5, executor="batched", seed=11)
        batched.run(3)
        batched.close()
        assert serial._sessions == batched._sessions
        assert any(s > 0 for s in serial._sessions)


class TestDtypeDrift:
    """Fixed-seed float32-vs-float64 training drift stays bounded (the
    ROADMAP audit item): same study, both arena dtypes."""

    def _final_arenas(self, executor):
        out = {}
        for dtype in ("float64", "float32"):
            sim = build_flat(
                executor=executor, arena_dtype=dtype, seed=13, momentum=0.9,
            )
            sim.run(3)
            sim.close()
            out[dtype] = sim.arena.data.astype(np.float64)
        return out

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_training_drift_bounded(self, executor):
        arenas = self._final_arenas(executor)
        scale = np.linalg.norm(arenas["float64"])
        drift = np.linalg.norm(arenas["float32"] - arenas["float64"])
        assert drift / scale < 1e-4, (
            f"float32 training drifted {drift / scale:.2e} relative to "
            f"float64 after 3 rounds (bound: 1e-4)"
        )

    def test_float32_training_stays_float32(self):
        """The dtype audit: no hidden float64 promotion anywhere on the
        float32 training path — every backward pass of the blocked
        kernel gets a float32 logits gradient and fills a float32
        gradient block."""
        sim = build_flat(arena_dtype="float32", executor="serial", seed=13)
        kernel = sim.protocol.trainer._batched
        backward = kernel.backward
        seen = set()

        def spy(grad_out, grads):
            seen.add((grad_out.dtype, grads.dtype))
            return backward(grad_out, grads)

        kernel.backward = spy
        sim.run(2)
        sim.close()
        assert sim.arena.data.dtype == np.float32
        assert seen == {(np.dtype(np.float32), np.dtype(np.float32))}


class TestStateMatrix:
    def test_flat_engine_exposes_arena_zero_copy(self):
        sim = build_flat()
        matrix = sim.state_matrix()
        assert np.shares_memory(matrix, sim.arena.data)
        # Read-only contract is enforced, not just documented.
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_flat_engine_rejects_mismatched_layout(self):
        from repro.nn.flat import StateLayout

        sim = build_flat()
        wrong = StateLayout.from_state({"w": np.zeros(3)})
        with pytest.raises(ValueError, match="layout"):
            sim.state_matrix(wrong)

    def test_rows_match_node_states(self):
        sim = build_flat()
        sim.run(1)
        matrix = sim.state_matrix()
        for node in sim.nodes:
            state = unpack(sim.layout, sim.arena.row(node.node_id))
            np.testing.assert_array_equal(
                matrix[node.node_id], state_to_vector(state)
            )

    def test_dtype_only_layout_difference_accepted(self):
        """A float32 workspace layout addresses rows identically, so it
        must not be rejected (only name/offset/shape mismatches are)."""
        from repro.nn.flat import StateLayout

        sim = build_flat()
        state32 = {
            k: np.asarray(v, dtype=np.float32)
            for k, v in unpack(sim.layout, sim.arena.row(0)).items()
        }
        layout32 = StateLayout.from_state(state32)
        assert layout32.compatible_with(sim.layout)
        assert np.shares_memory(sim.state_matrix(layout32), sim.arena.data)
