"""Checkpoint/resume equivalence for Study sessions.

The contract: a study checkpointed at round k and resumed must
reproduce the uninterrupted ``run_study`` RunResult bit-identically on
float64 arenas — per executor (serial / batched / sharded), per
engine, and through the failure-injection and DP paths that exercise
every captured RNG stream.
"""

import pathlib
import pickle

import numpy as np
import pytest

from repro import Study, StudyConfig, run_study

SERIES = (
    "global_test_accuracy",
    "local_train_accuracy",
    "mia_accuracy",
    "mia_tpr_at_1_fpr",
    "mia_auc",
    "canary_tpr_at_1_fpr",
    "model_spread",
    "messages_sent",
    "epsilon",
)


def tiny_config(**overrides):
    base = dict(
        name="ckpt",
        dataset="purchase100",
        n_train=600,
        n_test=150,
        num_features=64,
        n_nodes=6,
        view_size=2,
        protocol="samo",
        rounds=3,
        train_per_node=24,
        test_per_node=12,
        mlp_hidden=(32, 16),
        local_epochs=1,
        batch_size=12,
        max_attack_samples=32,
        max_global_test=64,
        seed=13,
    )
    base.update(overrides)
    return StudyConfig(**base)


def checkpoint_at_round_then_finish(config, tmp_path, at_round=1):
    """Run ``at_round`` rounds, checkpoint, resume in a fresh session,
    finish, and return the resumed RunResult."""
    path = tmp_path / "study.ckpt"
    study = Study(config).build()
    rounds = study.iter_rounds()
    for _ in range(at_round):
        next(rounds)
    study.checkpoint(path)
    study.close()
    resumed = Study.resume(path)
    assert resumed.rounds_completed == at_round
    try:
        remaining = list(resumed.iter_rounds())
        assert len(remaining) == config.rounds - at_round
        return resumed.result()
    finally:
        resumed.close()


def assert_results_identical(reference, resumed):
    for attr in SERIES:
        np.testing.assert_array_equal(
            reference.series(attr), resumed.series(attr), err_msg=attr
        )
    assert reference.metadata == resumed.metadata
    assert [r.round_index for r in resumed.rounds] == list(
        range(len(reference.rounds))
    )


class TestCheckpointResumeEquivalence:
    @pytest.mark.parametrize(
        "executor_overrides",
        [
            dict(executor="serial"),
            dict(executor="batched"),
            dict(executor="sharded", n_shards=2),
        ],
        ids=["serial", "batched", "sharded"],
    )
    def test_bit_identical_per_executor(self, tmp_path, executor_overrides):
        config = tiny_config(**executor_overrides)
        reference = run_study(config)
        resumed = checkpoint_at_round_then_finish(config, tmp_path)
        assert_results_identical(reference, resumed)

    def test_bit_identical_with_lr_decay(self, tmp_path):
        """lr_decay sessions are engine bookkeeping; the checkpoint must
        carry them."""
        config = tiny_config(lr_decay=0.9)
        reference = run_study(config)
        resumed = checkpoint_at_round_then_finish(config, tmp_path)
        assert_results_identical(reference, resumed)

    def test_pre_removal_checkpoint_resumes_bit_identically(self, tmp_path):
        """A checkpoint written while the dict engine and the process
        pool existed stores ``execution.engine``/``n_workers`` in its
        config and ``trainer_sessions``/``trainer_steps`` plus a per-node
        ``model`` slot in its simulator state. It still resumes, and
        the run finishes bit-identically."""
        config = tiny_config(lr_decay=0.9)
        reference = run_study(config)
        path = tmp_path / "old.ckpt"
        study = Study(config).build()
        try:
            next(study.iter_rounds())
            study.checkpoint(path)
        finally:
            study.close()
        payload = pickle.loads(path.read_bytes())
        payload["config"]["execution"].update(
            engine="flat", executor="process", n_workers=2
        )
        simulator = payload["simulator"]
        simulator.update(trainer_sessions={}, trainer_steps=0)
        for node in simulator["nodes"]:
            node["model"] = None
        path.write_bytes(pickle.dumps(payload))
        resumed = Study.resume(path)
        try:
            assert resumed.config == config
            list(resumed.iter_rounds())
            assert_results_identical(reference, resumed.result())
        finally:
            resumed.close()

    def test_bit_identical_with_failures_and_latency(self, tmp_path):
        """Drops, churn and jitter all draw from the simulator RNG, and
        delayed messages sit in the in-flight heap across the
        checkpoint boundary."""
        config = tiny_config(
            drop_prob=0.1, failure_prob=0.05, delay_ticks=7, delay_jitter=3
        )
        reference = run_study(config)
        resumed = checkpoint_at_round_then_finish(config, tmp_path)
        assert_results_identical(reference, resumed)

    def test_bit_identical_dynamic_topology(self, tmp_path):
        """PeerSwap mutates sampler views; they must survive resume."""
        config = tiny_config(dynamic=True)
        reference = run_study(config)
        resumed = checkpoint_at_round_then_finish(config, tmp_path)
        assert_results_identical(reference, resumed)

    def test_bit_identical_dp_study(self, tmp_path):
        """Epsilon accounting reads per-node update counters, which the
        checkpoint restores; sigma recalibrates deterministically."""
        config = tiny_config(dp_epsilon=25.0)
        reference = run_study(config)
        resumed = checkpoint_at_round_then_finish(config, tmp_path)
        assert_results_identical(reference, resumed)

    def test_bit_identical_canary_study(self, tmp_path):
        config = tiny_config(n_canaries=8)
        reference = run_study(config)
        resumed = checkpoint_at_round_then_finish(config, tmp_path)
        assert_results_identical(reference, resumed)

    def test_bit_identical_dropout_mask_streams(self, tmp_path):
        """Counter-based mask streams are pure functions of
        (node, session, step): no mask state crosses the checkpoint, so
        resumed training redraws exactly the masks the uninterrupted
        run would have drawn."""
        config = tiny_config(dropout=0.25, executor="batched")
        reference = run_study(config)
        resumed = checkpoint_at_round_then_finish(config, tmp_path)
        assert_results_identical(reference, resumed)

    def test_bit_identical_dp_dropout_sharded(self, tmp_path):
        """The full fast-path stack at once: vectorized DP-SGD with
        stream dropout on shard workers, through a resume."""
        config = tiny_config(
            dp_epsilon=25.0, dropout=0.25, executor="sharded", n_shards=2
        )
        reference = run_study(config)
        resumed = checkpoint_at_round_then_finish(config, tmp_path)
        assert_results_identical(reference, resumed)

    def test_checkpoint_at_every_boundary(self, tmp_path):
        """Any round boundary is a valid checkpoint, including round 0
        (before any round ran) and the final round."""
        config = tiny_config(rounds=2)
        reference = run_study(config)
        for at_round in range(3):
            resumed = checkpoint_at_round_then_finish(
                config, tmp_path, at_round=at_round
            )
            assert_results_identical(reference, resumed)


class TestCheckpointFile:
    def test_resume_restores_config(self, tmp_path):
        config = tiny_config(dp_epsilon=25.0, mlp_hidden=(16, 8))
        path = tmp_path / "c.ckpt"
        with Study(config) as study:
            study.checkpoint(path)
        resumed = Study.resume(path)
        try:
            assert resumed.config == config
        finally:
            resumed.close()

    def test_checkpoint_write_is_atomic(self, tmp_path):
        """Overwriting an existing checkpoint goes through a temp file
        + rename, so the previous good file is never half-written; the
        temp file must not linger."""
        path = tmp_path / "c.ckpt"
        with Study(tiny_config(rounds=2)) as study:
            rounds = study.iter_rounds()
            next(rounds)
            study.checkpoint(path)
            first = path.read_bytes()
            next(rounds)
            study.checkpoint(path)  # overwrite in place
        assert path.read_bytes() != first
        assert not (tmp_path / "c.ckpt.tmp").exists()
        resumed = Study.resume(path)
        try:
            assert resumed.rounds_completed == 2
        finally:
            resumed.close()

    def test_resume_failure_releases_simulator_resources(self, tmp_path):
        """A corrupt state dict raising mid-restore must close the
        freshly built simulator (shared-memory segment included) —
        the caller never receives a Study to close."""
        import pickle

        config = tiny_config(executor="sharded", n_shards=2)
        path = tmp_path / "c.ckpt"
        with Study(config) as study:
            rounds = study.iter_rounds()
            next(rounds)
            study.checkpoint(path)
        payload = pickle.loads(path.read_bytes())
        payload["simulator"]["nodes"] = "corrupt"
        path.write_bytes(pickle.dumps(payload))
        shm = pathlib.Path("/dev/shm")
        before = set(p.name for p in shm.iterdir()) if shm.is_dir() else set()
        with pytest.raises(Exception):
            Study.resume(path)
        after = set(p.name for p in shm.iterdir()) if shm.is_dir() else set()
        assert after <= before  # no leaked segment

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        import pickle

        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a study checkpoint"):
            Study.resume(path)

    def test_restore_keeps_payload_sharing(self, tmp_path):
        """One wake's snapshot sits in several inboxes as one read-only
        array; the checkpoint stores it once and the restore hands the
        same object back to every inbox, instead of one copy each."""

        def inbox_groups(study):
            groups: dict[int, list] = {}
            for node in study.simulator.nodes:
                for i, payload in enumerate(node.inbox):
                    assert not payload.flags.writeable
                    groups.setdefault(id(payload), []).append((node.node_id, i))
            return sorted(groups.values())

        path = tmp_path / "c.ckpt"
        with Study(tiny_config(view_size=3)) as study:
            next(study.iter_rounds())
            study.checkpoint(path)
            before = inbox_groups(study)
        assert any(len(group) > 1 for group in before)
        resumed = Study.resume(path)
        try:
            assert inbox_groups(resumed) == before
        finally:
            resumed.close()

    def test_resumed_finished_study_yields_nothing_more(self, tmp_path):
        config = tiny_config(rounds=2)
        path = tmp_path / "done.ckpt"
        with Study(config) as study:
            records = list(study.iter_rounds())
            study.checkpoint(path)
            reference = study.result()
        resumed = Study.resume(path)
        try:
            assert list(resumed.iter_rounds()) == []
            assert len(resumed.result().rounds) == len(records)
            assert_results_identical(reference, resumed.result())
        finally:
            resumed.close()
