"""Durability suite: the job journal, restart recovery, and the
service-layer race fixes that persistence keeps honest.

The centerpiece simulates a ``kill -9`` mid-study without killing the
test process: a ``round_hook`` holds the worker after round 0 (frame,
checkpoint and journal entries all on disk), the whole ``state_dir``
is copied byte-for-byte — exactly what a crashed box's disk would
hold — and a second service boots from the copy. The contract: the
job comes back cancelled+resumable, SSE replays every pre-crash
frame, and resume converges to the same float64 bits as an
uninterrupted ``run_study``.
"""

from __future__ import annotations

import json
import shutil
import threading

import pytest

from repro.core.config import config_hash
from repro.core.study import StudyConfig, run_study
from repro.service import StudyService
from repro.service.jobs import CANCELLED, DONE, FAILED, JobManager, StudyJob
from repro.service.persistence import JobJournal, load_state

from tests.service.conftest import tiny_study_payload


def wait_done(service, job_id, timeout=120.0) -> str:
    job = service.manager.get(job_id)
    assert job is not None
    return job.wait(timeout)


def normalized_config() -> dict:
    """The grouped/normalized spelling recovery stores in the journal."""
    return StudyConfig.from_dict(tiny_study_payload()).to_dict()


# -- journal + snapshot unit tests ---------------------------------------


class TestJournalRoundtrip:
    def test_events_roundtrip_through_load(self, tmp_path):
        journal = JobJournal(tmp_path)
        config = normalized_config()
        journal.append(
            {"event": "submitted", "job": "job-000001", "config": config,
             "config_hash": "abc", "request_id": "req-000001"}
        )
        journal.append(
            {"event": "state", "job": "job-000001", "state": "running",
             "builds": 1}
        )
        journal.append(
            {"event": "frame", "job": "job-000001", "index": 0, "frame": "{}"}
        )
        journal.append(
            {"event": "checkpoint", "job": "job-000001",
             "path": "job-000001.ckpt", "rounds": 1}
        )
        journal.close()

        state = load_state(tmp_path)
        assert state.counter == 1
        assert state.builds == 1
        job = state.jobs["job-000001"]
        assert job.state == "running"
        assert job.frames == ["{}"]
        assert job.checkpoint == "job-000001.ckpt"
        assert job.checkpoint_rounds == 1
        assert job.request_id == "req-000001"

    def test_frame_replay_dedups_by_index(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append(
            {"event": "submitted", "job": "job-000001", "config": {},
             "config_hash": "abc"}
        )
        for _ in range(2):  # the same frame replayed (snapshot overlap)
            journal.append(
                {"event": "frame", "job": "job-000001", "index": 0,
                 "frame": "f0"}
            )
        journal.append(
            {"event": "frame", "job": "job-000001", "index": 1, "frame": "f1"}
        )
        journal.close()
        assert load_state(tmp_path).jobs["job-000001"].frames == ["f0", "f1"]

    def test_deleted_event_drops_the_job(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append(
            {"event": "submitted", "job": "job-000001", "config": {},
             "config_hash": "abc"}
        )
        journal.append({"event": "deleted", "job": "job-000001"})
        journal.close()
        state = load_state(tmp_path)
        assert state.jobs == {}
        assert state.counter == 1  # the id is never reallocated

    def test_truncated_tail_line_is_dropped_not_fatal(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append(
            {"event": "submitted", "job": "job-000001", "config": {},
             "config_hash": "abc"}
        )
        journal.append(
            {"event": "frame", "job": "job-000001", "index": 0, "frame": "f0"}
        )
        journal.close()
        path = tmp_path / "journal.jsonl"
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # the crash cut the last append short

        state = load_state(tmp_path)
        assert state.dropped_lines == 1
        job = state.jobs["job-000001"]
        assert job.frames == []  # the torn frame line is gone, the job is not

    def test_corrupt_snapshot_is_ignored(self, tmp_path):
        (tmp_path / "snapshot.json").write_text("{not json", encoding="utf-8")
        journal = JobJournal(tmp_path)
        journal.append(
            {"event": "submitted", "job": "job-000003", "config": {},
             "config_hash": "abc"}
        )
        journal.close()
        state = load_state(tmp_path)
        assert list(state.jobs) == ["job-000003"]
        assert state.counter == 3

    def test_compaction_folds_journal_into_snapshot(self, tmp_path):
        snapshot = {
            "jobs": [
                {"id": "job-000001", "config": {}, "config_hash": "abc",
                 "state": "done", "frames": ["f0"], "result": "{}"}
            ],
            "counter": 1,
            "builds": 1,
        }
        journal = JobJournal(tmp_path, snapshot_provider=lambda: snapshot)
        journal.append(
            {"event": "submitted", "job": "job-000001", "config": {},
             "config_hash": "abc"}
        )
        journal.compact()
        journal.close()
        assert (tmp_path / "journal.jsonl").read_text() == ""  # truncated
        state = load_state(tmp_path)
        job = state.jobs["job-000001"]
        assert (job.state, job.frames, job.result) == ("done", ["f0"], "{}")
        assert state.builds == 1

    def test_auto_compaction_after_n_appends(self, tmp_path):
        journal = JobJournal(
            tmp_path, snapshot_provider=lambda: {"jobs": [], "counter": 0,
                                                 "builds": 0},
            compact_every=3,
        )
        for i in range(3):
            journal.append({"event": "frame", "job": "job-000001", "index": i})
        assert (tmp_path / "snapshot.json").exists()
        assert (tmp_path / "journal.jsonl").read_text() == ""
        journal.close()


# -- recovery state mapping (crafted journals) ---------------------------


class TestRecoveryStateMapping:
    def _manager(self, tmp_path, **kwargs) -> JobManager:
        manager = JobManager(state_dir=tmp_path, **kwargs)
        self._managers.append(manager)
        return manager

    @pytest.fixture(autouse=True)
    def _track_managers(self):
        self._managers: list[JobManager] = []
        yield
        for manager in self._managers:
            manager.close()

    def _craft(self, tmp_path, events, checkpoint_files=()):
        journal = JobJournal(tmp_path)
        for event in events:
            journal.append(event)
        journal.close()
        ckpt_dir = tmp_path / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        for name in checkpoint_files:
            (ckpt_dir / name).write_bytes(b"stub")

    def test_running_with_checkpoint_comes_back_cancelled_resumable(
        self, tmp_path
    ):
        config = normalized_config()
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": config,
                 "config_hash": "abc"},
                {"event": "state", "job": "job-000001", "state": "running",
                 "builds": 1},
                {"event": "frame", "job": "job-000001", "index": 0,
                 "frame": "f0"},
                {"event": "checkpoint", "job": "job-000001",
                 "path": "job-000001.ckpt", "rounds": 1},
            ],
            checkpoint_files=["job-000001.ckpt"],
        )
        manager = self._manager(tmp_path)
        job = manager.get("job-000001")
        assert job.state == CANCELLED
        assert job.error is None
        assert job.frames == ["f0"]
        assert job.checkpoint_path is not None
        assert job.snapshot()["resumable"] is True
        assert manager.builds_performed == 1

    def test_frames_past_the_checkpoint_are_truncated(self, tmp_path):
        config = normalized_config()
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": config,
                 "config_hash": "abc"},
                {"event": "state", "job": "job-000001", "state": "running",
                 "builds": 1},
                {"event": "frame", "job": "job-000001", "index": 0,
                 "frame": "f0"},
                {"event": "checkpoint", "job": "job-000001",
                 "path": "job-000001.ckpt", "rounds": 1},
                # Crash landed after this frame but before its checkpoint:
                {"event": "frame", "job": "job-000001", "index": 1,
                 "frame": "f1"},
            ],
            checkpoint_files=["job-000001.ckpt"],
        )
        job = self._manager(tmp_path).get("job-000001")
        assert job.state == CANCELLED
        assert job.frames == ["f0"]  # resume regenerates f1 bit-identically

    def test_running_without_checkpoint_comes_back_failed(self, tmp_path):
        config = normalized_config()
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": config,
                 "config_hash": "abc"},
                {"event": "state", "job": "job-000001", "state": "running",
                 "builds": 1},
                {"event": "frame", "job": "job-000001", "index": 0,
                 "frame": "f0"},
            ],
        )
        job = self._manager(tmp_path).get("job-000001")
        assert job.state == FAILED
        assert "before a checkpoint" in job.error
        assert job.frames == ["f0"]  # streamed rounds stay replayable

    def test_queued_job_with_nothing_on_disk_reruns_from_scratch(
        self, tmp_path
    ):
        config = normalized_config()
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": config,
                 "config_hash": "abc"},
            ],
        )
        manager = self._manager(tmp_path)
        job = manager.get("job-000001")
        assert job.state == CANCELLED
        assert job.frames == []
        # Resuming a never-started job is just a fresh run.
        manager.resume("job-000001")
        assert job.wait(120) == DONE
        assert len(job.frames) == job.config.rounds

    def test_new_ids_never_collide_with_recovered_ones(self, tmp_path):
        config = normalized_config()
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000007", "config": config,
                 "config_hash": "abc"},
                {"event": "failed", "job": "job-000007", "error": "boom"},
            ],
        )
        manager = self._manager(tmp_path)
        job, created = manager.submit(StudyConfig.from_dict(
            tiny_study_payload(seed=99)))
        assert created
        assert job.id == "job-000008"
        assert job.wait(120) == DONE

    def test_pre_removal_config_recovers_done_job_with_result(self, tmp_path):
        """Journals written while the dict engine and the process-pool
        executor existed carry ``execution.engine``/``n_workers`` (and
        maybe ``executor: "process"``). A done job from such a journal
        comes back with its result instead of being dropped."""
        config = normalized_config()
        config["execution"] = dict(
            config["execution"], engine="flat", executor="process",
            n_workers=2,
        )
        result = '{"config_name": "svc-test", "rounds": []}'
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": config,
                 "config_hash": "abc"},
                {"event": "state", "job": "job-000001", "state": "running",
                 "builds": 1},
                {"event": "frame", "job": "job-000001", "index": 0,
                 "frame": "f0"},
                {"event": "done", "job": "job-000001", "result": result},
            ],
        )
        job = self._manager(tmp_path).get("job-000001")
        assert job is not None
        assert job.state == DONE
        assert job.result_json == result
        assert job.frames == ["f0"]
        # Loaded as today's spelling: "process" is serial, bit for bit.
        assert job.config == StudyConfig.from_dict(tiny_study_payload())
        assert job.config_hash == StudyConfig.from_dict(
            tiny_study_payload()
        ).config_hash()

    def test_pre_shard_removal_config_recovers_done_job_with_result(
        self, tmp_path
    ):
        """Journals written while the sharded executor existed carry
        ``n_shards``, ``shard_partition`` and ``dropout_mode``, and
        maybe ``executor: "sharded"``. On a float64 arena such a done
        job comes back with its result, under the serial equivalent's
        hash (the executors are bit-identical in float64)."""
        config = normalized_config()
        config["model"] = dict(config["model"], dropout_mode="stream")
        config["execution"] = dict(
            config["execution"], executor="sharded", n_shards=2,
            shard_partition="balanced",
        )
        result = '{"config_name": "svc-test", "rounds": []}'
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": config,
                 "config_hash": "abc"},
                {"event": "done", "job": "job-000001", "result": result},
            ],
        )
        manager = self._manager(tmp_path)
        job = manager.get("job-000001")
        assert job is not None
        assert job.state == DONE
        assert job.result_json == result
        serial = StudyConfig.from_dict(tiny_study_payload())
        assert job.config == serial
        assert job.config_hash == serial.config_hash()
        # The recovered index answers the serial spelling with that job.
        again, created = manager.submit(serial)
        assert not created
        assert again is job

    def test_float32_sharded_job_is_dropped_with_warning(
        self, tmp_path, caplog
    ):
        """On a float32 arena the shard workers trained stacked blocks,
        which round differently from one row per call: such a job's
        result must not be served under the serial hash."""
        config = normalized_config()
        config["execution"] = dict(
            config["execution"], executor="sharded", n_shards=2,
            arena_dtype="float32",
        )
        result = '{"config_name": "svc-test", "rounds": []}'
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": config,
                 "config_hash": "abc"},
                {"event": "done", "job": "job-000001", "result": result},
            ],
        )
        with caplog.at_level("WARNING", logger="repro.service.jobs"):
            manager = self._manager(tmp_path)
        assert manager.get("job-000001") is None
        assert any(
            "stored config no longer loads" in r.getMessage()
            and "float32 arena" in r.getMessage()
            for r in caplog.records
        )

    def test_dict_engine_job_is_dropped(self, tmp_path):
        config = normalized_config()
        config["execution"] = dict(config["execution"], engine="dict")
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": config,
                 "config_hash": "abc"},
                {"event": "failed", "job": "job-000001", "error": "boom"},
            ],
        )
        assert self._manager(tmp_path).get("job-000001") is None

    def test_legacy_dropout_job_is_dropped_with_warning(self, tmp_path, caplog):
        """``dropout_mode: "legacy"`` drew its masks in the removed
        workspace trainer, and ``eval_batch: -1`` observed on the removed
        per-node loop, so a journaled job carrying either no longer
        loads: recovery drops it and says why."""
        dropout = normalized_config()
        dropout["model"] = dict(
            dropout["model"], dropout=0.25, dropout_mode="legacy"
        )
        per_node = normalized_config()
        per_node["execution"] = dict(per_node["execution"], eval_batch=-1)
        result = '{"config_name": "svc-test", "rounds": []}'
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": dropout,
                 "config_hash": "abc"},
                {"event": "done", "job": "job-000001", "result": result},
                {"event": "submitted", "job": "job-000002",
                 "config": per_node, "config_hash": "def"},
                {"event": "done", "job": "job-000002", "result": result},
            ],
        )
        with caplog.at_level("WARNING", logger="repro.service.jobs"):
            manager = self._manager(tmp_path)
        assert manager.get("job-000001") is None
        assert manager.get("job-000002") is None
        messages = [
            r.getMessage()
            for r in caplog.records
            if "stored config no longer loads" in r.getMessage()
        ]
        assert any("workspace trainer" in m for m in messages)
        assert any("per-node observer loop" in m for m in messages)

    def test_recovery_compacts_so_restart_is_idempotent(self, tmp_path):
        config = normalized_config()
        self._craft(
            tmp_path,
            [
                {"event": "submitted", "job": "job-000001", "config": config,
                 "config_hash": "abc"},
                {"event": "state", "job": "job-000001", "state": "running",
                 "builds": 1},
            ],
        )
        self._manager(tmp_path).close()
        # The snapshot now records the *mapped* state (cancelled), so a
        # second boot sees a clean journal and the same table.
        assert (tmp_path / "journal.jsonl").read_text() == ""
        job = self._manager(tmp_path).get("job-000001")
        assert job.state == CANCELLED


# -- end-to-end restart contract (the ISSUE acceptance path) -------------


class TestRestartRecovery:
    def _boot(self, make_service, make_client, state_dir, **kwargs):
        service = make_service(
            state_dir=state_dir, checkpoint_dir=None, **kwargs
        )
        return service, make_client(service)

    def _crash_image(self, tmp_path, make_service, make_client, rounds=3):
        """Submit a study, freeze it after round 0, and photograph the
        state_dir — the byte-exact disk a kill -9 would leave."""
        first_round = threading.Event()
        release = threading.Event()

        def hook(job, record):
            if record.round_index == 0:
                first_round.set()
                assert release.wait(60)

        state_dir = tmp_path / "live"
        service, client = self._boot(
            make_service, make_client, state_dir, round_hook=hook
        )
        payload = tiny_study_payload(rounds=rounds)
        status, _, body = client.submit(payload)
        assert status == 200
        assert first_round.wait(120)
        # Frame 0 + its checkpoint are journaled; the worker is frozen
        # mid-round-1 — copy the directory as the crash image.
        crash_dir = tmp_path / "crash"
        shutil.copytree(state_dir, crash_dir)
        release.set()
        return crash_dir, payload, body

    def test_kill_restart_replay_resume_bit_identity(
        self, tmp_path, make_service, make_client
    ):
        crash_dir, payload, pre_crash = self._crash_image(
            tmp_path, make_service, make_client
        )
        expected = run_study(StudyConfig.from_dict(payload))

        service, client = self._boot(make_service, make_client, crash_dir)
        job_id = pre_crash["id"]

        # GET /studies lists the job as cancelled + resumable.
        status, _, listing = client.get("/studies")
        assert status == 200
        (snapshot,) = [
            s for s in json.loads(listing)["studies"] if s["id"] == job_id
        ]
        assert snapshot["state"] == "cancelled"
        assert snapshot["resumable"] is True
        assert snapshot["rounds_completed"] == 1

        # SSE replays the pre-crash frame for a subscriber that connects
        # *after* the restart, then follows the resumed run live.
        pre_crash_frames = [
            r.to_json() for r in expected.rounds[:1]
        ]
        job = service.manager.get(job_id)
        assert job.frames == pre_crash_frames

        # The recovered build count is the pre-crash one.
        assert service.manager.builds_performed == 1

        status, _, _ = client.post_json(f"/studies/{job_id}/resume")
        assert status == 202
        assert wait_done(service, job_id) == "done"

        # Full replay equals the uninterrupted run frame for frame —
        # the float64 bit-identity contract across a process death.
        frames = client.round_frames(job_id)
        assert frames == [r.to_json() for r in expected.rounds]
        status, _, result = client.get(f"/studies/{job_id}/result")
        assert status == 200
        assert result.decode("utf-8") == expected.to_json()
        # Crash-resume accounting matches live cancel-resume: 2 builds.
        assert service.manager.builds_performed == 2

    def test_checkpoint_file_ahead_of_journal_backfills_frames(
        self, tmp_path, make_service, make_client
    ):
        """kill -9 can land between a checkpoint *file* write and its
        journal event, leaving the file one round ahead of the journal.
        Recovery truncates frames to the journaled count and the resume
        starts past the truncated round — without the backfill the
        replay buffer is permanently one frame short."""
        second_round = threading.Event()
        release = threading.Event()

        def hook(job, record):
            if record.round_index == 1:
                second_round.set()
                assert release.wait(60)

        state_dir = tmp_path / "live"
        service, client = self._boot(
            make_service, make_client, state_dir, round_hook=hook
        )
        payload = tiny_study_payload(rounds=3)
        status, _, body = client.submit(payload)
        assert status == 200
        assert second_round.wait(120)
        # Round 1's frame and checkpoint are journaled; photograph the
        # disk, then drop the trailing checkpoint line — the journal
        # now records the round-0 checkpoint while the file on disk
        # covers rounds 0-1.
        crash_dir = tmp_path / "crash"
        shutil.copytree(state_dir, crash_dir)
        release.set()
        journal = crash_dir / "journal.jsonl"
        lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
        last = json.loads(lines[-1])
        assert (last["event"], last["rounds"]) == ("checkpoint", 2)
        journal.write_text("".join(lines[:-1]), encoding="utf-8")

        expected = run_study(StudyConfig.from_dict(payload))
        service2, client2 = self._boot(make_service, make_client, crash_dir)
        job_id = body["id"]
        job = service2.manager.get(job_id)
        assert job.state == CANCELLED
        # Truncated to the journaled checkpoint, as for any frame that
        # outran its checkpoint.
        assert job.frames == [r.to_json() for r in expected.rounds[:1]]

        status, _, _ = client2.post_json(f"/studies/{job_id}/resume")
        assert status == 202
        assert wait_done(service2, job_id) == "done"
        # The resume backfilled round 1 from the checkpoint's records:
        # the full replay is gapless and bit-identical.
        frames = client2.round_frames(job_id)
        assert frames == [r.to_json() for r in expected.rounds]
        _, _, snap = client2.get(f"/studies/{job_id}")
        snap = json.loads(snap)
        assert snap["rounds_completed"] == snap["rounds_total"] == 3
        _, _, result = client2.get(f"/studies/{job_id}/result")
        assert result.decode("utf-8") == expected.to_json()

    def test_restart_warms_the_response_cache(
        self, tmp_path, make_service, make_client
    ):
        crash_dir, payload, pre_crash = self._crash_image(
            tmp_path, make_service, make_client
        )
        service, client = self._boot(make_service, make_client, crash_dir)
        status, headers, body = client.submit(payload)
        assert status == 200
        # Served from the warmed cache: same job id, no new build.
        assert headers["X-Cache"] == "hit"
        assert body == pre_crash
        assert service.manager.builds_performed == 1

    def test_journal_corruption_tolerated_end_to_end(
        self, tmp_path, make_service, make_client
    ):
        crash_dir, _, pre_crash = self._crash_image(
            tmp_path, make_service, make_client
        )
        journal = crash_dir / "journal.jsonl"
        journal.write_bytes(journal.read_bytes()[:-7])  # tear the tail

        service, client = self._boot(make_service, make_client, crash_dir)
        status, _, body = client.get(f"/studies/{pre_crash['id']}")
        assert status == 200
        # The torn line was the round-0 checkpoint record or later, so
        # the job still exists; whichever mapping applies, the service
        # is up and consistent.
        assert json.loads(body)["state"] in ("cancelled", "failed")

    def test_graceful_shutdown_preserves_running_jobs(
        self, tmp_path, make_service, make_client
    ):
        state_dir = tmp_path / "state"
        service, client = self._boot(make_service, make_client, state_dir)
        payload = tiny_study_payload(rounds=3)
        _, _, body = client.submit(payload)
        job_id = body["id"]
        # Close while (probably) mid-run: in durable mode close() lets
        # the job checkpoint instead of discarding it.
        service.close()

        service2, client2 = self._boot(make_service, make_client, state_dir)
        status, _, snap = client2.get(f"/studies/{job_id}")
        assert status == 200
        snap = json.loads(snap)
        if snap["state"] == "done":  # the run won the race with close()
            return
        assert snap["state"] == "cancelled"
        assert snap["resumable"] is True or snap["rounds_completed"] == 0
        status, _, _ = client2.post_json(f"/studies/{job_id}/resume")
        assert status == 202
        assert wait_done(service2, job_id) == "done"
        expected = run_study(StudyConfig.from_dict(payload))
        frames = client2.round_frames(job_id)
        assert frames == [r.to_json() for r in expected.rounds]

    def test_done_jobs_survive_with_results(
        self, tmp_path, make_service, make_client
    ):
        state_dir = tmp_path / "state"
        service, client = self._boot(make_service, make_client, state_dir)
        _, _, body = client.submit(tiny_study_payload())
        job_id = body["id"]
        assert wait_done(service, job_id) == "done"
        _, _, result_before = client.get(f"/studies/{job_id}/result")
        service.close()

        service2, client2 = self._boot(make_service, make_client, state_dir)
        status, _, result_after = client2.get(f"/studies/{job_id}/result")
        assert status == 200
        assert result_after == result_before
        # Dedup index survived too: resubmitting returns the same job
        # without a build (possibly via the warmed cache).
        builds = service2.manager.builds_performed
        status, _, resubmit = client2.submit(tiny_study_payload())
        assert resubmit["id"] == job_id
        assert service2.manager.builds_performed == builds
        # A finished job's per-round checkpoint files are not leaked.
        assert list((state_dir / "checkpoints").glob("*.ckpt")) == []


# -- satellite: stale cache on FAILED jobs -------------------------------


class TestFailedJobCacheInvalidation:
    def test_resubmit_after_failure_builds_fresh(
        self, make_service, make_client
    ):
        def hook(job, record):
            if job.id == "job-000001":
                raise RuntimeError("injected round failure")

        service = make_service(round_hook=hook)
        client = make_client(service)
        payload = tiny_study_payload()

        status, headers, body = client.submit(payload)
        assert status == 200
        assert headers["X-Cache"] == "miss"
        first_id = body["id"]
        job = service.manager.get(first_id)
        assert job.wait(120) == "failed"
        builds = service.manager.builds_performed

        # The FAILED job's cached submission body must not replay: the
        # resubmission reaches submit(), which evicts the failed job
        # and builds fresh.
        status, headers, body = client.submit(payload)
        assert status == 200
        assert headers["X-Cache"] == "miss"
        assert body["id"] != first_id
        assert wait_done(service, body["id"]) == "done"
        assert service.manager.builds_performed == builds + 1


# -- satellite: resume double-enqueue race -------------------------------


class TestResumeRace:
    def test_rearm_is_atomic_under_contention(self, tmp_path):
        config = StudyConfig.from_dict(tiny_study_payload())
        job = StudyJob("job-000001", config, config_hash(config))
        job.state = CANCELLED
        winners = []
        barrier = threading.Barrier(8)

        def attempt():
            barrier.wait()
            if job.rearm():
                winners.append(True)

        threads = [threading.Thread(target=attempt) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 1
        assert job.state == "queued"

    def test_concurrent_resumes_one_202_rest_409(
        self, make_service, make_client
    ):
        gate = threading.Event()
        release = threading.Event()

        def hook(job, record):
            if record.round_index == 0:
                gate.set()
                assert release.wait(60)

        service = make_service(round_hook=hook)
        client = make_client(service)
        try:
            _, _, body = client.submit(tiny_study_payload(rounds=3))
            job_id = body["id"]
            assert gate.wait(120)
            client.post_json(f"/studies/{job_id}/cancel")
        finally:
            release.set()
        job = service.manager.get(job_id)
        assert job.wait(120) == "cancelled"

        barrier = threading.Barrier(8)
        statuses = []
        lock = threading.Lock()

        def resume():
            barrier.wait()
            status, _, _ = client.post_json(f"/studies/{job_id}/resume")
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=resume) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(statuses) == [202] + [409] * 7
        assert job.wait(120) == "done"
        # One enqueue -> no duplicate frames from interleaved workers.
        assert len(job.frames) == job.config.rounds


# -- satellite: DELETE-vs-checkpoint orphan race -------------------------


class TestDeleteCheckpointRace:
    def test_delete_during_checkpoint_write_leaves_no_orphan(self, tmp_path):
        """DELETE flips ``discard`` while the worker is between the
        discard pre-check and the checkpoint write; the post-write
        re-check must unlink the file DELETE could not see."""
        first_round = threading.Event()
        release = threading.Event()
        in_window = threading.Event()
        proceed = threading.Event()

        def round_hook(job, record):
            if record.round_index == 0:
                first_round.set()
                assert release.wait(60)

        def checkpoint_hook(job):
            in_window.set()
            assert proceed.wait(60)

        manager = JobManager(
            checkpoint_dir=tmp_path / "checkpoints",
            round_hook=round_hook,
            checkpoint_hook=checkpoint_hook,
        )
        try:
            job, _ = manager.submit(
                StudyConfig.from_dict(tiny_study_payload(rounds=3))
            )
            assert first_round.wait(120)
            manager.cancel(job.id)
            release.set()
            # The worker is now inside _checkpoint_job, past the
            # discard pre-check, about to write the file.
            assert in_window.wait(120)
            manager.delete(job.id)  # sets discard; nothing to unlink yet
            proceed.set()
            assert job.wait(120) == "cancelled"
            assert manager.get(job.id) is None
            # Regression: without the post-write re-check the .ckpt
            # written after DELETE's unlink pass leaks here.
            assert list((tmp_path / "checkpoints").glob("*.ckpt")) == []
        finally:
            release.set()
            proceed.set()
            manager.close()
