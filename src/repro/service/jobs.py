"""Study job manager: the computation tier behind the HTTP front end.

A fixed pool of daemon worker threads drains a FIFO queue of
:class:`StudyJob` items. Each job runs one
:class:`~repro.core.study.Study` session via ``iter_rounds()``,
appending one frame (``RoundRecord.to_json()``) per completed round to
the job's replay buffer; SSE subscribers — including late ones —
stream that buffer through :meth:`StudyJob.stream`.

Jobs are deduplicated by canonical config hash
(:func:`repro.core.config.config_hash`): submitting an identical
config returns the existing job, running or finished, so repeated
requests never build a second simulator (``builds_performed`` is the
gate the contract tests assert on). This index is the service's one
dedup path: the HTTP layer answers ``X-Cache: hit`` exactly when
:meth:`JobManager.submit` returned an existing job. Cancellation is cooperative —
:meth:`~repro.core.study.Study.request_cancel` stops the session at
the next round boundary, the worker checkpoints it, and a later
``resume`` continues from the checkpoint bit-identically (float64).

With a ``state_dir``, the manager is **durable**: every submission,
state transition, frame and checkpoint is journaled
(:mod:`repro.service.persistence`), each round writes a resumable
checkpoint, and :meth:`recover` at startup rebuilds the job table,
dedup index and replay buffers from disk. Jobs that were live at
crash time come back ``cancelled`` and resumable when a checkpoint
exists, ``failed`` otherwise — the same correlated-failure semantics
the simulator already gives a crashed node.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
from pathlib import Path
from typing import Callable, Iterator

from repro.core.config import config_hash
from repro.core.study import Study, StudyConfig
from repro.service.persistence import JobJournal, load_state
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["StudyJob", "JobManager", "QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_TERMINAL = (DONE, FAILED, CANCELLED)
_ACTIVE = (QUEUED, RUNNING)


class StudyJob:
    """One submitted study: state machine + frame replay buffer.

    All mutable state is guarded by one condition variable; round
    frames are append-only, so :meth:`stream` can replay then follow
    the buffer with nothing but an index.
    """

    def __init__(
        self, job_id: str, config: StudyConfig, key: str, request_id: str = ""
    ):
        self.id = job_id
        self.config = config
        self.config_hash = key  # config_hash(config), computed by the caller
        self.request_id = request_id
        self.state = QUEUED
        self.frames: list[str] = []
        self.error: str | None = None
        self.result_json: str | None = None
        self.checkpoint_path: Path | None = None
        self.checkpoint_rounds: int | None = None  # rounds the file covers
        self.discard = False  # DELETEd while running: skip checkpoint/result
        self._cancel_requested = False
        self._study: Study | None = None
        self._cond = threading.Condition()

    # -- worker side ----------------------------------------------------

    def _attach_study(self, study: Study) -> bool:
        """Bind the live session; returns False if already cancelled."""
        with self._cond:
            self._study = study
            if self._cancel_requested:
                study.request_cancel()
            return not self._cancel_requested or study.rounds_completed > 0

    def _append_frame(self, frame: str) -> None:
        with self._cond:
            self.frames.append(frame)
            self._cond.notify_all()

    def _finish(
        self,
        state: str,
        error: str | None = None,
        result_json: str | None = None,
        checkpoint_path: Path | None = None,
    ) -> None:
        with self._cond:
            self.state = state
            self.error = error
            if result_json is not None:
                self.result_json = result_json
            if checkpoint_path is not None:
                self.checkpoint_path = checkpoint_path
            self._study = None
            self._cond.notify_all()

    # -- service side ---------------------------------------------------

    def request_cancel(self) -> None:
        """Flag cancellation; reaches a live session immediately."""
        with self._cond:
            self._cancel_requested = True
            if self._study is not None:
                self._study.request_cancel()
            self._cond.notify_all()

    @property
    def cancel_requested(self) -> bool:
        with self._cond:
            return self._cancel_requested

    def rearm(self) -> bool:
        """Atomically flip CANCELLED -> QUEUED for a resume.

        The check and the transition happen under one lock, so of two
        racing resumes exactly one sees CANCELLED and wins; the loser
        gets False (the HTTP layer maps it to 409). Without the
        atomicity, both could pass a bare state check and enqueue the
        job twice, interleaving duplicate frames from two workers.
        """
        with self._cond:
            if self.state != CANCELLED:
                return False
            self._cancel_requested = False
            self.state = QUEUED
            self.error = None
            self._cond.notify_all()
            return True

    def snapshot(self) -> dict:
        """JSON-ready status view (the ``GET /studies/{id}`` body)."""
        with self._cond:
            return {
                "id": self.id,
                "name": self.config.name,
                "state": self.state,
                "config_hash": self.config_hash,
                "rounds_completed": len(self.frames),
                "rounds_total": self.config.rounds,
                "request_id": self.request_id,
                "error": self.error,
                # Always empty since every row trains on the blocked
                # kernel; kept so status clients keep their schema.
                "fallback_counts": {},
                "resumable": self.checkpoint_path is not None
                and self.state == CANCELLED,
            }

    def wait(self, timeout: float | None = None) -> str:
        """Block until the job reaches a terminal state; returns it."""
        with self._cond:
            self._cond.wait_for(lambda: self.state in _TERMINAL, timeout)
            return self.state

    def stream(self, poll_interval: float = 0.5) -> Iterator[tuple[int, str]]:
        """Yield ``(index, frame)`` pairs: replay the buffer, then follow.

        Ends when the buffer is drained and the job is terminal. Safe
        for any number of concurrent consumers; a consumer that goes
        away simply abandons the generator (no registration to undo),
        which is what makes client disconnects leak-free.
        """
        index = 0
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: index < len(self.frames) or self.state in _TERMINAL,
                    poll_interval,
                )
                fresh = self.frames[index:]
                state = self.state
            for frame in fresh:
                yield index, frame
                index += 1
            if state in _TERMINAL:
                with self._cond:
                    done = index >= len(self.frames)
                if done:
                    return


class JobManager:
    """Worker pool + registry with dedup-by-config-hash.

    ``builds_performed`` counts every simulator construction (fresh
    builds and checkpoint resumes); the dedup contract is that
    repeated identical submissions leave it untouched.

    ``state_dir`` switches on the durable mode: a
    :class:`~repro.service.persistence.JobJournal` lives there (with
    checkpoints under ``state_dir/checkpoints`` unless
    ``checkpoint_dir`` overrides), every transition is journaled, each
    completed round writes a resumable checkpoint, and construction
    runs :meth:`recover` before any worker starts, so the recovered
    dedup index answers resubmissions of pre-restart configs.
    """

    def __init__(
        self,
        checkpoint_dir: str | Path | None = None,
        workers: int = 2,
        logger: logging.Logger | None = None,
        round_hook: Callable[[StudyJob, object], None] | None = None,
        *,
        state_dir: str | Path | None = None,
        checkpoint_hook: Callable[[StudyJob], None] | None = None,
        compact_every: int = 512,
        telemetry: Telemetry | None = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if checkpoint_dir is None and state_dir is None:
            raise ValueError("need a checkpoint_dir or a state_dir")
        # Shared telemetry: job spans carry the request id as trace id,
        # and every study this manager runs records into its registry
        # (with result annotation off the service keeps result bytes
        # identical to a plain run_study of the same config).
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if checkpoint_dir is None:
            checkpoint_dir = self.state_dir / "checkpoints"
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._log = logger or logging.getLogger("repro.service.jobs")
        # Test/instrumentation hooks: `round_hook` runs in the worker
        # thread after each frame (+ checkpoint, in durable mode) —
        # the smoke/fault tests use it to hold a job mid-run
        # deterministically; `checkpoint_hook` runs between the
        # discard check and the checkpoint write (the window the
        # DELETE-race test injects into).
        self._round_hook = round_hook
        self._checkpoint_hook = checkpoint_hook
        self._lock = threading.Lock()
        self._jobs: dict[str, StudyJob] = {}
        self._by_hash: dict[str, str] = {}
        self._counter = 0
        self._builds = 0
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._journal: JobJournal | None = None
        if self.state_dir is not None:
            self._journal = JobJournal(
                self.state_dir,
                snapshot_provider=self._snapshot_state,
                compact_every=compact_every,
            )
            self.recover()
        # Workers start only after recovery: nothing races the rebuild.
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"study-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- public API -----------------------------------------------------

    @property
    def builds_performed(self) -> int:
        """Simulator builds so far (fresh builds + checkpoint resumes).

        In durable mode the count survives restarts — it is journaled
        with every ``running`` transition and restored by recovery.
        """
        with self._lock:
            return self._builds

    def submit(
        self, config: StudyConfig, request_id: str = ""
    ) -> tuple[StudyJob, bool]:
        """Register (or dedup) a study; returns ``(job, created)``.

        An existing job with the same canonical hash is returned as-is
        unless it FAILED — failures are not deterministic outcomes, so
        a resubmission gets a fresh run.
        """
        key = config_hash(config)  # outside the lock every GET takes
        with self._lock:
            if self._closed:
                raise RuntimeError("job manager is closed")
            existing_id = self._by_hash.get(key)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.state != FAILED:
                    return existing, False
                self._by_hash.pop(key, None)
            self._counter += 1
            job = StudyJob(f"job-{self._counter:06d}", config, key, request_id)
            self._jobs[job.id] = job
            self._by_hash[key] = job.id
        self._log_event("job_submitted", job)
        self._journal_event(
            {
                "event": "submitted",
                "job": job.id,
                "config": config.to_dict(),
                "config_hash": job.config_hash,
                "request_id": request_id,
                "trace_id": request_id or job.id,
            }
        )
        self._queue.put((job, "run"))
        return job, True

    def get(self, job_id: str) -> StudyJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[StudyJob]:
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> StudyJob:
        """Request cooperative cancellation (error if already terminal)."""
        job = self._require(job_id)
        if job.state in _TERMINAL:
            raise ValueError(f"study {job_id} already {job.state}")
        job.request_cancel()
        self._log_event("job_cancel_requested", job)
        return job

    def resume(self, job_id: str, request_id: str = "") -> StudyJob:
        """Re-enqueue a cancelled job, from its checkpoint if one exists.

        The CANCELLED -> QUEUED transition is atomic
        (:meth:`StudyJob.rearm`): of two concurrent resumes exactly one
        enqueues the job, the other gets the ValueError -> 409.
        """
        job = self._require(job_id)
        if not job.rearm():
            raise ValueError(
                f"study {job_id} is {job.state}; only cancelled studies resume"
            )
        if request_id:
            job.request_id = request_id
        mode = "resume" if job.checkpoint_path is not None else "run"
        self._log_event("job_resubmitted", job)
        self._journal_event(
            {
                "event": "state",
                "job": job.id,
                "state": QUEUED,
                "request_id": job.request_id,
            }
        )
        self._queue.put((job, mode))
        return job

    def delete(self, job_id: str) -> StudyJob:
        """Drop a job from the registry; a running session is cancelled
        and its eventual output discarded."""
        job = self._require(job_id)
        with self._lock:
            self._jobs.pop(job_id, None)
            if self._by_hash.get(job.config_hash) == job.id:
                self._by_hash.pop(job.config_hash, None)
        with job._cond:
            job.discard = True
        if job.state in _ACTIVE:
            job.request_cancel()
        self._remove_checkpoint(job)
        self._log_event("job_deleted", job)
        self._journal_event({"event": "deleted", "job": job.id})
        return job

    def recover(self) -> list[StudyJob]:
        """Rebuild the job table from ``state_dir`` (runs at startup).

        State mapping (see docs/service.md): ``done``/``failed``/
        ``cancelled`` jobs come back as they were (result, error and
        frame buffers included). Jobs that were ``running`` or
        ``queued`` at crash time come back ``cancelled`` and resumable
        when their checkpoint file exists — frames past the
        checkpoint's round count are dropped, since the resume will
        regenerate them bit-identically — and ``failed`` otherwise
        (some rounds ran but nothing on disk can reproduce them). A
        ``queued`` job that never produced a frame comes back
        ``cancelled`` with an empty buffer: resuming it simply reruns
        from scratch.

        After the rebuild the journal is compacted, so the snapshot on
        disk records the *mapped* states and a second restart replays
        nothing.
        """
        if self.state_dir is None:
            raise RuntimeError("recover() needs a state_dir")
        recovered = load_state(self.state_dir)
        jobs: list[StudyJob] = []
        for rec in recovered.jobs.values():
            try:
                config = StudyConfig.from_dict(rec.config)
            except (ValueError, TypeError, KeyError) as exc:
                self._log.warning(
                    "dropping job %s: stored config no longer loads (%s)",
                    rec.id,
                    exc,
                )
                continue
            job = StudyJob(rec.id, config, config_hash(config), rec.request_id)
            checkpoint_path: Path | None = None
            if rec.checkpoint:
                candidate = self.checkpoint_dir / rec.checkpoint
                if candidate.exists():
                    checkpoint_path = candidate
            state, error = rec.state, rec.error
            frames = list(rec.frames)
            if state in _ACTIVE:
                if checkpoint_path is not None or not frames:
                    state, error = CANCELLED, None
                else:
                    state = FAILED
                    error = (
                        "interrupted by a service restart before a "
                        "checkpoint was written"
                    )
            if state == CANCELLED and frames and checkpoint_path is None:
                # A cancelled job whose checkpoint vanished cannot
                # resume without replaying already-streamed rounds.
                state = FAILED
                error = "checkpoint file missing after restart"
            if (
                checkpoint_path is not None
                and rec.checkpoint_rounds is not None
                and rec.checkpoint_rounds < len(frames)
            ):
                # The crash landed between a frame append and its
                # checkpoint: resume regenerates the tail bit-identically.
                del frames[rec.checkpoint_rounds :]
            job.state = state
            job.error = error
            job.frames = frames
            job.result_json = rec.result
            job.checkpoint_path = checkpoint_path
            job.checkpoint_rounds = (
                rec.checkpoint_rounds if checkpoint_path is not None else None
            )
            jobs.append(job)
        with self._lock:
            for job in jobs:
                self._jobs[job.id] = job
                # Insertion order: the latest submission of a hash wins,
                # exactly as live submissions left it.
                self._by_hash[job.config_hash] = job.id
            self._counter = max(self._counter, recovered.counter)
            self._builds = max(self._builds, recovered.builds)
        for job in jobs:
            self._log_event("job_recovered", job)
        if recovered.dropped_lines:
            self._log.warning(
                "journal replay dropped %d corrupt line(s)",
                recovered.dropped_lines,
            )
        if self._journal is not None:
            self._journal.compact()
        return jobs

    def close(self, timeout: float = 10.0) -> None:
        """Cancel running sessions, drain workers, join threads.

        Ephemeral managers discard in-flight output (the checkpoint
        dir is usually a temp dir about to vanish); durable managers
        instead let live jobs checkpoint and journal a clean CANCELLED,
        so a graceful restart recovers them as resumable.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.state in _ACTIVE:
                if self._journal is None:
                    with job._cond:
                        job.discard = True
                job.request_cancel()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)
        if self._journal is not None:
            self._journal.compact()
            self._journal.close()

    # -- internals ------------------------------------------------------

    def _require(self, job_id: str) -> StudyJob:
        job = self.get(job_id)
        if job is None:
            raise KeyError(f"no study {job_id!r}")
        return job

    def _log_event(
        self, event: str, job: StudyJob, state: str | None = None
    ) -> None:
        # Terminal events are logged BEFORE the state flips, so a
        # caller woken by job.wait() already sees the log line; `state`
        # carries the state being entered.
        self._log.info(
            "%s",
            json.dumps(
                {
                    "event": event,
                    "job": job.id,
                    "request_id": job.request_id,
                    # The request id doubles as the trace id of the
                    # job's telemetry spans, so a log line and a span
                    # dump join on one key.
                    "trace_id": job.request_id or job.id,
                    "state": state if state is not None else job.state,
                    "config_hash": job.config_hash,
                },
                sort_keys=True,
            ),
        )

    def _journal_event(self, event: dict) -> None:
        # Never call while holding self._lock or a job's _cond: an
        # append can trigger compaction, whose snapshot provider takes
        # both.
        if self._journal is not None:
            self._journal.append(event)

    def _snapshot_state(self) -> dict:
        """Serialize the full live state for journal compaction."""
        with self._lock:
            jobs = list(self._jobs.values())
            counter = self._counter
            builds = self._builds
        serialized = []
        for job in jobs:
            with job._cond:
                serialized.append(
                    {
                        "id": job.id,
                        "config": job.config.to_dict(),
                        "config_hash": job.config_hash,
                        "request_id": job.request_id,
                        "state": job.state,
                        "frames": list(job.frames),
                        "error": job.error,
                        "result": job.result_json,
                        "checkpoint": job.checkpoint_path.name
                        if job.checkpoint_path is not None
                        else None,
                        "checkpoint_rounds": job.checkpoint_rounds,
                    }
                )
        return {"jobs": serialized, "counter": counter, "builds": builds}

    def _remove_checkpoint(self, job: StudyJob) -> None:
        path = job.checkpoint_path
        if path is not None:
            Path(path).unlink(missing_ok=True)

    def _fail(self, job: StudyJob, error: str) -> None:
        """Enter FAILED: log, journal, then flip the state."""
        self._log_event("job_failed", job, state=FAILED)
        self._journal_event({"event": "failed", "job": job.id, "error": error})
        job._finish(FAILED, error=error)

    def _checkpoint_job(self, job: StudyJob, study: Study) -> Path | None:
        """Write the job's checkpoint with the DELETE race closed.

        ``delete()`` may set ``discard`` and unlink concurrently; a
        worker already past a bare pre-check would then write the file
        *after* the unlink and leak a ``.ckpt`` the registry no longer
        knows about. So: skip when already discarded, and re-check
        under the job lock after the write, unlinking if the flag
        flipped mid-write.
        """
        with job._cond:
            if job.discard:
                return None
        path = self.checkpoint_dir / f"{job.id}.ckpt"
        if self._checkpoint_hook is not None:
            self._checkpoint_hook(job)
        study.checkpoint(path)
        with job._cond:
            if job.discard:  # DELETE raced us between check and write
                path.unlink(missing_ok=True)
                return None
            job.checkpoint_path = path
            job.checkpoint_rounds = len(job.frames)
        self._journal_event(
            {
                "event": "checkpoint",
                "job": job.id,
                "path": path.name,
                "rounds": len(job.frames),
            }
        )
        return path

    def _discard_checkpoint(self, job: StudyJob) -> None:
        """Remove a finished job's now-useless per-round checkpoint."""
        with job._cond:
            path = job.checkpoint_path
            job.checkpoint_path = None
            job.checkpoint_rounds = None
        if path is not None:
            Path(path).unlink(missing_ok=True)

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            job, mode = item
            try:
                self._execute(job, mode)
            except Exception as exc:  # defensive: a worker must survive
                self._fail(job, f"{type(exc).__name__}: {exc}")

    def _execute(self, job: StudyJob, mode: str) -> None:
        # The worker thread's spans all belong to the submitting
        # request: X-Request-ID (or the job id) is the trace id.
        tracer = self.telemetry.tracer
        tracer.set_trace_id(job.request_id or job.id)
        with tracer.span("job.execute", job=job.id, mode=mode):
            self._run_job(job, mode)

    def _run_job(self, job: StudyJob, mode: str) -> None:
        if job.cancel_requested and mode == "run" and not job.frames:
            # Cancelled while still queued: nothing ran, nothing to keep.
            self._log_event("job_cancelled", job, state=CANCELLED)
            self._journal_event(
                {"event": "cancelled", "job": job.id, "checkpoint": None}
            )
            job._finish(CANCELLED)
            return
        try:
            if mode == "resume":
                study = Study.resume(
                    job.checkpoint_path, telemetry=self.telemetry
                )
            else:
                study = Study(job.config, telemetry=self.telemetry)
                study.build()
        except Exception as exc:
            self._fail(job, f"{type(exc).__name__}: {exc}")
            return
        with self._lock:
            self._builds += 1
            builds = self._builds
        job._attach_study(study)
        with job._cond:
            job.state = RUNNING
            job._cond.notify_all()
        self._log_event("job_started", job)
        self._journal_event(
            {"event": "state", "job": job.id, "state": RUNNING, "builds": builds}
        )
        if mode == "resume" and len(job.frames) < study.rounds_completed:
            # A crash can land between a checkpoint write and its
            # journal event, leaving the file one round ahead of the
            # journaled frame buffer — and `iter_rounds` will never
            # re-yield that round. The checkpoint carries every prior
            # RoundRecord, so restore the gap from it bit-identically.
            for index in range(len(job.frames), study.rounds_completed):
                frame = study.records[index].to_json()
                job._append_frame(frame)
                self._journal_event(
                    {"event": "frame", "job": job.id, "index": index,
                     "frame": frame}
                )
            with job._cond:
                job.checkpoint_rounds = study.rounds_completed
            self._journal_event(
                {"event": "checkpoint", "job": job.id,
                 "path": job.checkpoint_path.name,
                 "rounds": study.rounds_completed}
            )
        try:
            with study:
                for record in study.iter_rounds():
                    frame = record.to_json()
                    job._append_frame(frame)
                    self._journal_event(
                        {
                            "event": "frame",
                            "job": job.id,
                            "index": len(job.frames) - 1,
                            "frame": frame,
                        }
                    )
                    if self._journal is not None:
                        # Durable mode: every round boundary is a
                        # resume point, so a crash loses at most the
                        # in-flight round.
                        self._checkpoint_job(job, study)
                    if self._round_hook is not None:
                        self._round_hook(job, record)
                if (
                    study.cancel_requested
                    and study.rounds_completed < study.config.rounds
                ):
                    self._finish_cancelled(job, study)
                else:
                    result_json = study.result().to_json()
                    self._log_event("job_done", job, state=DONE)
                    self._journal_event(
                        {"event": "done", "job": job.id, "result": result_json}
                    )
                    self._discard_checkpoint(job)
                    job._finish(DONE, result_json=result_json)
        except Exception as exc:
            self._fail(job, f"{type(exc).__name__}: {exc}")

    def _finish_cancelled(self, job: StudyJob, study: Study) -> None:
        checkpoint_path = self._checkpoint_job(job, study)
        self._log_event("job_cancelled", job, state=CANCELLED)
        self._journal_event(
            {
                "event": "cancelled",
                "job": job.id,
                "checkpoint": checkpoint_path.name
                if checkpoint_path is not None
                else None,
                "rounds": len(job.frames),
            }
        )
        job._finish(CANCELLED, checkpoint_path=checkpoint_path)
