#!/usr/bin/env python
"""End-to-end smoke test of the study service over real sockets.

Boots the HTTP front end on an ephemeral port, checks that ``HEAD
/healthz`` answers like GET without a body, submits a tiny study,
streams its round records over SSE, resubmits the same config and
verifies the response is a byte-identical hit (``X-Cache: hit``: the
job manager returned the existing job) that triggered no additional
simulator build, deletes the study and checks that a resubmission is
a fresh job and build, then shuts everything down and checks that no
worker processes were leaked.

A second leg exercises the durability contract with a *real* process
death: `repro serve --state-dir` runs as a subprocess, a study is
killed (SIGKILL) mid-run once at least two rounds are on disk, a fresh
subprocess restarts on the same state dir, and the job must come back
cancelled+resumable, replay its pre-crash frames over SSE, answer a
resubmission of its config with the pre-crash submission bytes as a
hit, and resume to a result bit-identical to an uninterrupted
in-process run.

Exit status 0 on success; any assertion failure is fatal.  Used by
`make serve-smoke` and CI.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.study import StudyConfig, run_study  # noqa: E402
from repro.service import StudyService, make_server  # noqa: E402
from repro.service.sse import parse_sse_stream  # noqa: E402

SMOKE_PAYLOAD = {
    "dataset": "purchase100",
    "n_train": 600,
    "n_test": 150,
    "num_features": 64,
    "n_nodes": 6,
    "view_size": 2,
    "rounds": 2,
    "train_per_node": 24,
    "test_per_node": 12,
    "mlp_hidden": [32, 16],
    "local_epochs": 1,
    "batch_size": 12,
    "max_attack_samples": 32,
    "max_global_test": 64,
    "seed": 0,
    "name": "serve-smoke",
}


def request(
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    headers: dict[str, str] | None = None,
):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        sent = {"Content-Type": "application/json"} if body else {}
        if headers:
            sent.update(headers)
        conn.request(method, path, body=body, headers=sent)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def head(port: int, path: str) -> tuple[int, dict[str, str], bytes]:
    """``HEAD path`` on a raw socket with ``Connection: close`` ->
    (status, headers, every byte the server sent after them)."""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(
            f"HEAD {path} HTTP/1.1\r\nHost: smoke\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    header_block, _, rest = data.partition(b"\r\n\r\n")
    status_line, *lines = header_block.decode("iso-8859-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return int(status_line.split()[1]), headers, rest


def spawn_server(state_dir: Path) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve --state-dir`` as a subprocess; return its
    handle and bound (ephemeral) port, parsed from the startup line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         "--port", "0", "--job-workers", "1",
         "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + 60
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            return process, port
    process.kill()
    raise AssertionError("server subprocess never announced its port")


def wait_for_state(port: int, job_id: str, predicate, timeout: float = 120.0):
    """Poll the job snapshot until ``predicate(snapshot)`` holds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = request(port, "GET", f"/studies/{job_id}")
        assert status == 200, f"status poll -> {status}"
        snapshot = json.loads(body)
        if predicate(snapshot):
            return snapshot
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting on job {job_id}")


def kill_restart_leg() -> None:
    """Kill -9 a durable server mid-study, restart, replay, resume."""
    # Rounds run in ~10 ms each; a 120-round horizon keeps the study
    # alive for ~1 s after the poll sees rounds_completed >= 2, so the
    # SIGKILL always lands mid-run.
    payload_dict = dict(SMOKE_PAYLOAD, rounds=120, name="serve-smoke-crash")
    payload = json.dumps(payload_dict).encode("utf-8")
    expected = run_study(StudyConfig.from_dict(payload_dict))
    expected_frames = [r.to_json() for r in expected.rounds]

    with tempfile.TemporaryDirectory(prefix="serve-smoke-state-") as tmp:
        state_dir = Path(tmp) / "state"
        trace_id = "serve-smoke-trace-1"
        process, port = spawn_server(state_dir)
        try:
            status, _, submitted = request(
                port, "POST", "/studies", payload,
                headers={"X-Request-ID": trace_id},
            )
            assert status == 200, f"submit -> {status}: {submitted!r}"
            job_id = json.loads(submitted)["id"]
            # Wait until at least two rounds (and their checkpoints)
            # are journaled, then die the way crashes do.
            wait_for_state(
                port, job_id, lambda s: s["rounds_completed"] >= 2
            )
        finally:
            process.kill()
            process.wait(timeout=30)
        print("serve-smoke: SIGKILLed the server mid-study")

        # The request id rode into the durable journal as the trace id,
        # so post-mortem debugging can correlate journal events with
        # client-side request logs.
        journal_events = [
            json.loads(line)
            for line in (state_dir / "journal.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip()
        ]
        traced = [
            e for e in journal_events
            if e.get("trace_id") == trace_id and e.get("job") == job_id
        ]
        assert traced, (
            f"no journal event carries trace id {trace_id!r}: "
            f"{journal_events[:3]}"
        )
        print("serve-smoke: journal events carry the request trace id")

        process, port = spawn_server(state_dir)
        try:
            snapshot = wait_for_state(port, job_id, lambda s: True)
            assert snapshot["state"] == "cancelled", snapshot
            assert snapshot["resumable"], snapshot
            replayed = snapshot["rounds_completed"]
            assert replayed >= 2, snapshot

            # A post-restart subscriber replays every pre-crash frame.
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            conn.request("GET", f"/studies/{job_id}/stream")
            resp = conn.getresponse()
            frames = [
                e.data
                for e in parse_sse_stream(iter(resp.readline, b""))
                if e.event == "round"
            ]
            conn.close()
            assert frames == expected_frames[:replayed], (
                "pre-crash replay diverged from the uninterrupted run"
            )
            print(f"serve-smoke: restart replayed {replayed} frames")

            # The recovered dedup index answers a resubmission of the
            # crashed study: the pre-crash job and bytes, no build.
            status, headers, body = request(port, "POST", "/studies", payload)
            assert status == 200, f"resubmit -> {status}: {body!r}"
            assert headers["X-Cache"] == "hit", headers
            assert body == submitted, "post-restart hit differs from pre-crash"
            print("serve-smoke: restarted server dedups to the pre-crash job")

            status, _, body = request(
                port, "POST", f"/studies/{job_id}/resume"
            )
            assert status == 202, f"resume -> {status}: {body!r}"
            wait_for_state(port, job_id, lambda s: s["state"] == "done")
            status, _, result = request(
                port, "GET", f"/studies/{job_id}/result"
            )
            assert status == 200, f"result -> {status}"
            assert result.decode("utf-8") == expected.to_json(), (
                "resumed result not bit-identical to uninterrupted run"
            )
            print("serve-smoke: resume after crash is bit-identical")

            # The restarted process built its own telemetry registry;
            # the resumed rounds must show up in its /metrics too.
            status, _, metrics = request(port, "GET", "/metrics")
            assert status == 200, f"metrics -> {status}"
            assert b"repro_engine_phase_ms" in metrics, (
                "restarted server /metrics lacks engine series"
            )
            assert b"repro_study_round_ms" in metrics, (
                "restarted server /metrics lacks study round series"
            )
            print("serve-smoke: restarted server exports engine metrics")
        finally:
            process.kill()
            process.wait(timeout=30)


def main() -> int:
    service = StudyService(job_workers=1)
    server = make_server(service, "127.0.0.1", 0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"serve-smoke: listening on 127.0.0.1:{port}")
    try:
        status, get_headers, body = request(port, "GET", "/healthz")
        assert status == 200, f"healthz -> {status}"
        # HEAD is GET without the body.
        status, head_headers, head_body = head(port, "/healthz")
        assert status == 200, f"HEAD /healthz -> {status}"
        assert head_headers["Content-Type"] == get_headers["Content-Type"], (
            head_headers
        )
        assert head_body == b"", f"HEAD /healthz sent a body: {head_body!r}"
        print("serve-smoke: HEAD /healthz answers like GET, without a body")

        payload = json.dumps(SMOKE_PAYLOAD).encode("utf-8")
        status, headers, miss_body = request(port, "POST", "/studies", payload)
        assert status == 200, f"submit -> {status}: {miss_body!r}"
        assert headers["X-Cache"] == "miss", headers
        job_id = json.loads(miss_body)["id"]

        # Stream the run live over SSE: every round frame is a full
        # RoundRecord, and the stream closes with an `end` event.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        conn.request("GET", f"/studies/{job_id}/stream")
        resp = conn.getresponse()
        assert resp.status == 200, f"stream -> {resp.status}"
        events = list(parse_sse_stream(iter(resp.readline, b"")))
        conn.close()
        rounds = [e for e in events if e.event == "round"]
        assert len(rounds) == SMOKE_PAYLOAD["rounds"], events
        for event in rounds:
            record = json.loads(event.data)
            assert 0.0 <= record["mia_accuracy"] <= 1.0, record
        assert events[-1].event == "end", events
        print(f"serve-smoke: streamed {len(rounds)} round frames")

        # Identical resubmission: byte-identical cache hit, zero builds.
        status, headers, hit_body = request(port, "POST", "/studies", payload)
        assert status == 200 and headers["X-Cache"] == "hit", headers
        assert hit_body == miss_body, "cache hit not byte-identical"
        assert service.manager.builds_performed == 1, (
            f"expected 1 build, saw {service.manager.builds_performed}"
        )
        print("serve-smoke: cache hit byte-identical, builds_performed=1")

        # DELETE forgets the job: the same config is then a fresh job.
        status, _, _ = request(port, "DELETE", f"/studies/{job_id}")
        assert status == 204, f"delete -> {status}"
        status, headers, body = request(port, "POST", "/studies", payload)
        assert status == 200 and headers["X-Cache"] == "miss", headers
        fresh_id = json.loads(body)["id"]
        assert fresh_id != job_id, f"deleted job id {job_id} came back"
        wait_for_state(port, fresh_id, lambda s: s["state"] == "done")
        assert service.manager.builds_performed == 2, (
            f"expected 2 builds, saw {service.manager.builds_performed}"
        )
        print("serve-smoke: resubmission after DELETE is a miss, "
              "builds_performed=2")

        # Two distinct unknown paths: both must land in one bounded
        # route="unmatched" series, not a series per path.
        for path in ("/no/such/path", "/another/unknown"):
            status, _, _ = request(port, "GET", path)
            assert status == 404, f"{path} -> {status}"

        # One scrape of the one registry carries the HTTP families
        # *and* the engine series the study just filled in.
        status, _, metrics = request(port, "GET", "/metrics")
        assert status == 200 and b"repro_requests_total" in metrics
        assert b"repro_request_latency_ms_bucket" in metrics, (
            "request latency histogram buckets missing from /metrics"
        )
        assert b"repro_engine_phase_ms" in metrics, (
            "engine phase histograms missing from /metrics"
        )
        assert b"repro_study_round_ms" in metrics, (
            "study round histogram missing from /metrics"
        )
        unmatched = [
            line
            for line in metrics.decode("utf-8").splitlines()
            if line.startswith("repro_requests_total{")
            and 'route="unmatched"' in line
        ]
        assert unmatched == [
            'repro_requests_total{method="GET",route="unmatched",status="404"} 2'
        ], unmatched
        assert b"/no/such/path" not in metrics, "raw path leaked into labels"
        assert (
            b'repro_requests_total{method="HEAD",route="/healthz",status="200"} 1'
            in metrics
        ), "HEAD /healthz has no route-template series"
        print("serve-smoke: /metrics is one registry; unknown paths share "
              "one unmatched series")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        service.close()
    assert multiprocessing.active_children() == [], "leaked worker processes"
    print("serve-smoke: clean shutdown, no leaked workers")

    kill_restart_leg()
    print("serve-smoke: kill -> restart -> resume leg passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
