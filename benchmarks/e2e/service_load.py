"""Service workload child: a closed-loop load generator against ``repro serve``.

    python -m benchmarks.e2e.service_load --seed N --seconds S [--trace]

Set-up is measured over three fresh server processes (spawn to
``/healthz`` 200); the third one serves the window. During the window,
``SERVICE_CLIENTS`` threads, each with one request (and connection) in
flight at a time, loop over ``SERVICE_BLOCK``: fresh studies (POST, SSE to ``end``, result,
snapshot), cache-hit repeats of recent ones, and a cancel -> resume of
a longer study. Every response is checked. After the window the
server is shut down and every served result is compared byte for
byte with an untimed ``run_study`` of the same config.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

from .checks import Checks
from .procs import ROOT, child_env, environment, report
from .workloads import (
    CANCEL_ROUNDS,
    SERVER_ARGS,
    SERVICE_BLOCK,
    SERVICE_CLIENTS,
    WORKLOADS,
    service_payload,
)

SETUP_SPAWNS = 3
FRESH_ROUNDS = WORKLOADS["service-durable-mix"].payload["rounds"]
# Cache-hit repeats pick among this many most recent fresh studies of
# the client, so the entry is still in the server's 128-entry LRU.
RECENT = 16
TIMEOUT_S = 60.0


class Server:
    """One ``serve_child`` process with its own state directory."""

    def __init__(self, workdir: Path, trace_seed: int | None) -> None:
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.report_path = workdir / "report.json"
        self.log_path = workdir / "server.log"
        args = [
            sys.executable, "-u", "-m", "benchmarks.e2e.serve_child",
            "--report", str(self.report_path),
        ]
        if trace_seed is not None:
            args += ["--trace-seed", str(trace_seed)]
        args += [
            "serve", "--port", "0",
            "--state-dir", str(workdir / "state"),
            *SERVER_ARGS,
        ]
        started = perf_counter()
        with self.log_path.open("w") as log:
            self.proc = subprocess.Popen(
                args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        timer = threading.Timer(TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            timer.cancel()
        self.setup_s = perf_counter() - started

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if "listening on" in line:
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError(f"server exited with {self.proc.wait()} before listening")

    def _wait_healthy(self) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except ConnectionError:
                pass
            finally:
                conn.close()
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            time.sleep(0.005)

    def state_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.workdir / "state").rglob("*") if p.is_file())

    def stop(self) -> dict:
        """SIGINT (a clean shutdown), wait, and return the exit report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        assert self.proc.stdout is not None
        self.proc.stdout.read()
        self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.report_path.exists():
            raise RuntimeError(
                f"server exited with {self.proc.returncode}; log tail:\n"
                + self.log_path.read_text()[-2000:]
            )
        return json.loads(self.report_path.read_text())


class Client(threading.Thread):
    """One closed-loop client: one request, and connection, at a time."""

    def __init__(self, index: int, port: int, seed: int, deadline: float) -> None:
        super().__init__(name=f"e2e-client-{index}", daemon=True)
        self.index = index
        self.port = port
        self.seed = seed
        self.deadline = deadline
        self.rng = random.Random(seed * 100 + index)
        self.checks = Checks()
        # Every request but the SSE streams.
        self.request_ms: list[float] = []
        self.study_ms: list[float] = []
        self.fresh_done_at: list[float] = []
        self.posts = 0
        self.hits = 0
        self.submitted = {"fresh": 0, "cancel": 0}
        self.cancels_landed: list[bool] = []
        # Served studies to verify after the window: payload + result.
        self.fresh: list[dict] = []
        self.cancelled: list[dict] = []

    # -- transport --------------------------------------------------------

    def connect(self) -> http.client.HTTPConnection:
        # One connection per request, closed by both sides after the
        # response (what urllib and curl do). A keep-alive client instead
        # waits ~40 ms per response: the server writes headers and body
        # separately, and Nagle holds the body until the client's
        # delayed ACK (see README, sizing findings).
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)

    def request(self, method: str, path: str, payload: dict | None = None,
                expect: tuple[int, ...] = (200,)) -> tuple[int, dict, bytes]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Connection": "close"}
        if body:
            headers["Content-Type"] = "application/json"
        start = perf_counter()
        conn = self.connect()
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        self.request_ms.append((perf_counter() - start) * 1000.0)
        self.checks.check(
            resp.status in expect,
            f"{method} {path} -> {resp.status}, expected {expect}: {data[:200]!r}",
        )
        return resp.status, dict(resp.getheaders()), data

    def stream(self, job_id: str, rounds: int) -> tuple[list, float | None]:
        """Follow the SSE stream to its ``end`` event; check the framing.

        Returns the round frames and the time the ``end`` event arrived
        (None if it never did).
        """
        from repro.service.sse import parse_sse_stream

        conn = self.connect()
        try:
            conn.request("GET", f"/studies/{job_id}/stream")
            resp = conn.getresponse()
            self.checks.check(resp.status == 200, f"stream {job_id} -> {resp.status}")
            events, ended = [], None
            for event in parse_sse_stream(iter(resp.readline, b"")):
                events.append(event)
                if event.event == "end":
                    ended = perf_counter()
        finally:
            conn.close()
        frames = [e for e in events if e.event == "round"]
        self.checks.check(
            [e.id for e in frames] == [str(i) for i in range(rounds)],
            f"stream {job_id}: SSE ids {[e.id for e in frames]} are not 0..{rounds - 1}",
        )
        self.checks.check(
            bool(events) and events[-1].event == "end"
            and json.loads(events[-1].data) == {"status": "done", "rounds": rounds},
            f"stream {job_id} did not end with a done `end` event",
        )
        return [e.data for e in frames], ended

    def poll(self, job_id: str, predicate) -> dict:
        deadline = perf_counter() + TIMEOUT_S
        while perf_counter() < deadline:
            _, _, body = self.request("GET", f"/studies/{job_id}")
            snapshot = json.loads(body)
            if predicate(snapshot):
                return snapshot
            time.sleep(0.002)
        raise TimeoutError(f"job {job_id} never reached the awaited state")

    # -- traffic mix ------------------------------------------------------

    def next_payload(self, kind: str) -> dict:
        # Counted per submission, not per success: a retried index would
        # resubmit an existing config and turn a miss into a cache hit.
        index = self.submitted[kind]
        self.submitted[kind] += 1
        return service_payload(self.seed, kind, self.index, index)

    def fresh_study(self) -> None:
        payload = self.next_payload("fresh")
        start = perf_counter()
        _, headers, miss = self.request("POST", "/studies", payload)
        self.posts += 1
        self.checks.check(headers.get("X-Cache") == "miss", "fresh study was a cache hit")
        job_id = json.loads(miss)["id"]
        frames, ended = self.stream(job_id, FRESH_ROUNDS)
        if ended is not None:
            self.study_ms.append((ended - start) * 1000.0)
            self.fresh_done_at.append(ended)
        _, _, result = self.request("GET", f"/studies/{job_id}/result")
        self.checks.check(
            [json.loads(f) for f in frames] == json.loads(result)["rounds"],
            f"result of {job_id} differs from its streamed frames",
        )
        _, _, snapshot = self.request("GET", f"/studies/{job_id}")
        self.checks.check(json.loads(snapshot)["state"] == "done", f"{job_id} not done")
        self.fresh.append(
            {"payload": payload, "id": job_id, "miss": miss, "result": result}
        )

    def cache_hit(self) -> None:
        entry = self.rng.choice(self.fresh[-RECENT:])
        _, headers, body = self.request("POST", "/studies", entry["payload"])
        self.posts += 1
        self.hits += headers.get("X-Cache") == "hit"
        self.checks.check(headers.get("X-Cache") == "hit", "repeat was not a cache hit")
        self.checks.check(body == entry["miss"], "cache-hit body differs from its miss")
        _, _, result = self.request("GET", f"/studies/{entry['id']}/result")
        self.checks.check(result == entry["result"], "repeat result bytes differ")

    def cancel_resume(self) -> None:
        payload = self.next_payload("cancel")
        _, _, body = self.request("POST", "/studies", payload)
        self.posts += 1
        job_id = json.loads(body)["id"]
        self.poll(job_id, lambda s: s["rounds_completed"] >= 1 or s["state"] == "done")
        status, _, _ = self.request(
            "POST", f"/studies/{job_id}/cancel", expect=(202, 409)
        )
        landed = False
        if status == 202:
            snapshot = self.poll(job_id, lambda s: s["state"] in ("cancelled", "done"))
            landed = snapshot["state"] == "cancelled"
            if landed:
                self.checks.check(snapshot["resumable"], f"{job_id} not resumable")
                self.request("POST", f"/studies/{job_id}/resume", expect=(202,))
        self.cancels_landed.append(landed)
        self.stream(job_id, CANCEL_ROUNDS)
        _, _, result = self.request("GET", f"/studies/{job_id}/result")
        self.cancelled.append({"payload": payload, "result": result})

    def run(self) -> None:
        steps = {
            "fresh": self.fresh_study,
            "hit": self.cache_hit,
            "cancel": self.cancel_resume,
        }
        step = 0
        while perf_counter() < self.deadline:
            kind = SERVICE_BLOCK[step % len(SERVICE_BLOCK)]
            step += 1
            try:
                steps[kind]()
            except Exception as exc:  # counted, and the loop goes on
                self.checks.check(False, f"{kind}: {type(exc).__name__}: {exc}")


def _scrape(port: int) -> dict[str, float]:
    """The server's /metrics series, keyed by ``name{labels}``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    series = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            series[key] = float(value)
    return series


def _server_mean(before: dict, after: dict, name: str, keep) -> tuple[float, int]:
    """Server-side (total ms, count) of a sum/count family since ``before``."""
    total = count = 0.0
    for key, value in after.items():
        if key.startswith(name + "_sum") and keep(key):
            total += value - before.get(key, 0.0)
            ckey = name + "_count" + key[len(name + "_sum"):]
            count += after[ckey] - before.get(ckey, 0.0)
    return total, int(count)


def _verify(checks: Checks, served: list[dict]) -> None:
    """Every served result must equal an untimed run_study, byte for byte.

    Studies that differ only by name share one rerun; the result is
    re-labelled with each name (metadata does not carry the name).
    """
    from repro.core.study import StudyConfig, run_study
    from repro.metrics.records import RunResult

    reruns: dict[str, RunResult] = {}
    for entry in served:
        payload = entry["payload"]
        key = json.dumps({k: v for k, v in payload.items() if k != "name"}, sort_keys=True)
        if key not in reruns:
            reruns[key] = run_study(StudyConfig.from_dict(payload))
        base = reruns[key]
        expected = RunResult(payload["name"], base.rounds, base.metadata).to_json()
        checks.check(
            entry["result"].decode("utf-8") == expected,
            f"served result of {payload['name']} differs from run_study",
        )


def _svc_metrics(clients, server_before, server_after, state_bytes, seconds, deadline):
    """Service-layer numbers from /metrics deltas and client timing."""
    def non_stream(key):
        return "/stream" not in key and "/metrics" not in key and "/healthz" not in key

    post_total, post_n = _server_mean(
        server_before, server_after, "repro_request_latency_ms",
        lambda k: 'method="POST"' in k,
    )
    get_total, get_n = _server_mean(
        server_before, server_after, "repro_request_latency_ms",
        lambda k: 'method="GET"' in k and non_stream(k),
    )
    round_total, round_n = _server_mean(
        server_before, server_after, "repro_study_round_ms", lambda k: True
    )
    client_ms = [ms for c in clients for ms in c.request_ms]
    round_ms = round_total / round_n
    posts = sum(c.posts for c in clients)
    landed = [x for c in clients for x in c.cancels_landed]
    jobs = sum(len(c.fresh) + len(c.cancelled) for c in clients)
    study_ms_p50 = statistics.median(ms for c in clients for ms in c.study_ms)
    return {
        "svc.post_server_ms": post_total / post_n,
        "svc.get_server_ms": get_total / get_n,
        "svc.transport_ms": statistics.fmean(client_ms)
        - (post_total + get_total) / (post_n + get_n),
        "svc.round_ms": round_ms,
        "svc.job_overhead_ms": study_ms_p50 - FRESH_ROUNDS * round_ms,
        "svc.cache_hit_frac": sum(c.hits for c in clients) / posts,
        "svc.state_kb_per_study": state_bytes / 1024.0 / jobs,
        "svc.cancel_landed_frac": sum(landed) / len(landed) if landed else 0.0,
        "svc.studies_per_s": sum(
            t <= deadline for c in clients for t in c.fresh_done_at
        ) / seconds,
    }


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    checks = Checks()
    setup_s = []
    spawns = 1 if trace else SETUP_SPAWNS
    for i in range(spawns - 1):
        server = Server(workdir / f"setup-{i}", None)
        setup_s.append(server.setup_s)
        server.stop()
    server = Server(workdir / "main", seed if trace else None)
    setup_s.append(server.setup_s)
    try:
        before = _scrape(server.port)
        start = perf_counter()
        deadline = start + seconds
        clients = [Client(i, server.port, seed, deadline) for i in range(SERVICE_CLIENTS)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(seconds + 2 * TIMEOUT_S)
            checks.check(not client.is_alive(), f"{client.name} did not finish")
        after = _scrape(server.port)
        state_bytes = server.state_bytes()
    finally:
        exit_report = server.stop()
    for client in clients:
        checks.merge(client.checks.to_dict())
    if not any(c.study_ms for c in clients):
        raise RuntimeError(f"no fresh study completed: {checks.failures[:5]}")
    out = {
        "setup_s": setup_s,
        "request_ms": [ms for c in clients for ms in c.request_ms],
        "study_ms": [ms for c in clients for ms in c.study_ms],
        "peak_rss_mb": exit_report["peak_rss_mb"],
        "svc": _svc_metrics(clients, before, after, state_bytes, seconds, deadline),
    }
    if trace:
        out["layers"] = exit_report["layers"]
    _verify(checks, [e for c in clients for e in c.fresh + c.cancelled])
    out["checks"] = checks.to_dict()
    out["env"] = environment()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="service_load")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # A parent that gives up on us sends SIGTERM: unwind, so the
    # finally clauses stop the server and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workdir = ROOT / ".bench_e2e" / f"service-{time.time_ns()}"
    try:
        report("result", run(args.seed, args.seconds, args.trace, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
