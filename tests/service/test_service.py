"""HTTP-level service tests over real sockets: endpoint behavior,
lifecycle, and fault injection (disconnects, cancels, rate limits)."""

from __future__ import annotations

import http.client
import json
import logging
import multiprocessing
import os
import socket
import statistics
import threading
import time

import pytest

from repro.gossip.shard import usable_cpus
from tests.service.conftest import tiny_study_payload


def wait_done(service, job_id, timeout=120.0) -> str:
    job = service.manager.get(job_id)
    assert job is not None
    state = job.wait(timeout)
    assert state is not None
    return state


class TestBasicEndpoints:
    def test_healthz(self, client):
        status, headers, body = client.get("/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_keep_alive_requests_do_not_wait_for_delayed_ack(self, client):
        """Headers and body leave in separate sends; with Nagle's
        algorithm on, each keep-alive response stalled ~40 ms on the
        client's delayed ACK. One connection, 20 requests."""
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            times = []
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
                times.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(times) < 0.010

    def test_unknown_path_is_404(self, client):
        status, _, body = client.get("/nope")
        assert status == 404
        assert "no route" in json.loads(body)["error"]

    def test_wrong_method_is_405_with_allow(self, client):
        status, headers, body = client.delete("/healthz")
        assert status == 405
        assert headers["Allow"] == "GET"

    def test_missing_study_is_404_everywhere(self, client):
        for path in (
            "/studies/job-999999",
            "/studies/job-999999/result",
            "/studies/job-999999/stream",
        ):
            assert client.get(path)[0] == 404
        assert client.post_json("/studies/job-999999/cancel")[0] == 404
        assert client.post_json("/studies/job-999999/resume")[0] == 404
        assert client.delete("/studies/job-999999")[0] == 404

    def test_bad_json_body_is_400(self, client):
        status, _, body = client.request("POST", "/studies", body=b"{nope")
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_unknown_config_key_is_400_listing_valid_fields(self, client):
        status, _, body = client.submit(tiny_study_payload(no_such_knob=1))
        assert status == 400
        message = body["error"]
        assert "no_such_knob" in message
        assert "valid fields" in message

    def test_invalid_config_value_is_400(self, client):
        status, _, body = client.submit(tiny_study_payload(rounds=0))
        assert status == 400
        assert "rounds" in body["error"]


def raw_exchange(client, method: str, path: str) -> tuple[int, dict, bytes]:
    """One ``Connection: close`` request on a raw socket -> (status,
    headers, every byte the server sent after them, to EOF)."""
    with socket.create_connection((client.host, client.port), timeout=30) as sock:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("iso-8859-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return int(status_line.split()[1]), headers, rest


class TestHead:
    """HEAD on a GET route: GET's status and headers, no body."""

    def assert_head_like_get(self, client, path):
        status, headers, rest = raw_exchange(client, "HEAD", path)
        get_status, get_headers, body = raw_exchange(client, "GET", path)
        assert (status, rest) == (200, b"")
        assert get_status == 200 and body
        for name in ("Content-Type", "Content-Length"):
            assert headers[name] == get_headers[name], name

    def test_head_healthz(self, client):
        self.assert_head_like_get(client, "/healthz")
        status, _, metrics = client.get("/metrics")
        assert status == 200
        assert (
            'repro_requests_total{method="HEAD",route="/healthz",'
            'status="200"} 1'
        ) in metrics.decode()

    def test_head_study_snapshot_and_stream(self, service, client):
        _, _, body = client.submit(tiny_study_payload())
        job_id = body["id"]
        assert wait_done(service, job_id) == "done"
        self.assert_head_like_get(client, f"/studies/{job_id}")
        status, headers, rest = raw_exchange(
            client, "HEAD", f"/studies/{job_id}/stream"
        )
        assert (status, rest) == (200, b"")
        assert headers["Content-Type"] == "text/event-stream"
        # The stream a GET gets is unchanged.
        frames = client.round_frames(job_id)
        assert len(frames) == 2

    def test_head_on_a_post_only_route_is_405(self, client):
        status, headers, _ = raw_exchange(client, "HEAD", "/studies/x/cancel")
        assert status == 405
        assert headers["Allow"] == "POST"


class TestStudyLifecycle:
    def test_submit_run_status_result(self, service, client):
        status, headers, body = client.submit(tiny_study_payload())
        assert status == 200
        assert headers["X-Cache"] == "miss"
        assert headers["X-Request-ID"].startswith("req-")
        job_id = body["id"]
        assert body["status_url"] == f"/studies/{job_id}"
        assert wait_done(service, job_id) == "done"

        status, _, snapshot = client.get(f"/studies/{job_id}")
        snapshot = json.loads(snapshot)
        assert status == 200
        assert snapshot["state"] == "done"
        assert snapshot["rounds_completed"] == 2
        assert snapshot["rounds_total"] == 2
        assert snapshot["error"] is None

        status, headers, result = client.get(f"/studies/{job_id}/result")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        parsed = json.loads(result)
        assert parsed["config_name"] == "svc-test"
        assert len(parsed["rounds"]) == 2

    def test_list_studies(self, service, client):
        _, _, first = client.submit(tiny_study_payload(seed=11))
        _, _, second = client.submit(tiny_study_payload(seed=12))
        wait_done(service, first["id"])
        wait_done(service, second["id"])
        status, _, body = client.get("/studies")
        listed = {s["id"] for s in json.loads(body)["studies"]}
        assert listed == {first["id"], second["id"]}

    def test_result_before_done_is_409(self, make_service, make_client):
        gate = threading.Event()
        release = threading.Event()

        def hook(job, record):
            gate.set()
            assert release.wait(60)

        service = make_service(round_hook=hook)
        client = make_client(service)
        try:
            _, _, body = client.submit(tiny_study_payload())
            assert gate.wait(60)
            status, _, result = client.get(f"/studies/{body['id']}/result")
            assert status == 409
            assert json.loads(result)["state"] in ("queued", "running")
        finally:
            release.set()
        wait_done(service, body["id"])

    def test_late_subscriber_replays_full_stream(self, service, client):
        _, _, body = client.submit(tiny_study_payload())
        assert wait_done(service, body["id"]) == "done"
        # The job finished before we subscribed: the stream must replay
        # every frame from the buffer, then end.
        events = client.stream_events(f"/studies/{body['id']}/stream")
        rounds = [e for e in events if e.event == "round"]
        assert [e.id for e in rounds] == ["0", "1"]
        assert events[-1].event == "end"
        assert json.loads(events[-1].data) == {"rounds": 2, "status": "done"}

    def test_delete_removes_study_and_cache_entry(self, service, client):
        payload = tiny_study_payload()
        _, _, body = client.submit(payload)
        wait_done(service, body["id"])
        status, _, _ = client.delete(f"/studies/{body['id']}")
        assert status == 204
        assert client.get(f"/studies/{body['id']}")[0] == 404
        # Resubmission after delete is a fresh run, not a cache hit.
        status, headers, resubmitted = client.submit(payload)
        assert headers["X-Cache"] == "miss"
        assert resubmitted["id"] != body["id"]
        wait_done(service, resubmitted["id"])

    def test_duplicate_submission_dedups_to_same_job(self, service, client):
        payload = tiny_study_payload()
        _, first_headers, first = client.submit(payload)
        _, second_headers, second = client.submit(payload)
        assert first["id"] == second["id"]
        assert second_headers["X-Cache"] == "hit"
        wait_done(service, first["id"])
        assert service.manager.builds_performed == 1

    def test_metrics_endpoint_reflects_traffic(self, client):
        client.get("/healthz")
        status, headers, body = client.get("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert (
            'repro_requests_total{method="GET",route="/healthz",status="200"}'
            in text
        )


class TestRateLimiting:
    def test_429_over_http_then_recovery(self, make_service, make_client):
        # Slow refill (one token per 2 s): draining the bucket makes
        # the next request deterministically 429, no timing races.
        service = make_service(rate_capacity=2, rate_refill=0.5)
        client = make_client(service)
        from repro.service.middleware import Request

        assert service.handle(Request("GET", "/studies")).status == 200
        assert service.handle(Request("GET", "/studies")).status == 200
        status, headers, body = client.get("/studies")
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert json.loads(body)["error"] == "rate limited"
        # Operational endpoints stay reachable while saturated.
        assert client.get("/healthz")[0] == 200
        assert client.get("/metrics")[0] == 200

    def test_rejection_leaves_no_job_behind(self, make_service, make_client):
        service = make_service(rate_capacity=1, rate_refill=0.001)
        client = make_client(service)
        assert client.get("/healthz")[0] == 200  # exempt, free
        first = client.submit(tiny_study_payload())
        assert first[0] == 200
        second = client.submit(tiny_study_payload(seed=99))
        assert second[0] == 429
        # The rejected submission never reached the job manager.
        assert len(service.manager.jobs()) == 1
        wait_done(service, first[2]["id"])


class TestFaultInjection:
    def test_client_disconnect_mid_stream(self, make_service, make_client):
        """A subscriber that drops mid-stream must not wedge the job or
        the server; the job finishes and a later subscriber replays all
        frames."""
        first_round = threading.Event()
        release = threading.Event()

        def hook(job, record):
            if record.round_index == 0:
                first_round.set()
                assert release.wait(60)

        service = make_service(round_hook=hook)
        client = make_client(service)
        _, _, body = client.submit(tiny_study_payload(rounds=3))
        job_id = body["id"]
        with client.sse(f"/studies/{job_id}/stream") as (resp, events):
            assert resp.status == 200
            assert first_round.wait(60)
            first = next(events)
            assert first.event == "round" and first.id == "0"
            # Context exit closes the socket here — mid-stream, with
            # two rounds still to come.
        release.set()
        assert wait_done(service, job_id) == "done"
        frames = client.round_frames(job_id)
        assert len(frames) == 3
        assert client.get("/healthz")[0] == 200  # server still serving

    def test_cancel_then_resume_over_http(self, make_service, make_client):
        first_round = threading.Event()
        release = threading.Event()

        def hook(job, record):
            if record.round_index == 0:
                first_round.set()
                assert release.wait(60)

        service = make_service(round_hook=hook)
        client = make_client(service)
        _, _, body = client.submit(tiny_study_payload(rounds=3))
        job_id = body["id"]
        assert first_round.wait(60)
        status, _, cancel_body = client.post_json(f"/studies/{job_id}/cancel")
        assert status == 202
        release.set()
        job = service.manager.get(job_id)
        assert job.wait(60) == "cancelled"
        snapshot = json.loads(client.get(f"/studies/{job_id}")[2])
        assert snapshot["state"] == "cancelled"
        assert snapshot["rounds_completed"] == 1
        assert snapshot["resumable"] is True
        # The cancelled run checkpointed; resume continues to the end.
        status, _, _ = client.post_json(f"/studies/{job_id}/resume")
        assert status == 202
        assert job.wait(120) == "done"
        assert len(client.round_frames(job_id)) == 3
        # Cancel/resume of terminal jobs is a clean 409, not a crash.
        assert client.post_json(f"/studies/{job_id}/cancel")[0] == 409
        assert client.post_json(f"/studies/{job_id}/resume")[0] == 409

    def test_cancel_while_queued_never_runs(self, make_service, make_client):
        blocker = threading.Event()

        def hook(job, record):
            assert blocker.wait(60)

        service = make_service(round_hook=hook, job_workers=1)
        client = make_client(service)
        _, _, running = client.submit(tiny_study_payload(seed=5))
        _, _, queued = client.submit(tiny_study_payload(seed=6))
        status, _, _ = client.post_json(f"/studies/{queued['id']}/cancel")
        assert status == 202
        blocker.set()
        assert wait_done(service, running["id"]) == "done"
        assert wait_done(service, queued["id"]) == "cancelled"
        # The queued job was cancelled before its simulator was built:
        # only the running job's build is counted, and no frames exist.
        assert service.manager.builds_performed == 1
        assert service.manager.get(queued["id"]).frames == []

    def test_no_leaked_workers_after_faults(self, make_service, make_client):
        """After disconnects and cancels, closing the service leaves no
        child processes behind (serial executors spawn none; the shard
        test below covers /dev/shm)."""
        service = make_service()
        client = make_client(service)
        _, _, body = client.submit(tiny_study_payload())
        wait_done(service, body["id"])
        service.close()
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(usable_cpus() < 2, reason="needs >= 2 usable CPUs")
    def test_sharded_cancel_leaves_no_shm_segments(
        self, make_service, make_client
    ):
        """Cancel a sharded study mid-run: shard worker processes and
        their /dev/shm segment must all be reclaimed."""
        first_round = threading.Event()
        release = threading.Event()

        def hook(job, record):
            if record.round_index == 0:
                first_round.set()
                assert release.wait(120)

        shm_dir = "/dev/shm"
        before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else None
        service = make_service(round_hook=hook)
        client = make_client(service)
        payload = tiny_study_payload(
            rounds=3, executor="sharded", n_shards=2, seed=31
        )
        _, _, body = client.submit(payload)
        assert first_round.wait(120)
        assert client.post_json(f"/studies/{body['id']}/cancel")[0] == 202
        release.set()
        job = service.manager.get(body["id"])
        assert job.wait(120) == "cancelled"
        service.close()
        assert multiprocessing.active_children() == []
        if before is not None:
            assert set(os.listdir(shm_dir)) - before == set()


class TestTransportErrorPath:
    def test_pipeline_crash_is_logged_and_answered_with_500(
        self, service, make_client, caplog, monkeypatch
    ):
        """If the whole pipeline raises (not just a handler — the error
        boundary covers those), the transport must answer a JSON 500
        AND leave a structured log line; it used to swallow the
        exception silently."""
        client = make_client(service)

        def broken_handle(request):
            raise RuntimeError("pipeline down")

        monkeypatch.setattr(service, "handle", broken_handle)
        with caplog.at_level(logging.ERROR, logger="repro.service.error"):
            status, _, body = client.get("/healthz")
        assert status == 500
        assert json.loads(body)["error"] == "internal error: RuntimeError"
        lines = [
            json.loads(r.getMessage())
            for r in caplog.records
            if r.name == "repro.service.error"
        ]
        assert {
            "event": "transport_error",
            "method": "GET",
            "path": "/healthz",
            "status": 500,
        } in lines
        assert "pipeline down" in caplog.text  # traceback rides along
