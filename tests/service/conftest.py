"""In-process service test harness.

Every service test runs against a *real* socket: the fixtures boot a
``ThreadingHTTPServer`` on an ephemeral port in a daemon thread and
hand back a tiny HTTP/SSE client — no mocks of the HTTP layer
anywhere. Factories (``make_service`` / ``make_client``) let tests
customize rate limits, the state dir or the job-manager ``round_hook``
(the deterministic way to hold a study mid-run for cancel/disconnect
fault injection); teardown always shuts servers down and closes
services, so leaked worker threads/processes fail loudly elsewhere.
"""

from __future__ import annotations

import http.client
import json
import threading
from contextlib import contextmanager

import pytest

from repro.service import StudyService, make_server, parse_sse_stream


def tiny_study_payload(**overrides) -> dict:
    """A seconds-fast purchase100 config as a JSON-ready dict."""
    base = dict(
        name="svc-test",
        dataset="purchase100",
        n_train=600,
        n_test=150,
        num_features=64,
        n_nodes=6,
        view_size=2,
        protocol="samo",
        rounds=2,
        train_per_node=24,
        test_per_node=12,
        mlp_hidden=[32, 16],
        local_epochs=1,
        batch_size=12,
        max_attack_samples=32,
        max_global_test=64,
        seed=0,
    )
    base.update(overrides)
    return base


class ServiceClient:
    """Minimal stdlib HTTP + SSE client for the test harness."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plain requests -------------------------------------------------

    def request(self, method, path, body=None, headers=None):
        """One request on a fresh connection -> (status, headers, body)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), resp.read()
        finally:
            conn.close()

    def get(self, path, headers=None):
        return self.request("GET", path, headers=headers)

    def delete(self, path):
        return self.request("DELETE", path)

    def post_json(self, path, payload=None, headers=None):
        body = None if payload is None else json.dumps(payload).encode()
        return self.request("POST", path, body=body, headers=headers)

    def submit(self, payload, headers=None):
        """POST /studies -> (status, headers, parsed body dict)."""
        status, resp_headers, body = self.post_json(
            "/studies", payload, headers=headers
        )
        parsed = json.loads(body) if body else {}
        return status, resp_headers, parsed

    # -- SSE ------------------------------------------------------------

    @contextmanager
    def sse(self, path):
        """Open an event stream; yields (response, event iterator).

        Closing the context closes the socket — mid-stream, if the
        iterator was not exhausted, which is exactly the client-
        disconnect fault the server must survive.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            yield resp, parse_sse_stream(iter(resp.readline, b""))
        finally:
            conn.close()

    def stream_events(self, path):
        """Collect every event of a stream until the server ends it."""
        with self.sse(path) as (resp, events):
            assert resp.status == 200, resp.status
            return list(events)

    def round_frames(self, job_id):
        """The data payloads of all ``round`` events for one job."""
        return [
            e.data
            for e in self.stream_events(f"/studies/{job_id}/stream")
            if e.event == "round"
        ]


@pytest.fixture
def make_service(tmp_path):
    """Factory for :class:`StudyService` instances (auto-closed).

    Rate limits default high so functional tests never trip the
    limiter; rate-limiting tests pass their own capacity/refill.
    """
    created: list[StudyService] = []

    def factory(**kwargs) -> StudyService:
        kwargs.setdefault("rate_capacity", 10_000)
        kwargs.setdefault("rate_refill", 10_000.0)
        kwargs.setdefault("checkpoint_dir", tmp_path / "checkpoints")
        service = StudyService(**kwargs)
        created.append(service)
        return service

    yield factory
    for service in created:
        service.close()


@pytest.fixture
def make_client(make_service):
    """Factory: boot a server for a service, return a ServiceClient."""
    servers = []

    def factory(service: StudyService | None = None) -> ServiceClient:
        if service is None:
            service = make_service()
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        host, port = server.server_address
        return ServiceClient(host, port)

    yield factory
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture
def service(make_service) -> StudyService:
    return make_service()


@pytest.fixture
def client(service, make_client) -> ServiceClient:
    return make_client(service)
