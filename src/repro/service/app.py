"""Gossip-as-a-service: the HTTP/SSE front end.

:class:`StudyService` wires the middleware pipeline, the router and
the :class:`~repro.service.jobs.JobManager` into one transport-
independent ``handle(request) -> response`` callable;
:func:`make_server` mounts it on a stdlib ``ThreadingHTTPServer``.

Endpoints (see ``docs/service.md`` for the full contract):

========  ==========================  =====================================
POST      /studies                    submit a grouped/flat config JSON
GET       /studies                    list all jobs
GET       /studies/{id}               job status snapshot
GET       /studies/{id}/result        finished RunResult JSON
GET       /studies/{id}/stream        SSE round frames (replay + follow)
POST      /studies/{id}/cancel        cooperative cancel (checkpointed)
POST      /studies/{id}/resume        continue a cancelled job
DELETE    /studies/{id}               forget a job (cancels if running)
GET       /healthz                    liveness probe
GET       /metrics                    Prometheus text of the registry
========  ==========================  =====================================

``HEAD`` on a GET route answers with that route's status and headers
and no body (an SSE stream sends no frames).

``POST /studies`` answers ``X-Cache: hit`` when the job manager's
config-hash index returned an existing job (no build) and ``miss`` when
the submission created one.
"""

from __future__ import annotations

import json
import logging
import tempfile
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Iterator
from urllib.parse import parse_qsl, urlsplit

from repro.core.study import StudyConfig
from repro.service.jobs import DONE, FAILED, JobManager, StudyJob
from repro.service.middleware import (
    AccessLogMiddleware,
    ErrorBoundaryMiddleware,
    MetricsMiddleware,
    Request,
    RequestContext,
    RequestContextMiddleware,
    Response,
    TokenBucketMiddleware,
    build_pipeline,
    json_response,
)
from repro.service.router import Router
from repro.service.sse import format_event
from repro.telemetry import Registry, Telemetry

__all__ = ["StudyService", "make_server", "serve"]


class StudyService:
    """The application: middleware pipeline -> router -> job manager."""

    def __init__(
        self,
        checkpoint_dir: str | Path | None = None,
        job_workers: int = 2,
        rate_capacity: int = 50,
        rate_refill: float = 25.0,
        clock: Callable[[], float] = time.monotonic,
        round_hook: Callable[[StudyJob, object], None] | None = None,
        state_dir: str | Path | None = None,
        checkpoint_hook: Callable[[StudyJob], None] | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if checkpoint_dir is None and state_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-service-")
            checkpoint_dir = self._tmpdir.name
        # Engine-side telemetry is on by default, with result
        # annotation OFF: a study's result bytes must stay identical
        # to a plain run_study of the same config (the replay/dedup
        # contract the smoke test asserts byte for byte).
        if telemetry is None:
            telemetry = Telemetry(enabled=True, annotate_results=False)
        self.telemetry = telemetry
        self.manager = JobManager(
            checkpoint_dir,
            workers=job_workers,
            round_hook=round_hook,
            state_dir=state_dir,
            checkpoint_hook=checkpoint_hook,
            telemetry=telemetry,
        )
        # One registry behind /metrics: the engine telemetry's, or one
        # of the service's own for the HTTP series when it is disabled.
        self.registry = (
            telemetry.registry if telemetry.enabled else Registry()
        )
        self.router = Router()
        self._register_routes()
        self.limiter = TokenBucketMiddleware(
            capacity=rate_capacity, refill_per_sec=rate_refill, clock=clock
        )
        # The documented middleware order — outermost first. Keep in
        # sync with docs/service.md.
        self.pipeline = build_pipeline(
            [
                RequestContextMiddleware(),
                AccessLogMiddleware(clock=clock),
                MetricsMiddleware(self.registry, self.router, clock=clock),
                self.limiter,
                ErrorBoundaryMiddleware(),
            ],
            self.router.dispatch,
        )

    def handle(self, request: Request) -> Response:
        """Run one request through the full pipeline (any transport)."""
        return self.pipeline(RequestContext(), request)

    def close(self) -> None:
        """Shut down workers and reclaim the checkpoint directory."""
        self.manager.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # -- routes ---------------------------------------------------------

    def _register_routes(self) -> None:
        add = self.router.add
        add("GET", "/healthz", self._healthz)
        add("GET", "/metrics", self._metrics)
        add("POST", "/studies", self._post_study)
        add("GET", "/studies", self._list_studies)
        add("GET", "/studies/{id}", self._get_study)
        add("DELETE", "/studies/{id}", self._delete_study)
        add("GET", "/studies/{id}/result", self._get_result)
        add("GET", "/studies/{id}/stream", self._stream_study)
        add("POST", "/studies/{id}/cancel", self._cancel_study)
        add("POST", "/studies/{id}/resume", self._resume_study)

    def _healthz(self, ctx, request, params) -> Response:
        return json_response({"status": "ok"})

    def _metrics(self, ctx, request, params) -> Response:
        # One scrape shows the whole stack: HTTP, round-phase, executor
        # and shard series, all from the one registry.
        return Response(
            status=200,
            headers={"Content-Type": "text/plain; charset=utf-8"},
            body=self.registry.render().encode("utf-8"),
        )

    def _post_study(self, ctx, request, params) -> Response:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return json_response(
                {"error": f"body is not valid JSON: {exc}"}, status=400
            )
        try:
            config = StudyConfig.from_dict(payload)
        except (ValueError, TypeError) as exc:
            return json_response({"error": str(exc)}, status=400)
        job, created = self.manager.submit(config, request_id=ctx.request_id)
        # Deterministic body: same config -> same job (dedup) -> same
        # bytes, before and after a restart.
        response = json_response(
            {
                "id": job.id,
                "config_hash": job.config_hash,
                "status_url": f"/studies/{job.id}",
                "stream_url": f"/studies/{job.id}/stream",
                "result_url": f"/studies/{job.id}/result",
            }
        )
        response.headers["X-Cache"] = "miss" if created else "hit"
        return response

    def _list_studies(self, ctx, request, params) -> Response:
        return json_response(
            {"studies": [job.snapshot() for job in self.manager.jobs()]}
        )

    def _get_study(self, ctx, request, params) -> Response:
        job = self.manager.get(params["id"])
        if job is None:
            return json_response(
                {"error": f"no study {params['id']}"}, status=404
            )
        return json_response(job.snapshot())

    def _get_result(self, ctx, request, params) -> Response:
        job = self.manager.get(params["id"])
        if job is None:
            return json_response(
                {"error": f"no study {params['id']}"}, status=404
            )
        if job.state == DONE and job.result_json is not None:
            return Response(
                status=200,
                headers={"Content-Type": "application/json"},
                body=job.result_json.encode("utf-8"),
            )
        status = 500 if job.state == FAILED else 409
        return json_response(
            {"error": f"study {job.id} is {job.state}", "state": job.state,
             "detail": job.error},
            status=status,
        )

    def _stream_study(self, ctx, request, params) -> Response:
        job = self.manager.get(params["id"])
        if job is None:
            return json_response(
                {"error": f"no study {params['id']}"}, status=404
            )
        return Response(
            status=200,
            headers={
                "Content-Type": "text/event-stream",
                "Cache-Control": "no-store",
            },
            stream=self._sse_frames(job),
        )

    @staticmethod
    def _sse_frames(job: StudyJob) -> Iterator[bytes]:
        for index, frame in job.stream():
            yield format_event(frame, event="round", event_id=str(index))
        yield format_event(
            json.dumps(
                {"status": job.state, "rounds": len(job.frames)},
                sort_keys=True,
            ),
            event="end",
        )

    def _cancel_study(self, ctx, request, params) -> Response:
        return self._job_action(params["id"], self.manager.cancel)

    def _resume_study(self, ctx, request, params) -> Response:
        job_id = params["id"]

        def do_resume(jid: str) -> StudyJob:
            return self.manager.resume(jid, request_id=ctx.request_id)

        return self._job_action(job_id, do_resume, status=202)

    def _job_action(
        self, job_id: str, action: Callable[[str], StudyJob], status: int = 202
    ) -> Response:
        try:
            job = action(job_id)
        except KeyError:
            return json_response({"error": f"no study {job_id}"}, status=404)
        except ValueError as exc:
            return json_response({"error": str(exc)}, status=409)
        return json_response(job.snapshot(), status=status)

    def _delete_study(self, ctx, request, params) -> Response:
        try:
            self.manager.delete(params["id"])
        except KeyError:
            return json_response(
                {"error": f"no study {params['id']}"}, status=404
            )
        return Response(status=204)


# -- HTTP transport -----------------------------------------------------


class _ServiceHTTPHandler(BaseHTTPRequestHandler):
    """Adapter between ``http.server`` and the service pipeline."""

    service: StudyService  # injected by make_server via a subclass attr
    protocol_version = "HTTP/1.1"
    # Headers and body are separate sends: without this, the body waits
    # ~40 ms for a keep-alive client's delayed ACK (Nagle's algorithm).
    disable_nagle_algorithm = True

    def _request(self) -> Request:
        split = urlsplit(self.path)
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        return Request(
            method=self.command,
            path=split.path,
            query=dict(parse_qsl(split.query)),
            headers={k.lower(): v for k, v in self.headers.items()},
            body=body,
            client=self.client_address[0],
        )

    def _dispatch(self) -> None:
        try:
            response = self.service.handle(self._request())
        except Exception as exc:  # the transport must not die with the app
            logging.getLogger("repro.service.error").exception(
                "%s",
                json.dumps(
                    {
                        "event": "transport_error",
                        "method": self.command,
                        "path": self.path,
                        "status": 500,
                    },
                    sort_keys=True,
                ),
            )
            response = json_response(
                {"error": f"internal error: {type(exc).__name__}"}, status=500
            )
        try:
            if response.stream is not None:
                self._write_stream(response)
            else:
                self._write_body(response)
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-write; nothing to clean up beyond
            # closing the stream generator (done in _write_stream).
            self.close_connection = True

    def _write_body(self, response: Response) -> None:
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        if self.command != "HEAD" and response.body:
            self.wfile.write(response.body)

    def _write_stream(self, response: Response) -> None:
        # SSE: unknown length, so fall back to connection-delimited
        # framing (Connection: close) — simplest correct HTTP/1.1.
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        assert response.stream is not None
        try:
            if self.command == "HEAD":
                return  # headers only; the generator never starts
            for chunk in response.stream:
                self.wfile.write(chunk)
                self.wfile.flush()
        finally:
            # A disconnect mid-stream lands here: drop the generator so
            # its job subscription loop ends with it.
            response.stream.close()

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch()

    do_POST = do_GET
    do_DELETE = do_GET
    do_HEAD = do_GET

    def log_message(self, format: str, *args) -> None:
        """Silence the default stderr log; AccessLogMiddleware owns it."""


def make_server(
    service: StudyService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server to the service (port 0 = ephemeral)."""
    handler = type(
        "BoundServiceHandler", (_ServiceHTTPHandler,), {"service": service}
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    **service_kwargs,
) -> int:
    """Run the service until interrupted (the ``repro serve`` command)."""
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    service = StudyService(**service_kwargs)
    server = make_server(service, host, port)
    bound = server.server_address
    print(f"repro service listening on http://{bound[0]}:{bound[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.close()
    return 0
