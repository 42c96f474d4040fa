"""The service's middleware pipeline.

The request path is an explicit, *ordered* composition of small
stages, each owning one communication concern — the composable-stage
middleware shape (mmb, arXiv:1904.11277) over plain callables::

    RequestContextMiddleware      assign request id, propagate context
      -> AccessLogMiddleware      one structured log line per request
        -> MetricsMiddleware      request/latency/error series (/metrics)
          -> TokenBucketMiddleware  rate limiting (429 + Retry-After)
            -> ErrorBoundaryMiddleware  exceptions -> 500 Response
              -> Router.dispatch  the application

Every stage has the same signature — ``handle(ctx, request,
call_next)`` — and takes an injectable monotonic ``clock`` where it
measures time, so each is unit-testable in isolation with a fake
clock (``tests/service/test_middleware.py``) and the composed order is
visible in one place (:func:`build_pipeline` callers).

Deduplicating repeated study submissions is not a stage: the job
manager's config-hash index owns it (``repro.service.jobs``).
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator


if TYPE_CHECKING:  # the router imports this module's primitives
    from repro.service.router import Router
    from repro.telemetry import Registry

__all__ = [
    "Request",
    "Response",
    "RequestContext",
    "Middleware",
    "RequestContextMiddleware",
    "AccessLogMiddleware",
    "MetricsMiddleware",
    "TokenBucketMiddleware",
    "ErrorBoundaryMiddleware",
    "build_pipeline",
    "json_response",
]


# -- request/response primitives ----------------------------------------


@dataclass
class Request:
    """One parsed HTTP request, transport-independent."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)  # lowercase keys
    body: bytes = b""
    client: str = ""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


@dataclass
class Response:
    """One response: either ``body`` bytes or a streaming iterator."""

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    stream: Iterator[bytes] | None = None


@dataclass
class RequestContext:
    """Per-request context threaded through the pipeline and into the
    application (the job manager records ``request_id`` in its logs)."""

    request_id: str = ""


def json_response(payload: dict, status: int = 200) -> Response:
    """Canonical JSON response: sorted keys, compact separators.

    Canonical bytes are what make the dedup byte-identity contract
    testable — the same payload always serializes identically.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return Response(
        status=status, headers={"Content-Type": "application/json"}, body=body
    )


# -- pipeline composition -----------------------------------------------

Handler = Callable[[RequestContext, Request], Response]


class Middleware:
    """One pipeline stage. Subclasses override :meth:`handle`."""

    def handle(
        self, ctx: RequestContext, request: Request, call_next: Handler
    ) -> Response:
        return call_next(ctx, request)


def build_pipeline(middlewares: list[Middleware], handler: Handler) -> Handler:
    """Compose stages around ``handler``; first in the list is outermost."""

    def wrap(mw: Middleware, nxt: Handler) -> Handler:
        def call(ctx: RequestContext, request: Request) -> Response:
            return mw.handle(ctx, request, nxt)

        return call

    for mw in reversed(middlewares):
        handler = wrap(mw, handler)
    return handler


# -- stages -------------------------------------------------------------


class RequestContextMiddleware(Middleware):
    """Assign a request id and echo it back as ``X-Request-ID``.

    Ids are a monotone counter (``req-000001``), deterministic within a
    service instance so tests can assert propagation end to end; a
    client-supplied ``X-Request-ID`` header wins, as a gateway upstream
    of this service would already have assigned one.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def handle(self, ctx, request, call_next):
        supplied = request.header("x-request-id")
        if supplied:
            ctx.request_id = supplied
        else:
            with self._lock:
                ctx.request_id = f"req-{next(self._counter):06d}"
        response = call_next(ctx, request)
        response.headers.setdefault("X-Request-ID", ctx.request_id)
        return response


class AccessLogMiddleware(Middleware):
    """One structured (JSON) log line per request on
    ``repro.service.access``. For streaming responses the duration is
    time-to-first-byte: the stream is produced after the handler
    returns, and the log must not wait on a slow consumer."""

    def __init__(
        self,
        logger: logging.Logger | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._log = logger or logging.getLogger("repro.service.access")
        self._clock = clock

    def handle(self, ctx, request, call_next):
        start = self._clock()
        response = call_next(ctx, request)
        line = {
            "request_id": ctx.request_id,
            "method": request.method,
            "path": request.path,
            "status": response.status,
            "duration_ms": round((self._clock() - start) * 1000.0, 3),
            "client": request.client,
        }
        self._log.info("%s", json.dumps(line, sort_keys=True))
        return response


class MetricsMiddleware(Middleware):
    """Records each request into the service's metric registry.

    Three families: ``repro_requests_total{method,route,status}``, the
    ``repro_request_latency_ms{method,route}`` histogram and
    ``repro_errors_total{method,route}`` (5xx responses and raised
    exceptions). ``/metrics`` renders them with the engine series in
    one :meth:`~repro.telemetry.Registry.render` call.

    Label cardinality is bounded on both axes: ``route`` is the
    template :meth:`Router.match <repro.service.router.Router.match>`
    resolves (``/studies/{id}/stream``), or ``unmatched`` for a path
    no route fits, and ``method`` collapses anything outside the
    standard HTTP verbs to ``other`` — an arbitrary request line must
    not mint an unbounded set of series.
    """

    _KNOWN_METHODS = frozenset(
        {"GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"}
    )
    # Verbs, route templates and the statuses the handlers return bound
    # the series; the budget only guards against a handler inventing
    # status codes.
    _MAX_SERIES = 1024

    def __init__(
        self,
        registry: Registry,
        router: Router,
        clock: Callable[[], float] = time.monotonic,
        logger: logging.Logger | None = None,
    ) -> None:
        self._router = router
        self._clock = clock
        self._log = logger or logging.getLogger("repro.service.error")
        self._requests = registry.counter(
            "repro_requests_total",
            "HTTP requests, by method, route template and status",
            labels=("method", "route", "status"),
            max_series=self._MAX_SERIES,
        )
        self._latency_ms = registry.histogram(
            "repro_request_latency_ms",
            "Wall-clock of one request through the inner stages",
            labels=("method", "route"),
            max_series=self._MAX_SERIES,
        )
        self._errors = registry.counter(
            "repro_errors_total",
            "HTTP requests answered with a 5xx or an exception",
            labels=("method", "route"),
            max_series=self._MAX_SERIES,
        )

    def handle(self, ctx, request, call_next):
        start = self._clock()
        try:
            response = call_next(ctx, request)
        except Exception:
            # Exceptions from the stage between metrics and the error
            # boundary (the rate limiter) land here. They keep
            # propagating — the transport owns the response — but must
            # not travel unlogged: the boundary never saw them.
            self._observe(request, 500, self._clock() - start)
            self._log.exception(
                "%s",
                json.dumps(
                    {
                        "event": "middleware_error",
                        "request_id": ctx.request_id,
                        "method": request.method,
                        "path": request.path,
                        "status": 500,
                    },
                    sort_keys=True,
                ),
            )
            raise
        self._observe(request, response.status, self._clock() - start)
        return response

    def _observe(self, request: Request, status: int, elapsed: float) -> None:
        route = self._router.match(request.method, request.path)[0]
        method = (
            request.method
            if request.method in self._KNOWN_METHODS
            else "other"
        )
        self._requests.inc(method=method, route=route, status=status)
        self._latency_ms.observe(elapsed * 1000.0, method=method, route=route)
        if status >= 500:
            self._errors.inc(method=method, route=route)


class TokenBucketMiddleware(Middleware):
    """Global token-bucket rate limiter.

    A bucket of ``capacity`` tokens refills continuously at
    ``refill_per_sec``; each non-exempt request spends one token, and
    an empty bucket yields ``429`` with a ``Retry-After`` header (time
    until one token, rounded up to whole seconds). Operational probes
    (``/healthz``, ``/metrics``) are exempt by default so a saturated
    service stays observable.
    """

    def __init__(
        self,
        capacity: int = 50,
        refill_per_sec: float = 25.0,
        exempt: tuple[str, ...] = ("/healthz", "/metrics"),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0 or refill_per_sec <= 0:
            raise ValueError("capacity and refill_per_sec must be positive")
        self.capacity = capacity
        self.refill_per_sec = refill_per_sec
        self._exempt = set(exempt)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(capacity)
        self._last = clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last)
        self._tokens = min(
            float(self.capacity), self._tokens + elapsed * self.refill_per_sec
        )
        self._last = now

    @property
    def tokens(self) -> float:
        """Current token count (refilled to now; for tests/inspection)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens

    def handle(self, ctx, request, call_next):
        if request.path in self._exempt:
            return call_next(ctx, request)
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                allowed = True
                wait = 0.0
            else:
                allowed = False
                wait = (1.0 - self._tokens) / self.refill_per_sec
        if allowed:
            return call_next(ctx, request)
        retry_after = max(1, int(-(-wait // 1)))
        response = json_response(
            {"error": "rate limited", "retry_after": retry_after}, status=429
        )
        response.headers["Retry-After"] = str(retry_after)
        return response


class ErrorBoundaryMiddleware(Middleware):
    """Convert handler exceptions into a 500 ``Response``.

    Sits innermost, directly around the router: an exception escaping
    a handler used to unwind straight past every outer stage, so the
    request produced no access-log line, no latency sample, and the
    transport's bare 500 carried no ``X-Request-ID``. Catching it
    *inside* the pipeline turns the failure into an ordinary response
    that flows back out through logging, metrics and the request-id
    hook like any other. The traceback goes to ``repro.service.error``;
    the body deliberately carries only the exception type (plus the
    request id for log correlation), not its message — internals stay
    out of the wire format.
    """

    def __init__(self, logger: logging.Logger | None = None) -> None:
        self._log = logger or logging.getLogger("repro.service.error")

    def handle(self, ctx, request, call_next):
        try:
            return call_next(ctx, request)
        except Exception as exc:
            self._log.exception(
                "unhandled error serving %s %s (request_id=%s)",
                request.method,
                request.path,
                ctx.request_id,
            )
            return json_response(
                {
                    "error": f"internal error: {type(exc).__name__}",
                    "request_id": ctx.request_id,
                },
                status=500,
            )
