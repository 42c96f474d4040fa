"""Gossip-as-a-service: a stdlib-only HTTP/SSE front end over the
:class:`~repro.core.study.Study` session layer.

The paper is a middleware paper; this package is the communications
tier between clients and the simulation — a long-running service with
an explicit, ordered middleware pipeline (request context, structured
access logs, metrics, token-bucket rate limiting and an error boundary)
in front of a job manager that dedups submissions by canonical config
hash and streams each study's per-round records as server-sent events.
See ``docs/service.md`` for the full protocol contract.
"""

from repro.service.app import StudyService, make_server, serve
from repro.service.jobs import JobManager, StudyJob
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
)
from repro.service.persistence import JobJournal, load_state
from repro.service.router import Router
from repro.service.sse import SSEvent, format_event, parse_sse_stream

__all__ = [
    "StudyService",
    "make_server",
    "serve",
    "JobManager",
    "StudyJob",
    "Router",
    "Request",
    "Response",
    "RequestContext",
    "RequestContextMiddleware",
    "AccessLogMiddleware",
    "MetricsMiddleware",
    "TokenBucketMiddleware",
    "ErrorBoundaryMiddleware",
    "JobJournal",
    "load_state",
    "build_pipeline",
    "SSEvent",
    "format_event",
    "parse_sse_stream",
]
