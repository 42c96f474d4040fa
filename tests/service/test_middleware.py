"""Middleware unit tests — each stage in isolation with a fake clock,
then the composed pipeline (request-id propagation into job logs)."""

from __future__ import annotations

import json
import logging

import pytest

from repro.core.config import config_hash
from repro.core.study import StudyConfig
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
from repro.telemetry import Registry

from tests.service.conftest import tiny_study_payload


class FakeClock:
    """Deterministic monotonic clock for middleware tests."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def run(middleware, request, handler=None, ctx=None):
    """Run one request through a single-stage pipeline."""
    handler = handler or (lambda ctx, req: json_response({"ok": True}))
    pipeline = build_pipeline([middleware], handler)
    return pipeline(ctx or RequestContext(), request)


def req(method="GET", path="/studies", body=b"", headers=None):
    return Request(method=method, path=path, body=body, headers=headers or {})


def metrics_stage(clock):
    """A metrics stage over a fresh registry, routing the paths these
    tests send the way the service's router does."""
    router = Router()
    for method, pattern in (
        ("GET", "/healthz"),
        ("GET", "/studies"),
        ("POST", "/studies"),
        ("GET", "/studies/{id}/stream"),
    ):
        router.add(method, pattern, lambda ctx, r, params: json_response({}))
    registry = Registry()
    return MetricsMiddleware(registry, router, clock=clock), registry


def counters(registry: Registry) -> dict:
    """The HTTP families of ``registry`` keyed by their label values."""
    snapshot = registry.snapshot()

    def keyed(name, field):
        return {
            tuple(series["labels"].values()): series[field]
            for series in snapshot[name]["series"]
        }

    return {
        "requests": keyed("repro_requests_total", "value"),
        "latency_ms": keyed("repro_request_latency_ms", "sum"),
        "latency_count": keyed("repro_request_latency_ms", "count"),
        "errors": keyed("repro_errors_total", "value"),
    }


# -- config_hash canonicalization ---------------------------------------


class TestConfigHash:
    def test_stable_across_dict_ordering(self):
        payload = tiny_study_payload()
        reordered = dict(reversed(list(payload.items())))
        assert list(payload) != list(reordered)  # the reorder is real
        assert config_hash(payload) == config_hash(reordered)

    def test_flat_and_grouped_spellings_agree(self):
        flat = tiny_study_payload()
        grouped = StudyConfig.from_dict(flat).to_dict()
        assert set(grouped) == {
            "name", "seed", "data", "model", "topology", "execution", "privacy"
        }
        assert config_hash(flat) == config_hash(grouped)

    def test_defaults_hash_like_explicit_values(self):
        implicit = tiny_study_payload()
        explicit = tiny_study_payload(executor="serial", train_batch=0)
        assert config_hash(implicit) == config_hash(explicit)

    def test_config_object_matches_payload(self):
        payload = tiny_study_payload()
        config = StudyConfig.from_dict(payload)
        assert config.config_hash() == config_hash(payload)

    def test_different_seed_different_hash(self):
        assert config_hash(tiny_study_payload(seed=0)) != config_hash(
            tiny_study_payload(seed=1)
        )

    def test_hash_is_hex_sha256(self):
        digest = config_hash(tiny_study_payload())
        assert len(digest) == 64
        int(digest, 16)  # parses as hex


# -- request context ----------------------------------------------------


class TestRequestContextMiddleware:
    def test_assigns_sequential_ids_and_echoes_header(self):
        mw = RequestContextMiddleware()
        seen = []
        handler = lambda ctx, r: (seen.append(ctx.request_id), json_response({}))[1]
        first = run(mw, req(), handler)
        second = run(mw, req(), handler)
        assert seen == ["req-000001", "req-000002"]
        assert first.headers["X-Request-ID"] == "req-000001"
        assert second.headers["X-Request-ID"] == "req-000002"

    def test_client_supplied_id_wins(self):
        mw = RequestContextMiddleware()
        response = run(mw, req(headers={"x-request-id": "upstream-7"}))
        assert response.headers["X-Request-ID"] == "upstream-7"


# -- access log ---------------------------------------------------------


class TestAccessLogMiddleware:
    def test_logs_one_structured_line_with_duration(self, caplog):
        clock = FakeClock()

        def handler(ctx, request):
            clock.advance(0.25)
            return json_response({}, status=201)

        mw = AccessLogMiddleware(clock=clock)
        ctx = RequestContext(request_id="req-000009")
        with caplog.at_level(logging.INFO, logger="repro.service.access"):
            run(mw, req(method="POST", path="/studies"), handler, ctx=ctx)
        assert len(caplog.records) == 1
        line = json.loads(caplog.records[0].getMessage())
        assert line == {
            "request_id": "req-000009",
            "method": "POST",
            "path": "/studies",
            "status": 201,
            "duration_ms": 250.0,
            "client": "",
        }


# -- metrics ------------------------------------------------------------


class TestMetricsMiddleware:
    def test_counts_requests_latency_and_errors(self):
        clock = FakeClock()
        mw, registry = metrics_stage(clock)

        def ok(ctx, request):
            clock.advance(0.010)
            return json_response({})

        run(mw, req(path="/studies/job-000001/stream"), ok)
        run(mw, req(path="/studies/job-000002/stream"), ok)
        run(mw, req(path="/healthz"), ok)
        seen = counters(registry)
        # Study ids collapse to one bounded-cardinality route label.
        assert seen["requests"][("GET", "/studies/{id}/stream", "200")] == 2
        assert seen["requests"][("GET", "/healthz", "200")] == 1
        assert seen["latency_ms"][("GET", "/studies/{id}/stream")] == (
            pytest.approx(20.0)
        )
        assert seen["latency_count"][("GET", "/studies/{id}/stream")] == 2
        assert seen["errors"] == {}

    def test_counts_5xx_and_raised_exceptions(self):
        mw, registry = metrics_stage(FakeClock())
        run(mw, req(), lambda ctx, r: json_response({}, status=503))
        def boom(ctx, request):
            raise RuntimeError("handler crash")
        with pytest.raises(RuntimeError):
            run(mw, req(), boom)
        seen = counters(registry)
        assert seen["errors"][("GET", "/studies")] == 2
        assert seen["requests"][("GET", "/studies", "500")] == 1

    def test_raised_exception_logs_structured_line_before_reraise(self, caplog):
        """Regression: exceptions from the stages between metrics and
        the error boundary used to propagate with no log line at all —
        the boundary sits further in and never saw them."""
        mw, registry = metrics_stage(FakeClock())
        ctx = RequestContext(request_id="req-000042")

        def boom(ctx, request):
            raise RuntimeError("limiter blew up")

        with caplog.at_level(logging.ERROR, logger="repro.service.error"):
            with pytest.raises(RuntimeError):
                run(mw, req(method="POST", path="/studies"), boom, ctx=ctx)
        assert len(caplog.records) == 1
        line = json.loads(caplog.records[0].getMessage())
        assert line == {
            "event": "middleware_error",
            "request_id": "req-000042",
            "method": "POST",
            "path": "/studies",
            "status": 500,
        }
        assert "limiter blew up" in caplog.text  # traceback rides along
        # The 500 is still counted — logging must not displace metrics.
        assert counters(registry)["requests"][("POST", "/studies", "500")] == 1

    def test_render_is_prometheus_style(self):
        mw, registry = metrics_stage(FakeClock())
        run(mw, req(path="/healthz"))
        text = registry.render()
        assert (
            'repro_requests_total{method="GET",route="/healthz",status="200"} 1'
            in text
        )
        assert 'repro_request_latency_ms_count{method="GET",route="/healthz"} 1' in text
        assert "# TYPE repro_request_latency_ms histogram" in text
        assert (
            'repro_request_latency_ms_bucket{method="GET",route="/healthz",'
            'le="+Inf"} 1' in text
        )

    def test_unknown_methods_collapse_to_other(self):
        # An arbitrary request line must not mint unbounded method
        # labels: anything outside the standard verbs becomes "other".
        clock = FakeClock()
        mw, registry = metrics_stage(clock)

        def ok(ctx, request):
            clock.advance(0.005)
            return json_response({})

        run(mw, req(method="BREW", path="/healthz"), ok)
        run(mw, req(method="SPAM", path="/healthz"), ok)
        run(mw, req(method="GET", path="/healthz"), ok)
        seen = counters(registry)
        assert seen["requests"][("other", "/healthz", "200")] == 2
        assert seen["requests"][("GET", "/healthz", "200")] == 1
        assert ("BREW", "/healthz", "200") not in seen["requests"]
        assert seen["latency_ms"][("other", "/healthz")] == (
            pytest.approx(10.0)
        )
        assert seen["latency_count"][("other", "/healthz")] == 2
        methods = {key[0] for key in seen["requests"]}
        assert methods == {"GET", "other"}
        assert 'method="other"' in registry.render()

    def test_unknown_method_errors_use_other_label(self):
        mw, registry = metrics_stage(FakeClock())
        run(mw, req(method="BREW"), lambda ctx, r: json_response({}, status=503))
        assert counters(registry)["errors"][("other", "/studies")] == 1


class TestBoundedLabels:
    def test_distinct_unknown_paths_share_one_unmatched_series(
        self, make_service
    ):
        """A client walking 500 distinct unknown paths must not grow the
        scrape: every request lands in one ``route="unmatched"`` series
        (a raw-path label once minted one series per path per family,
        ~100 KB of scrape)."""
        service = make_service()
        for i in range(500):
            assert service.handle(Request("GET", f"/probe/{i}")).status == 404
        scrape = service.handle(Request("GET", "/metrics")).body.decode()
        series = sorted(
            line.rpartition(" ")[0]
            for line in scrape.splitlines()
            if 'route="unmatched"' in line and "_bucket{" not in line
        )
        # One series in each family that saw the requests; a 404 is no
        # error, so repro_errors_total has none.
        assert series == [
            'repro_request_latency_ms_count{method="GET",route="unmatched"}',
            'repro_request_latency_ms_sum{method="GET",route="unmatched"}',
            'repro_requests_total{method="GET",route="unmatched",status="404"}',
        ]
        assert (
            'repro_requests_total{method="GET",route="unmatched",status="404"}'
            " 500" in scrape
        )
        assert "/probe/" not in scrape
        assert len(scrape) < 5_000

    def test_every_label_is_a_template_or_a_bounded_fallback(
        self, make_service
    ):
        """Whatever the method and path, ``route`` is one of the router's
        templates or ``unmatched`` and ``method`` a standard verb or
        ``other``."""
        from hypothesis import given, settings, strategies as st

        service = make_service()
        templates = {
            "/healthz", "/metrics", "/studies", "/studies/{id}",
            "/studies/{id}/result", "/studies/{id}/stream",
            "/studies/{id}/cancel", "/studies/{id}/resume", "unmatched",
        }
        verbs = ["DELETE", "GET", "HEAD", "OPTIONS", "PATCH", "POST", "PUT"]
        segment = st.one_of(
            st.sampled_from(
                ["studies", "healthz", "metrics", "stream", "result",
                 "cancel", "resume", "job-000001", "{id}", ""]
            ),
            st.text(st.characters(codec="ascii"), max_size=6),
        )

        @settings(max_examples=150, deadline=None)
        @given(
            method=st.one_of(
                st.sampled_from(verbs),
                st.text(st.characters(codec="ascii"), min_size=1, max_size=8),
            ),
            path=st.lists(segment, max_size=4).map(lambda s: "/" + "/".join(s)),
        )
        def check(method, path):
            service.handle(Request(method, path))
            snapshot = service.registry.snapshot()
            for family in (
                "repro_requests_total",
                "repro_request_latency_ms",
                "repro_errors_total",
            ):
                for series in snapshot[family]["series"]:
                    assert series["labels"]["route"] in templates
                    assert series["labels"]["method"] in {*verbs, "other"}

        check()


# -- token bucket -------------------------------------------------------


class TestTokenBucketMiddleware:
    def test_burst_then_429_then_refill(self):
        clock = FakeClock()
        mw = TokenBucketMiddleware(capacity=2, refill_per_sec=1.0, clock=clock)
        assert run(mw, req()).status == 200
        assert run(mw, req()).status == 200
        rejected = run(mw, req())
        assert rejected.status == 429
        assert rejected.headers["Retry-After"] == "1"
        assert json.loads(rejected.body)["error"] == "rate limited"
        clock.advance(1.0)  # one token back
        assert run(mw, req()).status == 200
        assert run(mw, req()).status == 429

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        mw = TokenBucketMiddleware(capacity=2, refill_per_sec=5.0, clock=clock)
        clock.advance(60.0)  # a long idle period must not overfill
        assert mw.tokens == pytest.approx(2.0)
        assert run(mw, req()).status == 200
        assert run(mw, req()).status == 200
        assert run(mw, req()).status == 429

    def test_retry_after_rounds_up_slow_refills(self):
        clock = FakeClock()
        mw = TokenBucketMiddleware(capacity=1, refill_per_sec=0.25, clock=clock)
        assert run(mw, req()).status == 200
        rejected = run(mw, req())
        assert rejected.status == 429
        assert rejected.headers["Retry-After"] == "4"  # 1 token / 0.25 per s

    def test_operational_endpoints_exempt(self):
        clock = FakeClock()
        mw = TokenBucketMiddleware(capacity=1, refill_per_sec=0.01, clock=clock)
        assert run(mw, req()).status == 200  # bucket now empty
        assert run(mw, req(path="/healthz")).status == 200
        assert run(mw, req(path="/metrics")).status == 200
        assert run(mw, req()).status == 429

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucketMiddleware(capacity=0)
        with pytest.raises(ValueError):
            TokenBucketMiddleware(refill_per_sec=0.0)


# -- the composed pipeline ---------------------------------------------


class TestComposedPipeline:
    def test_request_id_propagates_into_job_logs(self, make_service, caplog):
        """The id minted by the outermost stage reaches the job
        manager's structured log lines — context propagation across
        the whole stack, pinned end to end."""
        service = make_service()
        from repro.service.middleware import Request as Req

        with caplog.at_level(logging.INFO, logger="repro.service.jobs"):
            response = service.handle(
                Req(
                    method="POST",
                    path="/studies",
                    body=json.dumps(tiny_study_payload()).encode(),
                )
            )
            job_id = json.loads(response.body)["id"]
            assert service.manager.get(job_id).wait(120) == "done"
        request_id = response.headers["X-Request-ID"]
        assert request_id.startswith("req-")
        events = [
            json.loads(r.getMessage())
            for r in caplog.records
            if r.name == "repro.service.jobs"
        ]
        by_event = {e["event"] for e in events}
        assert {"job_submitted", "job_started", "job_done"} <= by_event
        assert all(e["request_id"] == request_id for e in events)
        assert all(e["job"] == job_id for e in events)

    def test_rate_limited_requests_are_counted_in_metrics(self, make_service):
        """Order contract: metrics sits outside the limiter, so 429s
        are observable."""
        service = make_service(rate_capacity=1, rate_refill=0.001)
        from repro.service.middleware import Request as Req

        assert service.handle(Req("GET", "/studies")).status == 200
        assert service.handle(Req("GET", "/studies")).status == 429
        seen = counters(service.registry)
        assert seen["requests"][("GET", "/studies", "429")] == 1


# -- error boundary ------------------------------------------------------


class TestErrorBoundaryMiddleware:
    def test_converts_exception_to_500_with_request_id(self, caplog):
        def handler(ctx, request):
            raise RuntimeError("secret detail")

        ctx = RequestContext(request_id="req-000042")
        with caplog.at_level(logging.ERROR, logger="repro.service.error"):
            response = run(
                ErrorBoundaryMiddleware(), req(path="/studies"), handler, ctx
            )
        assert response.status == 500
        body = json.loads(response.body)
        assert body["error"] == "internal error: RuntimeError"
        assert body["request_id"] == "req-000042"
        # The message stays in the server log, not on the wire.
        assert "secret detail" not in response.body.decode()
        assert any("req-000042" in r.getMessage() for r in caplog.records)

    def test_passthrough_when_handler_succeeds(self):
        response = run(ErrorBoundaryMiddleware(), req())
        assert response.status == 200
        assert json.loads(response.body) == {"ok": True}

    def test_failures_reach_access_log_and_metrics(self, caplog):
        """Order contract under the fake clock: an exception inside
        the boundary flows back out as an ordinary response, so the
        access log gets its line (status 500, measured duration) and
        metrics observe it on the normal path — neither saw failed
        requests before the boundary existed."""
        clock = FakeClock()
        metrics, registry = metrics_stage(clock)

        def handler(ctx, request):
            clock.advance(0.25)
            raise ValueError("boom")

        pipeline = build_pipeline(
            [
                RequestContextMiddleware(),
                AccessLogMiddleware(clock=clock),
                metrics,
                ErrorBoundaryMiddleware(),
            ],
            handler,
        )
        with caplog.at_level(logging.INFO, logger="repro.service.access"):
            response = pipeline(RequestContext(), req(path="/studies"))
        assert response.status == 500
        assert response.headers["X-Request-ID"].startswith("req-")
        lines = [
            json.loads(r.getMessage())
            for r in caplog.records
            if r.name == "repro.service.access"
        ]
        assert len(lines) == 1
        assert lines[0]["status"] == 500
        assert lines[0]["duration_ms"] == 250.0
        seen = counters(registry)
        assert seen["requests"][("GET", "/studies", "500")] == 1
        assert seen["errors"][("GET", "/studies")] == 1

    def test_service_pipeline_stamps_500s(self, make_service):
        """End to end through StudyService: a crashing route handler
        still produces an id-stamped JSON 500, not a bare transport
        error."""
        service = make_service()

        def explode(ctx, request, params):
            raise RuntimeError("handler bug")

        service.router.add("GET", "/boom", explode)
        response = service.handle(Request(method="GET", path="/boom"))
        assert response.status == 500
        assert response.headers["X-Request-ID"].startswith("req-")
        body = json.loads(response.body)
        assert body["error"] == "internal error: RuntimeError"
        assert body["request_id"] == response.headers["X-Request-ID"]
