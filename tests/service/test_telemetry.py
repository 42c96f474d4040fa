"""Service-level telemetry: one scrape shows HTTP *and* engine series,
fallback counters surface in status JSON and /metrics, the request id
rides into job logs and spans as the trace id, and instrumented
results stay byte-identical to an uninstrumented run.
"""

from __future__ import annotations

import json
import logging

from repro.core.study import StudyConfig, run_study
from repro.service.middleware import Request
from repro.telemetry import Telemetry

from tests.service.conftest import tiny_study_payload


def _submit_and_wait(service, client, payload, headers=None):
    status, _, body = client.submit(payload, headers=headers)
    assert status in (200, 201), body
    job_id = body["id"]
    assert service.manager.get(job_id).wait(timeout=120.0) == "done"
    return job_id


class TestMetricsExposition:
    def test_scrape_merges_http_and_engine_series(self, service, client):
        _submit_and_wait(service, client, tiny_study_payload())
        status, headers, body = client.get("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        # HTTP middleware families...
        assert "repro_requests_total" in text
        assert "repro_request_latency_ms_count" in text
        # ...and the engine registry in the same scrape.
        assert 'repro_engine_phase_ms_count{phase="train"}' in text
        assert 'repro_engine_phase_ms_count{phase="observe"}' in text
        assert "repro_study_round_ms_count" in text
        assert 'repro_executor_tasks_total{executor=' in text

    def test_per_row_payload_trains_on_the_blocked_kernel(
        self, service, client
    ):
        # A stored train_batch=-1 (the removed per-row trainer) loads
        # as one-row blocks: no row leaves the blocked kernel, and the
        # scrape carries no fallback family.
        payload = tiny_study_payload(executor="batched", train_batch=-1)
        job_id = _submit_and_wait(service, client, payload)
        text = client.get("/metrics")[2].decode("utf-8")
        assert "fallback" not in text
        assert 'repro_executor_tasks_total{executor="batched"}' in text

        status, _, body = client.get(f"/studies/{job_id}")
        assert status == 200
        assert json.loads(body)["fallback_counts"] == {}

    def test_fast_path_study_reports_no_fallbacks(self, service, client):
        job_id = _submit_and_wait(
            service, client, tiny_study_payload(executor="batched")
        )
        snapshot = json.loads(client.get(f"/studies/{job_id}")[2])
        assert snapshot["fallback_counts"] == {}


class TestTraceIds:
    def test_request_id_becomes_trace_id_in_job_logs(
        self, service, client, caplog
    ):
        with caplog.at_level(logging.INFO, logger="repro.service.jobs"):
            _submit_and_wait(
                service,
                client,
                tiny_study_payload(seed=11),
                headers={"X-Request-ID": "trace-me-123"},
            )
        events = [
            json.loads(r.message)
            for r in caplog.records
            if r.name == "repro.service.jobs"
        ]
        assert events, "no job log events captured"
        traced = [e for e in events if e.get("trace_id") == "trace-me-123"]
        assert {e["event"] for e in traced} >= {"job_submitted", "job_done"}

    def test_job_spans_carry_the_request_id(self, service, client):
        _submit_and_wait(
            service,
            client,
            tiny_study_payload(seed=12),
            headers={"X-Request-ID": "req-span-7"},
        )
        spans = service.telemetry.tracer.spans()
        job_spans = [s for s in spans if s.name == "job.execute"]
        assert job_spans
        assert job_spans[-1].trace_id == "req-span-7"
        # The study's round spans nest under the job span and share
        # the trace id (set per worker thread).
        rounds = [
            s for s in spans
            if s.name == "study.round" and s.trace_id == "req-span-7"
        ]
        assert rounds
        assert all(s.parent_id == job_spans[-1].span_id for s in rounds)


class TestResultIdentity:
    def test_service_result_bytes_match_plain_run_study(
        self, service, client
    ):
        # The service runs with telemetry enabled but annotation off:
        # its result bytes must equal an uninstrumented local run.
        payload = tiny_study_payload(seed=13)
        job_id = _submit_and_wait(service, client, payload)
        status, _, body = client.get(f"/studies/{job_id}/result")
        assert status == 200
        expected = run_study(StudyConfig.from_dict(payload))
        assert body.decode("utf-8") == expected.to_json()
        assert service.telemetry.enabled
        assert not service.telemetry.annotate_results

    def test_explicit_disabled_telemetry_is_honored(self, make_service):
        service = make_service(telemetry=Telemetry.disabled())
        assert not service.telemetry.enabled
        assert service.telemetry.registry.render() == ""
        # The HTTP series still reach the scrape, from the service's
        # own registry.
        service.handle(Request("GET", "/healthz"))
        text = service.handle(Request("GET", "/metrics")).body.decode()
        assert (
            'repro_requests_total{method="GET",route="/healthz",status="200"} 1'
            in text
        )
        assert "repro_engine_phase_ms" not in text
