"""Self-test of the end-to-end benchmark harness (a few seconds).

Holds the harness to ``BENCHMARK.json``, builds every workload's
inputs, shows that the correctness checks can fail, and runs a short
service window that must end without a failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys

from .checks import Checks, check_records, records_digest
from .measure import E2E_METRICS, LAYER_METRICS, REPORTED_LAYERS
from .procs import ROOT, child_env
from .workloads import ENGINE, WORKLOADS, engine_rounds, service_payload, study_payload

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_study_lines() -> tuple[list[str], dict]:
    from repro.core.study import StudyConfig, run_study

    result = run_study(StudyConfig.from_dict(service_payload(0, "fresh", 0, 0)))
    return [r.to_json() for r in result.rounds], result.metadata["fallback_counts"]


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == (
        E2E_METRICS
    )
    assert [(m["name"], (m["unit"], m["better"])) for m in BENCHMARK["per_layer"]] == [
        (name, LAYER_METRICS[name]) for name in REPORTED_LAYERS
    ]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


def test_every_workload_payload_builds():
    from repro.core.study import Study, StudyConfig

    payloads = [
        study_payload(w, 0, engine_rounds(w, BENCHMARK["run_seconds"]))
        for w in WORKLOADS.values()
        if w.kind == ENGINE
    ]
    payloads += [service_payload(0, kind, 0, 0) for kind in ("fresh", "cancel")]
    for payload in payloads:
        with Study(StudyConfig.from_dict(payload)) as study:
            assert study.simulator.config.n_nodes == payload["n_nodes"]


def test_tampered_record_fails_the_checks():
    lines, fallbacks = _tiny_study_lines()
    clean = Checks()
    check_records(clean, lines, len(lines), records_digest(lines), fallbacks)
    assert clean.attempted > 0 and clean.failures == []

    record = json.loads(lines[-1])
    record["model_spread"] += 1.0
    tampered = lines[:-1] + [json.dumps(record, sort_keys=True, separators=(",", ":"))]
    checks = Checks()
    check_records(checks, tampered, len(lines), records_digest(lines), fallbacks)
    assert len(checks.failures) == 1 and "digest" in checks.failures[0]

    record["mia_auc"] = float("nan")
    broken = lines[:-1] + [json.dumps(record)]
    checks = Checks()
    check_records(checks, broken, len(lines) + 1, None, {"forced_per_row": 1})
    assert len(checks.failures) == 4  # count, non-finite, range, fallback


def test_tracer_restores_what_it_wraps():
    from repro.core.study import Study, StudyConfig
    from repro.gossip.engine import FlatGossipSimulator, mean_vectors

    from .tracer import LayerTracer

    original = FlatGossipSimulator.__dict__["run_round"]
    tracer = LayerTracer(seed=0).install()
    try:
        with Study(StudyConfig.from_dict(service_payload(0, "fresh", 0, 0))) as study:
            list(study.iter_rounds())
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert FlatGossipSimulator.__dict__["run_round"] is original
    from repro.gossip import engine

    assert engine.mean_vectors is mean_vectors
    assert metrics.keys() == LAYER_METRICS.keys()
    assert metrics["engine.round_ms"] > 0 and metrics["observe.ms"] > 0


def test_tiny_service_window_has_no_failed_check():
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.service_load", "--seed", "0", "--seconds", "2"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = [x for x in proc.stdout.splitlines() if x.startswith("E2E result ")][-1]
    result = json.loads(line[len("E2E result "):])
    assert result["checks"]["attempted"] > 0
    assert result["checks"]["failures"] == []
    assert result["study_ms"] and result["request_ms"]
