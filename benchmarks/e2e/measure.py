"""The benchmark's metrics: names, units, and how each is computed.

End-to-end metrics are measured with tracing off; per-layer metrics
come from the separate traced pass (``--trace 1``). ``BENCHMARK.json``
at the repository root declares the same names and units (the harness
self-test holds the two together) plus each end-to-end metric's bound.

Each engine workload's unit of work is a gossip round; the service
workload's is an HTTP request. One name means the same thing to a user
of either: how long the system takes to set up, to do one unit of
work, and to deliver a finished study.
"""

from __future__ import annotations

import statistics

# name -> (unit, better)
E2E_METRICS = {
    # Engine: child process start -> first RoundRecord (imports, data,
    # build, and round 0 with its lazy executor/evaluator set-up).
    # Service: spawn -> /healthz 200. Median of 3 fresh processes.
    "setup_s": ("s", "lower"),
    # Engine: median round, rounds 1..R-1. Service: median request,
    # SSE streams excluded.
    "latency_ms_p50": ("ms", "lower"),
    # The slow end. Service: p99 of requests (thousands of samples).
    # Engine: mean round; with 11-20 timed rounds no percentile above
    # the median has ten samples beyond it, and a mean counts every
    # slow round in full.
    "latency_ms_tail": ("ms", "lower"),
    # Time to a finished study. Engine: the sum of the timed rounds.
    # Service: mean POST -> SSE `end` of a fresh (cache-miss) study.
    # Fresh studies either find the single job worker free or queue
    # behind the other client's job, so their latency is bimodal; the
    # median flips between the modes from run to run, the mean does not.
    "study_s": ("s", "lower"),
    # Engine: ru_maxrss of the study process. Service: of the server.
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics the traced pass derives: name -> (unit, better).
# All are means per traced round unless the name says otherwise. Work
# counts are "lower" (less work for the same result); rows per training
# call and the fast-path share are "higher" (more work per kernel call).
LAYER_METRICS = {
    "study.build_ms": ("ms", "lower"),
    "engine.round_ms": ("ms", "lower"),
    "engine.tick_self_ms": ("ms", "lower"),
    "engine.messages_per_round": ("count", "lower"),
    "engine.message_mb_per_round": ("MB", "lower"),
    "agg.ms": ("ms", "lower"),
    "agg.mean_vectors_ms": ("ms", "lower"),
    "agg.merge_row_ms": ("ms", "lower"),
    "agg.calls_per_round": ("count", "lower"),
    "train.batch_ms": ("ms", "lower"),
    "train.calls_per_round": ("count", "lower"),
    "train.tasks_per_round": ("count", "lower"),
    "train.rows_per_call": ("count", "higher"),
    "train.fast_path_frac": ("ratio", "higher"),
    "dp.clip_ms": ("ms", "lower"),
    "dp.noise_ms": ("ms", "lower"),
    "accountant.ms": ("ms", "lower"),
    "sampler.on_wake_ms": ("ms", "lower"),
    "observe.ms": ("ms", "lower"),
    "observe.self_ms": ("ms", "lower"),
    "eval.accuracy_rows_ms": ("ms", "lower"),
    "eval.attack_obs_ms": ("ms", "lower"),
    "mia.reports_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


# The per-layer metrics every workload exercises, reported on the
# result line of a traced run. The rest (DP and accountant time, the
# split of aggregation, and the service-layer numbers) are zero or
# absent on some workloads and appear in the detailed output only.
REPORTED_LAYERS = (
    "study.build_ms",
    "engine.round_ms",
    "engine.tick_self_ms",
    "engine.messages_per_round",
    "engine.message_mb_per_round",
    "agg.ms",
    "agg.calls_per_round",
    "train.batch_ms",
    "train.calls_per_round",
    "train.tasks_per_round",
    "train.rows_per_call",
    "train.fast_path_frac",
    "sampler.on_wake_ms",
    "observe.ms",
    "observe.self_ms",
    "eval.accuracy_rows_ms",
    "eval.attack_obs_ms",
    "mia.reports_ms",
    "trace.overhead_pct",
)

SVC_UNITS = {
    "svc.post_server_ms": "ms",
    "svc.get_server_ms": "ms",
    "svc.transport_ms": "ms",
    "svc.round_ms": "ms",
    "svc.job_overhead_ms": "ms",
    "svc.cache_hit_frac": "ratio",
    "svc.state_kb_per_study": "KB",
    "svc.cancel_landed_frac": "ratio",
    "svc.studies_per_s": "1/s",
}


def engine_metrics(setup_s: list[float], result: dict) -> dict[str, float]:
    round_s = result["round_s"]
    return {
        "setup_s": statistics.median(setup_s),
        "latency_ms_p50": statistics.median(round_s) * 1000.0,
        "latency_ms_tail": statistics.fmean(round_s) * 1000.0,
        "study_s": sum(round_s),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def service_metrics(result: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "latency_ms_p50": statistics.median(result["request_ms"]),
        "latency_ms_tail": statistics.quantiles(
            result["request_ms"], n=100, method="inclusive"
        )[98],
        "study_s": statistics.fmean(result["study_ms"]) / 1000.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
