"""Telemetry overhead gate: observing the round loop must be ~free.

The subsystem's perf contract: with `Telemetry(enabled=True)` the
engine takes per-phase timestamps, updates histograms and records
spans on every round — and the whole apparatus may cost at most 5% of
round wall-clock at 64 nodes versus the null-telemetry fast path
(which is a handful of `is None` checks).

Both studies run the identical deterministic round sequence (same
config, same seed), so round k does the same work on both simulators.
The race times the two paths *paired*: round k on one, round k on the
other, alternating which goes first, so machine-level drift cancels
within each pair. The gate is the *median* paired difference: a noise
spike in either round of a pair moves that pair's difference up or
down, and the median discounts both. (The minimum difference is
biased: it drifts more negative the more pairs are timed.) A small
absolute slack term covers timer jitter on machines where a round is
only a few milliseconds.

The paired differences merge into ``BENCH_engine.json`` under the
``telemetry_overhead`` section with their ``reps``, ``median``,
``min`` and ``iqr``.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.study import Study, StudyConfig
from repro.telemetry import Telemetry

from benchmarks.conftest import print_series, run_once, update_bench_json

N_NODES = 64

_BENCH: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Merge whatever this module measured, even on partial runs."""
    yield
    update_bench_json(_BENCH)


def _config() -> StudyConfig:
    return StudyConfig(
        name="telemetry-overhead",
        dataset="purchase100",
        n_train=2600,
        n_test=400,
        num_features=96,
        mlp_hidden=(48, 24),
        n_nodes=N_NODES,
        view_size=4,
        rounds=64,  # headroom: the race consumes one round per rep
        ticks_per_round=120,
        train_per_node=32,
        test_per_node=8,
        max_global_test=96,
        max_attack_samples=48,
        local_epochs=1,
        batch_size=8,
        executor="batched",
        seed=23,
    )


def _timed_round(simulator) -> float:
    start = time.perf_counter()
    simulator.run_round()
    return time.perf_counter() - start


def _paired_rounds(plain_sim, instrumented_sim, reps: int):
    """Time round k on both simulators, alternating who goes first."""
    plain_times: list[float] = []
    instrumented_times: list[float] = []
    for rep in range(reps):
        if rep % 2 == 0:
            plain_times.append(_timed_round(plain_sim))
            instrumented_times.append(_timed_round(instrumented_sim))
        else:
            instrumented_times.append(_timed_round(instrumented_sim))
            plain_times.append(_timed_round(plain_sim))
    return plain_times, instrumented_times


class TestTelemetryOverhead:
    def test_instrumented_round_within_5_percent(self, benchmark):
        """Median paired round-k difference, telemetry on vs off."""
        reps = 9
        with Study(_config()) as plain, Study(
            _config(), telemetry=Telemetry(enabled=True)
        ) as instrumented:
            # Warm one round on each (lazy caches, first-touch pages).
            plain.simulator.run_round()
            instrumented.simulator.run_round()
            plain_times, instrumented_times = run_once(
                benchmark,
                lambda: _paired_rounds(
                    plain.simulator, instrumented.simulator, reps
                ),
            )
        plain_median = statistics.median(plain_times)
        diffs = [i - p for p, i in zip(plain_times, instrumented_times)]
        overhead = statistics.median(diffs)
        q1, _, q3 = statistics.quantiles(diffs, n=4)
        overhead_pct = overhead / plain_median * 100.0
        # Replace, not merge: the keys of the earlier min-based gate
        # would otherwise linger beside these.
        _BENCH.setdefault("telemetry_overhead", {})[f"n{N_NODES}"] = dict(
            reps=reps,
            plain_median_ms=plain_median * 1e3,
            instrumented_median_ms=statistics.median(instrumented_times) * 1e3,
            median_ms=overhead * 1e3,
            min_ms=min(diffs) * 1e3,
            iqr_ms=(q3 - q1) * 1e3,
            overhead_pct=overhead_pct,
        )
        print_series("paired round-k differences ms", [d * 1e3 for d in diffs])
        print(f"telemetry overhead: {overhead_pct:+.2f}% (median pair)")
        # 5% relative + 1ms absolute slack for timer jitter on
        # machines where a round is only a few milliseconds.
        assert overhead <= plain_median * 0.05 + 1e-3, (
            f"telemetry costs {overhead * 1e3:.2f}ms (median pair) on a "
            f"{plain_median * 1e3:.2f}ms round ({overhead_pct:+.1f}%) — "
            f"must be <= 5% of round wall-clock"
        )
