"""Telemetry overhead gate: observing the round loop must be ~free.

The subsystem's perf contract: with `Telemetry(enabled=True)` the
engine takes per-phase timestamps, updates histograms and records
spans on every round — and the whole apparatus may cost at most 5% of
round wall-clock at 64 nodes versus the null-telemetry fast path
(which is a handful of `is None` checks).

Both studies run the identical deterministic round sequence (same
config, same seed), so round k does the same work on both simulators.
The race times the two paths *paired*: round k on one, round k on the
other, alternating which goes first. The gate is the minimum paired
difference — scheduler noise is one-sided (spikes, never speedups),
so the cleanest pair is the honest estimate of what the telemetry
apparatus itself costs, robust to machine-level drift that would bias
a sequential best-of-N. A small absolute slack term covers timer
jitter on machines where a round is only a few milliseconds.

The measured wall clocks merge into ``BENCH_engine.json`` under the
``telemetry_overhead`` section.
"""

from __future__ import annotations

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
        """Min paired round-k difference, telemetry on vs off."""
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
        plain_best = min(plain_times)
        instrumented_best = min(instrumented_times)
        overhead = min(
            i - p for p, i in zip(plain_times, instrumented_times)
        )
        overhead_pct = overhead / plain_best * 100.0
        _BENCH.setdefault("telemetry_overhead", {}).setdefault(
            f"n{N_NODES}", {}
        ).update(
            plain_ms=plain_best * 1e3,
            instrumented_ms=instrumented_best * 1e3,
            overhead_pct=overhead_pct,
        )
        print_series(
            "round ms (plain, instrumented)",
            [plain_best * 1e3, instrumented_best * 1e3],
        )
        print(f"telemetry overhead: {overhead_pct:+.2f}%")
        # 5% relative + 1ms absolute slack for timer jitter on
        # machines where a round is only a few milliseconds.
        assert overhead <= plain_best * 0.05 + 1e-3, (
            f"telemetry costs {overhead * 1e3:.2f}ms on a "
            f"{plain_best * 1e3:.2f}ms round ({overhead_pct:+.1f}%) — "
            f"must be <= 5% of round wall-clock"
        )
