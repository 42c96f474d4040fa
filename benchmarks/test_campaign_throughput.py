"""Throughput of the Campaign API's cross-study parallelism.

Acceptance property of the session/campaign PR: a 4-study
:class:`~repro.experiments.Campaign` run with a process pool on a
machine with >= 2 usable CPUs beats the serial loop wall-clock
(``Campaign.run(jobs=1)`` runs the same studies one after another
in-process). Results must be bit-identical between the two paths —
parallelism across studies, like parallelism within one, must never
change numbers.

Skipped when the process may use only one CPU (its affinity mask, not
``os.cpu_count()``), where process parallelism cannot win by
construction. Wall clocks land in
``BENCH_engine.json`` under the ``campaign`` section.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.study import StudyConfig
from repro.experiments import Campaign
from repro.gossip.shard import usable_cpus

from benchmarks.conftest import print_series, run_once, update_bench_json

N_STUDIES = 4

_BENCH: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    yield
    update_bench_json(_BENCH)


def _campaign_configs() -> list[StudyConfig]:
    """4 independent serial studies, each a couple of seconds of work."""
    base = StudyConfig(
        name="campaign-bench",
        dataset="purchase100",
        n_train=900,
        n_test=200,
        num_features=96,
        mlp_hidden=(64, 32),
        n_nodes=12,
        view_size=2,
        protocol="samo",
        rounds=3,
        train_per_node=32,
        test_per_node=16,
        max_global_test=128,
        max_attack_samples=64,
        local_epochs=2,
        batch_size=16,
    )
    return Campaign.from_grid(base, seed=list(range(N_STUDIES))).configs


class TestCampaignThroughput:
    def test_parallel_campaign_bit_identical_to_serial(self):
        """jobs=2 must reproduce the serial loop's numbers exactly:
        every study is seed-deterministic, so where it runs cannot
        matter."""
        configs = [
            c.with_overrides(rounds=2, n_nodes=8) for c in _campaign_configs()
        ]
        serial = Campaign(configs).run(jobs=1)  # in-process
        parallel = Campaign(configs).run(jobs=2)
        assert list(serial) == list(parallel)
        for name in serial:
            np.testing.assert_array_equal(
                serial[name].series("mia_accuracy"),
                parallel[name].series("mia_accuracy"),
            )
            np.testing.assert_array_equal(
                serial[name].series("global_test_accuracy"),
                parallel[name].series("global_test_accuracy"),
            )
            assert serial[name].metadata == parallel[name].metadata

    def test_parallel_campaign_beats_serial_loop(self, benchmark):
        """The scale-out gate: N independent studies across >= 2
        processes finish faster than the same N in a serial loop."""
        cpus = usable_cpus()
        if cpus < 2:
            pytest.skip(
                f"campaign-vs-serial timing needs >= 2 CPUs; "
                f"this process may use {cpus}"
            )
        jobs = min(N_STUDIES, cpus)
        configs = _campaign_configs()

        start = time.perf_counter()
        serial = Campaign(configs).run(jobs=1)
        serial_time = time.perf_counter() - start

        campaign = Campaign(configs)
        start = time.perf_counter()
        parallel = run_once(benchmark, campaign.run, jobs=jobs)
        parallel_time = time.perf_counter() - start

        for name in serial:
            np.testing.assert_array_equal(
                serial[name].series("mia_accuracy"),
                parallel[name].series("mia_accuracy"),
            )
        speedup = serial_time / parallel_time
        _BENCH["campaign"] = {
            f"n{N_STUDIES}": {
                "serial_ms": serial_time * 1e3,
                "parallel_ms": parallel_time * 1e3,
                "jobs": jobs,
            }
        }
        print_series(
            "campaign ms (serial loop, parallel)",
            [serial_time * 1e3, parallel_time * 1e3],
        )
        print(f"campaign speedup: {speedup:.1f}x ({jobs} jobs)")
        assert speedup > 1.0, (
            f"a {N_STUDIES}-study campaign with {jobs} jobs was not "
            f"faster than the serial loop "
            f"({speedup:.2f}x; required: > 1x)"
        )
