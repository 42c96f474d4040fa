"""Ablation — robustness to message loss and node churn.

Gossip protocols are chosen for their resilience (Section 1 motivates
decentralization with scalability/resilience); this ablation injects
message loss and node churn and checks the system degrades gracefully:
training still converges and the privacy metrics remain well-defined.
It also measures how failures interact with mixing — lost messages
mean less mixing, so vulnerability should not DECREASE when links are
lossy.
"""

import numpy as np

from repro.experiments import Campaign, scaled_config

from benchmarks.conftest import run_once


def test_ablation_failure_injection(benchmark, scale):
    grid = {
        "clean": dict(drop_prob=0.0, failure_prob=0.0),
        "lossy-30": dict(drop_prob=0.3, failure_prob=0.0),
        "churn-30": dict(drop_prob=0.0, failure_prob=0.3),
        "both-30": dict(drop_prob=0.3, failure_prob=0.3),
        "latent-20": dict(delay_ticks=20, delay_jitter=10),
    }

    def run():
        configs = [
            scaled_config(
                "purchase100",
                scale,
                name=name,
                protocol="samo",
                view_size=2,
                seed=0,
                **knobs,
            )
            for name, knobs in grid.items()
        ]
        return Campaign(configs).run(jobs=1)

    results = run_once(benchmark, run)

    print(f"\n{'scenario':<10} {'final_mia':>10} {'max_test':>9} "
          f"{'msgs':>6} {'dropped':>8} {'skipped':>8}")
    for name, result in results.items():
        print(
            f"{name:<10} {result.rounds[-1].mia_accuracy:>10.3f} "
            f"{result.max_test_accuracy:>9.3f} {result.total_messages:>6} "
            f"{result.metadata['messages_dropped']:>8} "
            f"{result.metadata['wakes_skipped']:>8}"
        )

    clean = results["clean"]
    # Shape 1: failures actually happened where injected.
    assert results["lossy-30"].metadata["messages_dropped"] > 0
    assert results["churn-30"].metadata["wakes_skipped"] > 0
    assert clean.metadata["messages_dropped"] == 0

    # Shape 2: graceful degradation — every scenario still learns
    # (test accuracy above chance = 1/100) and the attack metrics stay
    # in range.
    for result in results.values():
        assert result.max_test_accuracy > 0.01
        assert 0.0 <= result.max_mia_accuracy <= 1.0

    # Shape 3: fewer delivered messages means less mixing; loss should
    # not reduce vulnerability below the clean run (tolerance for tiny
    # scale noise).
    assert (
        results["lossy-30"].rounds[-1].mia_accuracy
        >= clean.rounds[-1].mia_accuracy - 0.05
    )
