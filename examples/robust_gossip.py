"""Failure injection: gossip learning on an unreliable network.

Decentralized learning is motivated by resilience (paper Section 1).
This example stresses one study under message loss, node churn and
network latency at once, and shows (i) graceful degradation of utility
and (ii) that failures do NOT act as a privacy defense — delivered
exchanges still leak membership.

Run:  python examples/robust_gossip.py
"""

import os

from repro.experiments import Campaign, scaled_config

SMOKE = os.environ.get("REPRO_EXAMPLES_SCALE") == "smoke"


def main() -> None:
    grid = {
        "clean": dict(),
        "lossy (30% drop)": dict(drop_prob=0.3),
        "churny (30% fail)": dict(failure_prob=0.3),
        "latent (20 ticks)": dict(delay_ticks=20, delay_jitter=10),
        "hostile (all)": dict(drop_prob=0.3, failure_prob=0.3, delay_ticks=20),
    }
    configs = [
        scaled_config(
            "purchase100",
            scale="tiny",
            name=name,
            protocol="samo",
            view_size=2,
            rounds=2 if SMOKE else 5,
            seed=0,
            **knobs,
        )
        for name, knobs in grid.items()
    ]
    results = Campaign(configs).run(jobs=1)

    print(f"{'scenario':<19} {'max_test':>9} {'final_mia':>10} "
          f"{'delivered':>10} {'dropped':>8} {'skipped':>8}")
    for name, result in results.items():
        print(
            f"{name:<19} {result.max_test_accuracy:>9.3f} "
            f"{result.rounds[-1].mia_accuracy:>10.3f} "
            f"{result.total_messages:>10} "
            f"{result.metadata['messages_dropped']:>8} "
            f"{result.metadata['wakes_skipped']:>8}"
        )

    print(
        "\nEven the hostile network keeps learning (graceful "
        "degradation), and every scenario's MIA accuracy stays well "
        "above 0.5 — unreliable links are not a privacy mechanism; "
        "only better mixing is (the paper's Section 4 argument)."
    )


if __name__ == "__main__":
    main()
