"""RQ7 — gossip learning under node-level DP-SGD (paper Figure 9).

Each node clips per-sample gradients and adds Gaussian noise; the
noise multiplier is calibrated with the RDP accountant so the whole
run spends at most the requested (epsilon, delta) budget. Combines DP
with static and dynamic topologies to show the paper's takeaway:
dynamics let you relax the local DP budget.

Run:  python examples/dp_gossip.py
"""

import os

from repro.experiments import Campaign, scaled_config

SMOKE = os.environ.get("REPRO_EXAMPLES_SCALE") == "smoke"


def main() -> None:
    budgets = (10.0, None) if SMOKE else (50.0, 10.0, None)  # None = non-private
    configs = [
        scaled_config(
            "purchase100",
            scale="tiny",
            name=f"{'eps' + format(eps, 'g') if eps else 'non-dp'}-"
            f"{'dyn' if dynamic else 'stat'}",
            protocol="samo",
            view_size=2,
            dynamic=dynamic,
            dp_epsilon=eps,
            rounds=2 if SMOKE else 5,
            seed=3,
        )
        for eps in budgets
        for dynamic in (False, True)
    ]
    results = Campaign(configs).run(jobs=1)

    print(f"{'run':<14} {'sigma':>7} {'spent_eps':>10} {'max_test':>9} "
          f"{'max_mia':>8}")
    for name, result in results.items():
        spent = result.rounds[-1].epsilon
        print(
            f"{name:<14} {result.metadata['noise_multiplier']:>7.3f} "
            f"{spent if spent is not None else float('nan'):>10.2f} "
            f"{result.max_test_accuracy:>9.3f} "
            f"{result.max_mia_accuracy:>8.3f}"
        )

    print(
        "\nStricter budgets (smaller epsilon) add more noise: both MIA "
        "accuracy and utility drop. The dynamic topology offsets part "
        "of the utility loss — the paper's argument for pairing DP "
        "with good mixing."
    )


if __name__ == "__main__":
    main()
