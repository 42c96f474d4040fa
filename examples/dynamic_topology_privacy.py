"""RQ2/RQ4 — dynamic topologies and view sizes (paper Figures 3 & 5).

Sweeps the static/dynamic toggle and the view size k on one dataset,
reporting how PeerSwap dynamics and denser graphs improve the
privacy/utility trade-off — and what each costs in messages.

Run:  python examples/dynamic_topology_privacy.py
"""

import os

from repro.experiments import Campaign, scaled_config

SMOKE = os.environ.get("REPRO_EXAMPLES_SCALE") == "smoke"


def main() -> None:
    view_sizes = (2, 5)
    configs = [
        scaled_config(
            "fashion_mnist",
            scale="tiny" if SMOKE else "small",
            name=f"{'dynamic' if dynamic else 'static'}-k{k}",
            protocol="samo",
            view_size=k,
            dynamic=dynamic,
            rounds=2 if SMOKE else 8,
            seed=2,
        )
        for k in view_sizes
        for dynamic in (False, True)
    ]
    results = Campaign(configs).run(jobs=1)

    print(f"{'setting':<14} {'max_test':>9} {'max_mia':>8} {'max_tpr':>8} "
          f"{'models/node':>12}")
    for name, result in results.items():
        per_node = result.total_messages / result.metadata["n_nodes"]
        print(
            f"{name:<14} {result.max_test_accuracy:>9.3f} "
            f"{result.max_mia_accuracy:>8.3f} {result.max_mia_tpr:>8.3f} "
            f"{per_node:>12.1f}"
        )

    print(
        "\nTakeaways (paper Sections 3.4 & 3.6): the dynamic setting "
        "dominates at k=2; increasing k narrows the gap but multiplies "
        "the communication cost — a dynamic graph with a moderate view "
        "size is the sweet spot."
    )


if __name__ == "__main__":
    main()
