"""RQ1 — compare SAMO against Base Gossip (paper Figure 2, reduced).

Runs both protocols on the same data, topology and hyperparameters and
prints the privacy/utility trade-off each achieves per round. SAMO
(Send-All-Merge-Once, Algorithm 2) buffers incoming models and merges
them all at once on wake-up, hiding each contribution among more
models — the paper's proposed mixing improvement.

Run:  python examples/samo_vs_base_gossip.py
"""

import os

from repro.experiments import Campaign, scaled_config

SMOKE = os.environ.get("REPRO_EXAMPLES_SCALE") == "smoke"


def main() -> None:
    configs = [
        scaled_config(
            "purchase100",
            scale="tiny" if SMOKE else "small",
            name=protocol,
            protocol=protocol,
            view_size=5,
            rounds=2 if SMOKE else 8,
            seed=1,
        )
        for protocol in ("base_gossip", "samo")
    ]
    results = Campaign(configs).run(jobs=1)

    print(f"{'round':>5}", end="")
    for name in results:
        print(f" | {name + ' test/mia':>24}", end="")
    print()
    n_rounds = len(next(iter(results.values())).rounds)
    for i in range(n_rounds):
        print(f"{i:>5}", end="")
        for result in results.values():
            r = result.rounds[i]
            print(
                f" | {r.global_test_accuracy:>11.3f} {r.mia_accuracy:>12.3f}",
                end="",
            )
        print()

    base, samo = results["base_gossip"], results["samo"]
    print(f"\nmessages sent: base_gossip={base.total_messages} "
          f"samo={samo.total_messages}")
    print(f"max test acc : base_gossip={base.max_test_accuracy:.3f} "
          f"samo={samo.max_test_accuracy:.3f}")
    print(f"final MIA acc: base_gossip={base.rounds[-1].mia_accuracy:.3f} "
          f"samo={samo.rounds[-1].mia_accuracy:.3f}")
    print("\nSAMO trades more messages for better model mixing and a "
          "better privacy/utility frontier (Figure 2 of the paper).")


if __name__ == "__main__":
    main()
