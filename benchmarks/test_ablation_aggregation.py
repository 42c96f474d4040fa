"""Ablation — local aggregation strategy (DESIGN.md design choice).

Section 6.2 of the paper argues that the *partial* model aggregation
used by Pasquini et al. [62] "leads to worse model mixing and,
consequently, to more vulnerable models". This ablation runs the same
training with three aggregation strategies:

* ``samo``                — merge ALL buffered models at once (best mixing),
* ``base_gossip``         — pairwise 50/50 averaging (Algorithm 1),
* ``base_gossip_partial`` — self-biased 75/25 merge (worst mixing).

Shape asserted: vulnerability orders inversely with mixing quality.
"""

import numpy as np

from repro.experiments import Campaign, scaled_config

from benchmarks.conftest import run_once


def test_ablation_aggregation_strategy(benchmark, scale):
    protocols = ("samo", "base_gossip", "base_gossip_partial")

    def run():
        configs = [
            scaled_config(
                "purchase100",
                scale,
                name=protocol,
                protocol=protocol,
                view_size=5,
                dynamic=False,
                seed=0,
            )
            for protocol in protocols
        ]
        return Campaign(configs).run(jobs=1)

    results = run_once(benchmark, run)

    print(f"\n{'protocol':<22} {'final_mia':>10} {'max_test':>9} {'msgs':>7}")
    final_mia = {}
    for name, result in results.items():
        final_mia[name] = result.rounds[-1].mia_accuracy
        print(
            f"{name:<22} {final_mia[name]:>10.3f} "
            f"{result.max_test_accuracy:>9.3f} {result.total_messages:>7}"
        )

    # Shape: partial aggregation is the most vulnerable of the three;
    # SAMO is not worse than plain pairwise averaging.
    assert final_mia["base_gossip_partial"] >= final_mia["base_gossip"] - 0.02
    assert final_mia["samo"] <= final_mia["base_gossip_partial"] + 0.01
    # All attacks beat chance (sanity).
    assert all(v > 0.5 for v in final_mia.values())
