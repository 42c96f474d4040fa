"""Ablation — early-overfitting mitigations (Section 5 recommendation).

The paper recommends "strategies to prevent early overfitting, such
as regularization [or] dynamic learning rates ... to limit the
persistent impact of initial vulnerabilities". This ablation runs the
same study with:

* no mitigation (Table 2 defaults),
* label smoothing 0.1 (regularization),
* lr decay 0.8 per local session (dynamic learning rate),
* both combined,

and checks the mitigations reduce peak MIA vulnerability without
collapsing utility.
"""

import numpy as np

from repro.experiments import Campaign, scaled_config

from benchmarks.conftest import run_once


def test_ablation_early_overfitting_mitigations(benchmark, scale):
    grid = {
        "none": dict(),
        "smoothing": dict(label_smoothing=0.1),
        "lr-decay": dict(lr_decay=0.8),
        "both": dict(label_smoothing=0.1, lr_decay=0.8),
    }

    def run():
        configs = [
            scaled_config(
                "purchase100",
                scale,
                name=name,
                protocol="samo",
                view_size=2,
                local_epochs=3,
                seed=0,
                **knobs,
            )
            for name, knobs in grid.items()
        ]
        return Campaign(configs).run(jobs=1)

    results = run_once(benchmark, run)

    print(f"\n{'mitigation':<11} {'max_mia':>8} {'final_mia':>10} "
          f"{'peak_gen':>9} {'max_test':>9}")
    stats = {}
    for name, result in results.items():
        gen = (
            result.series("local_train_accuracy")
            - result.series("local_test_accuracy")
        )
        stats[name] = {
            "max_mia": result.max_mia_accuracy,
            "final_mia": result.rounds[-1].mia_accuracy,
            "peak_gen": float(gen.max()),
            "max_test": result.max_test_accuracy,
        }
        s = stats[name]
        print(f"{name:<11} {s['max_mia']:>8.3f} {s['final_mia']:>10.3f} "
              f"{s['peak_gen']:>9.3f} {s['max_test']:>9.3f}")

    # Shape 1: the combined mitigation lowers peak vulnerability.
    assert stats["both"]["max_mia"] <= stats["none"]["max_mia"] + 0.01
    # Shape 2: at least one individual mitigation also helps.
    assert (
        min(stats["smoothing"]["max_mia"], stats["lr-decay"]["max_mia"])
        <= stats["none"]["max_mia"]
    )
    # Shape 3: mitigations reduce peak generalization error (their
    # mechanism of action).
    assert stats["both"]["peak_gen"] <= stats["none"]["peak_gen"] + 0.02
    # Shape 4: utility is not destroyed.
    assert stats["both"]["max_test"] >= stats["none"]["max_test"] * 0.5