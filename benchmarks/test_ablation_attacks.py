"""Ablation — attack estimator choice (Section 2.5's justification).

The paper picks the Modified Prediction Entropy (MPE) attack as an
informative worst-case threshold attack. This ablation attacks the
SAME trained node models with four estimators (MPE / entropy /
confidence / loss) and verifies the paper's implicit ordering: the
label-aware estimators (MPE, confidence, loss) dominate plain
prediction entropy, and MPE is competitive with the best.
"""

import numpy as np

from repro.core import Study, StudyConfig
from repro.metrics.evaluation import BatchedEvaluator
from repro.privacy import ATTACKS, run_attack

from benchmarks.conftest import run_once


def attack_all_nodes(study):
    """Attack every node's final model with every estimator."""
    accuracies = {name: [] for name in ATTACKS}
    rng = np.random.default_rng(0)
    evaluator = BatchedEvaluator(study.model, study.simulator.layout)
    params = study.simulator.state_matrix()
    for node in study.simulator.nodes:
        victim = params[node.node_id : node.node_id + 1]
        member_probs = evaluator.predict_proba_rows(victim, node.train_x)[0]
        nonmember_probs = evaluator.predict_proba_rows(victim, node.test_x)[0]
        for name in ATTACKS:
            report = run_attack(
                name,
                member_probs,
                node.train_y,
                nonmember_probs,
                node.test_y,
                rng=rng,
            )
            accuracies[name].append(report.accuracy)
    return {name: float(np.mean(vals)) for name, vals in accuracies.items()}


def test_ablation_attack_estimators(benchmark, scale):
    def run():
        study = Study(
            StudyConfig(
                name="attack-ablation",
                dataset="purchase100",
                n_train=800,
                n_test=200,
                num_features=128,
                n_nodes=8,
                view_size=2,
                protocol="samo",
                rounds=5,
                train_per_node=32,
                test_per_node=16,
                mlp_hidden=(64, 32),
                local_epochs=3,
                batch_size=16,
                seed=0,
            )
        )
        study.run()
        return attack_all_nodes(study)

    mean_acc = run_once(benchmark, run)

    print(f"\n{'attack':<12} {'mean accuracy':>14}")
    for name, acc in sorted(mean_acc.items(), key=lambda kv: -kv[1]):
        print(f"{name:<12} {acc:>14.3f}")

    # Shape 1: every estimator beats random guessing on overfit models.
    assert all(acc > 0.5 for acc in mean_acc.values())
    # Shape 2: MPE is within noise of the best estimator.
    best = max(mean_acc.values())
    assert mean_acc["mpe"] >= best - 0.03
    # Shape 3: the label-aware attacks dominate label-free entropy.
    assert mean_acc["mpe"] >= mean_acc["entropy"] - 0.01
