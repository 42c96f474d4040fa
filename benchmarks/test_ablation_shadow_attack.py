"""Ablation — MPE threshold attack vs neural shadow-model attack.

Section 2.5 motivates the MPE attack as an informative yet cheap
alternative to "expensive approaches that train ML models to predict
membership such as neural shadow models". This benchmark runs both
against the same gossip-trained victims and compares strength and
cost, validating the paper's methodological choice.
"""

import time

import numpy as np

from repro.core import Study, StudyConfig
from repro.metrics.evaluation import BatchedEvaluator
from repro.nn.models import build_mlp
from repro.privacy import run_attack
from repro.privacy.shadow import ShadowAttackConfig, ShadowModelAttack

from benchmarks.conftest import run_once


def test_ablation_shadow_vs_threshold(benchmark, scale):
    def run():
        study = Study(
            StudyConfig(
                name="shadow-ablation",
                dataset="purchase100",
                n_train=1_200,
                n_test=200,
                num_features=64,
                n_nodes=6,
                view_size=2,
                protocol="samo",
                rounds=4,
                train_per_node=32,
                test_per_node=16,
                mlp_hidden=(64, 32),
                local_epochs=3,
                batch_size=16,
                seed=0,
            )
        )
        study.run()

        # Attacker-side data: base-split samples not used by any node.
        used = np.unique(
            np.concatenate(
                [s.train.indices for s in study.splits]
                + [s.test.indices for s in study.splits]
            )
        )
        free = np.setdiff1d(np.arange(len(study.base_train)), used)
        template = build_mlp(
            64, 100, hidden=(64, 32), rng=np.random.default_rng(5)
        )
        t0 = time.perf_counter()
        shadow = ShadowModelAttack(
            template,
            study.base_train.x[free],
            study.base_train.y[free],
            ShadowAttackConfig(n_shadows=2, shadow_epochs=10, attack_epochs=40),
        ).fit()
        shadow_fit_seconds = time.perf_counter() - t0

        rng = np.random.default_rng(1)
        mpe_acc, shadow_acc = [], []
        t_mpe = t_shadow = 0.0
        evaluator = BatchedEvaluator(study.model, study.simulator.layout)
        params = study.simulator.state_matrix()
        for node in study.simulator.nodes:
            victim = params[node.node_id : node.node_id + 1]
            member_probs = evaluator.predict_proba_rows(victim, node.train_x)[0]
            nonmember_probs = evaluator.predict_proba_rows(victim, node.test_x)[0]
            t0 = time.perf_counter()
            mpe_acc.append(
                run_attack(
                    "mpe", member_probs, node.train_y,
                    nonmember_probs, node.test_y, rng=rng,
                ).accuracy
            )
            t_mpe += time.perf_counter() - t0
            t0 = time.perf_counter()
            shadow_acc.append(
                shadow.attack(
                    member_probs, node.train_y,
                    nonmember_probs, node.test_y, rng=rng,
                ).accuracy
            )
            t_shadow += time.perf_counter() - t0
        study.close()
        return {
            "mpe_acc": float(np.mean(mpe_acc)),
            "shadow_acc": float(np.mean(shadow_acc)),
            "shadow_fit_seconds": shadow_fit_seconds,
            "mpe_seconds": t_mpe,
            "shadow_seconds": t_shadow,
        }

    stats = run_once(benchmark, run)
    print(
        f"\nMPE threshold attack: accuracy={stats['mpe_acc']:.3f} "
        f"(eval {stats['mpe_seconds'] * 1e3:.1f} ms, no training)"
    )
    print(
        f"shadow-model attack : accuracy={stats['shadow_acc']:.3f} "
        f"(training {stats['shadow_fit_seconds']:.2f} s + eval "
        f"{stats['shadow_seconds'] * 1e3:.1f} ms)"
    )

    # Shape 1: both attacks beat random guessing on overfit victims.
    assert stats["mpe_acc"] > 0.55
    assert stats["shadow_acc"] > 0.55
    # Shape 2: the optimal-threshold MPE attack is at least as strong
    # as the learned attack (it is the worst-case threshold bound).
    assert stats["mpe_acc"] >= stats["shadow_acc"] - 0.05
    # Shape 3: MPE is orders of magnitude cheaper (no attacker training).
    assert stats["shadow_fit_seconds"] > 10 * stats["mpe_seconds"]
