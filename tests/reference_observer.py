"""The per-node observer loop: the test suite's oracle for observation.

``src/`` observes every round on the row-batch path: all node models
are scored as blocks of arena rows by a
:class:`~repro.metrics.evaluation.BatchedEvaluator`, in process or on
the shard workers. This module keeps the independent implementation it
replaced: load one node's state into the shared workspace model,
subsample its attack sets with the observer RNG, and score it through
the per-layer passes of ``reference_nn``. The two
draw the observer RNG in the same order, so tests check that they
agree within float tolerance.

* :func:`evaluate_model` — all Section 3.2 metrics of one loaded model;
* :class:`ReferenceObserver` — an
  :class:`~repro.core.attacker.OmniscientObserver` that observes every
  round on the per-node loop;
* :func:`use_reference_observer` — makes a built study observe on it.
"""

from __future__ import annotations

import numpy as np

from reference_nn import Module, predict_proba, reference, set_state, unpack
from repro.core.attacker import OmniscientObserver
from repro.core.study import Study
from repro.gossip.engine import FlatGossipSimulator
from repro.metrics.evaluation import ModelEvaluation
from repro.metrics.records import RoundRecord
from repro.privacy.mia import build_attack_data, mia_report, mpe_scores


def evaluate_model(
    model: Module,
    node_id: int,
    x_global_test: np.ndarray,
    y_global_test: np.ndarray,
    x_local_train: np.ndarray,
    y_local_train: np.ndarray,
    x_local_test: np.ndarray,
    y_local_test: np.ndarray,
    rng: np.random.Generator | None = None,
) -> ModelEvaluation:
    """Evaluate utility and MIA vulnerability of one node's model.

    The attack set is built from the node's local train (members) and
    local test (non-members) MPE scores, balanced as in the paper.
    """
    probs_train = predict_proba(model, x_local_train)
    probs_test = predict_proba(model, x_local_test)
    member_scores = mpe_scores(probs_train, y_local_train)
    nonmember_scores = mpe_scores(probs_test, y_local_test)
    data = build_attack_data(member_scores, nonmember_scores, rng=rng)
    report = mia_report(data)
    probs_global = predict_proba(model, x_global_test)
    return ModelEvaluation(
        node_id=node_id,
        global_test_accuracy=float(
            (probs_global.argmax(axis=1) == y_global_test).mean()
        ),
        local_train_accuracy=float(
            (probs_train.argmax(axis=1) == y_local_train).mean()
        ),
        local_test_accuracy=float((probs_test.argmax(axis=1) == y_local_test).mean()),
        mia_accuracy=report.accuracy,
        mia_tpr_at_1_fpr=report.tpr_at_1_fpr,
        mia_auc=report.auc,
    )


def evaluate_node(
    model: Module,
    node_id: int,
    state,
    x_global_test: np.ndarray,
    y_global_test: np.ndarray,
    x_local_train: np.ndarray,
    y_local_train: np.ndarray,
    x_local_test: np.ndarray,
    y_local_test: np.ndarray,
    rng: np.random.Generator | None = None,
) -> ModelEvaluation:
    """One step of the per-node loop: load ``state``, then evaluate."""
    set_state(model, state)
    return evaluate_model(
        model, node_id, x_global_test, y_global_test,
        x_local_train, y_local_train, x_local_test, y_local_test, rng=rng,
    )


def node_state(simulator: FlatGossipSimulator, node_id: int):
    """Dict view over the node's arena row."""
    return unpack(simulator.layout, simulator.arena.row(node_id))


class ReferenceObserver(OmniscientObserver):
    """Observes every round one node at a time on the workspace model."""

    def _observe(self, round_index: int, simulator: FlatGossipSimulator) -> None:
        evaluations = [
            self._evaluate_node(simulator, node_id)
            for node_id in range(simulator.config.n_nodes)
        ]
        if self.keep_node_records:
            self.node_records.append(evaluations)
        canary_tpr = self._canary_loop(simulator) if self.canaries else None
        epsilon = self._epsilon_fn(round_index) if self._epsilon_fn else None
        self.records.append(
            RoundRecord.from_evaluations(
                round_index=round_index,
                evaluations=evaluations,
                messages_sent=simulator.messages_sent,
                canary_tpr_at_1_fpr=canary_tpr,
                epsilon=epsilon,
                model_spread=self._model_spread(simulator),
            )
        )

    def _subsample(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if x.shape[0] <= self.max_attack_samples:
            return x, y
        idx = self.rng.choice(x.shape[0], size=self.max_attack_samples, replace=False)
        return x[idx], y[idx]

    def _evaluate_node(
        self, simulator: FlatGossipSimulator, node_id: int
    ) -> ModelEvaluation:
        node = simulator.nodes[node_id]
        x_tr, y_tr = self._subsample(node.train_x, node.train_y)
        x_te, y_te = self._subsample(node.test_x, node.test_y)
        return evaluate_node(
            self.model, node_id, node_state(simulator, node_id),
            self.x_global, self.y_global, x_tr, y_tr, x_te, y_te,
            rng=self.rng,
        )

    def _canary_loop(self, simulator: FlatGossipSimulator) -> float:
        """The canary attack of RQ3, one loaded node model at a time."""
        member_scores: list[np.ndarray] = []
        holdout_scores: list[np.ndarray] = []
        for node_id in range(simulator.config.n_nodes):
            members = self.canaries.members_for_node(node_id)
            holdouts = self.canaries.holdouts_for_node(node_id)
            if members.size == 0 and holdouts.size == 0:
                continue
            set_state(self.model, node_state(simulator, node_id))
            for indices, bucket in ((members, member_scores), (holdouts, holdout_scores)):
                if indices.size == 0:
                    continue
                probs = predict_proba(self.model, self.canary_base.x[indices])
                labels = self.canary_base.y[indices]
                bucket.append(mpe_scores(probs, labels))
        return self._pool_canary_scores(member_scores, holdout_scores)


def use_reference_observer(study: Study) -> ReferenceObserver:
    """Make a built ``study`` observe on the per-node loop.

    Swapping the class keeps the observer's state (RNG stream, fixed
    global-test subsample, epsilon callback), so the swap must happen
    before the first round, while that state is still as built. The
    observer's model gets its per-layer passes in place.
    """
    study.observer.__class__ = ReferenceObserver
    reference(study.observer.model)
    return study.observer
