"""Shadow-model membership inference (Shokri et al., 2017).

Section 2.5 of the paper contrasts its cheap threshold attack against
"expensive approaches that train ML models to predict membership such
as neural shadow models". This module implements that baseline so the
trade-off can be measured:

1. The attacker trains ``n_shadows`` shadow models on data drawn from
   the same distribution as the victim's (here: disjoint splits of an
   attacker-owned dataset).
2. For each shadow model it computes per-sample feature vectors on its
   own member and non-member data — features are the scores of the
   threshold attacks (MPE, entropy, confidence, loss), which are known
   to carry the membership signal.
3. A small MLP (built with :mod:`repro.nn`) is trained to classify
   member vs non-member from these features.
4. The trained attack model is applied to the victim's outputs.

Every model trains and scores on the blocked kernel, as a one-row
block: :meth:`~repro.gossip.trainer.BatchedTrainer.train_block` (one
call per model, so momentum runs across all its epochs) and
:meth:`~repro.metrics.evaluation.BatchedEvaluator.predict_proba_rows`.

The attack needs no access to the victim's training data — only to its
prediction API and to same-distribution data, matching Shokri et al.'s
threat model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Module
from repro.nn.models import build_mlp
from repro.nn.serialize import get_state
from repro.privacy.attacks import (
    confidence_scores,
    entropy_scores,
    loss_scores,
)
from repro.privacy.mia import build_attack_data, mia_report, MIAResult, mpe_scores

__all__ = ["ShadowAttackConfig", "ShadowModelAttack", "membership_features"]


def membership_features(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample feature vector for the membership classifier.

    Stacks the four threshold-attack scores; each is individually
    predictive, and the learned classifier can weigh them jointly.
    """
    return np.stack(
        [
            mpe_scores(probs, labels),
            entropy_scores(probs, labels),
            confidence_scores(probs, labels),
            loss_scores(probs, labels),
        ],
        axis=1,
    )


@dataclass(frozen=True)
class ShadowAttackConfig:
    """Attacker-side training configuration.

    Shadow models train in mini-batches of 32 and the classifier in
    mini-batches of 64, both with momentum 0.9 and no weight decay.
    ``attack_hidden=()`` makes the classifier linear.
    """

    n_shadows: int = 4
    shadow_epochs: int = 30
    shadow_lr: float = 0.1
    attack_epochs: int = 60
    attack_lr: float = 0.05
    attack_hidden: tuple[int, ...] = (16,)
    seed: int = 0

    def __post_init__(self) -> None:
        # Imported here: repro.gossip.trainer imports repro.privacy.dp,
        # so a module-level import closes a cycle through this package.
        from repro.gossip.trainer import check_sgd_hyperparameters

        for name in ("n_shadows", "shadow_epochs", "attack_epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n_shadows < 1:
            raise ValueError("n_shadows must be >= 1 (one shadow model at least)")
        if self.shadow_epochs < 1 or self.attack_epochs < 1:
            raise ValueError("shadow_epochs and attack_epochs must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        for name in ("shadow_lr", "attack_lr"):
            try:
                check_sgd_hyperparameters(getattr(self, name), 0.9, 0.0)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        if not all(
            isinstance(width, (int, np.integer))
            and not isinstance(width, bool)
            and width > 0
            for width in self.attack_hidden
        ):
            raise ValueError(
                "attack_hidden must be a tuple of positive ints, "
                f"got {self.attack_hidden!r}"
            )


class ShadowModelAttack:
    """Train shadow models, then a membership classifier on their
    outputs, and attack victim models."""

    def __init__(
        self,
        target_template: Module,
        x_attacker: np.ndarray,
        y_attacker: np.ndarray,
        config: ShadowAttackConfig | None = None,
    ):
        """``target_template`` is a model with the victim's
        architecture (shadow models share it and start from its state,
        per Shokri et al.); ``x_attacker/y_attacker`` is attacker-owned
        data from the same distribution as the victim's."""
        self.template = target_template
        self.x = np.asarray(x_attacker, dtype=np.float64)
        self.y = np.asarray(y_attacker, dtype=np.int64)
        self.config = config or ShadowAttackConfig()
        if self.x.shape[0] < 4 * self.config.n_shadows:
            raise ValueError(
                "attacker data too small for the requested shadow count"
            )
        # The classifier: its architecture, and its trained parameters
        # as a (1, dim) row once fit() ran.
        self.attack_model: Module | None = None
        self.attack_params: np.ndarray | None = None
        self._feature_mean: np.ndarray | None = None
        self._feature_std: np.ndarray | None = None

    # -- the kernel ----------------------------------------------------

    def _train(
        self,
        model: Module,
        x: np.ndarray,
        y: np.ndarray,
        lr: float,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        node_id: int,
    ) -> np.ndarray:
        """``model``'s state trained on ``(x, y)``, as a ``(1, dim)`` row.

        One ``train_block`` call runs every epoch with one momentum-0.9
        velocity; ``rng`` draws each epoch's batch order and ``node_id``
        keys the dropout mask streams, if ``model`` has any. ``model``
        itself is not changed.
        """
        # Imported here: repro.gossip.trainer imports repro.privacy.dp.
        from repro.gossip.trainer import BatchedTrainer, TrainerConfig

        trainer = BatchedTrainer(
            model,
            TrainerConfig(
                learning_rate=lr,
                momentum=0.9,
                weight_decay=0.0,
                local_epochs=epochs,
                batch_size=batch_size,
            ),
        )
        params = trainer.layout.pack(get_state(model))[None]
        return trainer.train_block(
            params, [x], [y], [rng], sessions=[0], node_ids=[node_id]
        )

    def _predict(
        self, model: Module, params: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        """Softmax probabilities ``(N, C)`` of the ``(1, dim)`` row
        ``params`` of ``model``'s architecture on ``x``."""
        from repro.metrics.evaluation import BatchedEvaluator

        return BatchedEvaluator(model).predict_proba_rows(params, x)[0]

    # -- shadow training -------------------------------------------------

    def _shadow_features(self) -> tuple[np.ndarray, np.ndarray]:
        """Train all shadows; return (features, membership labels)."""
        rng = np.random.default_rng(self.config.seed)
        n = self.x.shape[0]
        order = rng.permutation(n)
        splits = np.array_split(order, self.config.n_shadows * 2)
        features, labels = [], []
        for s in range(self.config.n_shadows):
            member_idx = splits[2 * s]
            nonmember_idx = splits[2 * s + 1]
            shadow = self._train(
                self.template,
                self.x[member_idx],
                self.y[member_idx],
                self.config.shadow_lr,
                self.config.shadow_epochs,
                32,
                rng,
                node_id=s,
            )
            for idx, is_member in ((member_idx, 1), (nonmember_idx, 0)):
                probs = self._predict(self.template, shadow, self.x[idx])
                features.append(membership_features(probs, self.y[idx]))
                labels.append(np.full(idx.shape[0], is_member, dtype=np.int64))
        return np.concatenate(features), np.concatenate(labels)

    # -- attack-model training ---------------------------------------------

    def fit(self) -> "ShadowModelAttack":
        """Train the membership classifier from shadow outputs."""
        features, labels = self._shadow_features()
        self._feature_mean = features.mean(axis=0)
        self._feature_std = features.std(axis=0) + 1e-9
        features = (features - self._feature_mean) / self._feature_std
        rng = np.random.default_rng(self.config.seed + 1)
        self.attack_model = build_mlp(
            features.shape[1], 2, hidden=self.config.attack_hidden, rng=rng
        )
        self.attack_params = self._train(
            self.attack_model,
            features,
            labels,
            self.config.attack_lr,
            self.config.attack_epochs,
            64,
            rng,
            node_id=0,  # the classifier has no dropout
        )
        return self

    # -- inference --------------------------------------------------------

    def membership_scores(
        self, probs: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Low score = member, matching the threshold-attack convention."""
        if self.attack_params is None:
            raise RuntimeError("call fit() before scoring")
        features = membership_features(probs, labels)
        features = (features - self._feature_mean) / self._feature_std
        member_prob = self._predict(
            self.attack_model, self.attack_params, features
        )[:, 1]
        return 1.0 - member_prob

    def attack(
        self,
        member_probs: np.ndarray,
        member_labels: np.ndarray,
        nonmember_probs: np.ndarray,
        nonmember_labels: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> MIAResult:
        """Full evaluation against one victim's outputs."""
        data = build_attack_data(
            self.membership_scores(member_probs, member_labels),
            self.membership_scores(nonmember_probs, nonmember_labels),
            rng=rng,
        )
        return mia_report(data)
