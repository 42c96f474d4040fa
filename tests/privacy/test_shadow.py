"""Tests for the shadow-model attack baseline."""

import numpy as np
import pytest

from reference_nn import (
    SGD,
    CrossEntropyLoss,
    ReferenceShadowAttack,
    predict_proba,
    reference,
)
from repro.data import make_synthetic_tabular_dataset
from repro.nn import build_mlp
from repro.privacy.shadow import (
    ShadowAttackConfig,
    ShadowModelAttack,
    membership_features,
)


@pytest.fixture(scope="module")
def victim_setup():
    """A victim model overfit on its shard, plus attacker-side data."""
    train, _ = make_synthetic_tabular_dataset(
        "t", 800, 100, num_features=32, num_classes=20, flip_prob=0.35, seed=0
    )
    rng = np.random.default_rng(0)
    order = rng.permutation(len(train))
    victim_members = order[:60]
    victim_nonmembers = order[60:120]
    attacker_pool = order[120:]

    victim = reference(
        build_mlp(32, 20, hidden=(64,), rng=np.random.default_rng(1))
    )
    loss_fn = CrossEntropyLoss()
    opt = SGD(victim.parameters(), lr=0.1, momentum=0.9)
    x_m, y_m = train.x[victim_members], train.y[victim_members]
    for _ in range(80):
        opt.zero_grad()
        loss_fn(victim.forward(x_m), y_m)
        victim.backward(loss_fn.backward())
        opt.step()

    victim.eval()
    member_probs = predict_proba(victim, x_m)
    nonmember_probs = predict_proba(victim, train.x[victim_nonmembers])
    return {
        "train": train,
        "attacker_idx": attacker_pool,
        "member_probs": member_probs,
        "member_labels": y_m,
        "nonmember_probs": nonmember_probs,
        "nonmember_labels": train.y[victim_nonmembers],
    }


class TestMembershipFeatures:
    def test_shape(self, rng):
        probs = rng.dirichlet(np.ones(5), size=20)
        labels = rng.integers(0, 5, 20)
        assert membership_features(probs, labels).shape == (20, 4)

    def test_finite(self, rng):
        probs = np.eye(4)[np.zeros(8, dtype=int)]
        labels = np.zeros(8, dtype=int)
        assert np.isfinite(membership_features(probs, labels)).all()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShadowAttackConfig(n_shadows=0)
        with pytest.raises(ValueError):
            ShadowAttackConfig(shadow_epochs=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("shadow_lr", float("nan")),
            ("shadow_lr", -0.1),
            ("shadow_lr", 0.0),
            ("attack_lr", float("inf")),
            ("attack_hidden", (0,)),
            ("attack_hidden", (16, -2)),
            ("attack_hidden", (8.5,)),
            ("n_shadows", 2.5),
            ("shadow_epochs", 3.0),
            ("attack_epochs", True),
            ("seed", -1),
        ],
    )
    def test_rejects_bad_value_naming_the_field(self, field, value):
        """Values that used to construct and then fail inside fit(), or
        train NaN scores, fail at construction with the field named."""
        with pytest.raises(ValueError, match=field):
            ShadowAttackConfig(**{field: value})

    def test_linear_classifier_and_numpy_ints_accepted(self):
        config = ShadowAttackConfig(
            attack_hidden=(), n_shadows=np.int64(2), seed=np.int64(0)
        )
        assert config.attack_hidden == ()


class TestShadowAttack:
    def test_rejects_tiny_attacker_data(self, victim_setup):
        template = build_mlp(32, 20, hidden=(64,), rng=np.random.default_rng(2))
        with pytest.raises(ValueError):
            ShadowModelAttack(
                template,
                victim_setup["train"].x[:4],
                victim_setup["train"].y[:4],
                ShadowAttackConfig(n_shadows=4),
            )

    def test_scores_require_fit(self, victim_setup):
        template = build_mlp(32, 20, hidden=(64,), rng=np.random.default_rng(2))
        idx = victim_setup["attacker_idx"]
        attack = ShadowModelAttack(
            template,
            victim_setup["train"].x[idx],
            victim_setup["train"].y[idx],
        )
        with pytest.raises(RuntimeError):
            attack.membership_scores(
                victim_setup["member_probs"], victim_setup["member_labels"]
            )

    def test_end_to_end_beats_chance(self, victim_setup):
        """The learned attack distinguishes members of an overfit
        victim at better-than-chance accuracy."""
        template = build_mlp(32, 20, hidden=(64,), rng=np.random.default_rng(2))
        idx = victim_setup["attacker_idx"]
        attack = ShadowModelAttack(
            template,
            victim_setup["train"].x[idx],
            victim_setup["train"].y[idx],
            ShadowAttackConfig(n_shadows=2, shadow_epochs=15, attack_epochs=40),
        ).fit()
        report = attack.attack(
            victim_setup["member_probs"],
            victim_setup["member_labels"],
            victim_setup["nonmember_probs"],
            victim_setup["nonmember_labels"],
            rng=np.random.default_rng(3),
        )
        assert report.accuracy > 0.6
        assert report.auc > 0.6

    def test_scores_low_for_members(self, victim_setup):
        template = build_mlp(32, 20, hidden=(64,), rng=np.random.default_rng(2))
        idx = victim_setup["attacker_idx"]
        attack = ShadowModelAttack(
            template,
            victim_setup["train"].x[idx],
            victim_setup["train"].y[idx],
            ShadowAttackConfig(n_shadows=2, shadow_epochs=15, attack_epochs=40),
        ).fit()
        m = attack.membership_scores(
            victim_setup["member_probs"], victim_setup["member_labels"]
        )
        n = attack.membership_scores(
            victim_setup["nonmember_probs"], victim_setup["nonmember_labels"]
        )
        assert m.mean() < n.mean()


def test_matches_reference_loop(victim_setup):
    """The kernel attack (one ``train_block`` call per model, one-row
    ``predict_proba_rows`` scoring) reproduces the per-layer loop of
    ``reference_nn`` bit for bit: the same membership scores and the
    same trained classifier."""
    idx = victim_setup["attacker_idx"]
    config = ShadowAttackConfig(n_shadows=2, shadow_epochs=15, attack_epochs=40)
    attacks = [
        cls(
            build_mlp(32, 20, hidden=(64,), rng=np.random.default_rng(2)),
            victim_setup["train"].x[idx],
            victim_setup["train"].y[idx],
            config,
        ).fit()
        for cls in (ShadowModelAttack, ReferenceShadowAttack)
    ]
    kernel, oracle = attacks
    np.testing.assert_array_equal(kernel.attack_params, oracle.attack_params)
    for probs, labels in (
        (victim_setup["member_probs"], victim_setup["member_labels"]),
        (victim_setup["nonmember_probs"], victim_setup["nonmember_labels"]),
    ):
        np.testing.assert_array_equal(
            kernel.membership_scores(probs, labels),
            oracle.membership_scores(probs, labels),
        )


def test_fits_a_dropout_template_reproducibly():
    """A victim architecture with dropout trains its shadows on the
    kernel's mask streams, keyed by shadow index: ``fit()`` succeeds,
    the masks change the shadows, and a fixed seed gives the same
    classifier bit for bit."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(48, 8))
    y = rng.integers(0, 3, size=48)
    config = ShadowAttackConfig(n_shadows=2, shadow_epochs=3, attack_epochs=3)

    def fit(dropout):
        template = build_mlp(
            8, 3, hidden=(4,), dropout=dropout, rng=np.random.default_rng(5)
        )
        return ShadowModelAttack(template, x, y, config).fit().attack_params

    first, second = fit(0.2), fit(0.2)
    np.testing.assert_array_equal(first, second)
    assert np.isfinite(first).all()
    assert not np.array_equal(first, fit(0.0))
