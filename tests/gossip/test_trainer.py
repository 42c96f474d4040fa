"""Tests for local training (BatchedTrainer), including DP-SGD behavior.

The workspace loop of ``tests/reference_trainer.py`` is used here only
as the bit-identity oracle; every behavioural check runs the blocked
kernel that ``src/`` trains with.
"""

import tracemalloc

import numpy as np
import pytest

from reference_nn import CrossEntropyLoss, reference, set_state, unpack
from reference_trainer import LocalTrainer
from repro.gossip import BatchedTrainer, TrainerConfig
from repro.gossip import trainer as trainer_module
from repro.nn import build_mlp, get_state
from repro.nn.flat import StateLayout
from repro.privacy import DPSGDConfig, noisy_gradient_block


def make_config(**overrides):
    values = dict(
        learning_rate=0.1,
        momentum=0.9,
        weight_decay=5e-4,
        local_epochs=3,
        batch_size=8,
    )
    values.update(overrides)
    return TrainerConfig(**values)


def make_setup(**overrides):
    """A small MLP, its blocked trainer and its packed start row."""
    model = build_mlp(8, 3, hidden=(16,), rng=np.random.default_rng(0))
    trainer = BatchedTrainer(model, make_config(**overrides))
    return trainer, trainer.layout.pack(get_state(model))[None]


def make_data(n=24, rng_seed=1):
    rng = np.random.default_rng(rng_seed)
    x = rng.normal(size=(n, 8))
    y = rng.integers(0, 3, size=n)
    x[y == 0] += 1.0
    x[y == 2] -= 1.0
    return x, y


def train(trainer, row, x, y, seed=3, session=0):
    """One local update of a copy of ``row``; returns the new row."""
    out = row.copy()
    trainer.train_block(
        out, [x], [y], [np.random.default_rng(seed)], [session], node_ids=[0]
    )
    return out


class TestTrainerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(local_epochs=-1)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainerConfig(label_smoothing=1.0)
        with pytest.raises(ValueError):
            TrainerConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(lr_decay=1.5)
        # Negative momentum used to fail at the first step; the others
        # trained NaN models.
        with pytest.raises(ValueError, match="momentum must be finite"):
            TrainerConfig(momentum=-0.5)
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainerConfig(learning_rate=float("nan"))
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainerConfig(learning_rate=float("inf"))
        with pytest.raises(ValueError, match="weight_decay must be finite"):
            TrainerConfig(weight_decay=-1.0)

    def test_set_config_rejects_non_config(self):
        trainer, _ = make_setup()
        with pytest.raises(TypeError):
            trainer.set_config({"learning_rate": 0.1})


class TestBatchedTrainer:
    def test_training_changes_state(self):
        trainer, row = make_setup()
        assert not np.allclose(train(trainer, row, *make_data()), row)

    def test_empty_split_is_a_no_op(self):
        trainer, row = make_setup()
        out = train(trainer, row, np.zeros((0, 8)), np.zeros(0, dtype=int))
        np.testing.assert_array_equal(out, row)
        assert trainer.steps_taken == 0

    def test_zero_epochs_is_noop(self):
        trainer, row = make_setup(local_epochs=0)
        np.testing.assert_array_equal(train(trainer, row, *make_data()), row)

    def test_loss_decreases_over_sessions(self):
        trainer, row = make_setup(local_epochs=5)
        x, y = make_data()
        loss = CrossEntropyLoss()

        model = reference(trainer.model)

        def loss_at(vector):
            set_state(model, unpack(trainer.layout, vector[0]))
            return loss(model.forward(x), y)

        before = loss_at(row)
        out = row.copy()
        rng = np.random.default_rng(0)
        for _ in range(5):
            trainer.train_block(out, [x], [y], [rng], [0])
        assert loss_at(out) < before

    def test_steps_counted(self):
        trainer, row = make_setup(local_epochs=2)
        train(trainer, row, *make_data(n=24))  # 3 batches of 8
        assert trainer.steps_taken == 6

    def test_deterministic_given_rng(self):
        x, y = make_data()
        a = train(make_setup()[0], make_setup()[1], x, y, seed=5)
        b = train(make_setup()[0], make_setup()[1], x, y, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_momentum_is_fresh_per_call(self):
        """After gossip aggregation a stale velocity has no meaning:
        the same update from the same row gives the same result, no
        matter what the trainer ran before."""
        trainer, row = make_setup()
        x, y = make_data()
        first = train(trainer, row, x, y)
        train(trainer, row + 0.5, x, y, seed=9)
        np.testing.assert_array_equal(train(trainer, row, x, y), first)


class TestDPSGDTrainer:
    def test_dp_training_changes_state(self):
        dp = DPSGDConfig(clip_norm=1.0, noise_multiplier=0.5)
        trainer, row = make_setup(dp=dp, local_epochs=1)
        assert not np.allclose(train(trainer, row, *make_data()), row)

    def test_zero_noise_dp_close_to_clipped_sgd(self):
        """With sigma=0 and a huge clip norm, DP-SGD matches plain SGD."""
        dp = DPSGDConfig(clip_norm=1e6, noise_multiplier=0.0)
        x, y = make_data()
        dp_trainer, row = make_setup(dp=dp, local_epochs=1, learning_rate=0.05)
        plain_trainer, _ = make_setup(local_epochs=1, learning_rate=0.05)
        np.testing.assert_allclose(
            train(dp_trainer, row, x, y), train(plain_trainer, row, x, y),
            atol=1e-8,
        )

    def test_more_noise_moves_further_from_noiseless(self):
        x, y = make_data()

        def run(sigma):
            dp = DPSGDConfig(clip_norm=1.0, noise_multiplier=sigma)
            trainer, row = make_setup(dp=dp, local_epochs=1)
            return train(trainer, row, x, y, seed=7)

        clean = run(0.0)
        drift_small = np.linalg.norm(run(0.1) - clean)
        drift_large = np.linalg.norm(run(5.0) - clean)
        assert drift_large > drift_small

    def test_zero_noise_dp_gradient_has_no_negative_zero(self, monkeypatch):
        """Where a sample's gradient entry is zero, the averaged DP
        gradient holds +0.0, as in the serial loop, whose K = 1 weight
        matmul and size-1 bias sum compute ``0 + x * g``. Binary inputs
        with a feature that is zero in every sample, one sample per
        step and no noise make -0.0 products (0 times a negative delta)
        and -0.0 deltas (ReLU-masked) that a plain multiply or copy
        would keep."""
        dp = DPSGDConfig(clip_norm=1.0, noise_multiplier=0.0)
        trainer, row = make_setup(dp=dp, local_epochs=1, batch_size=1)
        rng = np.random.default_rng(0)
        x = (rng.random((12, 8)) < 0.5).astype(np.float64)
        x[:, 3] = 0.0
        y = rng.integers(0, 3, size=12)
        averaged = []

        def recording(*args, **kwargs):
            out = noisy_gradient_block(*args, **kwargs)
            averaged.append(out.copy())
            return out

        monkeypatch.setattr(trainer_module, "noisy_gradient_block", recording)
        train(trainer, row, x, y)
        grads = np.stack(averaged)
        assert grads.shape == (12, 1, trainer.layout.dim)
        zeros = grads == 0.0
        assert zeros.sum() >= 12 * 16  # feature 3's weight row, per step
        assert not np.signbit(grads[zeros]).any()

    def test_dp_peak_memory_stays_near_one_row(self):
        """One DP update of one paper-MLP row (600-256-128-64-100, 64
        samples, batch 32) allocates under 10 row sizes of scratch.
        Per-sample passes over the live row need about 8; copying the
        parameters once per sample into a (batch, dim) tile needs ~90."""
        model = build_mlp(600, 100, hidden=(256, 128, 64))
        trainer = BatchedTrainer(
            model,
            TrainerConfig(
                learning_rate=0.01, momentum=0.9, local_epochs=1,
                batch_size=32,
                dp=DPSGDConfig(clip_norm=1.0, noise_multiplier=1.0),
            ),
        )
        row = trainer.layout.pack(get_state(model))[None]
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 600))
        y = rng.integers(0, 100, size=64)
        tracemalloc.start()
        try:
            trainer.train_block(
                row, [x], [y], [np.random.default_rng(1)], [0], node_ids=[0]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * row.nbytes, f"{peak / row.nbytes:.1f} row sizes"


class TestEarlyOverfittingMitigations:
    def test_label_smoothing_changes_training(self):
        x, y = make_data()
        plain, row = make_setup(local_epochs=1)
        smoothed, _ = make_setup(local_epochs=1, label_smoothing=0.2)
        assert not np.allclose(
            train(plain, row, x, y), train(smoothed, row, x, y)
        )

    def test_lr_decay_shrinks_later_sessions(self):
        """With lr_decay, the Nth session moves the model less than the
        first (measured from the same starting state)."""
        x, y = make_data()
        trainer, row = make_setup(momentum=0.0, local_epochs=1, lr_decay=0.5)
        first = train(trainer, row, x, y, seed=5, session=0)
        later = train(trainer, row, x, y, seed=5, session=4)
        assert np.linalg.norm(later - row) < np.linalg.norm(first - row)

    def test_session_scales_learning_rate(self):
        """session=N trains exactly like session 0 at
        ``learning_rate * lr_decay ** N``, and only the session index
        sets the rate (the trainer keeps no per-node count)."""
        x, y = make_data()
        decayed, row = make_setup(momentum=0.0, local_epochs=1, lr_decay=0.5)
        scaled, _ = make_setup(
            momentum=0.0, local_epochs=1, learning_rate=0.1 * 0.5**2
        )
        out = train(decayed, row, x, y, seed=9, session=2)
        np.testing.assert_array_equal(out, train(scaled, row, x, y, seed=9))
        assert not hasattr(decayed, "_sessions")


class TestFloat32Training:
    """The dtype audit at trainer level: a float32 row trains fully in
    float32 and lands close to the float64 result."""

    def test_float32_drift_from_float64_is_bounded(self):
        trainer, row = make_setup(local_epochs=1)
        x, y = make_data()
        out64 = train(trainer, row, x, y, seed=2)
        out32 = train(trainer, row.astype(np.float32), x, y, seed=2)
        assert out32.dtype == np.float32
        drift = np.linalg.norm(out32 - out64) / np.linalg.norm(out64)
        assert drift < 1e-5


class TestMatchesWorkspaceLoop:
    """The bit-identity oracle: one row, any config, same float64 bits
    as the workspace loop."""

    @pytest.mark.parametrize("dp", [False, True], ids=["plain", "dp"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["nodrop", "drop"])
    def test_one_row_matches_reference(self, dp, dropout):
        model = build_mlp(
            8, 3, hidden=(16, 8), dropout=dropout, rng=np.random.default_rng(0)
        )
        config = make_config(
            lr_decay=0.5,
            label_smoothing=0.1,
            dp=DPSGDConfig(clip_norm=0.5, noise_multiplier=0.4) if dp else None,
        )
        layout = StateLayout.from_model(model)
        state = get_state(model)
        x, y = make_data(n=20)
        expected = LocalTrainer(model, config).train(
            state, x, y, np.random.default_rng(4), node_id=2, session=1
        )
        row = layout.pack(state)[None]
        BatchedTrainer(model, config, layout).train_block(
            row, [x], [y], [np.random.default_rng(4)], [1], node_ids=[2]
        )
        np.testing.assert_array_equal(row[0], layout.pack(expected))
