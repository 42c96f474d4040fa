"""Tests for local training, including DP-SGD behavior."""

import numpy as np
import pytest

from repro.gossip import LocalTrainer, TrainerConfig
from repro.nn import build_mlp, get_state
from repro.nn.serialize import state_to_vector
from repro.privacy import DPSGDConfig


def make_setup(dp=None, local_epochs=3, lr=0.1):
    model = build_mlp(8, 3, hidden=(16,), rng=np.random.default_rng(0))
    config = TrainerConfig(
        learning_rate=lr,
        momentum=0.9,
        weight_decay=5e-4,
        local_epochs=local_epochs,
        batch_size=8,
        dp=dp,
    )
    return model, LocalTrainer(model, config)


def make_data(n=24, rng_seed=1):
    rng = np.random.default_rng(rng_seed)
    x = rng.normal(size=(n, 8))
    y = rng.integers(0, 3, size=n)
    x[y == 0] += 1.0
    x[y == 2] -= 1.0
    return x, y


class TestTrainerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(local_epochs=-1)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)


class TestLocalTrainer:
    def test_training_changes_state(self, rng):
        model, trainer = make_setup()
        state = get_state(model)
        x, y = make_data()
        new_state = trainer.train(state, x, y, rng)
        assert not np.allclose(
            state_to_vector(state), state_to_vector(new_state)
        )

    def test_input_state_not_mutated(self, rng):
        model, trainer = make_setup()
        state = get_state(model)
        before = state_to_vector(state).copy()
        trainer.train(state, *make_data(), rng)
        np.testing.assert_array_equal(state_to_vector(state), before)

    def test_empty_data_is_noop(self, rng):
        model, trainer = make_setup()
        state = get_state(model)
        out = trainer.train(state, np.zeros((0, 8)), np.zeros(0, dtype=int), rng)
        np.testing.assert_array_equal(
            state_to_vector(out), state_to_vector(state)
        )

    def test_zero_epochs_is_noop(self, rng):
        model, trainer = make_setup(local_epochs=0)
        state = get_state(model)
        out = trainer.train(state, *make_data(), rng)
        np.testing.assert_array_equal(
            state_to_vector(out), state_to_vector(state)
        )

    def test_loss_decreases_over_sessions(self, rng):
        model, trainer = make_setup(local_epochs=5)
        from repro.nn import CrossEntropyLoss
        from repro.nn.serialize import set_state

        state = get_state(model)
        x, y = make_data()
        loss_fn = CrossEntropyLoss()
        set_state(model, state)
        before = loss_fn(model.forward(x), y)
        for _ in range(5):
            state = trainer.train(state, x, y, rng)
        set_state(model, state)
        after = loss_fn(model.forward(x), y)
        assert after < before

    def test_steps_counted(self, rng):
        model, trainer = make_setup(local_epochs=2)
        x, y = make_data(n=24)  # 3 batches of 8
        trainer.train(get_state(model), x, y, rng)
        assert trainer.steps_taken == 6

    def test_deterministic_given_rng(self):
        model, trainer = make_setup()
        state = get_state(model)
        x, y = make_data()
        a = trainer.train(state, x, y, np.random.default_rng(5))
        model2, trainer2 = make_setup()
        b = trainer2.train(state, x, y, np.random.default_rng(5))
        np.testing.assert_allclose(state_to_vector(a), state_to_vector(b))


class TestDPSGDTrainer:
    def test_dp_training_changes_state(self, rng):
        dp = DPSGDConfig(clip_norm=1.0, noise_multiplier=0.5)
        model, trainer = make_setup(dp=dp, local_epochs=1)
        state = get_state(model)
        out = trainer.train(state, *make_data(), rng)
        assert not np.allclose(
            state_to_vector(state), state_to_vector(out)
        )

    def test_zero_noise_dp_close_to_clipped_sgd(self):
        """With sigma=0 and a huge clip norm, DP-SGD matches plain SGD."""
        dp = DPSGDConfig(clip_norm=1e6, noise_multiplier=0.0)
        model, dp_trainer = make_setup(dp=dp, local_epochs=1, lr=0.05)
        state = get_state(model)
        x, y = make_data()
        dp_out = dp_trainer.train(state, x, y, np.random.default_rng(3))
        model2, plain_trainer = make_setup(dp=None, local_epochs=1, lr=0.05)
        plain_out = plain_trainer.train(state, x, y, np.random.default_rng(3))
        np.testing.assert_allclose(
            state_to_vector(dp_out), state_to_vector(plain_out), atol=1e-8
        )

    def test_more_noise_moves_further_from_noiseless(self):
        x, y = make_data()

        def run(sigma, seed=7):
            dp = DPSGDConfig(clip_norm=1.0, noise_multiplier=sigma)
            model, trainer = make_setup(dp=dp, local_epochs=1)
            state = get_state(model)
            out = trainer.train(state, x, y, np.random.default_rng(seed))
            return state_to_vector(out)

        clean = run(0.0)
        drift_small = np.linalg.norm(run(0.1) - clean)
        drift_large = np.linalg.norm(run(5.0) - clean)
        assert drift_large > drift_small


class TestEarlyOverfittingMitigations:
    def test_label_smoothing_changes_training(self, rng):
        x, y = make_data()
        model, plain = make_setup(local_epochs=1)
        state = get_state(model)
        a = plain.train(state, x, y, np.random.default_rng(3))
        model2, _ = make_setup(local_epochs=1)
        smoothed_trainer = LocalTrainer(
            model2,
            TrainerConfig(learning_rate=0.1, momentum=0.9, local_epochs=1,
                          batch_size=8, label_smoothing=0.2),
        )
        b = smoothed_trainer.train(state, x, y, np.random.default_rng(3))
        assert not np.allclose(state_to_vector(a), state_to_vector(b))

    def test_lr_decay_shrinks_later_sessions(self):
        """With lr_decay, the Nth session moves the model less than the
        first (measured from the same starting state)."""
        x, y = make_data()
        model, _ = make_setup()
        trainer = LocalTrainer(
            model,
            TrainerConfig(learning_rate=0.1, momentum=0.0, local_epochs=1,
                          batch_size=8, lr_decay=0.5),
        )
        state = get_state(model)
        first = trainer.train(state, x, y, np.random.default_rng(5), session=0)
        drift_first = np.linalg.norm(
            state_to_vector(first) - state_to_vector(state)
        )
        later = trainer.train(state, x, y, np.random.default_rng(5), session=4)
        drift_later = np.linalg.norm(
            state_to_vector(later) - state_to_vector(state)
        )
        assert drift_later < drift_first

    def test_lr_decay_follows_session_not_call_count(self):
        """The session index alone sets the rate: earlier calls (for any
        node) leave a session-0 update at full rate."""
        x, y = make_data()
        model, _ = make_setup()
        trainer = LocalTrainer(
            model,
            TrainerConfig(learning_rate=0.1, momentum=0.0, local_epochs=1,
                          batch_size=8, lr_decay=0.5),
        )
        state = get_state(model)
        first = trainer.train(state, x, y, np.random.default_rng(5), node_id=1)
        for session in range(3):
            trainer.train(
                state, x, y, np.random.default_rng(5), node_id=0,
                session=session,
            )
        fresh = trainer.train(state, x, y, np.random.default_rng(5), node_id=1)
        decayed = trainer.train(
            state, x, y, np.random.default_rng(5), node_id=0, session=3
        )
        np.testing.assert_array_equal(
            state_to_vector(fresh), state_to_vector(first)
        )
        drift_fresh = np.linalg.norm(
            state_to_vector(fresh) - state_to_vector(state)
        )
        drift_decayed = np.linalg.norm(
            state_to_vector(decayed) - state_to_vector(state)
        )
        assert drift_decayed < drift_fresh

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(label_smoothing=1.0)
        with pytest.raises(ValueError):
            TrainerConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(lr_decay=1.5)


class TestSessions:
    """lr_decay sessions: an explicit index, no per-trainer state."""

    def test_empty_split_is_a_no_op(self):
        """A node with no local data never trains: the state comes back
        unchanged (the engine also leaves its session counter alone)."""
        model, trainer = make_setup()
        trainer.config = TrainerConfig(
            learning_rate=0.1, momentum=0.0, local_epochs=1,
            batch_size=8, lr_decay=0.5,
        )
        state = get_state(model)
        empty_x = np.zeros((0, 8))
        empty_y = np.zeros((0,), dtype=np.int64)
        rng = np.random.default_rng(0)
        out = trainer.train(state, empty_x, empty_y, rng, node_id=7)
        np.testing.assert_array_equal(
            state_to_vector(out), state_to_vector(state)
        )
        assert not hasattr(trainer, "_sessions")

    def test_session_scales_learning_rate(self):
        """session=N trains exactly like session 0 at
        ``learning_rate * lr_decay ** N``."""
        x, y = make_data()
        decayed = TrainerConfig(
            learning_rate=0.1, momentum=0.0, local_epochs=1,
            batch_size=8, lr_decay=0.5,
        )
        scaled = TrainerConfig(
            learning_rate=0.1 * 0.5**2, momentum=0.0, local_epochs=1,
            batch_size=8,
        )
        model_a = build_mlp(8, 3, hidden=(16,), rng=np.random.default_rng(0))
        state = get_state(model_a)
        out_a = LocalTrainer(model_a, decayed).train(
            state, x, y, np.random.default_rng(9), node_id=0, session=2
        )
        model_b = build_mlp(8, 3, hidden=(16,), rng=np.random.default_rng(0))
        out_b = LocalTrainer(model_b, scaled).train(
            state, x, y, np.random.default_rng(9), node_id=0
        )
        np.testing.assert_array_equal(
            state_to_vector(out_a), state_to_vector(out_b)
        )


class TestFloat32Training:
    """The dtype audit at trainer level: a float32 state trains fully in
    float32 (inputs are cast down, loss/optimizer internals follow) and
    lands close to the float64 result."""

    def test_float32_state_trains_in_float32(self):
        model, trainer = make_setup(local_epochs=1)
        x, y = make_data()
        state64 = get_state(model)
        state32 = {k: v.astype(np.float32) for k, v in state64.items()}
        out32 = trainer.train(state32, x, y, np.random.default_rng(2))
        assert all(v.dtype == np.float32 for v in out32.values())
        # Gradient buffers were rebuilt in float32 alongside the data.
        for param in model.parameters():
            assert param.grad.dtype == np.float32

    def test_float32_drift_from_float64_is_bounded(self):
        model, trainer = make_setup(local_epochs=1)
        x, y = make_data()
        state64 = get_state(model)
        state32 = {k: v.astype(np.float32) for k, v in state64.items()}
        out64 = state_to_vector(
            trainer.train(state64, x, y, np.random.default_rng(2))
        )
        out32 = state_to_vector(
            trainer.train(state32, x, y, np.random.default_rng(2))
        ).astype(np.float64)
        drift = np.linalg.norm(out32 - out64) / np.linalg.norm(out64)
        assert drift < 1e-5
