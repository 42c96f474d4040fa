"""Tests for loss functions, including gradient checks.

``CrossEntropyLoss`` is the scalar loss of the per-layer oracle
(``reference_nn``); the blocked ``batched_cross_entropy_grad`` of
``src/`` must match it row for row.
"""

import numpy as np
import pytest

from reference_nn import CrossEntropyLoss


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = CrossEntropyLoss()
        logits = np.zeros((4, 10))
        labels = np.array([0, 1, 2, 3])
        assert loss(logits, labels) == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        loss = CrossEntropyLoss()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        labels = np.array([0, 1])
        assert loss(logits, labels) == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_finite_differences(self, rng, fd_grad):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(3, 5))
        labels = np.array([1, 0, 4])

        def scalar():
            return loss.forward(logits, labels)

        numeric = fd_grad(scalar, logits)
        loss.forward(logits, labels)
        analytic = loss.backward()
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(4, 6))
        loss.forward(logits, np.array([0, 1, 2, 3]))
        grad = loss.backward()
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_smoothing_increases_loss_on_confident_preds(self):
        logits = np.array([[50.0, 0.0]])
        labels = np.array([0])
        plain = CrossEntropyLoss()(logits, labels)
        smoothed = CrossEntropyLoss(label_smoothing=0.1)(logits, labels)
        assert smoothed > plain

    def test_label_smoothing_gradient(self, rng, fd_grad):
        loss = CrossEntropyLoss(label_smoothing=0.2)
        logits = rng.normal(size=(2, 4))
        labels = np.array([0, 3])

        def scalar():
            return loss.forward(logits, labels)

        numeric = fd_grad(scalar, logits)
        loss.forward(logits, labels)
        np.testing.assert_allclose(loss.backward(), numeric, atol=1e-7)

    def test_rejects_bad_shapes(self):
        loss = CrossEntropyLoss()
        with pytest.raises(ValueError):
            loss(np.zeros((2, 3, 4)), np.array([0, 1]))
        with pytest.raises(ValueError):
            loss(np.zeros((2, 3)), np.array([0]))

    def test_rejects_bad_smoothing(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss(label_smoothing=1.0)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()


class TestDtypePreservation:
    """The float32 audit: loss internals must not promote to float64."""

    def test_cross_entropy_backward_in_logits_dtype(self, rng):
        loss = CrossEntropyLoss(label_smoothing=0.1)
        logits = rng.normal(size=(4, 6)).astype(np.float32)
        labels = np.array([0, 1, 2, 3])
        value = loss.forward(logits, labels)
        assert isinstance(value, float)
        assert loss.backward().dtype == np.float32
        # float64 logits keep the float64 path untouched.
        loss.forward(logits.astype(np.float64), labels)
        assert loss.backward().dtype == np.float64

    def test_cross_entropy_f32_close_to_f64(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        loss.forward(logits, labels)
        g64 = loss.backward()
        loss.forward(logits.astype(np.float32), labels)
        np.testing.assert_allclose(loss.backward(), g64, atol=1e-6)


class TestBatchedCrossEntropyGrad:
    """Blocked loss vs the scalar loss, row for row."""

    def test_matches_scalar_loss_per_row(self, rng):
        from repro.nn import batched_cross_entropy_grad

        logits = rng.normal(size=(3, 5, 7))
        labels = rng.integers(0, 7, size=(3, 5))
        losses, grad = batched_cross_entropy_grad(
            logits, labels, label_smoothing=0.2
        )
        scalar = CrossEntropyLoss(label_smoothing=0.2)
        for b in range(3):
            assert losses[b] == scalar.forward(logits[b], labels[b])
            np.testing.assert_array_equal(grad[b], scalar.backward())

    def test_block_dtype_and_loss_skip(self, rng):
        from repro.nn import batched_cross_entropy_grad

        logits = rng.normal(size=(2, 4, 3)).astype(np.float32)
        labels = rng.integers(0, 3, size=(2, 4))
        losses, grad = batched_cross_entropy_grad(
            logits, labels, with_losses=False
        )
        assert losses is None
        assert grad.dtype == np.float32

    def test_validation(self):
        from repro.nn import batched_cross_entropy_grad

        with pytest.raises(ValueError, match="B, N, C"):
            batched_cross_entropy_grad(np.zeros((2, 3)), np.zeros((2,)))
        with pytest.raises(ValueError, match="labels"):
            batched_cross_entropy_grad(
                np.zeros((2, 3, 4)), np.zeros((3, 2), dtype=int)
            )
        with pytest.raises(ValueError, match="label_smoothing"):
            batched_cross_entropy_grad(
                np.zeros((2, 3, 4)), np.zeros((2, 3), dtype=int),
                label_smoothing=1.0,
            )
        with pytest.raises(ValueError, match="range"):
            batched_cross_entropy_grad(
                np.zeros((1, 2, 3)), np.full((1, 2), 9)
            )
