"""Tests for stateless numerical helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference_nn import one_hot
from repro.nn import functional as F


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        logits = rng.normal(size=(10, 7))
        probs = F.softmax(logits, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_invariant_to_constant_shift(self, rng):
        logits = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            F.softmax(logits), F.softmax(logits + 100.0), atol=1e-12
        )

    def test_handles_large_logits(self):
        probs = F.softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] > 0.999

    @given(
        arrays(
            np.float64,
            (3, 5),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_probabilities_in_unit_interval(self, logits):
        probs = F.softmax(logits)
        assert np.all(probs >= 0)
        assert np.all(probs <= 1)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.normal(size=(6, 9))
        np.testing.assert_allclose(
            F.log_softmax(logits), np.log(F.softmax(logits)), atol=1e-10
        )


class TestOneHot:
    def test_basic_encoding(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        expected = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(out, expected)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)

    def test_rejects_2d_labels(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), 3)


class TestRelu:
    def test_clamps_negatives(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(F.relu(x), [0.0, 0.0, 2.0])

    def test_grad_is_indicator(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(F.relu_grad(x), [0.0, 0.0, 1.0])


class TestConvHelpers:
    def test_output_size(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        assert F.conv_output_size(8, 2, 2, 0) == 4

    def test_output_size_rejects_too_small(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)

    def test_im2col_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols, oh, ow = F.im2col(x, kernel=3, stride=1, padding=1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2, 3 * 9, 64)

    def test_im2col_identity_kernel1(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        cols, oh, ow = F.im2col(x, kernel=1, stride=1, padding=0)
        np.testing.assert_allclose(cols.reshape(1, 2, 4, 4), x)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> for random x, y."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = F.im2col(x, kernel=3, stride=2, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, kernel=3, stride=2, padding=1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_im2col_values_match_naive_patch_extraction(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols, oh, ow = F.im2col(x, kernel=2, stride=2, padding=0)
        # First patch is the top-left 2x2 block.
        np.testing.assert_allclose(cols[0, :, 0], x[0, 0, :2, :2].ravel())
