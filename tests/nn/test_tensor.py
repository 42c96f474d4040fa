"""Tests for Parameter: the value half in ``repro.nn.tensor``, and the
gradient bookkeeping the per-layer oracle (``reference_nn``) adds."""

import numpy as np
import pytest

from reference_nn import Parameter


class TestParameter:
    def test_data_stored_as_float64(self):
        p = Parameter(np.array([1, 2, 3], dtype=np.int32))
        assert p.data.dtype == np.float64

    def test_grad_starts_at_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0)

    def test_accumulate_adds(self):
        p = Parameter(np.zeros(3))
        p.accumulate(np.array([1.0, 2.0, 3.0]))
        p.accumulate(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(p.grad, [2.0, 3.0, 4.0])

    def test_accumulate_rejects_shape_mismatch(self):
        p = Parameter(np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            p.accumulate(np.zeros(4))

    def test_zero_grad_resets_in_place(self):
        p = Parameter(np.zeros(2))
        grad_ref = p.grad
        p.accumulate(np.ones(2))
        p.zero_grad()
        assert np.all(p.grad == 0)
        assert p.grad is grad_ref

    def test_copy_is_deep(self):
        p = Parameter(np.ones(2), name="w")
        p.accumulate(np.ones(2))
        q = p.copy()
        q.data[0] = 99.0
        q.grad[0] = 99.0
        assert p.data[0] == 1.0
        assert p.grad[0] == 1.0
        assert q.name == "w"

    def test_shape_and_size(self):
        p = Parameter(np.zeros((4, 5)))
        assert p.shape == (4, 5)
        assert p.size == 20

    def test_requires_grad_flag(self):
        p = Parameter(np.zeros(2), requires_grad=False)
        assert not p.requires_grad


class TestParameterDtype:
    def test_requested_dtype_preserved(self):
        p = Parameter(np.ones(3), dtype=np.float32)
        assert p.data.dtype == np.float32
        assert p.grad.dtype == np.float32

    def test_astype_casts_data_and_grad(self):
        p = Parameter(np.ones(3))
        p.accumulate(np.full(3, 0.5))
        out = p.astype(np.float32)
        assert out is p
        assert p.data.dtype == np.float32
        assert p.grad.dtype == np.float32
        np.testing.assert_allclose(p.grad, 0.5)
