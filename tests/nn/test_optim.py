"""Tests for the per-parameter SGD of the per-layer oracle (``reference_nn``)."""

import numpy as np
import pytest

from reference_nn import Parameter, SGD


def make_param(value=1.0, grad=1.0):
    p = Parameter(np.array([value]))
    p.accumulate(np.array([grad]))
    return p


class TestSGD:
    def test_vanilla_step(self):
        p = make_param(1.0, grad=0.5)
        SGD([p], lr=0.1).step()
        assert p.data[0] == pytest.approx(0.95)

    def test_weight_decay_added_to_gradient(self):
        p = make_param(1.0, grad=0.0)
        SGD([p], lr=0.1, weight_decay=0.1).step()
        # grad_eff = 0 + 0.1 * 1.0 -> p = 1 - 0.1*0.1
        assert p.data[0] == pytest.approx(0.99)

    def test_momentum_accumulates(self):
        p = make_param(0.0, grad=1.0)
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()  # v = 1, p = -1
        assert p.data[0] == pytest.approx(-1.0)
        p.zero_grad()
        p.accumulate(np.array([1.0]))
        opt.step()  # v = 0.9 + 1 = 1.9, p = -2.9
        assert p.data[0] == pytest.approx(-2.9)

    def test_nesterov_differs_from_plain_momentum(self):
        p1 = make_param(0.0, grad=1.0)
        p2 = make_param(0.0, grad=1.0)
        SGD([p1], lr=1.0, momentum=0.9).step()
        SGD([p2], lr=1.0, momentum=0.9, nesterov=True).step()
        assert p1.data[0] != p2.data[0]

    def test_skips_frozen_params(self):
        p = make_param(1.0, grad=1.0)
        p.requires_grad = False
        SGD([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_reset_state_clears_velocity(self):
        p = make_param(0.0, grad=1.0)
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()
        opt.reset_state()
        p.zero_grad()
        p.accumulate(np.array([1.0]))
        opt.step()
        # Without history, second step is plain -1 again.
        assert p.data[0] == pytest.approx(-2.0)

    def test_zero_grad(self):
        p = make_param(0.0, grad=1.0)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert np.all(p.grad == 0)

    def test_rejects_bad_hyperparams(self):
        p = make_param()
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=-1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, nesterov=True)

    def test_converges_on_quadratic(self):
        """SGD minimizes f(x) = (x - 3)^2."""
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            p.accumulate(2 * (p.data - 3.0))
            opt.step()
        assert p.data[0] == pytest.approx(3.0, abs=1e-4)
