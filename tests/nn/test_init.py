"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn import init


class TestKaiming:
    def test_normal_std_matches_fan_in(self, rng):
        w = init.kaiming_normal((500, 300), rng)
        expected = np.sqrt(2.0 / 500)
        assert w.std() == pytest.approx(expected, rel=0.05)

    def test_conv_fan_in_uses_receptive_field(self, rng):
        w = init.kaiming_normal((64, 16, 3, 3), rng)
        expected = np.sqrt(2.0 / (16 * 9))
        assert w.std() == pytest.approx(expected, rel=0.05)

    def test_deterministic_given_seed(self):
        a = init.kaiming_normal((10, 10), np.random.default_rng(7))
        b = init.kaiming_normal((10, 10), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_unsupported_shape(self, rng):
        with pytest.raises(ValueError):
            init.kaiming_normal((5,), rng)
