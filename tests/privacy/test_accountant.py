"""Tests for the RDP accountant against known reference values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import (
    DEFAULT_ALPHAS,
    RDPAccountant,
    calibrate_sigma,
    rdp_subsampled_gaussian,
    rdp_to_epsilon,
)


class TestRDPSubsampledGaussian:
    def test_full_batch_matches_gaussian_closed_form(self):
        sigma = 2.0
        rdp = rdp_subsampled_gaussian(1.0, sigma, alphas=(2.0, 4.0, 8.0))
        np.testing.assert_allclose(
            rdp, [a / (2 * sigma**2) for a in (2.0, 4.0, 8.0)]
        )

    def test_zero_sampling_rate_is_free(self):
        rdp = rdp_subsampled_gaussian(0.0, 1.0, alphas=(2.0, 3.0))
        np.testing.assert_array_equal(rdp, 0.0)

    def test_subsampling_amplifies_privacy(self):
        """q < 1 gives strictly less RDP than the full-batch mechanism."""
        full = rdp_subsampled_gaussian(1.0, 1.0, alphas=(4.0,))
        sub = rdp_subsampled_gaussian(0.01, 1.0, alphas=(4.0,))
        assert sub[0] < full[0]

    def test_monotone_in_q(self):
        small = rdp_subsampled_gaussian(0.01, 1.0, alphas=(8.0,))
        large = rdp_subsampled_gaussian(0.5, 1.0, alphas=(8.0,))
        assert small[0] < large[0]

    def test_monotone_in_sigma(self):
        noisy = rdp_subsampled_gaussian(0.1, 4.0, alphas=(8.0,))
        quiet = rdp_subsampled_gaussian(0.1, 0.5, alphas=(8.0,))
        assert noisy[0] < quiet[0]

    def test_nonnegative_across_grid(self):
        rdp = rdp_subsampled_gaussian(0.05, 1.2)
        assert np.all(rdp >= 0)
        assert np.all(np.isfinite(rdp))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(1.5, 1.0)
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.5, 0.0)
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.5, 1.0, alphas=(0.5,))


class TestConversion:
    def test_known_opacus_ballpark(self):
        """q=0.01, sigma=1.0, 1000 steps, delta=1e-5 gives eps close to
        2.0 with RDP accounting (Opacus reference ~1.9-2.2)."""
        acct = RDPAccountant()
        acct.step(0.01, 1.0, 1000)
        eps = acct.get_epsilon(1e-5)
        assert 1.5 < eps < 2.6

    def test_gaussian_closed_form_ballpark(self):
        """Single full-batch Gaussian, sigma=4: RDP conversion should
        land near the classical analytic bound region (eps ~ 1-2 for
        delta=1e-5)."""
        acct = RDPAccountant()
        acct.step(1.0, 4.0, 1)
        eps = acct.get_epsilon(1e-5)
        assert 0.5 < eps < 3.0

    def test_epsilon_increases_with_steps(self):
        a, b = RDPAccountant(), RDPAccountant()
        a.step(0.1, 1.0, 10)
        b.step(0.1, 1.0, 100)
        assert b.get_epsilon(1e-5) > a.get_epsilon(1e-5)

    def test_epsilon_decreases_with_sigma(self):
        a, b = RDPAccountant(), RDPAccountant()
        a.step(0.1, 0.8, 50)
        b.step(0.1, 3.0, 50)
        assert b.get_epsilon(1e-5) < a.get_epsilon(1e-5)

    def test_composition_is_additive(self):
        """Two separate step() calls equal one call with summed steps."""
        a = RDPAccountant()
        a.step(0.05, 1.1, 30)
        a.step(0.05, 1.1, 20)
        b = RDPAccountant()
        b.step(0.05, 1.1, 50)
        assert a.get_epsilon(1e-5) == pytest.approx(b.get_epsilon(1e-5))

    def test_epsilon_nonnegative(self):
        acct = RDPAccountant()
        acct.step(0.001, 100.0, 1)
        assert acct.get_epsilon(1e-5) >= 0.0

    def test_best_alpha_reported(self):
        acct = RDPAccountant()
        acct.step(0.01, 1.0, 100)
        eps, alpha = acct.get_epsilon_and_alpha(1e-5)
        assert alpha in DEFAULT_ALPHAS
        assert eps > 0

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            rdp_to_epsilon(np.zeros(len(DEFAULT_ALPHAS)), 0.0)

    def test_zero_steps_noop(self):
        acct = RDPAccountant()
        acct.step(0.1, 1.0, 0)
        assert acct.history == []

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            RDPAccountant().step(0.1, 1.0, -1)


class TestCalibration:
    @pytest.mark.parametrize("target", [10.0, 25.0, 50.0])
    def test_calibrated_sigma_achieves_target(self, target):
        sigma = calibrate_sigma(target, 1e-5, q=0.1, steps=100)
        acct = RDPAccountant()
        acct.step(0.1, sigma, 100)
        eps = acct.get_epsilon(1e-5)
        assert eps <= target
        assert eps >= target * 0.9  # not overly conservative

    def test_smaller_epsilon_needs_more_noise(self):
        tight = calibrate_sigma(5.0, 1e-5, q=0.1, steps=100)
        loose = calibrate_sigma(50.0, 1e-5, q=0.1, steps=100)
        assert tight > loose

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            calibrate_sigma(0.0, 1e-5, q=0.1, steps=10)

    def test_rejects_unreachable_target(self):
        with pytest.raises(ValueError):
            calibrate_sigma(1e-6, 1e-5, q=1.0, steps=10_000, sigma_max=5.0)


def _epsilon(q: float, sigma: float, steps: int, delta: float = 1e-5) -> float:
    accountant = RDPAccountant()
    accountant.step(q, sigma, steps)
    return accountant.get_epsilon(delta)


_Q = st.floats(0.01, 1.0)
_SIGMA = st.floats(0.5, 10.0)
_STEPS = st.integers(1, 2_000)


class TestAccountantProperties:
    """Properties the DP figures rest on, checked on drawn mechanisms
    (few examples: one epsilon costs tens of milliseconds)."""

    @settings(max_examples=10)
    @given(q1=_Q, sigma1=_SIGMA, s1=_STEPS, q2=_Q, sigma2=_SIGMA, s2=_STEPS)
    def test_rdp_adds_up_over_steps(self, q1, sigma1, s1, q2, sigma2, s2):
        accountant = RDPAccountant()
        accountant.step(q1, sigma1, s1)
        accountant.step(q2, sigma2, s2)
        composed = s1 * rdp_subsampled_gaussian(q1, sigma1) + (
            s2 * rdp_subsampled_gaussian(q2, sigma2)
        )
        assert accountant.get_epsilon(1e-5) == pytest.approx(
            rdp_to_epsilon(composed, 1e-5)[0], rel=1e-12
        )

    @settings(max_examples=10)
    @given(q=_Q, sigma=_SIGMA, steps=st.lists(_STEPS, min_size=2, max_size=2))
    def test_epsilon_never_decreases_with_steps(self, q, sigma, steps):
        fewer, more = sorted(steps)
        assert _epsilon(q, sigma, fewer) <= _epsilon(q, sigma, more)

    @settings(max_examples=10)
    @given(qs=st.lists(_Q, min_size=2, max_size=2), sigma=_SIGMA, steps=_STEPS)
    def test_epsilon_never_decreases_with_sampling_rate(self, qs, sigma, steps):
        lower, higher = sorted(qs)
        assert _epsilon(lower, sigma, steps) <= _epsilon(higher, sigma, steps)

    @settings(max_examples=10)
    @given(q=_Q, sigmas=st.lists(_SIGMA, min_size=2, max_size=2), steps=_STEPS)
    def test_epsilon_never_increases_with_noise(self, q, sigmas, steps):
        lower, higher = sorted(sigmas)
        assert _epsilon(q, higher, steps) <= _epsilon(q, lower, steps)

    @settings(max_examples=4)
    @given(
        target=st.floats(0.5, 20.0),
        q=st.floats(0.01, 0.5),
        steps=st.integers(10, 2_000),
    )
    def test_calibrate_sigma_inverts_epsilon(self, target, q, steps):
        """The returned sigma meets the target, and one tolerance step
        less noise does not (unless the search stopped at its floor)."""
        sigma_min, tol = 0.1, 1e-3
        sigma = calibrate_sigma(
            target, 1e-5, q, steps, sigma_min=sigma_min, tol=tol
        )
        assert _epsilon(q, sigma, steps) <= target
        if sigma - tol > sigma_min:
            assert _epsilon(q, sigma - tol, steps) > target
