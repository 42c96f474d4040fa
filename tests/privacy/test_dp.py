"""Tests for DP-SGD primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.privacy import DPSGDConfig, clip_per_sample, noisy_gradient


def grad_list(rng, scale=1.0):
    return [rng.normal(size=(3, 4)) * scale, rng.normal(size=4) * scale]


def global_norm(grads):
    return np.sqrt(sum(float((g**2).sum()) for g in grads))


class TestConfig:
    def test_valid(self):
        DPSGDConfig(clip_norm=1.0, noise_multiplier=1.0)

    def test_rejects_bad_clip(self):
        with pytest.raises(ValueError):
            DPSGDConfig(clip_norm=0.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            DPSGDConfig(noise_multiplier=-1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(clip_norm=float("nan")), "clip_norm must be finite"),
            (dict(clip_norm=float("inf")), "clip_norm"),
            (dict(noise_multiplier=float("nan")), "noise_multiplier must be"),
            (dict(noise_multiplier=float("inf")), "noise_multiplier"),
        ],
    )
    def test_rejects_non_finite_values(self, kwargs, message):
        """NaN used to pass the ``<= 0`` / ``< 0`` checks."""
        with pytest.raises(ValueError, match=message):
            DPSGDConfig(**kwargs)

    def test_requires_sigma_or_target(self):
        with pytest.raises(ValueError):
            DPSGDConfig(noise_multiplier=None, target_epsilon=None)

    def test_target_epsilon_alone_ok(self):
        DPSGDConfig(noise_multiplier=None, target_epsilon=10.0)


class TestClipping:
    def test_large_gradient_clipped_to_norm(self, rng):
        grads = grad_list(rng, scale=100.0)
        clipped, norm = clip_per_sample(grads, clip_norm=1.0)
        assert global_norm(clipped) == pytest.approx(1.0, rel=1e-9)
        assert norm == pytest.approx(global_norm(grads))

    def test_small_gradient_untouched(self, rng):
        grads = grad_list(rng, scale=1e-4)
        clipped, _ = clip_per_sample(grads, clip_norm=1.0)
        for orig, c in zip(grads, clipped):
            np.testing.assert_array_equal(orig, c)

    def test_direction_preserved(self, rng):
        grads = grad_list(rng, scale=50.0)
        clipped, _ = clip_per_sample(grads, clip_norm=1.0)
        # Clipping is a positive scalar multiple.
        ratio = clipped[0] / grads[0]
        assert np.allclose(ratio, ratio.flat[0])
        assert ratio.flat[0] > 0

    def test_zero_gradient_safe(self):
        clipped, norm = clip_per_sample([np.zeros(3)], clip_norm=1.0)
        assert norm == 0.0
        np.testing.assert_array_equal(clipped[0], np.zeros(3))

    @given(st.floats(0.1, 10.0), st.integers(0, 50))
    def test_property_clipped_norm_bounded(self, clip, seed):
        rng = np.random.default_rng(seed)
        clipped, _ = clip_per_sample(grad_list(rng, scale=10.0), clip)
        assert global_norm(clipped) <= clip * (1 + 1e-9)


class TestNoisyGradient:
    def test_zero_noise_is_plain_average(self, rng):
        grads = grad_list(rng)
        config = DPSGDConfig(clip_norm=1.0, noise_multiplier=0.0)
        out = noisy_gradient(grads, n_samples=4, config=config, rng=rng)
        for g, o in zip(grads, out):
            np.testing.assert_allclose(o, g / 4)

    def test_noise_scale_matches_sigma_times_clip(self):
        rng = np.random.default_rng(0)
        config = DPSGDConfig(clip_norm=2.0, noise_multiplier=3.0)
        zeros = [np.zeros(20_000)]
        out = noisy_gradient(zeros, n_samples=1, config=config, rng=rng)
        assert out[0].std() == pytest.approx(6.0, rel=0.05)

    def test_noise_divided_by_batch(self):
        rng = np.random.default_rng(0)
        config = DPSGDConfig(clip_norm=1.0, noise_multiplier=1.0)
        zeros = [np.zeros(20_000)]
        out = noisy_gradient(zeros, n_samples=10, config=config, rng=rng)
        assert out[0].std() == pytest.approx(0.1, rel=0.05)

    def test_rejects_nonpositive_batch(self, rng):
        config = DPSGDConfig(clip_norm=1.0, noise_multiplier=1.0)
        with pytest.raises(ValueError):
            noisy_gradient([np.zeros(2)], 0, config, rng)

    def test_rejects_unresolved_sigma(self, rng):
        config = DPSGDConfig(noise_multiplier=None, target_epsilon=5.0)
        with pytest.raises(ValueError):
            noisy_gradient([np.zeros(2)], 1, config, rng)

    def test_deterministic_given_rng(self):
        config = DPSGDConfig(clip_norm=1.0, noise_multiplier=1.0)
        a = noisy_gradient(
            [np.zeros(10)], 2, config, np.random.default_rng(3)
        )
        b = noisy_gradient(
            [np.zeros(10)], 2, config, np.random.default_rng(3)
        )
        np.testing.assert_array_equal(a[0], b[0])


class TestBlockOps:
    """Block-level counterparts must reproduce the serial primitives
    bit for bit (same folds, same RNG consumption per row)."""

    def _block(self, rng, rows=5, scale=10.0):
        # Two "parameters" laid out in columns, plus a buffer column
        # at the end that the segments never touch.
        from repro.privacy import clip_block

        grads = rng.normal(size=(rows, 17)) * scale
        grads[:, 16] = 999.0  # buffer column: must stay untouched
        segments = [(0, 12), (12, 16)]
        return grads, segments, clip_block

    def test_clip_block_matches_serial(self, rng):
        grads, segments, clip_block = self._block(rng)
        expected_rows = []
        expected_norms = []
        for row in grads:
            clipped, norm = clip_per_sample(
                [row[0:12], row[12:16]], clip_norm=1.0
            )
            expected_rows.append(np.concatenate(clipped))
            expected_norms.append(norm)
        again = grads.copy()
        norms = clip_block(grads, segments, clip_norm=1.0)
        np.testing.assert_array_equal(norms, np.asarray(expected_norms))
        np.testing.assert_array_equal(
            grads[:, :16], np.stack(expected_rows)
        )
        np.testing.assert_array_equal(grads[:, 16], 999.0)
        # A caller's squares scratch (here larger than needed) gives
        # the same bits.
        squares = np.full(100, np.nan)
        np.testing.assert_array_equal(
            clip_block(again, segments, 1.0, squares), norms
        )
        np.testing.assert_array_equal(again, grads)

    def test_clip_block_float32_scale_applied_in_dtype(self, rng):
        from repro.privacy import clip_block

        grads = (rng.normal(size=(3, 8)) * 50).astype(np.float32)
        reference = grads.copy()
        clip_block(grads, [(0, 8)], clip_norm=1.0)
        for b in range(3):
            clipped, _ = clip_per_sample([reference[b]], clip_norm=1.0)
            np.testing.assert_array_equal(grads[b], clipped[0])
        assert grads.dtype == np.float32

    def test_noisy_gradient_block_matches_serial(self, rng):
        from repro.privacy import noisy_gradient_block

        config = DPSGDConfig(clip_norm=2.0, noise_multiplier=0.7)
        summed = rng.normal(size=(4, 16))
        segments = [(0, 12), (12, 16)]
        serial = [
            noisy_gradient(
                [summed[b, 0:12].copy(), summed[b, 12:16].copy()],
                n_samples=3,
                config=config,
                rng=np.random.default_rng(100 + b),
            )
            for b in range(4)
        ]
        out = noisy_gradient_block(
            summed, 3, config,
            [np.random.default_rng(100 + b) for b in range(4)],
            segments,
        )
        into = np.full_like(summed, np.nan)
        returned = noisy_gradient_block(
            summed, 3, config,
            [np.random.default_rng(100 + b) for b in range(4)],
            segments, out=into,
        )
        assert returned is into
        for b in range(4):
            np.testing.assert_array_equal(
                out[b], np.concatenate(serial[b])
            )
            np.testing.assert_array_equal(into[b], out[b])
        with pytest.raises(ValueError, match="overlap"):
            noisy_gradient_block(
                summed, 3, config,
                [np.random.default_rng(b) for b in range(4)],
                segments, out=summed,
            )

    def test_noisy_gradient_block_zero_noise_keeps_dtype(self, rng):
        from repro.privacy import noisy_gradient_block

        config = DPSGDConfig(clip_norm=1.0, noise_multiplier=0.0)
        summed = rng.normal(size=(2, 6)).astype(np.float32)
        out = noisy_gradient_block(
            summed, 2, config,
            [np.random.default_rng(b) for b in range(2)], [(0, 6)],
        )
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, summed / 2)

    def test_noisy_gradient_block_validates(self, rng):
        from repro.privacy import noisy_gradient_block

        config = DPSGDConfig(clip_norm=1.0, noise_multiplier=1.0)
        with pytest.raises(ValueError, match="positive"):
            noisy_gradient_block(
                np.zeros((1, 2)), 0, config,
                [np.random.default_rng(0)], [(0, 2)],
            )
        with pytest.raises(ValueError, match="generator per block row"):
            noisy_gradient_block(
                np.zeros((2, 2)), 1, config,
                [np.random.default_rng(0)], [(0, 2)],
            )
