"""DP-SGD primitives: per-sample clipping and Gaussian noising.

The paper enforces node-level DP "by clipping local gradients and
adding Gaussian noise with an adequate variance to the clipped gradient
at each step" (Section 3.9), with Opacus's DP-SGD and RDP accounting.
This module provides the mechanism; :mod:`repro.privacy.accountant`
provides the accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DPSGDConfig",
    "clip_per_sample",
    "noisy_gradient",
    "clip_block",
    "noisy_gradient_block",
]

GradList = list[np.ndarray]
Segments = list[tuple[int, int]]


@dataclass(frozen=True)
class DPSGDConfig:
    """Configuration of the Gaussian mechanism applied to gradients.

    Attributes
    ----------
    clip_norm:
        L2 bound C applied to each per-sample gradient.
    noise_multiplier:
        sigma; the noise added to the *sum* of clipped gradients has
        standard deviation ``sigma * clip_norm`` per coordinate.
    target_epsilon / target_delta:
        Desired guarantee; when ``noise_multiplier`` is None the
        accountant calibrates sigma from these.
    """

    clip_norm: float = 1.0
    noise_multiplier: float | None = 1.0
    target_epsilon: float | None = None
    target_delta: float = 1e-5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(
                f"clip_norm must be finite and > 0, got {self.clip_norm!r}"
            )
        if self.noise_multiplier is not None and not (
            math.isfinite(self.noise_multiplier) and self.noise_multiplier >= 0
        ):
            raise ValueError(
                "noise_multiplier must be finite and >= 0, "
                f"got {self.noise_multiplier!r}"
            )
        if self.noise_multiplier is None and self.target_epsilon is None:
            raise ValueError("provide noise_multiplier or target_epsilon")


def _global_norm(grads: GradList) -> float:
    """L2 norm of a gradient expressed as a list of arrays."""
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))


def clip_per_sample(grads: GradList, clip_norm: float) -> tuple[GradList, float]:
    """Scale one sample's gradient so its global L2 norm is <= clip_norm.

    Returns the clipped gradient and the pre-clip norm (useful for
    diagnostics and tests).
    """
    norm = _global_norm(grads)
    scale = min(1.0, clip_norm / max(norm, 1e-12))
    return [g * scale for g in grads], norm


def noisy_gradient(
    summed_clipped: GradList,
    n_samples: int,
    config: DPSGDConfig,
    rng: np.random.Generator,
) -> GradList:
    """Add Gaussian noise to a sum of clipped per-sample gradients and
    average.

    The mechanism is ``(sum_i clip(g_i) + N(0, (sigma C)^2 I)) / B``,
    matching DP-SGD/Opacus.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    sigma = config.noise_multiplier
    if sigma is None:
        raise ValueError("noise_multiplier not resolved; calibrate first")
    std = sigma * config.clip_norm
    out: GradList = []
    for g in summed_clipped:
        noise = rng.normal(0.0, std, size=g.shape) if std > 0 else 0.0
        out.append((g + noise) / n_samples)
    return out


# ---------------------------------------------------------------------------
# Block-level counterparts (vectorized DP-SGD fast path)
#
# A (R, dim) block holds one flat per-sample gradient per row, laid out
# by a StateLayout. ``segments`` lists the [offset, offset+size) column
# range of every *parameter* in ``model.named_parameters()`` order —
# the order the serial path iterates — so the sequential float64 norm
# fold and the per-row noise draws reproduce the serial arithmetic (and
# RNG consumption) bit for bit. Buffer columns are never touched.
# ---------------------------------------------------------------------------


def clip_block(
    grads: np.ndarray,
    segments: Segments,
    clip_norm: float,
    squares: np.ndarray | None = None,
) -> np.ndarray:
    """Clip every row of a per-sample gradient block in place.

    The per-row global norm accumulates one float64 per-parameter sum
    at a time, in segment order — the same left fold as the Python
    ``sum()`` in :func:`clip_per_sample` — and the scale is applied in
    the block dtype, matching the serial ``g * scale``. Each segment is
    squared into ``squares``, a flat scratch of the block dtype with at
    least ``R * (widest segment)`` elements (allocated when None, so a
    caller clipping many blocks passes one and reuses it). Returns the
    pre-clip norms as a float64 ``(R,)`` array.
    """
    rows = grads.shape[0]
    if squares is None:
        widest = max((stop - start for start, stop in segments), default=0)
        squares = np.empty(rows * widest, dtype=grads.dtype)
    total = np.zeros(rows, dtype=np.float64)
    for start, stop in segments:
        seg = grads[:, start:stop]
        # A contiguous (R, width) view, laid out like ``seg * seg``.
        sq = squares[: rows * (stop - start)].reshape(rows, stop - start)
        np.multiply(seg, seg, out=sq)
        total += np.sum(sq, axis=1)
    norms = np.sqrt(total)
    scale = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-12))
    scale = scale.astype(grads.dtype, copy=False)[:, None]
    for start, stop in segments:
        seg = grads[:, start:stop]
        np.multiply(seg, scale, out=seg)
    return norms


def noisy_gradient_block(
    summed_clipped: np.ndarray,
    n_samples: int,
    config: DPSGDConfig,
    rngs: list[np.random.Generator],
    segments: Segments,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Blocked :func:`noisy_gradient`: noise + average a (B, dim) block.

    ``summed_clipped[b]`` is row b's sum of clipped per-sample
    gradients and ``rngs[b]`` its task generator; each row draws its
    noise parameter by parameter in segment order, consuming the
    generator exactly as the serial loop does. Each segment's draws
    land straight in ``out`` (``rng.standard_normal(out=...)``, then
    scaled by sigma * C: the draws and bits of ``rng.normal(0, sigma
    * C)``), so no noise temporary is made.

    ``out``, when given, receives the result: a C-contiguous block of
    the result dtype (float64 when noise is added, promoting like ``g +
    noise``; the gradient dtype otherwise) that, when noise is added,
    does not overlap ``summed_clipped``. Noise lands in the segments'
    columns only; every column is divided by ``n_samples``. When None,
    a new block is returned (with noise, zeros outside the segments).
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    sigma = config.noise_multiplier
    if sigma is None:
        raise ValueError("noise_multiplier not resolved; calibrate first")
    if len(rngs) != summed_clipped.shape[0]:
        raise ValueError("need one generator per block row")
    std = sigma * config.clip_norm
    if std == 0:
        # Mirror the serial dtype semantics: with no noise the average
        # stays in the gradient dtype instead of promoting to float64.
        return np.divide(summed_clipped, n_samples, out=out)
    if out is None:
        out = np.zeros(summed_clipped.shape, dtype=np.float64)
    elif np.may_share_memory(out, summed_clipped):
        raise ValueError("out must not overlap summed_clipped")
    for b, rng in enumerate(rngs):
        for start, stop in segments:
            noise = out[b, start:stop]
            rng.standard_normal(out=noise)
            noise *= std
            noise += summed_clipped[b, start:stop]
    out /= n_samples
    return out
