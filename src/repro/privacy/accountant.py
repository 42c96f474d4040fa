"""Renyi Differential Privacy accounting for DP-SGD.

Implements the RDP of the subsampled Gaussian mechanism (Mironov,
Talwar & Zhang, 2019 — the accountant behind Opacus), composition over
steps (the composition rule of RDP cited as [57] in the paper), and the
improved RDP->(eps, delta) conversion of Balle et al. (2020).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

__all__ = [
    "DEFAULT_ALPHAS",
    "rdp_subsampled_gaussian",
    "rdp_to_epsilon",
    "RDPAccountant",
    "calibrate_sigma",
]

# Standard Opacus grid: a dense low range plus a sparse tail.
DEFAULT_ALPHAS: tuple[float, ...] = tuple(
    [1.0 + x / 10.0 for x in range(1, 100)] + list(range(11, 64)) + [128, 256, 512]
)


@functools.cache
def _log_combs(n: int) -> np.ndarray:
    """``log C(n, j)`` for j = 0..n (read-only; depends on n alone)."""
    j = np.arange(n + 1)
    out = (
        special.gammaln(n + 1)
        - special.gammaln(j + 1)
        - special.gammaln(n - j + 1)
    )
    out.setflags(write=False)
    return out


def _rdp_gaussian(alpha: float, sigma: float) -> float:
    """RDP of the (un-subsampled) Gaussian mechanism: alpha / (2 sigma^2)."""
    return alpha / (2.0 * sigma**2)


def _rdp_subsampled_int(alpha: int, q: float, sigma: float) -> float:
    """RDP at integer order via the binomial expansion (Mironov et al. eq. 3).

    The terms j = 0..alpha are one array expression, each element the
    same float64 operations, in the same order, as a term-by-term loop.
    """
    j = np.arange(alpha + 1)
    log_coef = (
        _log_combs(alpha) + j * math.log(q) + (alpha - j) * math.log1p(-q)
    )
    log_terms = log_coef + (j * j - j) / (2.0 * sigma**2)
    log_sum = special.logsumexp(log_terms)
    return float(log_sum) / (alpha - 1)


def rdp_subsampled_gaussian(
    q: float, sigma: float, alphas: tuple[float, ...] = DEFAULT_ALPHAS
) -> np.ndarray:
    """Per-step RDP of the sampled Gaussian mechanism at each order.

    Fractional orders are bounded by linear interpolation between the
    neighboring integer orders (RDP is convex in alpha), which is the
    standard practical treatment. Each integer order is computed once
    per call, however many fractional orders it bounds.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sampling rate must be in [0, 1], got {q}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    out = np.empty(len(alphas))
    at_int: dict[int, float] = {}

    def rdp_int(order: int) -> float:
        if order not in at_int:
            at_int[order] = _rdp_subsampled_int(order, q, sigma)
        return at_int[order]

    for i, alpha in enumerate(alphas):
        if alpha <= 1.0:
            raise ValueError("RDP orders must be > 1")
        if q == 1.0:
            out[i] = _rdp_gaussian(alpha, sigma)
        elif q == 0.0:
            out[i] = 0.0
        elif float(alpha).is_integer():
            out[i] = rdp_int(int(alpha))
        else:
            lo, hi = int(math.floor(alpha)), int(math.ceil(alpha))
            if lo < 2:
                # Order in (1, 2): bound by the value at 2.
                out[i] = rdp_int(2)
            else:
                r_lo = rdp_int(lo)
                r_hi = rdp_int(hi)
                frac = alpha - lo
                out[i] = (1 - frac) * r_lo + frac * r_hi
    return out


def rdp_to_epsilon(
    rdp: np.ndarray, delta: float, alphas: tuple[float, ...] = DEFAULT_ALPHAS
) -> tuple[float, float]:
    """Convert accumulated RDP to (epsilon, best_alpha) for a delta.

    Uses the conversion of Balle et al. (2020):
    ``eps = rdp + log((alpha-1)/alpha) - (log delta + log alpha)/(alpha-1)``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    rdp = np.asarray(rdp, dtype=np.float64)
    alphas_arr = np.asarray(alphas, dtype=np.float64)
    if rdp.shape != alphas_arr.shape:
        raise ValueError("rdp and alphas must align")
    eps = (
        rdp
        + np.log((alphas_arr - 1) / alphas_arr)
        - (math.log(delta) + np.log(alphas_arr)) / (alphas_arr - 1)
    )
    eps = np.maximum(eps, 0.0)
    best = int(np.argmin(eps))
    return float(eps[best]), float(alphas_arr[best])


class RDPAccountant:
    """Track cumulative RDP over heterogeneous DP-SGD steps."""

    def __init__(self, alphas: tuple[float, ...] = DEFAULT_ALPHAS):
        self.alphas = alphas
        self._rdp = np.zeros(len(alphas))
        self.history: list[tuple[float, float, int]] = []

    def step(self, q: float, sigma: float, steps: int = 1) -> None:
        """Record ``steps`` applications of the mechanism (q, sigma)."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if steps == 0:
            return
        self._rdp = self._rdp + steps * rdp_subsampled_gaussian(q, sigma, self.alphas)
        self.history.append((q, sigma, steps))

    def get_epsilon(self, delta: float) -> float:
        eps, _ = rdp_to_epsilon(self._rdp, delta, self.alphas)
        return eps

    def get_epsilon_and_alpha(self, delta: float) -> tuple[float, float]:
        return rdp_to_epsilon(self._rdp, delta, self.alphas)


def calibrate_sigma(
    target_epsilon: float,
    delta: float,
    q: float,
    steps: int,
    sigma_min: float = 0.1,
    sigma_max: float = 200.0,
    tol: float = 1e-3,
) -> float:
    """Binary-search the noise multiplier achieving ``target_epsilon``.

    Mirrors Opacus's ``get_noise_multiplier``: epsilon decreases
    monotonically in sigma, so bisection converges.
    """
    if not (math.isfinite(target_epsilon) and target_epsilon > 0):
        raise ValueError(
            f"target_epsilon must be finite and > 0, got {target_epsilon!r}"
        )

    def eps_for(sigma: float) -> float:
        acct = RDPAccountant()
        acct.step(q, sigma, steps)
        return acct.get_epsilon(delta)

    if eps_for(sigma_max) > target_epsilon:
        raise ValueError(
            f"even sigma={sigma_max} cannot achieve epsilon={target_epsilon}"
        )
    lo, hi = sigma_min, sigma_max
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if eps_for(mid) > target_epsilon:
            lo = mid
        else:
            hi = mid
    return hi
