"""The accountant's per-order loops as they were: the test oracle.

:mod:`repro.privacy.accountant` computes each integer order once per
call and caches the log-binomial terms of every order. This module
keeps the implementation that recomputed both, term by term, so tests
can check that the optimized accountant returns the same float64 bits
for the RDP vector and for the calibrated sigma.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from repro.privacy.accountant import DEFAULT_ALPHAS, rdp_to_epsilon


def _log_comb(n: int, k: int) -> float:
    return float(
        special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)
    )


def _rdp_gaussian(alpha: float, sigma: float) -> float:
    return alpha / (2.0 * sigma**2)


def _rdp_subsampled_int(alpha: int, q: float, sigma: float) -> float:
    log_terms = []
    for j in range(alpha + 1):
        log_coef = (
            _log_comb(alpha, j)
            + j * math.log(q)
            + (alpha - j) * math.log1p(-q)
        )
        log_terms.append(log_coef + (j * j - j) / (2.0 * sigma**2))
    log_sum = special.logsumexp(log_terms)
    return float(log_sum) / (alpha - 1)


def rdp_subsampled_gaussian(
    q: float, sigma: float, alphas: tuple[float, ...] = DEFAULT_ALPHAS
) -> np.ndarray:
    """Per-step RDP at each order, every order computed from scratch."""
    out = np.empty(len(alphas))
    for i, alpha in enumerate(alphas):
        if q == 1.0:
            out[i] = _rdp_gaussian(alpha, sigma)
        elif q == 0.0:
            out[i] = 0.0
        elif float(alpha).is_integer():
            out[i] = _rdp_subsampled_int(int(alpha), q, sigma)
        else:
            lo, hi = int(math.floor(alpha)), int(math.ceil(alpha))
            if lo < 2:
                out[i] = _rdp_subsampled_int(2, q, sigma)
            else:
                r_lo = _rdp_subsampled_int(lo, q, sigma)
                r_hi = _rdp_subsampled_int(hi, q, sigma)
                frac = alpha - lo
                out[i] = (1 - frac) * r_lo + frac * r_hi
    return out


def epsilon(q: float, sigma: float, steps: int, delta: float) -> float:
    """What ``RDPAccountant`` reports after ``steps`` steps of (q, sigma)."""
    rdp = np.zeros(len(DEFAULT_ALPHAS)) + steps * rdp_subsampled_gaussian(
        q, sigma
    )
    return rdp_to_epsilon(rdp, delta)[0]


def calibrate_sigma(
    target_epsilon: float,
    delta: float,
    q: float,
    steps: int,
    sigma_min: float = 0.1,
    sigma_max: float = 200.0,
    tol: float = 1e-3,
) -> float:
    """The same bisection over the reference RDP."""
    if epsilon(q, sigma_max, steps, delta) > target_epsilon:
        raise ValueError(
            f"even sigma={sigma_max} cannot achieve epsilon={target_epsilon}"
        )
    lo, hi = sigma_min, sigma_max
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if epsilon(q, mid, steps, delta) > target_epsilon:
            lo = mid
        else:
            hi = mid
    return hi
