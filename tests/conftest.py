"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Test modules import shared helpers that live beside them (e.g. the
# workspace-loop reference, ``reference_trainer``).
sys.path.insert(0, str(Path(__file__).parent))

# Keep hypothesis fast and deterministic in CI.
settings.register_profile("ci", max_examples=25, deadline=None, derandomize=True)
settings.load_profile("ci")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def finite_difference_grad(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn()
        flat[i] = orig - eps
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


@pytest.fixture
def fd_grad():
    return finite_difference_grad
