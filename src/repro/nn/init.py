"""Weight initialization.

The paper initializes every node's model with the Kaiming normal
function (He et al., 2015); all nodes share the same initial model, so
the initializer takes an explicit ``rng`` to make that reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_normal"]


def _fan_in(shape: tuple[int, ...]) -> int:
    """Fan-in of dense and convolutional weights.

    Dense weights are ``(in, out)``; convolution weights are
    ``(out_channels, in_channels, k, k)``.
    """
    if len(shape) == 2:
        return shape[0]
    if len(shape) == 4:
        return shape[1] * shape[2] * shape[3]
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He-normal initialization: N(0, sqrt(2 / fan_in))."""
    std = np.sqrt(2.0 / _fan_in(shape))
    return rng.normal(0.0, std, size=shape)
