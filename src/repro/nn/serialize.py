"""Model states: a model's parameters and buffers by name.

Gossip aggregation (Algorithms 1 and 2 of the paper) averages whole
models. :func:`get_state` snapshots a model into an ordered state
dictionary, which a :class:`~repro.nn.flat.StateLayout` packs into one
flat vector — an element of R^d, as in Section 4's analysis — and every
later step runs on those vectors.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Module

__all__ = ["get_state", "num_parameters"]

State = dict[str, np.ndarray]


def get_state(model: Module) -> State:
    """Snapshot parameters and buffers into a name -> array copy."""
    state: State = {}
    for name, param in model.named_parameters():
        state[name] = param.data.copy()
    for name, buf in model.named_buffers():
        state["buffer:" + name] = buf.copy()
    return state


def num_parameters(model: Module) -> int:
    """Total number of trainable scalars in the model."""
    return sum(p.size for p in model.parameters())
