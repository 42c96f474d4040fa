"""Per-node state for gossip learning."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.partition import NodeSplit
from repro.nn.serialize import State

__all__ = ["GossipNode"]


@dataclass
class GossipNode:
    """State owned by one participant.

    Attributes
    ----------
    state:
        The node's current model parameters (theta_i), a live dict
        view over the node's arena row.
    inbox:
        Flat model vectors received since the last wake-up. Base Gossip
        consumes them immediately on reception; SAMO stores them here
        until the next wake-up (the set Theta_i of Algorithm 2,
        excluding the node's own model which lives in ``state``).
    split:
        The node's local train/test data.
    rng:
        Private generator driving neighbor choice, minibatch order and
        DP noise, so runs are reproducible per node.
    """

    node_id: int
    state: State
    split: NodeSplit
    rng: np.random.Generator
    inbox: list[np.ndarray] = field(default_factory=list)
    updates_performed: int = 0
    models_received: int = 0

    def snapshot(self) -> State:
        """Copy of the current model state, detached from the arena."""
        return {name: arr.copy() for name, arr in self.state.items()}

    @property
    def train_x(self) -> np.ndarray:
        return self.split.train.x

    @property
    def train_y(self) -> np.ndarray:
        return self.split.train.y

    @property
    def test_x(self) -> np.ndarray:
        return self.split.test.x

    @property
    def test_y(self) -> np.ndarray:
        return self.split.test.y
