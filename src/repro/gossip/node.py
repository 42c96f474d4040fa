"""Per-node state for gossip learning."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.partition import NodeSplit

__all__ = ["GossipNode"]


@dataclass
class GossipNode:
    """State owned by one participant.

    The node's model (theta_i) is its row of the simulator's arena
    (``FlatGossipSimulator.arena.row(node_id)``), not a field here.

    Attributes
    ----------
    inbox:
        Flat model vectors received since the last wake-up. Base Gossip
        consumes them immediately on reception; SAMO stores them here
        until the next wake-up (the set Theta_i of Algorithm 2,
        excluding the node's own model, which lives in the arena).
    split:
        The node's local train/test data.
    rng:
        Private generator driving neighbor choice, minibatch order and
        DP noise, so runs are reproducible per node.
    """

    node_id: int
    split: NodeSplit
    rng: np.random.Generator
    inbox: list[np.ndarray] = field(default_factory=list)
    updates_performed: int = 0
    models_received: int = 0

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
