"""Data partitioning across nodes.

The paper (Section 3.1) distributes the training split uniformly across
nodes in equal parts for the i.i.d. setting, and uses Dirichlet(beta)
label-proportion sampling (Li et al.) for the non-i.i.d. setting.
Per-node *local test* sets are sampled from the same base training
split but kept disjoint from the node's training samples; they provide
the MIA non-member pool and the local-test term of the generalization
error (Equation 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset, Subset

__all__ = [
    "NodeSplit",
    "iid_partition",
    "dirichlet_partition",
    "make_node_splits",
    "label_distribution",
]


@dataclass
class NodeSplit:
    """A node's local view of the data."""

    node_id: int
    train: Subset
    test: Subset

    def __post_init__(self) -> None:
        overlap = np.intersect1d(self.train.indices, self.test.indices)
        if overlap.size:
            raise ValueError(
                f"node {self.node_id}: train/test overlap on {overlap.size} samples"
            )


def iid_partition(
    n_samples: int, n_nodes: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffle indices and split into ``n_nodes`` near-equal parts."""
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if n_samples < n_nodes:
        raise ValueError(f"cannot split {n_samples} samples across {n_nodes} nodes")
    perm = rng.permutation(n_samples)
    return [np.sort(part) for part in np.array_split(perm, n_nodes)]


def dirichlet_partition(
    labels: np.ndarray,
    n_nodes: int,
    beta: float,
    rng: np.random.Generator,
    min_per_node: int = 2,
    max_retries: int = 100,
) -> list[np.ndarray]:
    """Label-skewed partition via per-class Dirichlet proportions.

    For each class ``k`` the proportion vector across nodes is sampled
    from Dirichlet(beta); smaller beta yields stronger label imbalance.
    Retries until every node holds at least ``min_per_node`` samples.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = int(labels.max()) + 1 if labels.size else 0
    for _ in range(max_retries):
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_nodes)]
        for k in range(num_classes):
            class_idx = np.flatnonzero(labels == k)
            rng.shuffle(class_idx)
            proportions = rng.dirichlet([beta] * n_nodes)
            cuts = (np.cumsum(proportions) * class_idx.size).astype(np.int64)[:-1]
            for node_id, part in enumerate(np.split(class_idx, cuts)):
                buckets[node_id].append(part)
        parts = [
            np.sort(np.concatenate(b)) if b else np.array([], dtype=np.int64)
            for b in buckets
        ]
        if min(part.size for part in parts) >= min_per_node:
            return parts
    raise RuntimeError(
        f"could not build a Dirichlet(beta={beta}) partition giving every "
        f"node at least {min_per_node} samples after {max_retries} tries"
    )


def make_node_splits(
    base_train: Dataset,
    n_nodes: int,
    train_per_node: int | None = None,
    test_per_node: int | None = None,
    beta: float | None = None,
    seed: int = 0,
) -> list[NodeSplit]:
    """Build per-node train/test splits from the base training split.

    Parameters
    ----------
    base_train:
        The base dataset's training split; both local train and local
        test samples come from here (matching Section 3.1).
    beta:
        ``None`` for i.i.d.; otherwise the Dirichlet concentration for
        the non-i.i.d. setting.
    train_per_node / test_per_node:
        Optional caps; defaults carve the whole split into equal train
        shares and use a held-out quarter-sized local test set.
    """
    if train_per_node is not None and train_per_node <= 0:
        raise ValueError("train_per_node must be positive (or None)")
    rng = np.random.default_rng(seed)
    n = len(base_train)
    if beta is None:
        train_parts = iid_partition(n, n_nodes, rng)
    else:
        train_parts = dirichlet_partition(base_train.y, n_nodes, beta, rng)
    if train_per_node is not None:
        train_parts = [
            part[rng.permutation(part.size)[: min(train_per_node, part.size)]]
            for part in train_parts
        ]
        train_parts = [np.sort(part) for part in train_parts]

    used = np.zeros(n, dtype=bool)
    for part in train_parts:
        used[part] = True
    free = np.flatnonzero(~used)
    rng.shuffle(free)

    splits: list[NodeSplit] = []
    cursor = 0
    for node_id, train_idx in enumerate(train_parts):
        want = test_per_node if test_per_node is not None else max(1, train_idx.size // 4)
        if cursor + want <= free.size:
            test_idx = free[cursor : cursor + want]
            cursor += want
        else:
            # Not enough unused samples (e.g. full split consumed by
            # training shares): fall back to sampling from other nodes'
            # training data, which is still non-member data *for this
            # node's model contribution*.
            others = np.flatnonzero(used & ~np.isin(np.arange(n), train_idx))
            if others.size < want:
                raise ValueError(
                    "not enough samples to build disjoint local test sets; "
                    "reduce train_per_node or test_per_node"
                )
            test_idx = rng.choice(others, size=want, replace=False)
        splits.append(
            NodeSplit(
                node_id=node_id,
                train=base_train.subset(np.sort(train_idx)),
                test=base_train.subset(np.sort(test_idx)),
            )
        )
    return splits


def label_distribution(split: Subset, num_classes: int | None = None) -> np.ndarray:
    """Normalized label histogram of a subset (for non-iid diagnostics)."""
    num_classes = num_classes or split.num_classes
    counts = np.bincount(split.y, minlength=num_classes).astype(np.float64)
    total = counts.sum()
    return counts / total if total else counts
