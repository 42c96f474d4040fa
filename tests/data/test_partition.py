"""Tests for i.i.d. and Dirichlet partitioning, with hypothesis
property tests on conservation invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import (
    NodeSplit,
    dirichlet_partition,
    iid_partition,
    label_distribution,
    make_node_splits,
    make_synthetic_tabular_dataset,
)


def small_dataset(n=200, classes=4, seed=0):
    train, _ = make_synthetic_tabular_dataset(
        "t", n, 10, num_features=16, num_classes=classes, seed=seed
    )
    return train


class TestIIDPartition:
    def test_covers_all_samples_without_duplicates(self, rng):
        parts = iid_partition(100, 7, rng)
        merged = np.concatenate(parts)
        assert merged.size == 100
        assert np.unique(merged).size == 100

    def test_sizes_near_equal(self, rng):
        parts = iid_partition(100, 7, rng)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_more_nodes_than_samples(self, rng):
        with pytest.raises(ValueError):
            iid_partition(3, 5, rng)

    def test_rejects_nonpositive_nodes(self, rng):
        with pytest.raises(ValueError):
            iid_partition(10, 0, rng)

    @given(
        n_samples=st.integers(10, 300),
        n_nodes=st.integers(1, 10),
        seed=st.integers(0, 100),
    )
    def test_property_partition_is_exact_cover(self, n_samples, n_nodes, seed):
        if n_samples < n_nodes:
            return
        rng = np.random.default_rng(seed)
        parts = iid_partition(n_samples, n_nodes, rng)
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, np.arange(n_samples))


class TestDirichletPartition:
    def test_covers_all_samples(self, rng):
        labels = np.repeat(np.arange(4), 50)
        parts = dirichlet_partition(labels, 5, beta=0.5, rng=rng)
        merged = np.concatenate(parts)
        assert np.unique(merged).size == 200

    def test_low_beta_gives_more_skew_than_high(self):
        labels = np.repeat(np.arange(10), 100)

        def mean_skew(beta, seed):
            rng = np.random.default_rng(seed)
            parts = dirichlet_partition(labels, 8, beta=beta, rng=rng)
            skews = []
            for part in parts:
                dist = np.bincount(labels[part], minlength=10) / max(part.size, 1)
                skews.append(dist.max())
            return np.mean(skews)

        low = np.mean([mean_skew(0.1, s) for s in range(5)])
        high = np.mean([mean_skew(100.0, s) for s in range(5)])
        assert low > high

    def test_high_beta_approaches_iid(self):
        labels = np.repeat(np.arange(4), 100)
        rng = np.random.default_rng(0)
        parts = dirichlet_partition(labels, 4, beta=1000.0, rng=rng)
        for part in parts:
            dist = np.bincount(labels[part], minlength=4) / part.size
            np.testing.assert_allclose(dist, 0.25, atol=0.1)

    def test_min_per_node_enforced(self, rng):
        labels = np.repeat(np.arange(2), 100)
        parts = dirichlet_partition(labels, 4, beta=0.1, rng=rng, min_per_node=3)
        assert min(p.size for p in parts) >= 3

    def test_rejects_nonpositive_beta(self, rng):
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(10, dtype=int), 2, beta=0.0, rng=rng)

    @given(beta=st.floats(0.05, 10.0), seed=st.integers(0, 50))
    def test_property_no_duplicates(self, beta, seed):
        labels = np.repeat(np.arange(5), 40)
        rng = np.random.default_rng(seed)
        parts = dirichlet_partition(labels, 4, beta=beta, rng=rng, min_per_node=1)
        merged = np.concatenate(parts)
        assert np.unique(merged).size == merged.size == 200


class TestNodeSplits:
    def test_train_test_disjoint_per_node(self):
        splits = make_node_splits(small_dataset(), 5, seed=0)
        for split in splits:
            assert np.intersect1d(split.train.indices, split.test.indices).size == 0

    def test_train_shares_disjoint_across_nodes(self):
        splits = make_node_splits(small_dataset(), 5, seed=0)
        seen = set()
        for split in splits:
            mine = set(split.train.indices.tolist())
            assert not (mine & seen)
            seen |= mine

    def test_train_per_node_cap(self):
        splits = make_node_splits(small_dataset(), 4, train_per_node=10, seed=0)
        assert all(len(s.train) == 10 for s in splits)

    @pytest.mark.parametrize("train_per_node", [0, -5])
    def test_rejects_nonpositive_train_cap(self, train_per_node):
        # A negative cap would slice samples off the end instead.
        with pytest.raises(ValueError, match="train_per_node"):
            make_node_splits(small_dataset(), 4, train_per_node=train_per_node)

    def test_test_per_node_cap(self):
        splits = make_node_splits(
            small_dataset(), 4, train_per_node=10, test_per_node=7, seed=0
        )
        assert all(len(s.test) == 7 for s in splits)

    def test_dirichlet_splits(self):
        splits = make_node_splits(small_dataset(400, 8), 4, beta=0.2, seed=1)
        assert len(splits) == 4
        for split in splits:
            assert len(split.train) >= 2

    def test_node_split_rejects_overlap(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            NodeSplit(0, ds.subset(np.array([0, 1])), ds.subset(np.array([1, 2])))

    def test_deterministic_given_seed(self):
        a = make_node_splits(small_dataset(), 4, seed=9)
        b = make_node_splits(small_dataset(), 4, seed=9)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.train.indices, sb.train.indices)
            np.testing.assert_array_equal(sa.test.indices, sb.test.indices)

    def test_raises_when_not_enough_for_tests(self):
        ds = small_dataset(40)
        with pytest.raises(ValueError):
            # All 40 samples consumed by training; tests cannot be disjoint
            # from everything *and* sized 20.
            make_node_splits(ds, 2, train_per_node=20, test_per_node=30, seed=0)


class TestLabelDistribution:
    def test_sums_to_one(self):
        ds = small_dataset()
        splits = make_node_splits(ds, 4, seed=0)
        dist = label_distribution(splits[0].train)
        assert dist.sum() == pytest.approx(1.0)

    def test_reflects_skew(self):
        ds = small_dataset(400, classes=4, seed=2)
        splits = make_node_splits(ds, 4, beta=0.05, seed=3)
        maxes = [label_distribution(s.train).max() for s in splits]
        assert np.mean(maxes) > 0.5  # strong label imbalance
