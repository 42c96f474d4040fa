"""Tests for the Section 4 spectral mixing analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    MixingDecayResult,
    consensus_distance,
    lambda2,
    mixing_matrix,
    mixing_matrix_from_views,
    random_regular_graph,
    simulate_consensus,
    simulate_lambda2_decay,
    views_from_graph,
)


class TestMixingMatrix:
    def test_doubly_stochastic(self, rng):
        w = mixing_matrix(20, 4, rng)
        np.testing.assert_allclose(w.sum(axis=0), 1.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0)

    def test_symmetric(self, rng):
        w = mixing_matrix(20, 4, rng)
        np.testing.assert_allclose(w, w.T)

    def test_weights_are_one_over_k_plus_one(self, rng):
        graph = random_regular_graph(10, 3, rng)
        w = mixing_matrix_from_views(views_from_graph(graph))
        nonzero = w[w > 0]
        np.testing.assert_allclose(nonzero, 0.25)
        np.testing.assert_allclose(np.diag(w), 0.25)

    def test_preserves_average(self, rng):
        w = mixing_matrix(16, 4, rng)
        theta = rng.normal(size=16)
        assert (w @ theta).mean() == pytest.approx(theta.mean())

    @settings(max_examples=15)
    @given(
        n=st.integers(4, 32),
        k=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_graphs_mix_properly(self, n, k, seed):
        """Any feasible (n, k): doubly stochastic, symmetric, and a
        contraction factor lambda2 in [0, 1]."""
        k = min(k, n - 1)
        if (n * k) % 2:
            n += 1  # n * k must be even for a k-regular graph
        w = mixing_matrix(n, k, np.random.default_rng(seed))
        np.testing.assert_allclose(w.sum(axis=0), 1.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0)
        assert (w >= 0).all()
        np.testing.assert_array_equal(w, w.T)
        assert 0.0 <= lambda2(w) <= 1.0 + 1e-12


class TestLambda2:
    def test_identity_has_lambda2_one(self):
        assert lambda2(np.eye(5)) == pytest.approx(1.0)

    def test_complete_average_has_lambda2_zero(self):
        n = 6
        w = np.full((n, n), 1.0 / n)
        assert lambda2(w) == pytest.approx(0.0, abs=1e-12)

    def test_matches_eigenvalues_for_symmetric(self, rng):
        w = mixing_matrix(20, 4, rng)
        eigs = np.sort(np.abs(np.linalg.eigvalsh(w)))[::-1]
        # Largest eigenvalue is 1 (the consensus direction); lambda2 is
        # the next largest modulus.
        assert lambda2(w) == pytest.approx(eigs[1], abs=1e-10)

    def test_in_unit_interval(self, rng):
        for k in (2, 4, 6):
            w = mixing_matrix(16, k, rng)
            assert 0.0 <= lambda2(w) <= 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            lambda2(np.zeros((2, 3)))

    def test_denser_graphs_mix_faster(self, rng):
        """Larger k gives smaller lambda2 (better single-step mixing)."""
        l2 = {k: np.mean([lambda2(mixing_matrix(30, k, rng)) for _ in range(5)])
              for k in (2, 10)}
        assert l2[10] < l2[2]


class TestContractionBound:
    def test_boyd_inequality_holds(self, rng):
        """||W theta - avg|| <= lambda2(W) ||theta - avg|| (Eq. 11)."""
        for _ in range(10):
            w = mixing_matrix(20, 4, rng)
            theta = rng.normal(size=20)
            lhs = consensus_distance(w @ theta)
            rhs = lambda2(w) * consensus_distance(theta)
            assert lhs <= rhs + 1e-10

    def test_static_product_is_power(self, rng):
        """lambda2(W^T) == lambda2(W)^T for the static setting."""
        w = mixing_matrix(16, 4, rng)
        t = 5
        product = np.linalg.matrix_power(w, t)
        assert lambda2(product) == pytest.approx(lambda2(w) ** t, rel=1e-6)


class TestDecaySimulation:
    def test_shapes(self, rng):
        result = simulate_lambda2_decay(20, 2, 10, dynamic=False, runs=3, rng=rng)
        assert isinstance(result, MixingDecayResult)
        assert result.values.shape == (3, 10)
        assert result.mean.shape == (10,)

    def test_monotone_nonincreasing(self, rng):
        result = simulate_lambda2_decay(20, 4, 15, dynamic=True, runs=2, rng=rng)
        for run in result.values:
            assert np.all(np.diff(run) <= 1e-9)

    def test_dynamic_beats_static_at_k2(self, rng):
        """The headline claim of Figure 10."""
        static = simulate_lambda2_decay(30, 2, 25, dynamic=False, runs=3, rng=rng)
        dynamic = simulate_lambda2_decay(30, 2, 25, dynamic=True, runs=3, rng=rng)
        assert dynamic.mean[-1] < static.mean[-1] / 10

    def test_dynamic_variance_negligible(self, rng):
        """Figure 10: 'the standard deviation is negligible in the
        dynamic case'."""
        dynamic = simulate_lambda2_decay(30, 2, 20, dynamic=True, runs=5, rng=rng)
        tail_mean = dynamic.mean[-1]
        tail_std = dynamic.std[-1]
        assert tail_std < max(tail_mean, 1e-12) * 2

    def test_larger_k_decays_faster(self, rng):
        k2 = simulate_lambda2_decay(30, 2, 10, dynamic=False, runs=3, rng=rng)
        k10 = simulate_lambda2_decay(30, 10, 10, dynamic=False, runs=3, rng=rng)
        assert k10.mean[-1] < k2.mean[-1]

    def test_floor_applied(self, rng):
        result = simulate_lambda2_decay(
            20, 10, 60, dynamic=True, runs=1, rng=rng, floor=1e-13
        )
        assert result.values.min() >= 1e-13

    def test_peerswap_mode_also_decays(self, rng):
        result = simulate_lambda2_decay(
            16, 2, 15, dynamic=True, runs=2, rng=rng, mode="peerswap"
        )
        assert result.mean[-1] < result.mean[0]

    def test_rejects_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            simulate_lambda2_decay(10, 2, 5, dynamic=True, mode="chaos", rng=rng)


class TestConsensusSimulation:
    def test_distances_decrease(self, rng):
        dist = simulate_consensus(20, 4, 30, dynamic=False, rng=rng)
        assert dist[-1] < dist[0]

    def test_dynamic_converges_faster(self, rng):
        static = simulate_consensus(30, 2, 30, dynamic=False, rng=rng)
        dynamic = simulate_consensus(30, 2, 30, dynamic=True, rng=rng)
        assert dynamic[-1] < static[-1]

    def test_consensus_distance_zero_at_consensus(self):
        assert consensus_distance(np.full(10, 3.3)) == pytest.approx(0.0)


class TestMixingTime:
    def test_dynamic_shorter_than_static(self, rng):
        from repro.graph import mixing_time

        static = mixing_time(30, 2, epsilon=0.1, dynamic=False, runs=2,
                             max_iterations=500, rng=rng)
        dynamic = mixing_time(30, 2, epsilon=0.1, dynamic=True, runs=2,
                              max_iterations=500, rng=rng)
        assert dynamic < static

    def test_unreachable_returns_inf(self, rng):
        from repro.graph import mixing_time

        out = mixing_time(30, 2, epsilon=1e-12, dynamic=False, runs=1,
                          max_iterations=3, rng=rng)
        assert out == float("inf")

    def test_rejects_bad_epsilon(self, rng):
        from repro.graph import mixing_time

        import pytest

        with pytest.raises(ValueError):
            mixing_time(10, 2, epsilon=0.0, dynamic=False, rng=rng)

    def test_denser_graph_mixes_sooner(self, rng):
        from repro.graph import mixing_time

        k2 = mixing_time(24, 2, epsilon=0.05, dynamic=True, runs=2,
                         max_iterations=300, rng=rng)
        k8 = mixing_time(24, 8, epsilon=0.05, dynamic=True, runs=2,
                         max_iterations=300, rng=rng)
        assert k8 <= k2
