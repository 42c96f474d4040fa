"""Tests for the omniscient observer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OmniscientObserver, Study, StudyConfig

from reference_observer import use_reference_observer


def build_study(**overrides):
    base = dict(
        name="obs-test",
        dataset="purchase100",
        n_train=600,
        n_test=150,
        num_features=64,
        n_nodes=6,
        view_size=2,
        protocol="samo",
        rounds=2,
        train_per_node=24,
        test_per_node=12,
        mlp_hidden=(32, 16),
        local_epochs=1,
        batch_size=12,
        max_attack_samples=32,
        max_global_test=64,
    )
    base.update(overrides)
    return Study(StudyConfig(**base)).build()


class TestObserver:
    def test_records_one_per_round(self):
        study = build_study(rounds=3)
        study.run()
        assert len(study.observer.records) == 3

    def test_evaluates_every_node(self):
        study = build_study()
        study.simulator.run(1, round_callback=study.observer)
        # Mean of per-node values implies all were evaluated; verify by
        # re-running and checking determinism.
        record = study.observer.records[0]
        assert record.round_index == 0
        assert 0.0 <= record.mia_accuracy <= 1.0

    def test_global_test_subsample_fixed_across_rounds(self):
        study = build_study()
        x_before = study.observer.x_global.copy()
        study.run()
        np.testing.assert_array_equal(study.observer.x_global, x_before)

    def test_canary_requires_base(self):
        study = build_study()
        with pytest.raises(ValueError):
            OmniscientObserver(
                study.model,
                study.global_test,
                canaries=object(),  # placeholder, base missing
                canary_base=None,
            )

    def test_canary_attack_scores_recorded(self):
        study = build_study(n_canaries=12, rounds=2)
        study.run()
        for record in study.observer.records:
            assert record.canary_tpr_at_1_fpr is not None

    def test_epsilon_fn_wired(self):
        study = build_study()
        study.observer.set_epsilon_fn(lambda r: 1.23)
        study.simulator.run(1, round_callback=study.observer)
        assert study.observer.records[0].epsilon == 1.23

    def test_subsampling_caps_attack_set(self):
        study = build_study(max_attack_samples=8)
        idx = study.observer._subsample_idx(100)
        assert idx.shape == (8,)
        assert np.unique(idx).size == 8 and idx.max() < 100

    def test_subsampling_noop_when_small(self):
        study = build_study(max_attack_samples=200)
        state = study.observer.rng.bit_generator.state
        assert study.observer._subsample_idx(10) is None
        # The whole split is taken without a draw.
        assert study.observer.rng.bit_generator.state == state


class TestModelSpread:
    def test_spread_recorded_per_round(self):
        study = build_study(rounds=2)
        study.run()
        for record in study.observer.records:
            assert record.model_spread >= 0.0

    def test_spread_zero_at_shared_init(self):
        """Before any training all nodes hold the same model."""
        study = build_study()
        spread = study.observer._model_spread(study.simulator)
        assert spread == pytest.approx(0.0, abs=1e-12)

    def test_spread_positive_after_training(self):
        study = build_study(rounds=2)
        study.run()
        assert study.observer.records[-1].model_spread > 0.0

    def test_spread_matches_manual_computation(self):
        import numpy as np
        from reference_nn import state_to_vector, unpack

        study = build_study(rounds=1)
        study.run()
        sim = study.simulator
        vectors = np.stack(
            [
                state_to_vector(unpack(sim.layout, sim.arena.row(n.node_id)))
                for n in sim.nodes
            ]
        )
        center = vectors.mean(axis=0)
        expected = float(np.linalg.norm(vectors - center, axis=1).mean())
        assert study.observer.records[-1].model_spread == pytest.approx(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n_nodes=st.integers(1, 27),
        dim=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spread_bitwise_matches_linalg_norm(
        self, dtype, n_nodes, dim, scale, seed
    ):
        """The in-place 8-row blocks compute exactly the reference
        ``np.linalg.norm(axis=1)``, for any node count (ragged last
        block included) and either arena dtype."""
        rng = np.random.default_rng(seed)
        params = (rng.normal(size=(n_nodes, dim)) * scale).astype(dtype)
        center = params.mean(axis=0)
        expected = float(np.linalg.norm(params - center, axis=1).mean())
        observer = OmniscientObserver.__new__(OmniscientObserver)
        assert observer._model_spread(None, params) == expected


class TestNodeRecords:
    def test_off_by_default(self):
        study = build_study(rounds=2)
        study.run()
        assert study.observer.node_records == []

    def test_kept_when_requested(self):
        study = build_study(rounds=2, keep_node_records=True)
        study.run()
        assert len(study.observer.node_records) == 2
        for per_round in study.observer.node_records:
            assert len(per_round) == 6  # one evaluation per node
            node_ids = [e.node_id for e in per_round]
            assert node_ids == sorted(node_ids)

    def test_per_node_values_average_to_round_record(self):
        import numpy as np

        study = build_study(rounds=1, keep_node_records=True)
        study.run()
        per_node = study.observer.node_records[0]
        record = study.observer.records[0]
        assert record.mia_accuracy == pytest.approx(
            np.mean([e.mia_accuracy for e in per_node])
        )


class TestBatchedObservation:
    """The row-batch observation path vs the per-node loop of
    ``tests/reference_observer.py``."""

    def _pair(self, **overrides):
        batched = build_study(**overrides)
        legacy = build_study(**overrides)
        use_reference_observer(legacy)
        batched.run()
        legacy.run()
        return batched.observer.records, legacy.observer.records

    def _assert_equivalent(self, batched, legacy, tol):
        assert len(batched) == len(legacy)
        for rb, rl in zip(batched, legacy):
            assert rb.global_test_accuracy == pytest.approx(
                rl.global_test_accuracy, abs=tol
            )
            assert rb.local_train_accuracy == pytest.approx(
                rl.local_train_accuracy, abs=tol
            )
            assert rb.mia_accuracy == pytest.approx(rl.mia_accuracy, abs=tol)
            assert rb.mia_tpr_at_1_fpr == pytest.approx(
                rl.mia_tpr_at_1_fpr, abs=tol
            )
            assert rb.mia_auc == pytest.approx(rl.mia_auc, abs=tol)
            assert rb.model_spread == pytest.approx(rl.model_spread, rel=1e-9)

    def test_equivalent_float64(self):
        batched, legacy = self._pair(rounds=2)
        self._assert_equivalent(batched, legacy, tol=1e-9)

    def test_equivalent_float32(self):
        """Same run in the float32 arena: both paths score in float32
        and agree within dtype tolerance."""
        batched, legacy = self._pair(rounds=2, arena_dtype="float32")
        self._assert_equivalent(batched, legacy, tol=1e-4)

    def test_equivalent_with_unbalanced_attack_sets(self):
        """train != test sizes exercise the pre-drawn balancing path."""
        batched, legacy = self._pair(
            rounds=1, train_per_node=24, test_per_node=8
        )
        self._assert_equivalent(batched, legacy, tol=1e-9)

    def test_equivalent_with_canaries(self):
        batched, legacy = self._pair(rounds=2, n_canaries=10)
        for rb, rl in zip(batched, legacy):
            assert rb.canary_tpr_at_1_fpr == pytest.approx(
                rl.canary_tpr_at_1_fpr, abs=1e-9
            )

    def test_eval_batch_blocking_changes_nothing(self):
        full = build_study(rounds=1)
        full.run()
        blocked, legacy = self._pair(rounds=1, eval_batch=2)
        self._assert_equivalent(full.observer.records, blocked, tol=1e-12)
        self._assert_equivalent(blocked, legacy, tol=1e-9)

    def test_eval_batch_validation(self):
        with pytest.raises(ValueError):
            build_study(eval_batch=-2)
        with pytest.raises(ValueError, match="per-node observer loop"):
            build_study(eval_batch=-1)


class TestZeroCopyObservation:
    def test_observe_peak_below_one_arena(self):
        """One observer pass allocates less than the parameter block it
        scores: attack sets read arena slices (no gather of every row),
        shared-input Dense needs no folded weight copy, and the spread
        reuses one 8-row scratch."""
        study = build_study(
            n_nodes=32, num_features=400, mlp_hidden=(256,),
            train_per_node=8, test_per_node=8, max_attack_samples=8,
            max_global_test=16, rounds=1,
        )
        simulator, observer = study.simulator, study.observer
        observer(0, simulator)  # builds the lazy layout and evaluator
        tracemalloc.start()
        try:
            observer(1, simulator)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # n_nodes * dim * itemsize: the parent's (2n, dim) gather alone
        # was twice that.
        assert peak < simulator.arena.data.nbytes
