"""Tests for model evaluation metrics (Section 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    ModelEvaluation,
    accuracy,
    generalization_error,
    predict_proba,
)
from repro.nn import CrossEntropyLoss, SGD, build_mlp

from reference_observer import evaluate_model


@pytest.fixture
def trained_model(rng):
    """MLP overfit on 20 samples, plus those samples and fresh ones."""
    model = build_mlp(10, 3, hidden=(32,), rng=rng)
    x_train = rng.normal(size=(20, 10))
    y_train = rng.integers(0, 3, 20)
    loss_fn = CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=0.2, momentum=0.9)
    for _ in range(120):
        opt.zero_grad()
        loss_fn(model.forward(x_train), y_train)
        model.backward(loss_fn.backward())
        opt.step()
    x_test = rng.normal(size=(30, 10))
    y_test = rng.integers(0, 3, 30)
    return model, (x_train, y_train), (x_test, y_test)


class TestPredictProba:
    def test_rows_sum_to_one(self, trained_model):
        model, (x, _), _ = trained_model
        probs = predict_proba(model, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_batching_matches_full_pass(self, trained_model, rng):
        model, (x, _), _ = trained_model
        full = predict_proba(model, x, batch_size=1000)
        batched = predict_proba(model, x, batch_size=3)
        np.testing.assert_allclose(full, batched)

    def test_restores_training_mode(self, trained_model):
        model, (x, _), _ = trained_model
        model.train()
        predict_proba(model, x)
        assert model.training

    def test_eval_mode_during_inference(self, trained_model):
        model, (x, _), _ = trained_model
        model.eval()
        predict_proba(model, x)
        assert not model.training


class TestAccuracy:
    def test_overfit_model_has_high_train_accuracy(self, trained_model):
        model, (x, y), _ = trained_model
        assert accuracy(model, x, y) > 0.9

    def test_random_labels_give_chance_level_on_test(self, trained_model):
        model, _, (x, y) = trained_model
        # Random unseen data: accuracy near 1/3 (generous margin).
        assert accuracy(model, x, y) < 0.8

    def test_rejects_empty(self, trained_model):
        model, _, _ = trained_model
        with pytest.raises(ValueError):
            accuracy(model, np.zeros((0, 10)), np.zeros(0))


class TestGeneralizationError:
    def test_positive_for_overfit_model(self, trained_model):
        model, (x_tr, y_tr), (x_te, y_te) = trained_model
        assert generalization_error(model, x_tr, y_tr, x_te, y_te) > 0.2


class TestEvaluateModel:
    def test_full_evaluation(self, trained_model, rng):
        model, (x_tr, y_tr), (x_te, y_te) = trained_model
        ev = evaluate_model(
            model, 3, x_te, y_te, x_tr, y_tr, x_te, y_te, rng=rng
        )
        assert isinstance(ev, ModelEvaluation)
        assert ev.node_id == 3
        assert ev.local_train_accuracy > ev.local_test_accuracy
        assert ev.generalization_error == pytest.approx(
            ev.local_train_accuracy - ev.local_test_accuracy
        )
        # Memorized members leak: attack beats random guessing.
        assert ev.mia_accuracy > 0.5
        assert 0.0 <= ev.mia_tpr_at_1_fpr <= 1.0


class TestBatchedEvaluator:
    """Row-batch path vs the per-model reference path."""

    def _block(self, rng, dtype=np.float64, n_rows=5):
        from repro.nn import StateLayout, get_state

        model = build_mlp(10, 3, hidden=(16, 8), rng=rng)
        layout = StateLayout.from_model(model)
        template = get_state(model)
        params = np.empty((n_rows, layout.dim), dtype=dtype)
        states = []
        for b in range(n_rows):
            state = {k: rng.normal(size=v.shape) for k, v in template.items()}
            states.append(state)
            layout.pack(state, out=params[b])
        return model, layout, params, states

    def test_predict_proba_rows_matches_per_model(self, rng):
        from repro.metrics import BatchedEvaluator
        from repro.nn import set_state

        model, layout, params, states = self._block(rng)
        x = rng.normal(size=(12, 10))
        probs = BatchedEvaluator(model, layout).predict_proba_rows(params, x)
        for b, state in enumerate(states):
            set_state(model, state)
            np.testing.assert_allclose(
                probs[b], predict_proba(model, x), rtol=1e-9, atol=1e-12
            )

    def test_accuracy_rows_matches_per_model(self, rng):
        from repro.metrics import BatchedEvaluator
        from repro.nn import set_state

        model, layout, params, states = self._block(rng)
        x = rng.normal(size=(18, 10))
        y = rng.integers(0, 3, 18)
        accs = BatchedEvaluator(model, layout).accuracy_rows(params, x, y)
        for b, state in enumerate(states):
            set_state(model, state)
            assert accs[b] == pytest.approx(accuracy(model, x, y), abs=1e-12)

    def test_attack_observations_match_per_model(self, rng):
        from repro.metrics import BatchedEvaluator
        from repro.nn import set_state
        from repro.privacy import mpe_scores

        model, layout, params, states = self._block(rng)
        xs = [rng.normal(size=(7, 10)) for _ in states]
        ys = [rng.integers(0, 3, 7) for _ in states]
        obs = BatchedEvaluator(model, layout).attack_observations(params, xs, ys)
        for b, state in enumerate(states):
            set_state(model, state)
            probs = predict_proba(model, xs[b])
            np.testing.assert_allclose(
                obs[b][0], mpe_scores(probs, ys[b]), rtol=1e-9, atol=1e-12
            )
            assert obs[b][1] == pytest.approx(accuracy(model, xs[b], ys[b]))

    def test_attack_observations_ragged_sizes_and_rows(self, rng):
        """Different-size attack sets group separately; the rows
        indirection scores several sets against the same model."""
        from repro.metrics import BatchedEvaluator
        from repro.nn import set_state
        from repro.privacy import mpe_scores

        model, layout, params, states = self._block(rng, n_rows=3)
        xs = [rng.normal(size=(n, 10)) for n in (4, 9, 4, 9)]
        ys = [rng.integers(0, 3, x.shape[0]) for x in xs]
        rows = [0, 1, 2, 0]
        obs = BatchedEvaluator(model, layout).attack_observations(
            params, xs, ys, rows=rows
        )
        for i, row in enumerate(rows):
            set_state(model, states[row])
            probs = predict_proba(model, xs[i])
            np.testing.assert_allclose(
                obs[i][0], mpe_scores(probs, ys[i]), rtol=1e-9, atol=1e-12
            )

    def test_eval_batch_blocking_is_equivalent(self, rng):
        from repro.metrics import BatchedEvaluator

        model, layout, params, _ = self._block(rng)
        x = rng.normal(size=(11, 10))
        y = rng.integers(0, 3, 11)
        full = BatchedEvaluator(model, layout, eval_batch=0)
        blocked = BatchedEvaluator(model, layout, eval_batch=2, batch_size=4)
        np.testing.assert_allclose(
            full.predict_proba_rows(params, x),
            blocked.predict_proba_rows(params, x),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            full.accuracy_rows(params, x, y),
            blocked.accuracy_rows(params, x, y),
        )
        # Per-model inputs block along the sample axis too.
        xs = [rng.normal(size=(9, 10)) for _ in range(params.shape[0])]
        ys = [rng.integers(0, 3, 9) for _ in range(params.shape[0])]
        for (fs, fa), (bs, ba) in zip(
            full.attack_observations(params, xs, ys),
            blocked.attack_observations(params, xs, ys),
        ):
            np.testing.assert_allclose(fs, bs, rtol=1e-12)
            assert fa == pytest.approx(ba)

    def test_float32_block_matches_float32_per_model(self, rng):
        """Dtype contract: a float32 block is scored in float32 on both
        paths, and the two agree within float32 tolerance."""
        from repro.metrics import BatchedEvaluator
        from repro.nn import set_state

        model, layout, params, states = self._block(rng, dtype=np.float32)
        x = rng.normal(size=(12, 10))
        probs = BatchedEvaluator(model, layout).predict_proba_rows(params, x)
        assert probs.dtype == np.float32
        for b, state in enumerate(states):
            set_state(
                model, {k: v.astype(np.float32) for k, v in state.items()}
            )
            reference = predict_proba(model, x)
            assert reference.dtype == np.float32
            np.testing.assert_allclose(probs[b], reference, rtol=1e-4, atol=1e-5)

    def test_rejects_unsupported_model(self, rng):
        from repro.metrics import BatchedEvaluator
        from repro.nn import Module

        class Weird(Module):
            def forward(self, x):
                return x

        with pytest.raises(ValueError, match="batched"):
            BatchedEvaluator(Weird())

    def test_rejects_bad_knobs(self, rng):
        from repro.metrics import BatchedEvaluator

        model, layout, _, _ = self._block(rng)
        with pytest.raises(ValueError):
            BatchedEvaluator(model, layout, eval_batch=-1)
        with pytest.raises(ValueError):
            BatchedEvaluator(model, layout, batch_size=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_input_returns_empty_block(self, rng, dtype):
        """Mirrors predict_proba's empty-input contract per row, in the
        params dtype."""
        from repro.metrics import BatchedEvaluator

        model, layout, params, _ = self._block(rng, dtype=dtype)
        probs = BatchedEvaluator(model, layout).predict_proba_rows(
            params, np.zeros((0, 10))
        )
        assert probs.shape == (params.shape[0], 0, 0)
        assert probs.dtype == dtype

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.float32, np.float64]),
        n_rows=st.integers(1, 6),
        kind=st.sampled_from(["identity", "repeated", "scattered"]),
        eval_batch=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_attack_observations_bitwise_equal_to_gather(
        self, data, dtype, n_rows, kind, eval_batch, seed
    ):
        """Scoring ascending row ranges as slices of the parameter block
        (instead of a gather) changes no bit of any observation."""
        from repro.metrics import BatchedEvaluator

        rng = np.random.default_rng(seed)
        model, layout, params, _ = self._block(rng, dtype=dtype, n_rows=n_rows)
        if kind == "identity":
            rows = list(range(n_rows))
        elif kind == "repeated":  # the observer: train sets, then test sets
            rows = list(range(n_rows)) * 2
        else:  # the canary attack: any rows, in any order
            rows = data.draw(
                st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=3 * n_rows)
            )
        sizes = data.draw(
            st.lists(st.sampled_from([3, 5]), min_size=len(rows), max_size=len(rows))
        )
        xs = [rng.normal(size=(n, 10)) for n in sizes]
        ys = [rng.integers(0, 3, n) for n in sizes]
        evaluator = BatchedEvaluator(model, layout, eval_batch=eval_batch)
        got = evaluator.attack_observations(params, xs, ys, rows=rows)
        reference = evaluator.attack_observations(
            params[np.asarray(rows, dtype=np.intp)], xs, ys
        )
        for (scores, acc), (ref_scores, ref_acc) in zip(got, reference):
            assert scores.dtype == ref_scores.dtype
            np.testing.assert_array_equal(scores, ref_scores)
            assert acc == ref_acc


class TestPredictProbaDtype:
    def test_float32_model_keeps_float32_math(self, rng):
        """The workspace path also follows the model dtype instead of
        promoting to float64 (the arena-dtype contract)."""
        model = build_mlp(10, 3, hidden=(8,), rng=rng)
        model.astype(np.float32)
        probs = predict_proba(model, rng.normal(size=(6, 10)))
        assert probs.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_input_keeps_model_dtype(self, rng, dtype):
        """Empty input comes back in the model dtype, not float64."""
        model = build_mlp(10, 3, hidden=(8,), rng=rng)
        model.astype(dtype)
        probs = predict_proba(model, np.zeros((0, 10)))
        assert probs.shape == (0, 0)
        assert probs.dtype == dtype


# The paper's three model families at the study's scale, each with
# sizes at which eval_batch=0 splits every call into row blocks and the
# global test set spans two sample chunks of 256: (architecture,
# build_model kwargs, sample shape, rows, global test samples,
# attack-set samples).
PAPER_MODELS = [
    (
        "mlp",
        dict(in_features=600, num_classes=100, hidden=(256, 128, 64)),
        (600,), 6, 300, 256,
    ),
    (
        "cnn",
        dict(in_channels=3, image_size=16, num_classes=10, width=8),
        (3, 16, 16), 4, 300, 48,
    ),
    (
        "resnet8",
        dict(in_channels=3, num_classes=100, width=8),
        (3, 16, 16), 4, 300, 48,
    ),
]


class TestCodeSizedRowBlocks:
    """``eval_batch=0`` sizes the observer's row blocks by the code.
    Every row's arithmetic is the same in any block, so the scores equal
    those of one block over every row (the behaviour before the rule)
    bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "arch, kwargs, sample, n_rows, n_global, n_attack",
        PAPER_MODELS,
        ids=[entry[0] for entry in PAPER_MODELS],
    )
    def test_automatic_blocks_equal_one_block(
        self, arch, kwargs, sample, n_rows, n_global, n_attack, dtype
    ):
        from repro.metrics import BatchedEvaluator
        from repro.nn import StateLayout, build_model, get_state

        rng = np.random.default_rng(3)
        model = build_model(arch, **kwargs)
        layout = StateLayout.from_model(model)
        params = np.empty((n_rows, layout.dim))
        for b in range(n_rows):
            state = {
                k: v + 0.05 * rng.normal(size=v.shape)
                for k, v in get_state(model).items()
            }
            layout.pack(state, out=params[b])
        params = params.astype(dtype)
        classes = kwargs["num_classes"]
        x = rng.normal(size=(n_global,) + sample)
        y = rng.integers(0, classes, n_global)
        xs = [rng.normal(size=(n_attack,) + sample) for _ in range(2 * n_rows)]
        ys = [rng.integers(0, classes, n_attack) for _ in xs]
        rows = list(range(n_rows)) * 2
        auto = BatchedEvaluator(model, layout, eval_batch=0)
        one = BatchedEvaluator(model, layout, eval_batch=n_rows)
        assert auto.rows_per_block(sample, n_global, dtype) < n_rows
        assert auto.rows_per_block(sample, n_attack, dtype) < n_rows
        np.testing.assert_array_equal(
            auto.accuracy_rows(params, x, y), one.accuracy_rows(params, x, y)
        )
        np.testing.assert_array_equal(
            auto.predict_proba_rows(params, x), one.predict_proba_rows(params, x)
        )
        for (scores, acc), (one_scores, one_acc) in zip(
            auto.attack_observations(params, xs, ys, rows=rows),
            one.attack_observations(params, xs, ys, rows=rows),
        ):
            assert scores.dtype == one_scores.dtype
            np.testing.assert_array_equal(scores, one_scores)
            assert acc == one_acc

    def test_peak_activation_is_the_largest_layer_output(self):
        from repro.nn import build_model
        from repro.nn.batched import peak_activation_size

        sizes = {
            arch: peak_activation_size(build_model(arch, **kwargs), sample)
            for arch, kwargs, sample, *_ in PAPER_MODELS
        }
        # MLP: the 256-unit hidden layer; CNN and ResNet-8: the first
        # conv's 8 channels x 16 x 16.
        assert sizes == {"mlp": 256, "cnn": 8 * 16 * 16, "resnet8": 8 * 16 * 16}

    def test_samo_static_64_scores_in_several_blocks(self):
        """The baseline study's shapes (64 nodes, the paper MLP, float64,
        512 global test samples, 64-sample train splits) split into
        several row blocks on both observer calls."""
        from repro.core import StudyConfig
        from repro.metrics import BatchedEvaluator
        from repro.nn import build_model

        cfg = StudyConfig(dataset="purchase100", n_nodes=64)
        model = build_model(
            "mlp", in_features=cfg.num_features, num_classes=100,
            hidden=cfg.mlp_hidden,
        )
        evaluator = BatchedEvaluator(model, eval_batch=cfg.eval_batch)
        sample = (cfg.num_features,)
        for n_samples in (cfg.max_global_test, cfg.train_per_node):
            assert evaluator.rows_per_block(
                sample, n_samples, np.float64
            ) < cfg.n_nodes
