"""Tests for model-state snapshots (``get_state``) and the dict-State
helpers of the per-layer oracle (``reference_nn``): loading, flattening
and averaging."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_nn import (
    BatchNorm2d,
    Conv2d,
    Dense,
    Sequential,
    average_states,
    set_state,
    state_to_vector,
    vector_to_state,
)
from repro.nn import build_mlp, get_state


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(Dense(4, 8, rng=rng), Dense(8, 2, rng=rng))


class TestStateRoundtrip:
    def test_get_set_roundtrip(self):
        a, b = small_model(0), small_model(1)
        set_state(b, get_state(a))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_get_state_is_a_copy(self):
        model = small_model()
        state = get_state(model)
        state["0.weight"][0, 0] = 999.0
        assert model.layers[0].weight.data[0, 0] != 999.0

    def test_set_state_missing_key(self):
        model = small_model()
        state = get_state(model)
        del state["0.weight"]
        with pytest.raises(KeyError):
            set_state(model, state)

    def test_set_state_extra_key(self):
        model = small_model()
        state = get_state(model)
        state["ghost"] = np.zeros(2)
        with pytest.raises(KeyError):
            set_state(model, state)

    def test_set_state_shape_mismatch(self):
        model = small_model()
        state = get_state(model)
        state["0.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            set_state(model, state)

    def test_buffers_included(self):
        rng = np.random.default_rng(0)
        model = Sequential(Conv2d(1, 2, 3, rng=rng), BatchNorm2d(2))
        model.forward(rng.normal(size=(4, 1, 5, 5)))
        state = get_state(model)
        assert "buffer:1.running_mean" in state
        fresh = Sequential(Conv2d(1, 2, 3, rng=rng), BatchNorm2d(2))
        set_state(fresh, state)
        np.testing.assert_array_equal(
            fresh.get_buffer("1.running_mean"), model.get_buffer("1.running_mean")
        )


class TestVectorization:
    def test_vector_roundtrip(self):
        model = small_model()
        state = get_state(model)
        vec = state_to_vector(state)
        back = vector_to_state(vec, state)
        for name in state:
            np.testing.assert_array_equal(back[name], state[name])

    def test_vector_size(self):
        model = build_mlp(10, 3, hidden=(5,))
        state = get_state(model)
        assert state_to_vector(state).size == sum(a.size for a in state.values())

    def test_vector_to_state_rejects_wrong_size(self):
        state = get_state(small_model())
        with pytest.raises(ValueError):
            vector_to_state(np.zeros(3), state)

    def test_vector_order_is_name_sorted_and_stable(self):
        model = small_model()
        state = get_state(model)
        v1 = state_to_vector(state)
        v2 = state_to_vector(dict(reversed(list(state.items()))))
        np.testing.assert_array_equal(v1, v2)


class TestAveraging:
    def test_average_of_identical_is_identity(self):
        state = get_state(small_model())
        avg = average_states([state, state, state])
        for name in state:
            np.testing.assert_allclose(avg[name], state[name])

    def test_pairwise_average(self):
        s0 = get_state(small_model(0))
        s1 = get_state(small_model(1))
        avg = average_states([s0, s1])
        for name in s0:
            np.testing.assert_allclose(avg[name], (s0[name] + s1[name]) / 2)

    def test_weighted_average(self):
        s0 = {"w": np.array([0.0])}
        s1 = {"w": np.array([10.0])}
        avg = average_states([s0, s1], weights=[0.9, 0.1])
        assert avg["w"][0] == pytest.approx(1.0)

    def test_weights_are_normalized(self):
        s0 = {"w": np.array([0.0])}
        s1 = {"w": np.array([10.0])}
        avg = average_states([s0, s1], weights=[9.0, 1.0])
        assert avg["w"][0] == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            average_states([])

    def test_rejects_mismatched_keys(self):
        with pytest.raises(KeyError):
            average_states([{"a": np.zeros(1)}, {"b": np.zeros(1)}])

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            average_states([{"a": np.zeros(1)}], weights=[0.5, 0.5])

    @given(st.integers(2, 6))
    def test_permutation_invariance(self, n_states):
        """Averaging is invariant to the order of the states."""
        states = [
            {"w": np.random.default_rng(i).normal(size=4)} for i in range(n_states)
        ]
        fwd = average_states(states)
        rev = average_states(list(reversed(states)))
        np.testing.assert_allclose(fwd["w"], rev["w"], atol=1e-12)

    def test_average_matches_vector_average(self):
        """Averaging states equals averaging their flat vectors —
        the property Section 4 relies on to treat models as R^d."""
        s0, s1 = get_state(small_model(0)), get_state(small_model(1))
        avg = average_states([s0, s1])
        vec_avg = (state_to_vector(s0) + state_to_vector(s1)) / 2
        np.testing.assert_allclose(state_to_vector(avg), vec_avg)


class TestAverageStatesWeightValidation:
    def test_all_zero_weights_raise(self):
        states = [{"w": np.ones(3)}, {"w": np.zeros(3)}]
        with pytest.raises(ValueError, match="nonzero"):
            average_states(states, weights=[0.0, 0.0])

    def test_sign_cancelling_weights_raise(self):
        states = [{"w": np.ones(3)}, {"w": np.zeros(3)}]
        with pytest.raises(ValueError, match="nonzero"):
            average_states(states, weights=[1.0, -1.0])

    def test_non_finite_total_raises(self):
        states = [{"w": np.ones(3)}, {"w": np.zeros(3)}]
        with pytest.raises(ValueError):
            average_states(states, weights=[np.inf, -np.inf])

    def test_valid_unnormalized_weights_still_work(self):
        states = [{"w": np.zeros(2)}, {"w": np.full(2, 6.0)}]
        out = average_states(states, weights=[2.0, 1.0])
        np.testing.assert_allclose(out["w"], np.full(2, 2.0))


class TestVectorToStateDtype:
    def test_float32_template_round_trips(self):
        template = {
            "a": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.ones(4, dtype=np.float32),
        }
        vec = state_to_vector(template)
        back = vector_to_state(vec, template)
        for name in template:
            assert back[name].dtype == np.float32
            np.testing.assert_array_equal(back[name], template[name])

    def test_mixed_dtypes_preserved(self):
        template = {
            "f32": np.ones(2, dtype=np.float32),
            "f64": np.ones(2, dtype=np.float64),
        }
        vec = np.arange(4, dtype=np.float64)
        back = vector_to_state(vec, template)
        assert back["f32"].dtype == np.float32
        assert back["f64"].dtype == np.float64

    def test_tiny_but_valid_weight_total_normalizes(self):
        """Only exact cancellation is rejected; small magnitudes are a
        legitimate normalizable total."""
        states = [{"w": np.zeros(2)}, {"w": np.full(2, 4.0)}]
        out = average_states(states, weights=[5e-9, 5e-9])
        np.testing.assert_allclose(out["w"], np.full(2, 2.0))
