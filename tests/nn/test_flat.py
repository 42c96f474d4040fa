"""Tests for the flat-buffer state layout.

Dict views over flat vectors (``unpack``) and the dict-State helpers
come from the per-layer oracle (``reference_nn``).
"""

import numpy as np
import pytest

from reference_nn import set_state, state_to_vector, unpack, vector_to_state
from repro.nn import build_mlp, get_state
from repro.nn.flat import StateLayout


def small_model(seed=0):
    return build_mlp(6, 3, hidden=(5,), rng=np.random.default_rng(seed))


def small_state(seed=0):
    return get_state(small_model(seed))


class TestLayoutConstruction:
    def test_sorted_name_order_and_dim(self):
        state = small_state()
        layout = StateLayout.from_state(state)
        assert layout.names == sorted(state)
        assert layout.dim == sum(arr.size for arr in state.values())
        offsets = [layout.slot(name).offset for name in layout.names]
        assert offsets == sorted(offsets)

    def test_from_model_matches_from_state(self):
        model = small_model()
        assert StateLayout.from_model(model) == StateLayout.from_state(
            get_state(model)
        )

    def test_records_shapes_and_dtypes(self):
        state = {
            "a": np.zeros((2, 3), dtype=np.float32),
            "b": np.zeros(4, dtype=np.float64),
        }
        layout = StateLayout.from_state(state)
        assert layout.slot("a").shape == (2, 3)
        assert layout.slot("a").dtype == np.float32
        assert layout.slot("b").dtype == np.float64
        assert layout.dim == 10


class TestPackUnpack:
    def test_pack_matches_state_to_vector(self):
        """The layout's flat order is the sorted-name order of the
        oracle's ``state_to_vector``, so both are interchangeable."""
        state = small_state()
        layout = StateLayout.from_state(state)
        np.testing.assert_array_equal(layout.pack(state), state_to_vector(state))

    def test_round_trip_bitwise(self):
        state = small_state()
        layout = StateLayout.from_state(state)
        back = vector_to_state(layout.pack(state), state)
        assert set(back) == set(state)
        for name in state:
            np.testing.assert_array_equal(back[name], state[name])
            assert back[name].dtype == state[name].dtype

    def test_unpack_returns_live_views(self):
        state = small_state()
        layout = StateLayout.from_state(state)
        vector = layout.pack(state)
        views = unpack(layout, vector)
        name = layout.names[0]
        views[name].flat[0] = 123.0
        assert vector[layout.slot(name).offset] == 123.0
        vector[:] = 0.0
        assert views[name].flat[0] == 0.0

    def test_pack_into_float32_out_casts(self):
        state = small_state()
        layout = StateLayout.from_state(state)
        out = layout.empty(dtype=np.float32)
        layout.pack(state, out=out)
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, state_to_vector(state).astype(np.float32)
        )

    def test_pack_rejects_mismatched_state(self):
        state = small_state()
        layout = StateLayout.from_state(state)
        extra = dict(state)
        extra["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            layout.pack(extra)
        missing = dict(state)
        missing.pop(sorted(missing)[0])
        with pytest.raises(KeyError):
            layout.pack(missing)

    def test_pack_rejects_wrong_shape(self):
        state = small_state()
        layout = StateLayout.from_state(state)
        bad = {k: v.copy() for k, v in state.items()}
        name = sorted(bad)[0]
        bad[name] = np.zeros(bad[name].size + 1)
        with pytest.raises(ValueError):
            layout.pack(bad)

    def test_unpack_rejects_wrong_size(self):
        layout = StateLayout.from_state(small_state())
        with pytest.raises(ValueError):
            unpack(layout, np.zeros(layout.dim + 1))

    def test_layout_is_picklable(self):
        import pickle

        layout = StateLayout.from_state(small_state())
        clone = pickle.loads(pickle.dumps(layout))
        assert clone == layout
        assert clone.dim == layout.dim


class TestModuleDtypePlumbing:
    def test_module_astype_casts_params_and_buffers(self):
        from repro.nn import BatchNorm2d, Sequential

        model = Sequential(BatchNorm2d(3))
        model.astype(np.float32)
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        assert all(
            buf.dtype == np.float32 for _, buf in model.named_buffers()
        )

    def test_float32_state_round_trips_through_model(self):
        """set_state/get_state must not widen a float32 state."""
        model = small_model().astype(np.float32)
        state = get_state(model)
        assert all(arr.dtype == np.float32 for arr in state.values())
        set_state(model, state)
        back = get_state(model)
        assert all(arr.dtype == np.float32 for arr in back.values())

    def test_register_buffer_respects_dtype(self):
        from repro.nn import Module

        class WithBuffer(Module):
            def __init__(self):
                super().__init__()
                self.register_buffer("b", np.zeros(2), dtype=np.float32)

        assert WithBuffer().get_buffer("b").dtype == np.float32
