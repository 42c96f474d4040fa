"""Tests for the batched forward/backward over parameter blocks.

The training half is an equivalence harness: for every Table-2 model
family, the blocked train-mode pass (``BatchedModel`` +
``batched_cross_entropy_grad`` + ``BatchedSGD`` via ``BatchedTrainer``)
must reproduce the per-row workspace loop (the per-layer passes, ``CrossEntropyLoss``
and ``SGD`` of ``reference_nn`` via the test suite's reference
``LocalTrainer``) on fixed seeds — bit-exactly in float64, within
rounding in float32.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_nn import (
    SGD,
    CrossEntropyLoss,
    Parameter,
    reference,
    set_state,
)
from reference_trainer import LocalTrainer
from repro.gossip.trainer import BatchedTrainer, TrainerConfig
from repro.nn.batched import (
    BatchedModel,
    batched_forward,
    parameter_column_runs,
    supports_batched_forward,
)
from repro.nn.flat import StateLayout
from repro.nn.layers import Dense, Dropout, Module, ReLU, Sequential
from repro.nn.loss import batched_cross_entropy_grad
from repro.nn.optim import CHUNK_ELEMENTS, BatchedSGD
from repro.nn.models import build_model
from repro.nn.serialize import get_state

ARCHS = [
    ("mlp", dict(in_features=20, num_classes=7, hidden=(16, 8)), (9, 20)),
    ("cnn", dict(in_channels=3, image_size=8, num_classes=5, width=4), (9, 3, 8, 8)),
    ("resnet8", dict(in_channels=3, num_classes=6, width=4), (9, 3, 8, 8)),
]


def make_block(model, n_rows, rng):
    """Distinct random states for every row, packed and kept as dicts."""
    template = get_state(model)
    layout = StateLayout.from_state(template)
    params = np.empty((n_rows, layout.dim))
    states = []
    for b in range(n_rows):
        state = {
            k: rng.normal(size=v.shape) * 0.3
            + (1.0 if "running_var" in k else 0.0)
            for k, v in template.items()
        }
        states.append(state)
        layout.pack(state, out=params[b])
    return layout, params, states


class TestBatchedForward:
    @pytest.mark.parametrize("arch,kwargs,xshape", ARCHS)
    def test_matches_per_model_forward_shared_input(self, arch, kwargs, xshape):
        rng = np.random.default_rng(0)
        model = reference(build_model(arch, **kwargs))
        layout, params, states = make_block(model, 4, rng)
        x = rng.normal(size=xshape)
        out = batched_forward(model, layout, params, x, shared=True)
        model.eval()
        for b, state in enumerate(states):
            set_state(model, state)
            np.testing.assert_allclose(
                out[b], model.forward(x), rtol=1e-9, atol=1e-9
            )

    @pytest.mark.parametrize("arch,kwargs,xshape", ARCHS)
    def test_matches_per_model_forward_per_model_inputs(self, arch, kwargs, xshape):
        rng = np.random.default_rng(1)
        model = reference(build_model(arch, **kwargs))
        layout, params, states = make_block(model, 4, rng)
        xs = rng.normal(size=(4,) + xshape)
        out = batched_forward(model, layout, params, xs, shared=False)
        model.eval()
        for b, state in enumerate(states):
            set_state(model, state)
            np.testing.assert_allclose(
                out[b], model.forward(xs[b]), rtol=1e-9, atol=1e-9
            )

    def test_math_stays_in_block_dtype(self):
        """Float32 parameter blocks are scored in float32 — the arena
        dtype contract — even when the input arrives as float64."""
        rng = np.random.default_rng(2)
        model = build_model("mlp", in_features=10, num_classes=4, hidden=(8,))
        layout, params, _ = make_block(model, 3, rng)
        x = rng.normal(size=(5, 10))
        out32 = batched_forward(model, layout, params.astype(np.float32), x)
        assert out32.dtype == np.float32
        out64 = batched_forward(model, layout, params, x)
        assert out64.dtype == np.float64
        np.testing.assert_allclose(out32, out64, rtol=1e-4, atol=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        b=st.integers(1, 6),
        n=st.integers(1, 9),
        i=st.integers(1, 12),
        o=st.integers(1, 9),
        bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_dense_is_one_gemm_per_model(self, dtype, b, n, i, o, bias, seed):
        """A shared input broadcasts against the weight views: bit for
        bit the per-model GEMMs of the per-model-input branch, with no
        folded (in, B*out) weight copy. The old folded GEMM runs other
        BLAS edge kernels, so it agrees within rounding only."""
        rng = np.random.default_rng(seed)
        model = Sequential(Dense(i, o, bias=bias))
        layout = StateLayout.from_model(model)
        params = rng.normal(size=(b, layout.dim)).astype(dtype)
        x = rng.normal(size=(n, i)).astype(dtype)
        out = batched_forward(model, layout, params, x, shared=True)
        def entry(name):
            slot = layout.slot(name)
            return params[:, slot.offset : slot.offset + slot.size]

        weights = entry("0.weight").reshape(b, i, o)
        per_model = np.stack([x @ weights[k] for k in range(b)])
        folded = (x @ weights.transpose(1, 0, 2).reshape(i, b * o)).reshape(
            n, b, o
        ).transpose(1, 0, 2)
        if bias:
            biases = entry("0.bias")
            per_model += biases[:, None, :]
            folded += biases[:, None, :]
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, per_model)
        np.testing.assert_array_equal(
            out,
            batched_forward(
                model, layout, params, np.broadcast_to(x, (b, n, i)), shared=False
            ),
        )
        eps = np.finfo(dtype).eps
        np.testing.assert_allclose(out, folded, rtol=64 * eps, atol=64 * eps * i)

    def test_rejects_mismatched_block(self):
        model = build_model("mlp", in_features=10, num_classes=4, hidden=(8,))
        layout = StateLayout.from_model(model)
        with pytest.raises(ValueError, match="params"):
            batched_forward(model, layout, np.zeros((2, layout.dim + 1)),
                            np.zeros((3, 10)))

    def test_rejects_wrong_per_model_leading_dim(self):
        model = build_model("mlp", in_features=10, num_classes=4, hidden=(8,))
        layout = StateLayout.from_model(model)
        params = np.zeros((2, layout.dim))
        with pytest.raises(ValueError, match="leading size"):
            batched_forward(model, layout, params, np.zeros((3, 5, 10)),
                            shared=False)


TRAIN_CONFIG = TrainerConfig(
    learning_rate=0.05,
    momentum=0.9,
    weight_decay=5e-4,
    local_epochs=2,
    batch_size=5,
    label_smoothing=0.1,
    lr_decay=0.7,
)


def sample_shape(xshape):
    """Per-sample input shape of one eval-harness entry."""
    return xshape[1:]


def make_training_block(arch, kwargs, xshape, n_rows=4, n=12, seed=0):
    """Distinct states + per-row splits for one model family."""
    rng = np.random.default_rng(seed)
    model = build_model(arch, **kwargs)
    template = get_state(model)
    layout = StateLayout.from_state(template)
    params = np.empty((n_rows, layout.dim))
    states, xs, ys = [], [], []
    num_classes = kwargs["num_classes"]
    for b in range(n_rows):
        state = {
            k: v + 0.1 * rng.normal(size=v.shape)
            for k, v in template.items()
        }
        states.append(state)
        layout.pack(state, out=params[b])
        xs.append(rng.normal(size=(n,) + sample_shape(xshape)))
        ys.append(rng.integers(0, num_classes, size=n))
    return model, layout, params, states, xs, ys


class TestBatchedModelSupport:
    def test_dropout_batches(self):
        # Counter-based mask streams batch with p > 0, and p == 0 is
        # the identity.
        for p in (0.0, 0.3):
            model = Sequential(Dense(10, 8), ReLU(), Dropout(p), Dense(8, 4))
            assert supports_batched_forward(model)
            BatchedModel(model, StateLayout.from_model(model))

    def test_batched_model_refuses_unsupported(self):
        class Weird(Module):
            def forward(self, x):
                return x

        layout = StateLayout.from_state({"w": np.zeros(1)})
        with pytest.raises(ValueError, match="batched backward"):
            BatchedModel(Sequential(Weird()), layout)


class TestParameterColumnRuns:
    def test_runs_cover_exactly_the_parameter_columns(self):
        model = build_model("resnet8", in_channels=3, num_classes=6, width=4)
        layout = StateLayout.from_model(model)
        runs = parameter_column_runs(layout)
        covered = np.zeros(layout.dim, dtype=bool)
        for start, stop in runs:
            assert not covered[start:stop].any()  # runs never overlap
            covered[start:stop] = True
        for slot in layout.slots:
            is_param = not slot.name.startswith("buffer:")
            assert covered[slot.offset : slot.offset + slot.size].all() == is_param

    def test_adjacent_parameter_slots_merge(self):
        layout = StateLayout.from_state(
            {"a": np.zeros(3), "b": np.zeros(2)}
        )
        assert parameter_column_runs(layout) == [(0, 5)]


class TestBatchedModelGradients:
    @pytest.mark.parametrize("arch,kwargs,xshape", ARCHS)
    def test_one_step_matches_per_model_backward(self, arch, kwargs, xshape):
        """Forward logits, loss values, parameter gradients and updated
        BatchNorm running statistics all match the per-model train-mode
        pass bit for bit (float64)."""
        model, layout, params, states, xs, ys = make_training_block(
            arch, kwargs, xshape, n_rows=3, n=6, seed=1
        )
        reference(model)
        loss = CrossEntropyLoss(label_smoothing=0.1)
        serial_logits, serial_losses, serial_grads, serial_buffers = (
            [], [], [], []
        )
        for b, state in enumerate(states):
            set_state(model, state)
            model.train()
            logits = model.forward(xs[b])
            serial_losses.append(loss.forward(logits, ys[b]))
            model.zero_grad()
            model.backward(loss.backward())
            serial_logits.append(logits)
            serial_grads.append(
                {name: p.grad.copy() for name, p in model.named_parameters()}
            )
            serial_buffers.append(
                {
                    "buffer:" + name: buf.copy()
                    for name, buf in model.named_buffers()
                }
            )
        batched = BatchedModel(model, layout)
        logits = batched.forward(params, np.stack(xs))
        losses, grad = batched_cross_entropy_grad(
            logits, np.stack(ys), label_smoothing=0.1
        )
        grads = np.empty_like(params)
        batched.backward(grad, grads)
        for b in range(len(states)):
            np.testing.assert_array_equal(logits[b], serial_logits[b])
            assert losses[b] == serial_losses[b]
            for name, expected in serial_grads[b].items():
                slot = layout.slot(name)
                got = grads[b, slot.offset : slot.offset + slot.size]
                np.testing.assert_array_equal(
                    got.reshape(slot.shape), expected
                )
            # Training-mode BatchNorm updated each row's running stats
            # inside the parameter block.
            for name, expected in serial_buffers[b].items():
                slot = layout.slot(name)
                got = params[b, slot.offset : slot.offset + slot.size]
                np.testing.assert_array_equal(
                    got.reshape(slot.shape), expected
                )

    @pytest.mark.parametrize("arch,kwargs,xshape", ARCHS)
    def test_float32_backward_stays_float32(self, arch, kwargs, xshape):
        """No layer's backward may promote a float32 block to float64
        (regression: MaxPool's int64 tie counts used to). Backward
        stops at the first parameterised layer, so the last gradient it
        computes is the one entering that layer; every gradient on the
        way there is recorded and must stay float32."""
        model, layout, params, states, xs, ys = make_training_block(
            arch, kwargs, xshape, n_rows=2, n=4, seed=7
        )
        params32 = params.astype(np.float32)
        batched = BatchedModel(model, layout)
        entering: list[tuple[str, np.dtype]] = []
        bwd = batched._bwd

        def recording_bwd(module, prefix, grad, gblock, need_input):
            entering.append((prefix, grad.dtype))
            return bwd(module, prefix, grad, gblock, need_input)

        batched._bwd = recording_bwd
        logits = batched.forward(params32, np.stack(xs))
        assert logits.dtype == np.float32
        _, grad = batched_cross_entropy_grad(logits, np.stack(ys))
        grads = np.empty_like(params32)
        assert batched.backward(grad, grads) is None
        assert entering[-1] == ("0.", np.float32)
        assert [p for p, dtype in entering if dtype != np.float32] == []

    def test_backward_before_forward_raises(self):
        model = build_model("mlp", in_features=10, num_classes=4, hidden=(8,))
        layout = StateLayout.from_model(model)
        batched = BatchedModel(model, layout)
        with pytest.raises(RuntimeError, match="before forward"):
            batched.backward(np.zeros((2, 3, 4)), np.zeros((2, layout.dim)))

    def test_forward_rejects_wrong_leading_dim(self):
        model = build_model("mlp", in_features=10, num_classes=4, hidden=(8,))
        layout = StateLayout.from_model(model)
        batched = BatchedModel(model, layout)
        with pytest.raises(ValueError, match="leading size"):
            batched.forward(np.zeros((2, layout.dim)), np.zeros((3, 5, 10)))


class TestBatchedSGD:
    """Every case runs on a block 7 columns wide (one chunk of the
    chunked step) and on one three chunks plus a remainder wide, whose
    steps cross chunk edges."""

    @pytest.fixture(params=[False, True], ids=["one-chunk", "three-chunks"])
    def wide(self, request):
        return request.param

    @staticmethod
    def _block(wide, b=3, dtype=np.float64):
        """``(params, grads, gap)``: a random ``(b, dim)`` block pair and
        a buffer-column range ``[lo, hi)`` that, in the wide block,
        straddles a chunk edge."""
        cols = max(1, CHUNK_ELEMENTS // b)
        dim = 3 * cols + 5 if wide else 7
        gap = (2 * cols - 2, 2 * cols + 3) if wide else (2, 5)
        rng = np.random.default_rng(0)
        params = rng.normal(size=(b, dim)).astype(dtype)
        return params, rng.normal(size=(b, dim)).astype(dtype), gap

    def test_matches_serial_sgd_row_for_row(self, wide):
        params, grads, _ = self._block(wide)
        dim = params.shape[1]
        lrs = np.array([0.1, 0.05, 0.2])
        serial_rows = []
        for b in range(3):
            p = Parameter(params[b].copy())
            p.accumulate(grads[b])
            SGD([p], lr=lrs[b], momentum=0.9, weight_decay=5e-4).step()
            serial_rows.append(p.data)
        opt = BatchedSGD([(0, dim)], lrs, momentum=0.9, weight_decay=5e-4)
        opt.step(params, grads)
        np.testing.assert_array_equal(params, np.stack(serial_rows))

    def test_momentum_accumulates_like_serial(self, wide):
        params, grads, _ = self._block(wide)
        p = Parameter(params[0].copy())
        serial = SGD([p], lr=0.1, momentum=0.9)
        batched = BatchedSGD(
            [(0, params.shape[1])], np.full(3, 0.1), momentum=0.9
        )
        for _ in range(3):
            p.zero_grad()
            p.accumulate(grads[0])
            serial.step()
            batched.step(params, grads)
        np.testing.assert_array_equal(params[0], p.data)

    def test_buffer_columns_never_touched(self, wide):
        params, grads, (lo, hi) = self._block(wide)
        before = params.copy()
        opt = BatchedSGD(
            [(0, lo), (hi, params.shape[1])], np.full(3, 0.1), momentum=0.9,
            weight_decay=5e-4,
        )
        opt.step(params, grads)
        opt.step(params, grads)
        np.testing.assert_array_equal(params[:, lo:hi], before[:, lo:hi])
        assert not np.array_equal(params[:, :lo], before[:, :lo])
        assert not np.array_equal(params[:, hi:], before[:, hi:])

    def test_grads_left_unmodified(self, wide):
        params, grads, _ = self._block(wide)
        before = grads.copy()
        opt = BatchedSGD(
            [(0, params.shape[1])], np.full(3, 0.1), momentum=0.9,
            weight_decay=5e-4,
        )
        opt.step(params, grads)
        opt.step(params, grads)
        np.testing.assert_array_equal(grads, before)

    def test_reset_state_clears_velocity(self, wide):
        params, grads, _ = self._block(wide)
        opt = BatchedSGD(
            [(0, params.shape[1])], np.full(3, 1.0), momentum=0.9
        )
        opt.step(params, grads)
        opt.reset_state()
        fresh = params.copy()
        opt.step(fresh, grads)  # no history: plain -lr*grad again
        np.testing.assert_array_equal(fresh, params - 1.0 * grads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("b", [1, 3])
    def test_three_steps_match_serial_sgd(
        self, wide, b, momentum, weight_decay, dtype
    ):
        """Three steps over two parameter runs around the buffer gap
        equal the per-parameter SGD of each row, bit for bit."""
        params, _, (lo, hi) = self._block(wide, b, dtype)
        dim = params.shape[1]
        lrs = np.array([0.1, 0.05, 0.2][:b])
        rng = np.random.default_rng(1)
        steps = [rng.normal(size=params.shape).astype(dtype) for _ in range(3)]
        serial_rows = []
        for row in range(b):
            parts = [
                Parameter(params[row, a:z].copy(), dtype=dtype)
                for a, z in ((0, lo), (hi, dim))
            ]
            # A Python float lr, so float32 math stays float32 (the
            # batched step casts its lr vector to the block dtype).
            serial = SGD(
                parts, lr=float(lrs[row]), momentum=momentum,
                weight_decay=weight_decay,
            )
            for grads in steps:
                for part, (a, z) in zip(parts, ((0, lo), (hi, dim))):
                    part.zero_grad()
                    part.accumulate(grads[row, a:z])
                serial.step()
            row_out = params[row].copy()
            row_out[:lo], row_out[hi:] = parts[0].data, parts[1].data
            serial_rows.append(row_out)
        opt = BatchedSGD(
            [(0, lo), (hi, dim)], lrs, momentum=momentum,
            weight_decay=weight_decay,
        )
        for grads in steps:
            opt.step(params, grads)
        assert params.dtype == dtype
        np.testing.assert_array_equal(params, np.stack(serial_rows))

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BatchedSGD([(0, 2)], np.array([0.1, -0.1]))
        with pytest.raises(ValueError, match="momentum"):
            BatchedSGD([(0, 2)], np.array([0.1]), momentum=-1.0)
        opt = BatchedSGD([(0, 2)], np.array([0.1, 0.1]))
        with pytest.raises(ValueError, match="blocks"):
            opt.step(np.zeros((3, 2)), np.zeros((3, 2)))

class TestBatchedTrainerParity:
    """The equivalence harness: blocked training reproduces the per-row
    workspace path on fixed seeds for every Table-2 model family."""

    @pytest.mark.parametrize("arch,kwargs,xshape", ARCHS)
    def test_exact_in_float64(self, arch, kwargs, xshape):
        """Momentum, weight decay, label smoothing and per-row lr_decay
        sessions all on: final states must match bit for bit."""
        model, layout, params, states, xs, ys = make_training_block(
            arch, kwargs, xshape, n_rows=4, n=12, seed=2
        )
        sessions = [0, 2, 1, 3]
        serial = np.empty_like(params)
        trainer = LocalTrainer(model, TRAIN_CONFIG)
        for b, state in enumerate(states):
            out = trainer.train(
                state, xs[b], ys[b], np.random.default_rng(50 + b),
                session=sessions[b],
            )
            layout.pack(out, out=serial[b])
        batched = BatchedTrainer(model, TRAIN_CONFIG, layout)
        rngs = [np.random.default_rng(50 + b) for b in range(4)]
        batched.train_block(params, xs, ys, rngs, sessions)
        np.testing.assert_array_equal(params, serial)

    def test_rng_streams_advance_exactly_like_serial(self):
        """Each row's generator must leave train_block in the same state
        the serial path leaves it — downstream draws depend on it."""
        arch, kwargs, xshape = ARCHS[0]
        model, layout, params, states, xs, ys = make_training_block(
            arch, kwargs, xshape, seed=3
        )
        trainer = LocalTrainer(model, TRAIN_CONFIG)
        serial_rngs = [np.random.default_rng(70 + b) for b in range(4)]
        for b, state in enumerate(states):
            trainer.train(state, xs[b], ys[b], serial_rngs[b], session=0)
        batched_rngs = [np.random.default_rng(70 + b) for b in range(4)]
        BatchedTrainer(model, TRAIN_CONFIG, layout).train_block(
            params, xs, ys, batched_rngs, [0] * 4
        )
        for serial_rng, batched_rng in zip(serial_rngs, batched_rngs):
            assert serial_rng.random() == batched_rng.random()

    def test_float32_block_trains_in_float32(self):
        """Block dtype contract: a float32 block stays float32 and lands
        within rounding of the float64 result."""
        arch, kwargs, xshape = ARCHS[0]
        model, layout, params, states, xs, ys = make_training_block(
            arch, kwargs, xshape, seed=4
        )
        params32 = params.astype(np.float32)
        batched = BatchedTrainer(model, TRAIN_CONFIG, layout)
        batched.train_block(
            params, xs, ys,
            [np.random.default_rng(90 + b) for b in range(4)], [0] * 4,
        )
        out32 = batched.train_block(
            params32, xs, ys,
            [np.random.default_rng(90 + b) for b in range(4)], [0] * 4,
        )
        assert out32.dtype == np.float32
        np.testing.assert_allclose(out32, params, rtol=2e-3, atol=2e-3)

    def test_zero_epochs_and_empty_blocks_are_noops(self):
        arch, kwargs, xshape = ARCHS[0]
        model, layout, params, states, xs, ys = make_training_block(
            arch, kwargs, xshape, seed=5
        )
        config = TrainerConfig(learning_rate=0.1, local_epochs=0, batch_size=4)
        before = params.copy()
        batched = BatchedTrainer(model, config, layout)
        batched.train_block(
            params, xs, ys, [np.random.default_rng(b) for b in range(4)],
            [0] * 4,
        )
        np.testing.assert_array_equal(params, before)
        empty = np.empty((0, layout.dim))
        assert batched.train_block(empty, [], [], [], []) is empty

    def test_rejects_ragged_blocks(self):
        arch, kwargs, xshape = ARCHS[0]
        model, layout, params, states, xs, ys = make_training_block(
            arch, kwargs, xshape, seed=6
        )
        batched = BatchedTrainer(model, TRAIN_CONFIG, layout)
        rngs = [np.random.default_rng(b) for b in range(4)]
        ragged = [x[: 3 + b] for b, x in enumerate(xs)]
        with pytest.raises(ValueError, match="same number of samples"):
            batched.train_block(params, ragged, ys, rngs, [0] * 4)
        with pytest.raises(ValueError, match="one entry|per row|per block"):
            batched.train_block(params, xs[:2], ys, rngs, [0] * 4)

    @pytest.mark.parametrize("arch,kwargs,xshape", ARCHS)
    def test_dp_exact_in_float64(self, arch, kwargs, xshape):
        """One-pass DP-SGD (every sample its own microbatch of one in a
        single per-sample pass, then clip and sum sample by sample) must
        reproduce the serial per-sample loop bit for bit: on 4, 1 and 3
        rows, with label smoothing, a batch tail of exactly one sample
        (11 samples in batches of 5), the BatchNorm statistics fold for
        the conv families and stream dropout on the MLP."""
        from repro.privacy.dp import DPSGDConfig

        dp_config = TrainerConfig(
            learning_rate=0.05,
            momentum=0.9,
            weight_decay=5e-4,
            local_epochs=2,
            batch_size=5,
            label_smoothing=0.1,
            dp=DPSGDConfig(clip_norm=1.0, noise_multiplier=0.7),
        )
        variants = [kwargs]
        if arch == "mlp":
            variants.append(dict(kwargs, dropout=0.3))
        for model_kwargs in variants:
            for n_rows, n in ((4, 12), (1, 11), (3, 11)):
                model, layout, params, states, xs, ys = make_training_block(
                    arch, model_kwargs, xshape, n_rows=n_rows, n=n, seed=8
                )
                node_ids = [5 + b for b in range(n_rows)]
                serial = np.empty_like(params)
                trainer = LocalTrainer(model, dp_config)
                for b, state in enumerate(states):
                    out = trainer.train(
                        state, xs[b], ys[b], np.random.default_rng(30 + b),
                        node_id=node_ids[b], session=0,
                    )
                    layout.pack(out, out=serial[b])
                batched = BatchedTrainer(model, dp_config, layout)
                rngs = [np.random.default_rng(30 + b) for b in range(n_rows)]
                batched.train_block(
                    params, xs, ys, rngs, [0] * n_rows, node_ids=node_ids
                )
                np.testing.assert_array_equal(
                    params, serial,
                    err_msg=f"{n_rows} rows, {n} samples, {model_kwargs}",
                )

    def test_dp_runs_blocked(self):
        # DP-SGD no longer falls back per row: the vectorized
        # per-sample-gradient path trains the whole block.
        from repro.privacy.dp import DPSGDConfig

        arch, kwargs, xshape = ARCHS[0]
        model, layout, params, states, xs, ys = make_training_block(
            arch, kwargs, xshape, seed=6
        )
        dp_config = TrainerConfig(
            learning_rate=0.1, batch_size=4,
            dp=DPSGDConfig(clip_norm=1.0, noise_multiplier=0.1),
        )
        trainer = BatchedTrainer(model, dp_config, layout)
        rngs = [np.random.default_rng(b) for b in range(4)]
        before = params.copy()
        out = trainer.train_block(params, xs, ys, rngs, [0] * 4)
        assert trainer.steps_taken > 0
        assert not np.array_equal(out, before)


class TestSupportsBatchedForward:
    def test_table2_families_supported(self):
        for arch, kwargs, _ in ARCHS:
            assert supports_batched_forward(build_model(arch, **kwargs))

    def test_unknown_layer_rejected(self):
        class Weird(Module):
            def forward(self, x):
                return x

        assert not supports_batched_forward(Sequential(Dense(4, 2), Weird()))

    def test_unknown_layer_raises_at_forward(self):
        class Weird(Module):
            def forward(self, x):
                return x

        model = Sequential(Weird())
        layout = StateLayout.from_state({"w": np.zeros(1)})
        with pytest.raises(NotImplementedError):
            batched_forward(model, layout, np.zeros((1, 1)), np.zeros((2, 3)))
