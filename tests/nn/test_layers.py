"""Layer tests, including finite-difference gradient checks.

Every layer's backward pass is verified against central finite
differences through a scalar head (sum of outputs weighted by a fixed
random projection), which exercises arbitrary output gradients.
"""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    MaxPool2d,
    Module,
    ReLU,
    Residual,
    Sequential,
)


def check_input_gradient(layer, x, fd_grad, atol=1e-6):
    """Compare layer.backward's input gradient to finite differences."""
    rng = np.random.default_rng(0)
    out = layer.forward(x)
    proj = rng.normal(size=out.shape)

    def scalar():
        return float((layer.forward(x) * proj).sum())

    numeric = fd_grad(scalar, x)
    layer.forward(x)
    analytic = layer.backward(proj)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


def check_param_gradients(layer, x, fd_grad, atol=1e-6):
    """Compare parameter gradients to finite differences."""
    rng = np.random.default_rng(1)
    out = layer.forward(x)
    proj = rng.normal(size=out.shape)

    def scalar():
        return float((layer.forward(x) * proj).sum())

    for param in layer.parameters():
        numeric = fd_grad(scalar, param.data)
        layer.zero_grad()
        layer.forward(x)
        layer.backward(proj)
        np.testing.assert_allclose(
            param.grad, numeric, atol=atol, err_msg=f"param {param.name}"
        )


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(5, 3, rng=rng)
        assert layer.forward(rng.normal(size=(4, 5))).shape == (4, 3)

    def test_rejects_wrong_input(self, rng):
        layer = Dense(5, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(4, 6)))

    def test_input_gradient(self, rng, fd_grad):
        layer = Dense(4, 3, rng=rng)
        check_input_gradient(layer, rng.normal(size=(2, 4)), fd_grad)

    def test_param_gradients(self, rng, fd_grad):
        layer = Dense(4, 3, rng=rng)
        check_param_gradients(layer, rng.normal(size=(2, 4)), fd_grad)

    def test_no_bias_variant(self, rng):
        layer = Dense(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_backward_before_forward_raises(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 3)))


class TestConv2d:
    def test_forward_shape_with_padding(self, rng):
        layer = Conv2d(3, 8, kernel_size=3, padding=1, rng=rng)
        assert layer.forward(rng.normal(size=(2, 3, 8, 8))).shape == (2, 8, 8, 8)

    def test_forward_shape_with_stride(self, rng):
        layer = Conv2d(3, 8, kernel_size=3, stride=2, padding=1, rng=rng)
        assert layer.forward(rng.normal(size=(2, 3, 8, 8))).shape == (2, 8, 4, 4)

    def test_rejects_wrong_channels(self, rng):
        layer = Conv2d(3, 8, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(1, 4, 8, 8)))

    def test_matches_naive_convolution(self, rng):
        layer = Conv2d(2, 3, kernel_size=3, stride=1, padding=0, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = layer.forward(x)
        # Naive direct computation.
        w, b = layer.weight.data, layer.bias.data
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    patch = x[0, :, i : i + 3, j : j + 3]
                    expected = (patch * w[oc]).sum() + b[oc]
                    assert out[0, oc, i, j] == pytest.approx(expected)

    def test_input_gradient(self, rng, fd_grad):
        layer = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=rng)
        check_input_gradient(layer, rng.normal(size=(2, 2, 5, 5)), fd_grad)

    def test_input_gradient_strided(self, rng, fd_grad):
        layer = Conv2d(2, 2, kernel_size=3, stride=2, padding=1, rng=rng)
        check_input_gradient(layer, rng.normal(size=(1, 2, 6, 6)), fd_grad)

    def test_param_gradients(self, rng, fd_grad):
        layer = Conv2d(2, 2, kernel_size=3, stride=1, padding=1, rng=rng)
        check_param_gradients(layer, rng.normal(size=(1, 2, 4, 4)), fd_grad)


class TestMaxPool2d:
    def test_forward_values(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_rejects_indivisible(self, rng):
        layer = MaxPool2d(2)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(1, 1, 5, 5)))

    def test_input_gradient(self, rng, fd_grad):
        layer = MaxPool2d(2)
        # Distinct values avoid finite-difference kinks at ties.
        x = rng.permutation(64).astype(float).reshape(1, 1, 8, 8) * 0.1
        check_input_gradient(layer, x, fd_grad, atol=1e-5)

    def test_gradient_goes_to_max_position(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x)
        grad = layer.backward(np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(grad[0, 0], [[0, 0], [0, 1.0]])


class TestGlobalAvgPool2d:
    def test_forward(self, rng):
        layer = GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(layer.forward(x), x.mean(axis=(2, 3)))

    def test_input_gradient(self, rng, fd_grad):
        layer = GlobalAvgPool2d()
        check_input_gradient(layer, rng.normal(size=(2, 2, 3, 3)), fd_grad)


class TestBatchNorm2d:
    def test_train_normalizes_batch(self, rng):
        layer = BatchNorm2d(3)
        x = rng.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4))
        out = layer.forward(x)
        assert out.mean(axis=(0, 2, 3)) == pytest.approx(np.zeros(3), abs=1e-10)
        assert out.var(axis=(0, 2, 3)) == pytest.approx(np.ones(3), rel=1e-3)

    def test_running_stats_update(self, rng):
        layer = BatchNorm2d(2, momentum=0.5)
        x = rng.normal(loc=2.0, size=(16, 2, 4, 4))
        layer.forward(x)
        mean = layer.get_buffer("running_mean")
        assert np.all(mean != 0)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2)
        for _ in range(50):
            layer.forward(rng.normal(loc=1.0, size=(8, 2, 4, 4)))
        layer.eval()
        x = rng.normal(loc=1.0, size=(4, 2, 4, 4))
        out = layer.forward(x)
        # Output should be roughly standardized using running stats.
        assert abs(out.mean()) < 0.3

    def test_input_gradient_training(self, rng, fd_grad):
        layer = BatchNorm2d(2)
        check_input_gradient(layer, rng.normal(size=(4, 2, 3, 3)), fd_grad, atol=1e-5)

    def test_param_gradients(self, rng, fd_grad):
        layer = BatchNorm2d(2)
        x = rng.normal(size=(4, 2, 3, 3))
        # Freeze running-stat updates' effect on the scalar by checking
        # gamma/beta only (they do not affect normalization statistics).
        check_param_gradients(layer, x, fd_grad, atol=1e-5)

    def test_rejects_wrong_channels(self, rng):
        layer = BatchNorm2d(3)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(2, 4, 3, 3)))


class TestFlattenDropoutIdentity:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4, 4))
        out = layer.forward(x)
        assert out.shape == (3, 32)
        np.testing.assert_array_equal(layer.backward(out), x)

    def test_dropout_eval_is_identity(self, rng):
        layer = Dropout(0.5)
        layer.eval()
        x = rng.normal(size=(10, 10))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_stream_dropout_preserves_expectation(self):
        from repro.nn.layers import mask_stream_rng

        layer = Dropout(0.5)
        layer.set_mask_rng(mask_stream_rng(0, node=3, session=1, step=0, layer_index=0))
        x = np.ones((200, 200))
        out = layer.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_stream_dropout_without_stream_raises(self):
        layer = Dropout(0.5)
        with pytest.raises(RuntimeError, match="mask stream"):
            layer.forward(np.ones((4, 4)))

    def test_stream_dropout_is_reproducible(self):
        from repro.nn.layers import mask_stream_rng

        x = np.ones((8, 8))
        outs = []
        for _ in range(2):
            layer = Dropout(0.5)
            layer.set_mask_rng(
                mask_stream_rng(7, node=2, session=5, step=1, layer_index=0)
            )
            outs.append(layer.forward(x))
        np.testing.assert_array_equal(outs[0], outs[1])
        other = Dropout(0.5)
        other.set_mask_rng(
            mask_stream_rng(7, node=2, session=5, step=2, layer_index=0)
        )
        assert not np.array_equal(outs[0], other.forward(x))

    def test_dropout_mask_keeps_float32(self):
        from repro.nn.layers import mask_stream_rng

        layer = Dropout(0.5)
        layer.set_mask_rng(mask_stream_rng(0, 0, 0, 0, 0))
        out = layer.forward(np.ones((4, 4), dtype=np.float32))
        assert out.dtype == np.float32

    def test_dropout_rejects_bad_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        # The stateful "legacy" mode is gone; Dropout takes no mode.
        with pytest.raises(TypeError):
            Dropout(0.5, mode="legacy")

    def test_identity(self, rng):
        layer = Identity()
        x = rng.normal(size=(2, 2))
        np.testing.assert_array_equal(layer.forward(x), x)
        np.testing.assert_array_equal(layer.backward(x), x)


class TestSequentialResidual:
    def test_sequential_chains(self, rng):
        model = Sequential(Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng))
        assert model.forward(rng.normal(size=(3, 4))).shape == (3, 2)
        assert len(model) == 3

    def test_sequential_gradient(self, rng, fd_grad):
        model = Sequential(Dense(3, 5, rng=rng), ReLU(), Dense(5, 2, rng=rng))
        check_input_gradient(model, rng.normal(size=(2, 3)), fd_grad)

    def test_sequential_param_gradients(self, rng, fd_grad):
        model = Sequential(Dense(3, 4, rng=rng), ReLU(), Dense(4, 2, rng=rng))
        check_param_gradients(model, rng.normal(size=(2, 3)), fd_grad)

    def test_residual_forward_adds_shortcut(self, rng):
        block = Residual(Identity())
        x = np.abs(rng.normal(size=(2, 3)))  # positive so relu is linear
        np.testing.assert_allclose(block.forward(x), 2 * x)

    def test_residual_gradient(self, rng, fd_grad):
        block = Residual(Dense(4, 4, rng=rng))
        check_input_gradient(block, rng.normal(size=(2, 4)), fd_grad)

    def test_residual_with_projection_shortcut(self, rng, fd_grad):
        block = Residual(Dense(4, 6, rng=rng), shortcut=Dense(4, 6, rng=rng))
        check_input_gradient(block, rng.normal(size=(2, 4)), fd_grad)

    def test_named_parameters_are_qualified(self, rng):
        model = Sequential(Dense(2, 2, rng=rng), Dense(2, 2, rng=rng))
        names = [name for name, _ in model.named_parameters()]
        assert "0.weight" in names
        assert "1.bias" in names

    def test_train_eval_propagate(self, rng):
        model = Sequential(Dense(2, 2, rng=rng), Dropout(0.5), BatchNorm2d(1))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())


class TestModuleBase:
    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module().forward(np.zeros(1))

    def test_set_buffer_unknown_name(self):
        layer = BatchNorm2d(2)
        with pytest.raises(KeyError):
            layer.set_buffer("nonexistent", np.zeros(2))

    def test_zero_grad_clears_all(self, rng):
        model = Sequential(Dense(3, 3, rng=rng), Dense(3, 3, rng=rng))
        x = rng.normal(size=(2, 3))
        model.forward(x)
        model.backward(np.ones((2, 3)))
        assert any(np.any(p.grad != 0) for p in model.parameters())
        model.zero_grad()
        assert all(np.all(p.grad == 0) for p in model.parameters())
