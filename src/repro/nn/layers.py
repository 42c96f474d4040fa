"""Neural-network layers with explicit forward/backward passes.

Every layer is a :class:`Module`. ``forward`` caches whatever the
corresponding ``backward`` needs; ``backward`` accumulates parameter
gradients into :class:`~repro.nn.tensor.Parameter` objects and returns
the gradient with respect to the layer input so callers can chain
layers without a tape.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn import init as init_mod
from repro.nn.tensor import Parameter

__all__ = [
    "Module",
    "Dense",
    "ReLU",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "BatchNorm2d",
    "Flatten",
    "Dropout",
    "Sequential",
    "Residual",
    "Identity",
    "mask_stream_rng",
    "stream_dropout_layers",
]

_U64 = (1 << 64) - 1


def mask_stream_rng(
    seed: int, node: int, session: int, step: int, layer_index: int
) -> np.random.Generator:
    """Counter-based generator for one dropout layer at one train step.

    The stream is a pure function of ``(seed, node, session, step,
    layer_index)``: the same key always yields the same masks, no matter
    which executor draws them, in which order the nodes are processed,
    or whether the run was checkpointed and resumed in between.
    """
    entropy = (
        int(seed) & _U64,
        int(node) & _U64,
        int(session) & _U64,
        int(step) & _U64,
        int(layer_index) & _U64,
    )
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def stream_dropout_layers(model: "Module") -> list["Dropout"]:
    """Active (``p > 0``) dropout layers of ``model``, in modules() order.

    The position in this list is the ``layer_index`` of the layer's mask
    stream key.
    """
    return [
        m
        for m in model.modules()
        if isinstance(m, Dropout) and m.p > 0.0
    ]


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: dict[str, "Module"] = {}
        self.training = True

    # -- registration -------------------------------------------------

    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        param.name = name
        self._parameters[name] = param
        return param

    def register_buffer(
        self, name: str, value: np.ndarray, dtype: np.dtype | str = np.float64
    ) -> np.ndarray:
        self._buffers[name] = np.asarray(value, dtype=dtype)
        return self._buffers[name]

    def register_child(self, name: str, child: "Module") -> "Module":
        self._children[name] = child
        return child

    # -- traversal ----------------------------------------------------

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for child_name, child in self._children.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for child_name, child in self._children.items():
            yield from child.named_buffers(prefix + child_name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._children.values():
            yield from child.modules()

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace a buffer found by its qualified ``name``.

        Floating dtypes are preserved (float32 states must round-trip
        unwidened); anything else is promoted to float64 as before.
        """
        parts = name.split(".")
        module: Module = self
        for part in parts[:-1]:
            module = module._children[part]
        if parts[-1] not in module._buffers:
            raise KeyError(f"no buffer named {name!r}")
        arr = np.asarray(value)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        module._buffers[parts[-1]] = arr

    def get_buffer(self, name: str) -> np.ndarray:
        parts = name.split(".")
        module: Module = self
        for part in parts[:-1]:
            module = module._children[part]
        return module._buffers[parts[-1]]

    # -- train / eval -------------------------------------------------

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def astype(self, dtype: np.dtype | str) -> "Module":
        """Cast every parameter and buffer of the module tree in place."""
        for _, param in self.named_parameters():
            param.astype(dtype)
        for name, buf in self.named_buffers():
            self.set_buffer(name, buf.astype(dtype, copy=False))
        return self

    # -- interface ----------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Identity(Module):
    """Pass-through layer (the shortcut branch of residual blocks)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Dense(Module):
    """Fully connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Parameter(init_mod.kaiming_normal((in_features, out_features), rng))
        )
        self.bias: Parameter | None = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(np.zeros(out_features))
            )
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected (N, {self.in_features}), got {x.shape}"
            )
        self._x = x
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.accumulate(self._x.T @ grad_out)
        if self.bias is not None:
            self.bias.accumulate(grad_out.sum(axis=0))
        return grad_out @ self.weight.data.T


class ReLU(Module):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return F.relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        return grad_out * F.relu_grad(self._x)


class Conv2d(Module):
    """2-D convolution implemented with im2col.

    Input and output are ``(N, C, H, W)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        weight = init_mod.kaiming_normal(
            (out_channels, in_channels, kernel_size, kernel_size), rng
        )
        self.weight = self.register_parameter("weight", Parameter(weight))
        self.bias: Parameter | None = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(np.zeros(out_channels))
            )
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        cols, out_h, out_w = F.im2col(x, self.kernel_size, self.stride, self.padding)
        self._cols = cols
        self._x_shape = x.shape
        n = x.shape[0]
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = np.einsum("ok,nkp->nop", w_mat, cols)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None]
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, _, out_h, out_w = grad_out.shape
        grad_flat = grad_out.reshape(n, self.out_channels, out_h * out_w)
        # dW = sum_n dY_n . cols_n^T
        grad_w = np.einsum("nop,nkp->ok", grad_flat, self._cols)
        self.weight.accumulate(grad_w.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate(grad_flat.sum(axis=(0, 2)))
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = np.einsum("ok,nop->nkp", w_mat, grad_flat)
        return F.col2im(
            grad_cols, self._x_shape, self.kernel_size, self.stride, self.padding
        )


class MaxPool2d(Module):
    """Max pooling with ``kernel == stride`` (non-overlapping windows)."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size
        self._mask: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(
                f"MaxPool2d requires H and W divisible by {k}, got {x.shape}"
            )
        out_h, out_w = h // k, w // k
        windows = x.reshape(n, c, out_h, k, out_w, k)
        out = windows.max(axis=(3, 5))
        self._mask = windows == out[:, :, :, None, :, None]
        self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        k = self.kernel_size
        # Ties route the gradient to every maximal element; dividing by the
        # tie count keeps the operator a true adjoint. Counts are cast to
        # the gradient dtype — an int64 divisor would promote a float32
        # backward pass to float64.
        counts = self._mask.sum(axis=(3, 5), keepdims=True).astype(
            grad_out.dtype
        )
        expanded = (
            grad_out[:, :, :, None, :, None] * self._mask / counts
        )
        return expanded.reshape(n, c, h, w)


class AvgPool2d(Module):
    """Average pooling with ``kernel == stride`` (non-overlapping)."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(
                f"AvgPool2d requires H and W divisible by {k}, got {x.shape}"
            )
        self._x_shape = x.shape
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        k = self.kernel_size
        scale = 1.0 / (k * k)
        expanded = np.broadcast_to(
            grad_out[:, :, :, None, :, None] * scale,
            (n, c, h // k, k, w // k, k),
        )
        return expanded.reshape(n, c, h, w).copy()


class LeakyReLU(Module):
    """Leaky rectified linear unit: x if x > 0 else slope * x."""

    def __init__(self, slope: float = 0.01):
        super().__init__()
        if slope < 0:
            raise ValueError("slope must be non-negative")
        self.slope = slope
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return np.where(x > 0, x, self.slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        return grad_out * np.where(self._x > 0, 1.0, self.slope)


class Sigmoid(Module):
    """Logistic activation."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable piecewise evaluation, in the input's
        # floating dtype (float32 activations stay float32).
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.floating):
            x = x.astype(np.float64)
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class GlobalAvgPool2d(Module):
    """Average over the spatial dimensions: (N, C, H, W) -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        scale = 1.0 / (h * w)
        return np.broadcast_to(
            grad_out[:, :, None, None] * scale, (n, c, h, w)
        ).copy()


class BatchNorm2d(Module):
    """Batch normalization over the channel dimension of (N, C, H, W).

    Running statistics are stored as buffers so they travel with the
    model state during gossip averaging.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.register_parameter("gamma", Parameter(np.ones(num_features)))
        self.beta = self.register_parameter("beta", Parameter(np.zeros(num_features)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self._buffers["running_mean"] = (
                (1 - self.momentum) * self._buffers["running_mean"]
                + self.momentum * mean
            )
            self._buffers["running_var"] = (
                (1 - self.momentum) * self._buffers["running_var"]
                + self.momentum * var
            )
        else:
            mean = self._buffers["running_mean"]
            var = self._buffers["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, x.shape)
        return (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, shape = self._cache
        n, c, h, w = shape
        m = n * h * w
        self.gamma.accumulate((grad_out * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate(grad_out.sum(axis=(0, 2, 3)))
        g = grad_out * self.gamma.data[None, :, None, None]
        if not self.training:
            return g * inv_std[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        return (
            inv_std[None, :, None, None]
            * (g - sum_g / m - x_hat * sum_gx / m)
        )


class Flatten(Module):
    """Reshape (N, ...) to (N, features)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._x_shape)


class Dropout(Module):
    """Inverted dropout; identity when not training.

    Masks come from a counter-based generator keyed by ``(stream_seed,
    node, session, step, layer_index)`` and installed by the trainer
    before every optimizer step via :meth:`set_mask_rng` (see
    :func:`mask_stream_rng`). Because the stream is a pure function of
    the key, masks are identical across serial, batched and sharded
    execution and survive checkpoint/resume — which is what makes
    ``p > 0`` batchable.
    """

    def __init__(self, p: float = 0.5, stream_seed: int = 0):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.stream_seed = int(stream_seed)
        self._stream_rng: np.random.Generator | None = None
        self._mask: np.ndarray | None = None

    def set_mask_rng(self, rng: np.random.Generator | None) -> None:
        """Install the per-step stream generator.

        The generator persists across every forward within the step, so
        DP-SGD's per-sample microbatch forwards consume consecutive
        draws from the same stream — exactly matching one blocked
        ``(n_samples, ...)`` draw.
        """
        self._stream_rng = rng

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        rng = self._stream_rng
        if rng is None:
            raise RuntimeError(
                "Dropout used without a mask stream; call "
                "set_mask_rng() (see mask_stream_rng) before training"
            )
        keep = 1.0 - self.p
        mask = (rng.random(x.shape) < keep) / keep
        if np.issubdtype(x.dtype, np.floating):
            # Keep float32 activations float32 (a float64 mask would
            # silently promote the rest of the forward pass).
            mask = mask.astype(x.dtype, copy=False)
        self._mask = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Sequential(Module):
    """Chain of layers executed in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            self.register_child(str(i), layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterable[Module]:
        return iter(self.layers)


class Residual(Module):
    """Residual block: ``y = relu(body(x) + shortcut(x))``."""

    def __init__(self, body: Module, shortcut: Module | None = None):
        super().__init__()
        self.body = self.register_child("body", body)
        self.shortcut = self.register_child("shortcut", shortcut or Identity())
        self._pre_relu: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.body.forward(x) + self.shortcut.forward(x)
        self._pre_relu = out
        return F.relu(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._pre_relu is None:
            raise RuntimeError("backward called before forward")
        grad = grad_out * F.relu_grad(self._pre_relu)
        return self.body.backward(grad) + self.shortcut.backward(grad)
