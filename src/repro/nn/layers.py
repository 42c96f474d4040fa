"""Layer specs: the architecture and parameters of every model.

Every layer is a :class:`Module` that registers its parameters and
buffers and records its hyperparameters; nothing here runs a pass.
:class:`~repro.nn.batched.BatchedModel` and
:func:`~repro.nn.batched.batched_forward` read these specs to push
``(B, dim)`` blocks of flat parameter vectors through the network, and
:class:`~repro.nn.flat.StateLayout` reads the registered arrays to lay
them out. Per-layer forward/backward passes over these specs live in
the test suite, as the float64 oracle the blocked kernel must
reproduce (``tests/reference_nn.py``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.nn import init as init_mod
from repro.nn.tensor import Parameter

__all__ = [
    "Module",
    "Dense",
    "ReLU",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
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
    """Base class for all layer specs and models."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: dict[str, "Module"] = {}

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

    def astype(self, dtype: np.dtype | str) -> "Module":
        """Cast every parameter and buffer of the module tree in place."""
        for _, param in self.named_parameters():
            param.astype(dtype)
        for name, buf in self.named_buffers():
            self.set_buffer(name, buf.astype(dtype, copy=False))
        return self


class Identity(Module):
    """Pass-through layer (the shortcut branch of residual blocks)."""


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


class ReLU(Module):
    """Rectified linear activation."""


class Conv2d(Module):
    """2-D convolution (im2col patches); input and output ``(N, C, H, W)``."""

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


class MaxPool2d(Module):
    """Max pooling with ``kernel == stride`` (non-overlapping windows)."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size


class GlobalAvgPool2d(Module):
    """Average over the spatial dimensions: (N, C, H, W) -> (N, C)."""


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


class Flatten(Module):
    """Reshape (N, ...) to (N, features)."""


class Dropout(Module):
    """Inverted dropout in training; identity in evaluation.

    Masks come from a counter-based generator keyed by ``(stream_seed,
    node, session, step, layer_index)`` (see :func:`mask_stream_rng`),
    drawn per row and step by the blocked kernel. Because the stream is
    a pure function of the key, masks are identical across serial and
    batched execution and survive checkpoint/resume.
    """

    def __init__(self, p: float = 0.5, stream_seed: int = 0):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.stream_seed = int(stream_seed)


class Sequential(Module):
    """Chain of layers executed in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            self.register_child(str(i), layer)

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
