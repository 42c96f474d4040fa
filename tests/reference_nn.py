"""Per-layer passes and dict states: the test suite's float64 oracle.

``src/`` runs every model on one blocked kernel: the layer classes of
:mod:`repro.nn.layers` are specs, and
:class:`~repro.nn.batched.BatchedModel`,
:class:`~repro.nn.optim.BatchedSGD` and
:class:`~repro.metrics.evaluation.BatchedEvaluator` push ``(B, dim)``
blocks of flat parameter vectors through them. This module keeps the
independent implementation the kernel must reproduce bit for bit in
float64: one model at a time, layer by layer.

* **Layers** — one twin per spec class (``Dense`` here is
  :class:`repro.nn.layers.Dense` plus ``forward``/``backward`` and the
  activation caches). Build them directly, or give a spec model (e.g.
  from :func:`~repro.nn.models.build_model`) its passes in place with
  :func:`reference`. Parameters carry their gradients
  (:class:`Parameter`), and ``train()``/``eval()`` switch BatchNorm and
  Dropout.
* **Training and scoring** — :class:`SGD`, :class:`CrossEntropyLoss`,
  :func:`predict_proba`, :func:`accuracy`, :func:`generalization_error`.
* **Dict states** — :func:`set_state`, :func:`state_to_vector`,
  :func:`vector_to_state`, :func:`average_states`, and
  :func:`unpack`, a dict of views over one flat vector.
* :class:`ReferenceShadowAttack` — the shadow-model attack trained and
  scored on these passes.

Three throughput gates time this code as their baseline (evaluation
through :func:`predict_proba`, aggregation and pairwise merge through
:func:`average_states`), so it keeps the numpy calls, in the same
order, that ``src/`` made when it ran them.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn import functional as F
from repro.nn import layers
from repro.nn import tensor
from repro.nn.flat import StateLayout
from repro.nn.serialize import State, get_state
from repro.privacy.shadow import ShadowModelAttack


# ---------------------------------------------------------------------------
# Parameters with gradients
# ---------------------------------------------------------------------------


class Parameter(tensor.Parameter):
    """A trainable array together with its accumulated gradient.

    ``requires_grad=False`` makes :class:`SGD` skip the parameter.
    """

    __slots__ = ("grad", "requires_grad")

    def __init__(
        self,
        data: np.ndarray,
        name: str = "",
        requires_grad: bool = True,
        dtype: np.dtype | str = np.float64,
    ):
        super().__init__(data, name=name, dtype=dtype)
        self.grad = np.zeros_like(self.data)
        self.requires_grad = requires_grad

    def astype(self, dtype: np.dtype | str) -> "Parameter":
        """Cast value and gradient in place; returns self for chaining."""
        super().astype(dtype)
        self.grad = self.grad.astype(dtype, copy=False)
        return self

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad[...] = 0.0

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` to the stored gradient (shape-checked)."""
        grad = np.asarray(grad)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{self.name!r} shape {self.data.shape}"
            )
        self.grad += grad

    def copy(self) -> "Parameter":
        """Deep copy (data and gradient)."""
        out = Parameter(self.data.copy(), name=self.name, requires_grad=self.requires_grad)
        out.grad = self.grad.copy()
        return out


# ---------------------------------------------------------------------------
# Layers with per-layer passes
# ---------------------------------------------------------------------------


class Module(layers.Module):
    """A layer spec with an explicit forward/backward pass.

    ``forward`` caches whatever the corresponding ``backward`` needs;
    ``backward`` accumulates parameter gradients into the
    :class:`Parameter` objects and returns the gradient with respect to
    the layer input, so callers chain layers without a tape. Caches
    default to class attributes, so a spec converted by
    :func:`reference` needs no constructor run.
    """

    training = True

    def register_parameter(self, name: str, param: tensor.Parameter) -> Parameter:
        """Register ``param`` as a gradient-carrying :class:`Parameter`
        sharing its value array."""
        return super().register_parameter(
            name, Parameter(param.data, name=param.name, dtype=param.data.dtype)
        )

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Identity(Module, layers.Identity):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Dense(Module, layers.Dense):
    _x: np.ndarray | None = None

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


class ReLU(Module, layers.ReLU):
    _x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return F.relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        return grad_out * F.relu_grad(self._x)


class Conv2d(Module, layers.Conv2d):
    _cols: np.ndarray | None = None
    _x_shape: tuple[int, int, int, int] | None = None

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


class MaxPool2d(Module, layers.MaxPool2d):
    _mask: np.ndarray | None = None
    _x_shape: tuple[int, ...] | None = None

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


class GlobalAvgPool2d(Module, layers.GlobalAvgPool2d):
    _x_shape: tuple[int, ...] | None = None

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


class BatchNorm2d(Module, layers.BatchNorm2d):
    _cache: tuple | None = None

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


class Flatten(Module, layers.Flatten):
    _x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._x_shape)


class Dropout(Module, layers.Dropout):
    """Masks come from the generator installed by :meth:`set_mask_rng`
    before every optimizer step (see
    :func:`~repro.nn.layers.mask_stream_rng`)."""

    _stream_rng: np.random.Generator | None = None
    _mask: np.ndarray | None = None

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


class Sequential(Module, layers.Sequential):
    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


class Residual(Module, layers.Residual):
    _pre_relu: np.ndarray | None = None

    def __init__(self, body: Module, shortcut: Module | None = None):
        super().__init__(body, shortcut or Identity())

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.body.forward(x) + self.shortcut.forward(x)
        self._pre_relu = out
        return F.relu(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._pre_relu is None:
            raise RuntimeError("backward called before forward")
        grad = grad_out * F.relu_grad(self._pre_relu)
        return self.body.backward(grad) + self.shortcut.backward(grad)


# Spec class -> its twin here.
_TWINS = {
    twin.__bases__[1]: twin
    for twin in (
        Identity, Dense, ReLU, Conv2d, MaxPool2d, GlobalAvgPool2d,
        BatchNorm2d, Flatten, Dropout, Sequential, Residual,
    )
}


def reference(model: layers.Module) -> Module:
    """Give a spec model its per-layer passes, in place; returns it.

    Every module becomes its twin here, and every parameter a
    :class:`Parameter` sharing its value array, so the model keeps its
    state and still works wherever ``src/`` takes a spec. Idempotent.
    """
    for module in model.modules():
        if isinstance(module, Module):
            continue
        module.__class__ = _TWINS[type(module)]
        for name, param in list(module._parameters.items()):
            setattr(module, name, module.register_parameter(name, param))
    return model


# ---------------------------------------------------------------------------
# Training and scoring one model
# ---------------------------------------------------------------------------


def one_hot(
    labels: np.ndarray, num_classes: int, dtype: np.dtype | str = np.float64
) -> np.ndarray:
    """Return the one-hot encoding of integer ``labels``.

    ``dtype`` selects the output dtype — the cross-entropy loss passes
    its logits dtype so float32 training stays float32 end to end.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    ``forward`` returns the mean loss; ``backward`` returns the gradient
    with respect to the logits (already divided by the batch size, so it
    composes directly with ``Module.backward``). Computes in the logits
    dtype.
    """

    def __init__(self, label_smoothing: float = 0.0):
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.label_smoothing = label_smoothing
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, C), got {logits.shape}")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != logits.shape[0]:
            raise ValueError("batch size mismatch between logits and labels")
        num_classes = logits.shape[1]
        log_probs = F.log_softmax(logits, axis=1)
        targets = one_hot(labels, num_classes, dtype=log_probs.dtype)
        if self.label_smoothing > 0.0:
            eps = self.label_smoothing
            targets = (1.0 - eps) * targets + eps / num_classes
        self._probs = np.exp(log_probs)
        self._targets = targets
        return float(-(targets * log_probs).sum(axis=1).mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        n = self._probs.shape[0]
        return (self._probs - self._targets) / n

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)


class SGD:
    """Stochastic gradient descent with momentum and weight decay.

    The update matches PyTorch's convention: weight decay is added to
    the gradient, momentum buffers accumulate the decayed gradient, and
    (optionally) Nesterov lookahead is applied.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        if nesterov and momentum == 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        for i, param in enumerate(self.params):
            if not param.requires_grad:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                buf = self._velocity.get(i)
                if buf is None:
                    buf = grad.copy()
                else:
                    buf = self.momentum * buf + grad
                self._velocity[i] = buf
                grad = grad + self.momentum * buf if self.nesterov else buf
            param.data -= self.lr * grad

    def reset_state(self) -> None:
        """Drop momentum buffers."""
        self._velocity.clear()


def _model_dtype(model: Module) -> np.dtype:
    """The dtype evaluation math should run in (first parameter's)."""
    for param in model.parameters():
        return param.data.dtype
    return np.dtype(np.float64)


def predict_proba(
    model: Module, x: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """Softmax probabilities in eval mode, batched to bound memory.

    Inputs are cast to the model's parameter dtype so a float32 model
    is scored in float32 rather than letting float64 eval data promote
    every activation.
    """
    was_training = model.training
    model.eval()
    x = np.asarray(x, dtype=_model_dtype(model))
    try:
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            logits = model.forward(x[start : start + batch_size])
            outputs.append(F.softmax(logits, axis=1))
        return np.concatenate(outputs) if outputs else np.empty((0, 0), x.dtype)
    finally:
        if was_training:
            model.train()


def accuracy(
    model: Module, x: np.ndarray, y: np.ndarray, batch_size: int = 256
) -> float:
    """Top-1 accuracy (Equation 5)."""
    if x.shape[0] == 0:
        raise ValueError("cannot compute accuracy on an empty set")
    probs = predict_proba(model, x, batch_size)
    return float((probs.argmax(axis=1) == np.asarray(y)).mean())


def generalization_error(
    model: Module,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
) -> float:
    """Local train minus local test accuracy (Equation 8)."""
    return accuracy(model, x_train, y_train) - accuracy(model, x_test, y_test)


# ---------------------------------------------------------------------------
# Dict states
# ---------------------------------------------------------------------------


def set_state(model: layers.Module, state: State) -> None:
    """Load a state dictionary produced by :func:`get_state`."""
    param_names = set()
    for name, param in model.named_parameters():
        if name not in state:
            raise KeyError(f"state missing parameter {name!r}")
        if state[name].shape != param.data.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: "
                f"{state[name].shape} vs {param.data.shape}"
            )
        param.data = state[name].copy()
        # Keep the gradient buffer in the parameter's dtype: loading a
        # float32 state must not leave a float64 accumulator behind
        # (gradient math would silently promote).
        if isinstance(param, Parameter) and param.grad.dtype != param.data.dtype:
            param.grad = np.zeros_like(param.data)
        param_names.add(name)
    for name, _ in model.named_buffers():
        key = "buffer:" + name
        if key not in state:
            raise KeyError(f"state missing buffer {name!r}")
        model.set_buffer(name, state[key].copy())
        param_names.add(key)
    extra = set(state) - param_names
    if extra:
        raise KeyError(f"state has unknown entries: {sorted(extra)}")


def state_to_vector(state: State) -> np.ndarray:
    """Concatenate all state entries (sorted by name) into one vector."""
    return np.concatenate([state[name].ravel() for name in sorted(state)])


def vector_to_state(vector: np.ndarray, template: State) -> State:
    """Inverse of :func:`state_to_vector` given a shape template.

    Each entry is cast back to the template entry's dtype, so float32
    states round-trip without being silently promoted to float64.
    """
    vector = np.asarray(vector)
    expected = sum(arr.size for arr in template.values())
    if vector.size != expected:
        raise ValueError(f"vector has {vector.size} entries, expected {expected}")
    out: State = {}
    offset = 0
    for name in sorted(template):
        arr = template[name]
        out[name] = (
            vector[offset : offset + arr.size]
            .reshape(arr.shape)
            .astype(arr.dtype, copy=True)
        )
        offset += arr.size
    return out


def normalize_weights(weights: list[float]) -> list[float]:
    """Validate and normalize averaging weights to sum to one.

    All-zero or sign-cancelling weights would silently divide the
    average into NaN/inf; refuse them instead.
    """
    total = float(sum(weights))
    # Exact-zero comparison on purpose: sign-cancelling totals ([1, -1],
    # [0.3, -0.3], ...) cancel to exactly 0.0 in IEEE arithmetic, while
    # legitimately tiny totals (e.g. [5e-9, 5e-9]) stay normalizable.
    if not np.isfinite(total) or total == 0.0:
        raise ValueError(
            f"weights must sum to a finite nonzero total, got {total!r}"
        )
    if np.isclose(total, 1.0):
        return list(weights)
    return [w / total for w in weights]


def average_states(states: list[State], weights: list[float] | None = None) -> State:
    """Weighted average of state dictionaries (uniform by default)."""
    if not states:
        raise ValueError("cannot average zero states")
    if weights is None:
        weights = [1.0 / len(states)] * len(states)
    if len(weights) != len(states):
        raise ValueError("weights and states must have equal length")
    weights = normalize_weights(weights)
    keys = set(states[0])
    for state in states[1:]:
        if set(state) != keys:
            raise KeyError("states have mismatched keys")
    out: State = {}
    # Sorted so the output State has a deterministic key order (set
    # iteration is hash-ordered, and downstream packing walks the dict).
    for name in sorted(keys):
        acc = np.zeros_like(states[0][name])
        for weight, state in zip(weights, states):
            acc += weight * state[name]
        out[name] = acc
    return out


def unpack(layout: StateLayout, vector: np.ndarray) -> State:
    """Dict of *views* into ``vector``, one per slot of ``layout``.

    Mutating a value in the returned dict mutates the vector (and vice
    versa). Views carry the vector's dtype, not the template's.
    """
    vector = np.ascontiguousarray(vector)
    if vector.shape != (layout.dim,):
        raise ValueError(
            f"vector has shape {vector.shape}, expected ({layout.dim},)"
        )
    return {
        slot.name: vector[slot.offset : slot.offset + slot.size].reshape(
            slot.shape
        )
        for slot in layout.slots
    }


# ---------------------------------------------------------------------------
# The shadow-model attack, layer by layer
# ---------------------------------------------------------------------------


class ReferenceShadowAttack(ShadowModelAttack):
    """:class:`~repro.privacy.shadow.ShadowModelAttack` trained and
    scored one model at a time on the per-layer passes.

    Each model trains a copy of its spec with one :class:`SGD`
    (momentum 0.9) across all epochs; the trained state comes out as a
    packed ``(1, dim)`` row, as from the kernel.
    """

    def _train(self, model, x, y, lr, epochs, batch_size, rng, node_id):
        # node_id keys dropout mask streams, which the per-layer passes
        # do not draw: the oracle covers dropout-free models only.
        model = reference(copy.deepcopy(model))
        model.train()
        loss_fn = CrossEntropyLoss()
        optimizer = SGD(model.parameters(), lr=lr, momentum=0.9)
        for _ in range(epochs):
            order = rng.permutation(x.shape[0])
            for start in range(0, x.shape[0], batch_size):
                batch = order[start : start + batch_size]
                optimizer.zero_grad()
                loss_fn(model.forward(x[batch]), y[batch])
                model.backward(loss_fn.backward())
                optimizer.step()
        return StateLayout.from_model(model).pack(get_state(model))[None]

    def _predict(self, model, params, x):
        model = reference(copy.deepcopy(model))
        set_state(model, unpack(StateLayout.from_model(model), params[0]))
        return predict_proba(model, x)
