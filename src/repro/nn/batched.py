"""Batched multi-model forward (and train-mode forward/backward).

The observer evaluates *every* node's model against the same eval split
each round, and every local update trains one or more arena rows. This
module takes a ``(B, dim)`` block of flat parameter vectors (rows of a
:class:`~repro.gossip.engine.StateArena`, addressed by a
:class:`~repro.nn.flat.StateLayout`) and pushes all B models through
the network together in blocked numpy ops, with no per-model reload
into a workspace :class:`~repro.nn.layers.Module`.

Contracts:

* **Layout** — ``params[b]`` must follow ``layout`` (sorted-name slot
  order, the same order as ``state_to_vector``). Parameters and buffers
  are read as views into the block; nothing is copied into a model.
* **Dtype** — all math runs in ``params.dtype``. Inputs are cast to it
  on entry, so a float32 arena is scored in float32 end to end instead
  of being silently promoted to float64.
* **Eval mode only** — layers behave as in ``model.eval()``: BatchNorm
  uses each row's running statistics, Dropout is the identity. There is
  no backward pass.
* **Input sharing** — ``x`` is either one array shared by every model
  (``(N, ...)``, e.g. the global test set) or one array per model
  (``(B, N, ...)``, e.g. per-node attack sets). Shared inputs stay
  un-broadcast for as long as the network allows (e.g. a shared im2col
  is computed once for all B models).

Supported layers are the ones the Table-2 model families use (Dense,
Conv2d, BatchNorm2d, MaxPool2d, GlobalAvgPool2d, ReLU, Flatten,
Dropout, Sequential, Residual, Identity); use
:func:`supports_batched_forward` to test a model before relying on
:func:`batched_forward`.

**Training**: :class:`BatchedModel` is the train-mode counterpart —
a blocked forward that caches what the backward needs, and a blocked
backward that accumulates per-row parameter gradients into a
``(B, dim)`` gradient block laid out like the parameter block. Each
row's math reproduces the per-model :class:`~repro.nn.layers.Module`
pass operation for operation (BatchNorm runs in training mode and
updates each row's running statistics *inside* the parameter block),
so a float64 block trains bit-identically to the row-by-row workspace
path. Stream-mode Dropout (masks keyed by ``(node, session, step)``,
see :func:`~repro.nn.layers.mask_stream_rng`) batches: install each
row's per-step generators with :meth:`BatchedModel.set_mask_streams`
before the forward. Every model with a batched forward also has a
batched backward.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.flat import StateLayout
from repro.nn.layers import (
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
    stream_dropout_layers,
)

__all__ = [
    "batched_forward",
    "supports_batched_forward",
    "parameter_column_runs",
    "BatchedModel",
]

_LEAF_TYPES = (
    Dense,
    Conv2d,
    BatchNorm2d,
    MaxPool2d,
    GlobalAvgPool2d,
    ReLU,
    Flatten,
    Dropout,
    Identity,
)


def supports_batched_forward(model: Module) -> bool:
    """True when every module in the tree has a batched equivalent."""
    for module in model.modules():
        if isinstance(module, (Sequential, Residual)):
            continue
        if not isinstance(module, _LEAF_TYPES):
            return False
    return True


def parameter_column_runs(layout: StateLayout) -> list[tuple[int, int]]:
    """Merged ``[start, stop)`` column ranges of trainable slots.

    Buffer slots (names prefixed ``buffer:``, e.g. BatchNorm running
    statistics) are storage the optimizer must never step; every other
    slot is a parameter column. Adjacent parameter slots merge into one
    run so a block optimizer touches few large column slices.
    """
    runs: list[tuple[int, int]] = []
    for slot in layout.slots:
        if slot.name.startswith("buffer:"):
            continue
        start, stop = slot.offset, slot.offset + slot.size
        if runs and runs[-1][1] == start:
            runs[-1] = (runs[-1][0], stop)
        else:
            runs.append((start, stop))
    return runs


class _Block:
    """One (B, dim) parameter block addressed through a layout."""

    def __init__(self, layout: StateLayout, params: np.ndarray):
        if params.ndim != 2 or params.shape[1] != layout.dim:
            raise ValueError(
                f"params must be (B, {layout.dim}), got {params.shape}"
            )
        self.layout = layout
        self.params = params
        self.b = params.shape[0]
        self.dtype = params.dtype

    def get(self, name: str) -> np.ndarray:
        """(B,) + slot.shape view of one entry across all rows."""
        slot = self.layout.slot(name)
        view = self.params[:, slot.offset : slot.offset + slot.size]
        return view.reshape((self.b,) + slot.shape)


def batched_forward(
    model: Module,
    layout: StateLayout,
    params: np.ndarray,
    x: np.ndarray,
    shared: bool = True,
) -> np.ndarray:
    """Logits of B models on ``x`` as one ``(B, N, classes)`` array.

    ``params`` is a ``(B, dim)`` block of flat parameter vectors laid
    out by ``layout``; ``x`` is ``(N, ...)`` when ``shared`` (every
    model scores the same inputs) or ``(B, N, ...)`` otherwise.
    """
    block = _Block(layout, np.asarray(params))
    x = np.asarray(x, dtype=block.dtype)
    if not shared and x.shape[0] != block.b:
        raise ValueError(
            f"per-model input must have leading size {block.b}, got {x.shape}"
        )
    out, out_shared = _forward(model, "", block, x, shared)
    if out_shared:
        # No parameterized layer ran (degenerate but legal): replicate.
        out = np.broadcast_to(out, (block.b,) + out.shape)
    return out


def _forward(
    module: Module, prefix: str, block: _Block, x: np.ndarray, shared: bool
) -> tuple[np.ndarray, bool]:
    """Dispatch one module; returns (output, still-shared?)."""
    if isinstance(module, Sequential):
        for i, layer in enumerate(module.layers):
            x, shared = _forward(layer, f"{prefix}{i}.", block, x, shared)
        return x, shared
    if isinstance(module, Residual):
        body, body_shared = _forward(module.body, prefix + "body.", block, x, shared)
        cut, cut_shared = _forward(
            module.shortcut, prefix + "shortcut.", block, x, shared
        )
        # Broadcasting aligns a still-shared branch with a per-model one.
        return np.maximum(body + cut, 0.0), body_shared and cut_shared
    if isinstance(module, Dense):
        return _dense(module, prefix, block, x), False
    if isinstance(module, Conv2d):
        return _conv2d(module, prefix, block, x, shared), False
    if isinstance(module, BatchNorm2d):
        return _batchnorm2d(module, prefix, block, x, shared), False
    if isinstance(module, MaxPool2d):
        return _maxpool(module.kernel_size, x), shared
    if isinstance(module, GlobalAvgPool2d):
        return x.mean(axis=(-2, -1)), shared
    if isinstance(module, ReLU):
        return np.maximum(x, 0.0), shared
    if isinstance(module, Flatten):
        lead = x.shape[:1] if shared else x.shape[:2]
        return x.reshape(lead + (-1,)), shared
    if isinstance(module, (Dropout, Identity)):
        return x, shared
    raise NotImplementedError(
        f"no batched forward for {type(module).__name__}; "
        "check supports_batched_forward(model) first"
    )


def _dense(module: Dense, prefix: str, block: _Block, x: np.ndarray) -> np.ndarray:
    # One GEMM per model, (N, in) or (B, N, in) against the (B, in, out)
    # weight views: a shared input broadcasts, so no weight is copied.
    out = np.matmul(x, block.get(prefix + "weight"))  # (B, N, out)
    if module.bias is not None:
        out += block.get(prefix + "bias")[:, None, :]
    return out


def _conv2d(
    module: Conv2d, prefix: str, block: _Block, x: np.ndarray, shared: bool
) -> np.ndarray:
    w_mat = block.get(prefix + "weight").reshape(
        block.b, module.out_channels, -1
    )  # (B, O, K)
    if shared:
        cols, out_h, out_w = F.im2col(
            x, module.kernel_size, module.stride, module.padding
        )
        n, k, p = cols.shape
        # Shared patches are extracted ONCE; one GEMM covers all models,
        # and the bias lands while the result is still 2-D contiguous.
        folded = w_mat.reshape(block.b * module.out_channels, k)
        out = folded @ cols.transpose(1, 0, 2).reshape(k, n * p)
        if module.bias is not None:
            out += block.get(prefix + "bias").reshape(-1, 1)
        out = out.reshape(block.b, module.out_channels, n, p).transpose(0, 2, 1, 3)
        return out.reshape(out.shape[:3] + (out_h, out_w))
    else:
        b, n = x.shape[:2]
        cols, out_h, out_w = F.im2col(
            x.reshape((b * n,) + x.shape[2:]),
            module.kernel_size,
            module.stride,
            module.padding,
        )
        cols = cols.reshape(b, n, cols.shape[1], cols.shape[2])
        out = np.matmul(w_mat[:, None], cols)  # (B, N, O, P)
    if module.bias is not None:
        out += block.get(prefix + "bias")[:, None, :, None]
    return out.reshape(out.shape[:3] + (out_h, out_w))


def _batchnorm2d(
    module: BatchNorm2d, prefix: str, block: _Block, x: np.ndarray, shared: bool
) -> np.ndarray:
    gamma = block.get(prefix + "gamma")  # (B, C)
    beta = block.get(prefix + "beta")
    mean = block.get("buffer:" + prefix + "running_mean")
    var = block.get("buffer:" + prefix + "running_var")
    inv_std = 1.0 / np.sqrt(var + module.eps)
    # Each model normalizes with ITS OWN running statistics, so the
    # output is per-model even when the input is still shared.
    scale = (gamma * inv_std)[:, None, :, None, None]
    shift = (beta - gamma * inv_std * mean)[:, None, :, None, None]
    if shared:
        return x[None] * scale + shift
    return x * scale + shift


def _maxpool(kernel: int, x: np.ndarray) -> np.ndarray:
    h, w = x.shape[-2:]
    if h % kernel or w % kernel:
        raise ValueError(
            f"MaxPool2d requires H and W divisible by {kernel}, got {x.shape}"
        )
    lead = x.shape[:-2]
    windows = x.reshape(lead + (h // kernel, kernel, w // kernel, kernel))
    return windows.max(axis=(-3, -1))


# ---------------------------------------------------------------------------
# Train-mode forward/backward over a parameter block
# ---------------------------------------------------------------------------


class BatchedModel:
    """Blocked train-mode forward/backward for B models at once.

    ``forward`` runs row ``b``'s model on its own mini-batch ``x[b]``
    (inputs are always per-model in training — every node owns its
    split) and caches activations; ``backward`` backpropagates a
    ``(B, N, classes)`` logits gradient and accumulates per-row
    parameter gradients into a ``(B, dim)`` gradient block addressed by
    the same layout as the parameter block.

    Contracts (on top of the module-level layout/dtype contracts):

    * **Training semantics** — BatchNorm normalizes with each row's
      mini-batch statistics and updates that row's running buffers in
      place *inside* the parameter block, exactly as ``model.train()``
      would on the workspace module.
    * **Row-for-row parity** — every per-row slice computation uses the
      same primitive (and the same operand layout) as the corresponding
      ``Module.forward``/``backward``, so a float64 block reproduces the
      workspace path bit for bit. Conv contractions therefore run the
      serial einsum per row instead of one fused contraction — the win
      for conv models is the batched everything-else; dense models
      batch end to end.
    * **One forward at a time** — caches are keyed per layer and
      overwritten by the next ``forward``; call ``backward`` before the
      next step, with the forward's parameter block still alive.
    """

    def __init__(self, model: Module, layout: StateLayout):
        if not supports_batched_forward(model):
            raise ValueError(
                f"model {type(model).__name__} has no batched backward; "
                "check supports_batched_forward(model) first"
            )
        self.model = model
        self.layout = layout
        self._block: _Block | None = None
        self._cache: dict[str, object] = {}
        # Stream-mode dropout: per-layer lists of per-node generators,
        # installed by the trainer before each optimizer step.
        self._stream_layers = stream_dropout_layers(model)
        self._stream_index = {id(m): i for i, m in enumerate(self._stream_layers)}
        self._mask_streams: list[list[np.random.Generator]] | None = None

    def set_mask_streams(
        self, streams: list[list[np.random.Generator]] | None
    ) -> None:
        """Install per-step dropout mask streams.

        ``streams[i][j]`` is the generator of stream-dropout layer ``i``
        (in :func:`~repro.nn.layers.stream_dropout_layers` order) for
        block row ``j``. The streams persist until the next install, so
        several forwards within one step (DP-SGD's per-sample passes)
        draw consecutive masks from them.
        """
        if streams is not None and len(streams) != len(self._stream_layers):
            raise ValueError(
                f"need one stream list per stream-dropout layer "
                f"({len(self._stream_layers)}), got {len(streams)}"
            )
        self._mask_streams = streams

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Logits of row b's model on ``x[b]``: ``(B, N, ...) -> (B, N, C)``."""
        self._block = _Block(self.layout, np.asarray(params))
        x = np.asarray(x, dtype=self._block.dtype)
        if x.shape[0] != self._block.b:
            raise ValueError(
                f"input must have leading size {self._block.b}, got {x.shape}"
            )
        self._cache = {}
        return self._fwd(self.model, "", x)

    def backward(self, grad_out: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Backprop ``grad_out``, filling the ``(B, dim)`` gradient block.

        Every parameter slot is *written* exactly once per pass (no
        accumulation), so ``grads`` needs no zeroing between steps —
        pass an uninitialized buffer and reuse it. Buffer slots (e.g.
        BatchNorm running statistics) are left untouched. Returns the
        gradient with respect to the forward's input.
        """
        if self._block is None:
            raise RuntimeError("backward called before forward")
        gblock = _Block(self.layout, np.asarray(grads))
        if gblock.b != self._block.b:
            raise ValueError(
                f"grads must have {self._block.b} rows, got {gblock.b}"
            )
        return self._bwd(self.model, "", grad_out, gblock)

    # -- forward dispatch ---------------------------------------------

    def _fwd(self, module: Module, prefix: str, x: np.ndarray) -> np.ndarray:
        block = self._block
        if isinstance(module, Sequential):
            for i, layer in enumerate(module.layers):
                x = self._fwd(layer, f"{prefix}{i}.", x)
            return x
        if isinstance(module, Residual):
            out = self._fwd(module.body, prefix + "body.", x) + self._fwd(
                module.shortcut, prefix + "shortcut.", x
            )
            self._cache[prefix] = out
            return F.relu(out)
        if isinstance(module, Dense):
            self._cache[prefix] = x
            out = np.matmul(x, block.get(prefix + "weight"))
            if module.bias is not None:
                out = out + block.get(prefix + "bias")[:, None, :]
            return out
        if isinstance(module, Conv2d):
            return self._conv_fwd(module, prefix, x)
        if isinstance(module, BatchNorm2d):
            return self._batchnorm_fwd(module, prefix, x)
        if isinstance(module, MaxPool2d):
            b, n, c, h, w = x.shape
            k = module.kernel_size
            if h % k or w % k:
                raise ValueError(
                    f"MaxPool2d requires H and W divisible by {k}, got {x.shape}"
                )
            windows = x.reshape(b, n, c, h // k, k, w // k, k)
            out = windows.max(axis=(4, 6))
            self._cache[prefix] = (
                windows == out[:, :, :, :, None, :, None],
                x.shape,
            )
            return out
        if isinstance(module, GlobalAvgPool2d):
            self._cache[prefix] = x.shape
            return x.mean(axis=(3, 4))
        if isinstance(module, ReLU):
            self._cache[prefix] = x
            return F.relu(x)
        if isinstance(module, Flatten):
            self._cache[prefix] = x.shape
            return x.reshape(x.shape[0], x.shape[1], -1)
        if isinstance(module, Dropout):
            return self._dropout_fwd(module, prefix, x)
        if isinstance(module, Identity):
            return x
        raise NotImplementedError(
            f"no batched train-mode forward for {type(module).__name__}"
        )

    def _dropout_fwd(
        self, module: Dropout, prefix: str, x: np.ndarray
    ) -> np.ndarray:
        if module.p == 0.0:
            return x
        if self._mask_streams is None:
            raise RuntimeError(
                "stream-mode Dropout in a batched forward without mask "
                "streams; call set_mask_streams() before each step"
            )
        streams = self._mask_streams[self._stream_index[id(module)]]
        if len(streams) != x.shape[0]:
            raise ValueError(
                f"mask streams cover {len(streams)} rows, "
                f"block has {x.shape[0]}"
            )
        keep = 1.0 - module.p
        # Draw in float64 per row stream, exactly like the per-model
        # layer, then cast the finished mask to the block dtype.
        mask = np.empty(x.shape, dtype=np.float64)
        for j, rng in enumerate(streams):
            mask[j] = (rng.random(x.shape[1:]) < keep) / keep
        mask = mask.astype(x.dtype, copy=False)
        self._cache[prefix] = mask
        return x * mask

    def _conv_fwd(self, module: Conv2d, prefix: str, x: np.ndarray) -> np.ndarray:
        block = self._block
        b, n = x.shape[:2]
        cols, out_h, out_w = F.im2col(
            x.reshape((b * n,) + x.shape[2:]),
            module.kernel_size,
            module.stride,
            module.padding,
        )
        cols = cols.reshape(b, n, cols.shape[1], cols.shape[2])
        self._cache[prefix] = (cols, x.shape, out_h, out_w)
        w_mat = block.get(prefix + "weight").reshape(
            b, module.out_channels, -1
        )
        out = np.empty(
            (b, n, module.out_channels, cols.shape[3]), dtype=block.dtype
        )
        # The serial einsum, one row at a time: same contraction order,
        # same operand layout, bit-identical slices.
        for i in range(b):
            np.einsum("ok,nkp->nop", w_mat[i], cols[i], out=out[i])
        if module.bias is not None:
            out = out + block.get(prefix + "bias")[:, None, :, None]
        return out.reshape(b, n, module.out_channels, out_h, out_w)

    def _batchnorm_fwd(
        self, module: BatchNorm2d, prefix: str, x: np.ndarray
    ) -> np.ndarray:
        block = self._block
        mean = x.mean(axis=(1, 3, 4))  # each row's own batch statistics
        var = x.var(axis=(1, 3, 4))
        running_mean = block.get("buffer:" + prefix + "running_mean")
        running_var = block.get("buffer:" + prefix + "running_var")
        running_mean[...] = (
            (1 - module.momentum) * running_mean + module.momentum * mean
        )
        running_var[...] = (
            (1 - module.momentum) * running_var + module.momentum * var
        )
        inv_std = 1.0 / np.sqrt(var + module.eps)
        x_hat = (x - mean[:, None, :, None, None]) * inv_std[
            :, None, :, None, None
        ]
        self._cache[prefix] = (x_hat, inv_std, x.shape)
        gamma = block.get(prefix + "gamma")
        beta = block.get(prefix + "beta")
        return (
            gamma[:, None, :, None, None] * x_hat
            + beta[:, None, :, None, None]
        )

    # -- backward dispatch --------------------------------------------

    def _bwd(
        self, module: Module, prefix: str, grad: np.ndarray, gblock: _Block
    ) -> np.ndarray:
        block = self._block
        if isinstance(module, Sequential):
            for i in reversed(range(len(module.layers))):
                grad = self._bwd(
                    module.layers[i], f"{prefix}{i}.", grad, gblock
                )
            return grad
        if isinstance(module, Residual):
            pre_relu = self._cache[prefix]
            grad = grad * F.relu_grad(pre_relu)
            return self._bwd(
                module.body, prefix + "body.", grad, gblock
            ) + self._bwd(module.shortcut, prefix + "shortcut.", grad, gblock)
        if isinstance(module, Dense):
            x = self._cache[prefix]
            np.matmul(
                x.transpose(0, 2, 1), grad, out=gblock.get(prefix + "weight")
            )
            if module.bias is not None:
                np.sum(grad, axis=1, out=gblock.get(prefix + "bias"))
            return np.matmul(
                grad, block.get(prefix + "weight").transpose(0, 2, 1)
            )
        if isinstance(module, Conv2d):
            return self._conv_bwd(module, prefix, grad, gblock)
        if isinstance(module, BatchNorm2d):
            return self._batchnorm_bwd(module, prefix, grad, gblock)
        if isinstance(module, MaxPool2d):
            mask, x_shape = self._cache[prefix]
            # Cast like the serial layer: int64 counts would promote a
            # float32 backward pass to float64.
            counts = mask.sum(axis=(4, 6), keepdims=True).astype(grad.dtype)
            expanded = grad[:, :, :, :, None, :, None] * mask / counts
            return expanded.reshape(x_shape)
        if isinstance(module, GlobalAvgPool2d):
            x_shape = self._cache[prefix]
            b, n, c, h, w = x_shape
            return np.broadcast_to(
                grad[:, :, :, None, None] * (1.0 / (h * w)), x_shape
            ).copy()
        if isinstance(module, ReLU):
            return grad * F.relu_grad(self._cache[prefix])
        if isinstance(module, Flatten):
            return grad.reshape(self._cache[prefix])
        if isinstance(module, Dropout):
            mask = self._cache.get(prefix)
            return grad if mask is None else grad * mask
        if isinstance(module, Identity):
            return grad
        raise NotImplementedError(
            f"no batched train-mode backward for {type(module).__name__}"
        )

    def _conv_bwd(
        self, module: Conv2d, prefix: str, grad: np.ndarray, gblock: _Block
    ) -> np.ndarray:
        block = self._block
        cols, x_shape, out_h, out_w = self._cache[prefix]
        b, n = grad.shape[:2]
        o = module.out_channels
        grad_flat = grad.reshape(b, n, o, out_h * out_w)
        w_mat = block.get(prefix + "weight").reshape(b, o, -1)
        gw = gblock.get(prefix + "weight").reshape(b, o, -1)
        k = cols.shape[2]
        grad_cols = np.empty((b, n, k, cols.shape[3]), dtype=grad.dtype)
        for i in range(b):
            np.einsum("nop,nkp->ok", grad_flat[i], cols[i], out=gw[i])
            np.einsum("ok,nop->nkp", w_mat[i], grad_flat[i], out=grad_cols[i])
        if module.bias is not None:
            np.sum(grad_flat, axis=(1, 3), out=gblock.get(prefix + "bias"))
        gx = F.col2im(
            grad_cols.reshape(b * n, k, -1),
            (b * n,) + x_shape[2:],
            module.kernel_size,
            module.stride,
            module.padding,
        )
        return gx.reshape(x_shape)

    def _batchnorm_bwd(
        self, module: BatchNorm2d, prefix: str, grad: np.ndarray, gblock: _Block
    ) -> np.ndarray:
        block = self._block
        x_hat, inv_std, x_shape = self._cache[prefix]
        _, n, _, h, w = x_shape
        m = n * h * w
        np.sum(grad * x_hat, axis=(1, 3, 4), out=gblock.get(prefix + "gamma"))
        np.sum(grad, axis=(1, 3, 4), out=gblock.get(prefix + "beta"))
        g = grad * block.get(prefix + "gamma")[:, None, :, None, None]
        sum_g = g.sum(axis=(1, 3, 4), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(1, 3, 4), keepdims=True)
        return inv_std[:, None, :, None, None] * (
            g - sum_g / m - x_hat * sum_gx / m
        )
