"""Batched multi-model forward (and train-mode forward/backward).

The observer evaluates *every* node's model against the same eval split
each round, and every local update trains one or more arena rows. This
module takes a ``(B, dim)`` block of flat parameter vectors (rows of a
:class:`~repro.gossip.engine.StateArena`, addressed by a
:class:`~repro.nn.flat.StateLayout`) and pushes all B models through
the network together in blocked numpy ops. Layers are the specs of
:mod:`repro.nn.layers`; this module is the only code that runs them.

Contracts:

* **Layout** — ``params[b]`` must follow ``layout`` (sorted-name slot
  order). Parameters and buffers are read as views into the block;
  nothing is copied into a model.
* **Dtype** — all math runs in ``params.dtype``. Inputs are cast to it
  on entry, so a float32 arena is scored in float32 end to end instead
  of being silently promoted to float64.
* **Eval mode only** — BatchNorm uses each row's running statistics,
  Dropout is the identity. There is no backward pass.
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
row's math reproduces the per-layer oracle pass of the test suite
(``tests/reference_nn.py``) operation for operation (BatchNorm runs in
training mode and updates each row's running statistics *inside* the
parameter block), so a float64 block trains bit-identically to one
model trained layer by layer. Stream-mode Dropout (masks keyed by
``(node, session, step)``, see
:func:`~repro.nn.layers.mask_stream_rng`) batches: install each row's
per-step generators with :meth:`BatchedModel.set_mask_streams` before
the forward. Every model with a batched forward also has a
batched backward, and a per-sample pass for DP-SGD.
"""

from __future__ import annotations

import math

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
    "peak_activation_size",
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

    def __init__(
        self, layout: StateLayout, params: np.ndarray, patches: dict | None = None
    ):
        if params.ndim != 2 or params.shape[1] != layout.dim:
            raise ValueError(
                f"params must be (B, {layout.dim}), got {params.shape}"
            )
        self.layout = layout
        self.params = params
        self.b = params.shape[0]
        self.dtype = params.dtype
        # Shared-input conv patches by layer prefix (batched_forward).
        self.patches = patches

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
    patches: dict | None = None,
) -> np.ndarray:
    """Logits of B models on ``x`` as one ``(B, N, classes)`` array.

    ``params`` is a ``(B, dim)`` block of flat parameter vectors laid
    out by ``layout``; ``x`` is ``(N, ...)`` when ``shared`` (every
    model scores the same inputs) or ``(B, N, ...)`` otherwise.
    ``patches``, a dict the caller creates for one shared ``x``, keeps
    that input's conv patches (``im2col``) between calls, so row blocks
    scored on the same ``x`` extract them once.
    """
    block = _Block(layout, np.asarray(params), patches)
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


def peak_activation_size(model: Module, sample_shape: tuple[int, ...]) -> int:
    """Elements of the largest layer output one model row produces per
    input sample of shape ``sample_shape`` in :func:`batched_forward`
    (a dry run over shapes; nothing is computed)."""
    peak = 0

    def walk(module: Module, shape: tuple[int, ...]) -> tuple[int, ...]:
        nonlocal peak
        if isinstance(module, Sequential):
            for layer in module.layers:
                shape = walk(layer, shape)
            return shape
        if isinstance(module, Residual):
            walk(module.shortcut, shape)
            shape = walk(module.body, shape)
        elif isinstance(module, Dense):
            shape = shape[:-1] + (module.out_features,)
        elif isinstance(module, Conv2d):
            k, s, p = module.kernel_size, module.stride, module.padding
            shape = (module.out_channels,) + tuple(
                F.conv_output_size(size, k, s, p) for size in shape[-2:]
            )
        elif isinstance(module, MaxPool2d):
            k = module.kernel_size
            shape = shape[:-2] + (shape[-2] // k, shape[-1] // k)
        elif isinstance(module, GlobalAvgPool2d):
            shape = shape[:-2]
        elif isinstance(module, Flatten):
            shape = (int(np.prod(shape)),)
        peak = max(peak, int(np.prod(shape)))
        return shape

    walk(model, tuple(sample_shape))
    return peak


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
        patches = block.patches if block.patches is not None else {}
        if prefix not in patches:
            patches[prefix] = F.im2col(
                x, module.kernel_size, module.stride, module.padding
            )
        cols, out_h, out_w = patches[prefix]
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

    DP-SGD needs one gradient per sample. ``forward_per_sample`` and
    ``backward_per_sample`` run a ``(B, k, ...)`` block in one pass in
    which every sample is its own microbatch of one (Dense runs one
    GEMV per (row, sample); BatchNorm uses each sample's statistics).
    The backward keeps each parameterised layer's input and output
    gradient, from which ``sample_gradient`` writes one sample's
    gradient at a time into the ``(B, dim)`` block.

    Contracts (on top of the module-level layout/dtype contracts):

    * **Training semantics** — BatchNorm normalizes with each row's
      mini-batch statistics and updates that row's running buffers in
      place *inside* the parameter block, exactly as the per-layer
      oracle does in training mode.
    * **Row-for-row parity** — every per-row slice computation uses the
      same primitive (and the same operand layout) as the oracle's
      per-layer forward/backward, so a float64 block reproduces it bit
      for bit. Conv contractions therefore run the
      serial einsum per row instead of one fused contraction — the win
      for conv models is the batched everything-else; dense models
      batch end to end. A per-sample pass reproduces k passes over
      microbatches of one, bit for bit.
    * **One forward at a time** — caches are keyed per layer and
      overwritten by the next forward; call the matching backward
      before the next step, with the forward's parameter block still
      alive.
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
        # Modules holding parameters: backward stops at the first one.
        self._trained = {id(m) for m in model.modules() if m.parameters()}
        # Stream-mode dropout: per-layer lists of per-node generators,
        # installed by the trainer before each optimizer step.
        self._stream_layers = stream_dropout_layers(model)
        self._stream_index = {id(m): i for i, m in enumerate(self._stream_layers)}
        self._mask_streams: list[list[np.random.Generator]] | None = None
        self._per_sample = False
        # (module, prefix, layer input, output gradient) of every
        # parameterised layer, kept by backward_per_sample; None until
        # it runs after a forward_per_sample.
        self._factors: (
            list[tuple[Module, str, np.ndarray, np.ndarray]] | None
        ) = None

    def set_mask_streams(
        self, streams: list[list[np.random.Generator]] | None
    ) -> None:
        """Install per-step dropout mask streams.

        ``streams[i][j]`` is the generator of stream-dropout layer ``i``
        (in :func:`~repro.nn.layers.stream_dropout_layers` order) for
        block row ``j``. The streams persist until the next install; a
        per-sample pass draws each row's k masks from them one after
        another.
        """
        if streams is not None and len(streams) != len(self._stream_layers):
            raise ValueError(
                f"need one stream list per stream-dropout layer "
                f"({len(self._stream_layers)}), got {len(streams)}"
            )
        self._mask_streams = streams

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Logits of row b's model on ``x[b]``: ``(B, N, ...) -> (B, N, C)``."""
        return self._start(params, x, per_sample=False)

    def forward_per_sample(
        self, params: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        """Logits of every sample ``x[b, i]`` as its own microbatch of one.

        ``(B, k, ...) -> (B, k, C)``: the same bits as k forwards over
        ``x[:, i : i + 1]`` in sample order (BatchNorm running buffers
        and dropout mask streams advance once per sample, in order).
        Follow it with :meth:`backward_per_sample`.
        """
        return self._start(params, x, per_sample=True)

    def _start(
        self, params: np.ndarray, x: np.ndarray, per_sample: bool
    ) -> np.ndarray:
        self._block = _Block(self.layout, np.asarray(params))
        x = np.asarray(x, dtype=self._block.dtype)
        if x.shape[0] != self._block.b:
            raise ValueError(
                f"input must have leading size {self._block.b}, got {x.shape}"
            )
        self._cache = {}
        self._factors = None
        self._per_sample = per_sample
        return self._fwd(self.model, "", x)

    def backward(self, grad_out: np.ndarray, grads: np.ndarray) -> None:
        """Backprop ``grad_out``, filling the ``(B, dim)`` gradient block.

        Every parameter slot is *written* exactly once per pass (no
        accumulation), so ``grads`` needs no zeroing between steps —
        pass an uninitialized buffer and reuse it. Buffer slots (e.g.
        BatchNorm running statistics) are left untouched. The pass
        stops at the first parameterised layer: nothing trains the
        model input, so its gradient (on the paper MLP a
        ``(B, N, 256) @ (256, 600)`` matmul per step, on the CNNs the
        first conv's einsum and ``col2im``) is never computed.
        """
        self._check_mode(False)
        self._bwd(self.model, "", grad_out, self._grad_block(grads), False)

    def backward_per_sample(self, grad_out: np.ndarray) -> None:
        """Backprop per-sample logits gradients ``(B, k, C)``.

        ``grad_out[b, i]`` is the gradient of sample i's own loss (a
        microbatch of one, so N = 1). Like :meth:`backward` the pass
        stops at the first parameterised layer; instead of writing
        parameter gradients it keeps each parameterised layer's input
        and output gradient, from which :meth:`sample_gradient` writes
        any one sample's gradient.
        """
        self._check_mode(True)
        self._factors = []
        self._bwd(self.model, "", grad_out, None, False)

    def sample_gradient(self, i: int, grads: np.ndarray) -> None:
        """Write sample i's parameter gradient into the ``(B, dim)`` block.

        The same bits as :meth:`backward` over the microbatch
        ``x[:, i : i + 1]`` would write: every parameter slot is
        written, buffer slots are left untouched.
        """
        if self._factors is None:
            raise RuntimeError(
                "sample_gradient called before backward_per_sample"
            )
        gblock = self._grad_block(grads)
        sample = slice(i, i + 1)
        for module, prefix, inp, grad in self._factors:
            self._param_grads(
                module, prefix, inp[:, sample], grad[:, sample], gblock
            )

    def release(self) -> None:
        """Drop the cached activations, the per-sample factors and the
        parameter block until the next forward. A per-sample pass
        caches k samples' activations; released when a local update
        ends, they do not stay alive while other code runs."""
        self._block = None
        self._cache = {}
        self._factors = None

    def _grad_block(self, grads: np.ndarray) -> _Block:
        gblock = _Block(self.layout, np.asarray(grads))
        if gblock.b != self._block.b:
            raise ValueError(
                f"grads must have {self._block.b} rows, got {gblock.b}"
            )
        return gblock

    def _check_mode(self, per_sample: bool) -> None:
        if self._block is None:
            raise RuntimeError("backward called before forward")
        if self._per_sample != per_sample:
            raise RuntimeError(
                "backward_per_sample pairs with forward_per_sample, "
                "backward with forward"
            )

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
            out = self._dense_matmul(x, block.get(prefix + "weight"))
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

    def _dense_matmul(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """``x @ weight[b]`` per row, ``(B, N, i) -> (B, N, o)``. In a
        per-sample pass every sample is a microbatch of one, so the
        broadcast matmul runs one GEMV per (row, sample): the kernel a
        size-1 microbatch runs, not a GEMM over the k samples."""
        if not self._per_sample:
            return np.matmul(x, weight)
        out = np.matmul(x[:, :, None, :], weight[:, None])  # (B, k, 1, o)
        return out.reshape(out.shape[:2] + out.shape[3:])

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
        # Statistics of each microbatch (a row's batch, or in a
        # per-sample pass each sample alone), kept as (B, n, C, 1, 1).
        axes = self._microbatch_axes()
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        running_mean = block.get("buffer:" + prefix + "running_mean")
        running_var = block.get("buffer:" + prefix + "running_var")
        # One fold per microbatch, in sample order.
        for i in range(mean.shape[1]):
            running_mean[...] = (
                (1 - module.momentum) * running_mean
                + module.momentum * mean[:, i, :, 0, 0]
            )
            running_var[...] = (
                (1 - module.momentum) * running_var
                + module.momentum * var[:, i, :, 0, 0]
            )
        inv_std = 1.0 / np.sqrt(var + module.eps)
        x_hat = (x - mean) * inv_std
        self._cache[prefix] = (x_hat, inv_std, x.shape)
        gamma = block.get(prefix + "gamma")
        beta = block.get(prefix + "beta")
        return (
            gamma[:, None, :, None, None] * x_hat
            + beta[:, None, :, None, None]
        )

    def _microbatch_axes(self) -> tuple[int, ...]:
        """Axes of a ``(B, N, C, H, W)`` activation one microbatch's
        BatchNorm statistics reduce over."""
        return (3, 4) if self._per_sample else (1, 3, 4)

    # -- backward dispatch --------------------------------------------

    def _bwd(
        self,
        module: Module,
        prefix: str,
        grad: np.ndarray,
        gblock: _Block | None,
        need_input: bool,
    ) -> np.ndarray | None:
        """Backprop one module; returns its input gradient, or None when
        ``need_input`` is false (no earlier layer has parameters).
        Parameter gradients go to ``gblock``, or in a per-sample pass
        (``gblock`` None) are kept as factors for sample_gradient."""
        block = self._block
        if not need_input and id(module) not in self._trained:
            return None
        if isinstance(module, Sequential):
            # Layers before the first parameterised one run only when
            # the sequence's own input gradient is needed.
            stop = 0
            if not need_input:
                stop = next(
                    i
                    for i, layer in enumerate(module.layers)
                    if id(layer) in self._trained
                )
            for i in reversed(range(stop, len(module.layers))):
                grad = self._bwd(
                    module.layers[i],
                    f"{prefix}{i}.",
                    grad,
                    gblock,
                    need_input or i > stop,
                )
            return grad
        if isinstance(module, Residual):
            pre_relu = self._cache[prefix]
            grad = grad * F.relu_grad(pre_relu)
            body = self._bwd(module.body, prefix + "body.", grad, gblock, need_input)
            cut = self._bwd(
                module.shortcut, prefix + "shortcut.", grad, gblock, need_input
            )
            return body + cut if need_input else None
        if isinstance(module, Dense):
            self._param_grads(
                module, prefix, self._cache[prefix], grad, gblock
            )
            if not need_input:
                return None
            return self._dense_matmul(
                grad, block.get(prefix + "weight").transpose(0, 2, 1)
            )
        if isinstance(module, Conv2d):
            return self._conv_bwd(module, prefix, grad, gblock, need_input)
        if isinstance(module, BatchNorm2d):
            return self._batchnorm_bwd(module, prefix, grad, gblock, need_input)
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
        self,
        module: Conv2d,
        prefix: str,
        grad: np.ndarray,
        gblock: _Block | None,
        need_input: bool,
    ) -> np.ndarray | None:
        block = self._block
        cols, x_shape, out_h, out_w = self._cache[prefix]
        b, n = grad.shape[:2]
        o = module.out_channels
        grad_flat = grad.reshape(b, n, o, out_h * out_w)
        self._param_grads(module, prefix, cols, grad_flat, gblock)
        if not need_input:
            return None
        w_mat = block.get(prefix + "weight").reshape(b, o, -1)
        k = cols.shape[2]
        grad_cols = np.empty((b, n, k, cols.shape[3]), dtype=grad.dtype)
        for i in range(b):
            np.einsum("ok,nop->nkp", w_mat[i], grad_flat[i], out=grad_cols[i])
        gx = F.col2im(
            grad_cols.reshape(b * n, k, -1),
            (b * n,) + x_shape[2:],
            module.kernel_size,
            module.stride,
            module.padding,
        )
        return gx.reshape(x_shape)

    def _batchnorm_bwd(
        self,
        module: BatchNorm2d,
        prefix: str,
        grad: np.ndarray,
        gblock: _Block | None,
        need_input: bool,
    ) -> np.ndarray | None:
        block = self._block
        x_hat, inv_std, x_shape = self._cache[prefix]
        self._param_grads(module, prefix, x_hat, grad, gblock)
        if not need_input:
            return None
        axes = self._microbatch_axes()
        m = math.prod(x_shape[a] for a in axes)
        g = grad * block.get(prefix + "gamma")[:, None, :, None, None]
        sum_g = g.sum(axis=axes, keepdims=True)
        sum_gx = (g * x_hat).sum(axis=axes, keepdims=True)
        return inv_std * (g - sum_g / m - x_hat * sum_gx / m)

    def _param_grads(
        self,
        module: Module,
        prefix: str,
        inp: np.ndarray,
        grad: np.ndarray,
        gblock: _Block | None,
    ) -> None:
        """Write one layer's parameter gradients over a microbatch.

        ``inp`` is what the gradient reads of the forward (a Dense
        input, a conv's im2col patches, BatchNorm's ``x_hat``) and
        ``grad`` the layer's output gradient, both ``(B, n, ...)``. In
        a per-sample pass (``gblock`` None) the two are kept instead,
        for :meth:`sample_gradient` to call back with one sample.
        """
        if gblock is None:
            self._factors.append((module, prefix, inp, grad))
            return
        if isinstance(module, Dense):
            weight = gblock.get(prefix + "weight")
            if inp.shape[1] == 1:
                # Outer product as 0 + x * g: the serial layer's K = 1
                # ``x.T @ g`` runs numpy's non-BLAS loop, which writes a
                # -0.0 product as +0.0; so does einsum, while a plain
                # multiply would keep -0.0.
                np.einsum("bi,bj->bij", inp[:, 0], grad[:, 0], out=weight)
            else:
                np.matmul(inp.transpose(0, 2, 1), grad, out=weight)
            if module.bias is not None:
                np.sum(grad, axis=1, out=gblock.get(prefix + "bias"))
        elif isinstance(module, Conv2d):
            b = grad.shape[0]
            gw = gblock.get(prefix + "weight").reshape(
                b, module.out_channels, -1
            )
            for i in range(b):
                np.einsum("nop,nkp->ok", grad[i], inp[i], out=gw[i])
            if module.bias is not None:
                np.sum(grad, axis=(1, 3), out=gblock.get(prefix + "bias"))
        else:  # BatchNorm2d
            np.sum(
                grad * inp, axis=(1, 3, 4), out=gblock.get(prefix + "gamma")
            )
            np.sum(grad, axis=(1, 3, 4), out=gblock.get(prefix + "beta"))
