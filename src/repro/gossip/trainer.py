"""Local update steps (Equation 2), with optional DP-SGD.

Nodes own model *states* (plain dicts); a single shared workspace
:class:`~repro.nn.layers.Module` is loaded with a node's state, trained
on the node's local split, and the resulting state is handed back. This
keeps memory bounded when simulating many nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.batched import (
    BatchedModel,
    _Block,
    named_leaf_modules,
    parameter_column_runs,
)
from repro.nn.flat import StateLayout
from repro.nn.layers import (
    BatchNorm2d,
    Module,
    mask_stream_rng,
    stream_dropout_layers,
)
from repro.nn.loss import CrossEntropyLoss, batched_cross_entropy_grad
from repro.nn.optim import SGD, BatchedSGD
from repro.privacy.dp import (
    DPSGDConfig,
    clip_block,
    clip_per_sample,
    noisy_gradient,
    noisy_gradient_block,
)
from repro.nn.serialize import State, get_state, set_state

__all__ = ["TrainerConfig", "LocalTrainer", "BatchedTrainer"]


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters of one node's local update (Table 2 columns).

    ``label_smoothing`` and ``lr_decay`` implement the paper's Section
    5 recommendation against *early overfitting* ("regularization,
    dynamic learning rates ... to limit the persistent impact of
    initial vulnerabilities"): label smoothing regularizes each local
    loss; ``lr_decay`` multiplies the effective learning rate by
    ``lr_decay ** session`` for successive local-update sessions of a
    node, cooling training down over time. Both default off, matching
    Table 2.
    """

    learning_rate: float = 0.01
    momentum: float = 0.0
    weight_decay: float = 5e-4
    local_epochs: int = 3
    batch_size: int = 32
    label_smoothing: float = 0.0
    lr_decay: float = 1.0
    dp: DPSGDConfig | None = None

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")


class LocalTrainer:
    """Runs local SGD epochs on a shared workspace model."""

    def __init__(self, model: Module, config: TrainerConfig):
        self.model = model
        self.config = config
        self.loss = CrossEntropyLoss(label_smoothing=config.label_smoothing)
        self.steps_taken = 0
        self._stream_layers = stream_dropout_layers(model)

    def set_config(self, config: TrainerConfig) -> None:
        """Swap hyperparameters explicitly (validated, loss rebuilt).

        The supported way to change config mid-run (e.g. DP
        installation): the dataclass revalidates on construction and
        the loss is rebuilt immediately instead of lazily on the next
        ``train`` call.
        """
        if not isinstance(config, TrainerConfig):
            raise TypeError(
                f"expected TrainerConfig, got {type(config).__name__}"
            )
        self.config = config
        self.loss = CrossEntropyLoss(label_smoothing=config.label_smoothing)

    def train(
        self,
        state: State,
        x: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        node_id: int | None = None,
        session: int = 0,
    ) -> State:
        """Train ``state`` for ``local_epochs`` epochs on (x, y).

        Returns the updated state; the input dict is not mutated.
        Momentum buffers are fresh per call: after gossip aggregation a
        stale velocity has no meaning, so each local session starts
        clean (see DESIGN.md). ``session`` is the node's local-update
        session index, which scales the learning rate by
        ``lr_decay ** session``; the engine tracks it per node, so the
        trainer keeps no per-node state. ``node_id`` keys the dropout
        mask streams.
        """
        if x.shape[0] == 0:
            return dict(state)
        # Recreate the loss in case config was replaced post-init
        # (DP installation swaps the config dataclass).
        if self.loss.label_smoothing != self.config.label_smoothing:
            self.loss = CrossEntropyLoss(
                label_smoothing=self.config.label_smoothing
            )
        lr = self.config.learning_rate * (self.config.lr_decay**session)
        set_state(self.model, state)
        self.model.train()
        # Train in the state's dtype: a float32 arena row must not be
        # promoted to float64 through float64 inputs (dtype audit —
        # loss and optimizer internals preserve it downstream).
        dtype = self.model.parameters()[0].data.dtype
        if x.dtype != dtype:
            x = x.astype(dtype)
        optimizer = SGD(
            self.model.parameters(),
            lr=lr,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        n = x.shape[0]
        node_key = node_id if node_id is not None else 0
        step_idx = 0
        for _ in range(self.config.local_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.config.batch_size):
                batch = order[start : start + self.config.batch_size]
                # Stream-mode dropout: fresh counter-based generators
                # per step, a pure function of (node, session, step) —
                # the batched path derives the identical masks.
                for li, layer in enumerate(self._stream_layers):
                    layer.set_mask_rng(
                        mask_stream_rng(
                            layer.stream_seed, node_key, session, step_idx, li
                        )
                    )
                if self.config.dp is None:
                    self._sgd_step(optimizer, x[batch], y[batch])
                else:
                    self._dp_sgd_step(optimizer, x[batch], y[batch], rng)
                self.steps_taken += 1
                step_idx += 1
        return get_state(self.model)

    def _sgd_step(self, optimizer: SGD, xb: np.ndarray, yb: np.ndarray) -> None:
        optimizer.zero_grad()
        logits = self.model.forward(xb)
        self.loss.forward(logits, yb)
        self.model.backward(self.loss.backward())
        optimizer.step()

    def _dp_sgd_step(
        self,
        optimizer: SGD,
        xb: np.ndarray,
        yb: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """DP-SGD: per-sample clipped gradients, summed, noised, averaged.

        Per-sample gradients are obtained by running each sample as its
        own microbatch — exact, if slower than functorch-style
        vectorization.
        """
        assert self.config.dp is not None
        params = self.model.parameters()
        summed: list[np.ndarray] | None = None
        for i in range(xb.shape[0]):
            optimizer.zero_grad()
            logits = self.model.forward(xb[i : i + 1])
            self.loss.forward(logits, yb[i : i + 1])
            self.model.backward(self.loss.backward())
            grads = [p.grad.copy() for p in params]
            clipped, _ = clip_per_sample(grads, self.config.dp.clip_norm)
            if summed is None:
                summed = clipped
            else:
                summed = [acc + g for acc, g in zip(summed, clipped)]
        if summed is None:
            return
        averaged = noisy_gradient(summed, xb.shape[0], self.config.dp, rng)
        optimizer.zero_grad()
        for param, grad in zip(params, averaged):
            param.accumulate(grad)
        optimizer.step()


class BatchedTrainer:
    """Lockstep local SGD for a block of models (one arena row each).

    The blocked counterpart of :class:`LocalTrainer`: ``train_block``
    runs ``local_epochs`` of per-row mini-batch SGD over a ``(B, dim)``
    parameter block, where every row draws its mini-batches from its
    *own* generator in the legacy order (one permutation per epoch),
    steps with its own ``lr_decay ** session``-cooled learning rate, and
    starts each call with fresh momentum state — exactly the semantics
    of running :class:`LocalTrainer` row by row. All math runs in the
    block dtype (a float32 arena trains in float32); in float64 the
    final rows are bit-identical to the workspace path.

    Constraints the caller (the batched executor) enforces by grouping:
    every row of a block must hold the same number of local samples
    (lockstep mini-batch geometry); models without a batched backward
    (e.g. legacy-mode dropout) stay on the per-row path. DP-SGD rides
    the fast path via :meth:`_dp_train_block`, and stream-mode dropout
    via per-row counter-based mask streams.
    """

    def __init__(
        self,
        model: Module,
        config: TrainerConfig,
        layout: StateLayout | None = None,
    ):
        self.model = model
        self.config = config
        self.layout = (
            layout if layout is not None else StateLayout.from_model(model)
        )
        self._batched = BatchedModel(model, self.layout)
        self._param_runs = parameter_column_runs(self.layout)
        # Per-parameter column segments in named_parameters() order —
        # the iteration order of the serial DP step, which the blocked
        # norm fold and noise draws must reproduce exactly.
        self._param_segments = [
            (
                self.layout.slot(name).offset,
                self.layout.slot(name).offset + self.layout.slot(name).size,
            )
            for name, _ in model.named_parameters()
        ]
        self._stream_layers = stream_dropout_layers(model)
        self._batchnorms = [
            (prefix, m)
            for prefix, m in named_leaf_modules(model)
            if isinstance(m, BatchNorm2d)
        ]
        # Persistent (tile, grads) scratch per DP block shape — the
        # tiled forward reallocating ~2 block-sized buffers per step
        # costs more than the clip itself at MLP sizes.
        self._dp_buffers: dict = {}
        self.steps_taken = 0

    def set_config(self, config: TrainerConfig) -> None:
        """Swap hyperparameters explicitly (validated)."""
        if not isinstance(config, TrainerConfig):
            raise TypeError(
                f"expected TrainerConfig, got {type(config).__name__}"
            )
        self.config = config

    def _install_mask_streams(
        self,
        node_ids: Sequence[int],
        sessions: Sequence[int],
        step: int,
        tile: int,
    ) -> None:
        if not self._stream_layers:
            return
        streams = [
            [
                mask_stream_rng(
                    layer.stream_seed, node_ids[j], sessions[j], step, li
                )
                for j in range(len(node_ids))
            ]
            for li, layer in enumerate(self._stream_layers)
        ]
        self._batched.set_mask_streams(streams, tile=tile)

    def train_block(
        self,
        params: np.ndarray,
        xs: Sequence[np.ndarray],
        ys: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
        sessions: Sequence[int],
        node_ids: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Train every row of ``params`` in place; returns the block.

        ``xs[b]``/``ys[b]`` are row b's local split, ``rngs[b]`` its
        generator (mutated — batch orders draw from it exactly as the
        serial path would), ``sessions[b]`` its lr_decay session index.
        ``node_ids[b]`` keys row b's dropout mask streams; required
        when the model has stream-mode dropout layers.
        """
        b = params.shape[0]
        if not (len(xs) == len(ys) == len(rngs) == len(sessions) == b):
            raise ValueError("need one split/rng/session per block row")
        if self._stream_layers and node_ids is None:
            raise ValueError(
                "model has stream-mode dropout; pass node_ids so each "
                "row draws its own mask streams"
            )
        if node_ids is not None and len(node_ids) != b:
            raise ValueError("need one node_id per block row")
        if b == 0 or self.config.local_epochs == 0:
            return params
        n = xs[0].shape[0]
        if any(x.shape[0] != n for x in xs):
            raise ValueError(
                "all rows of a block must hold the same number of samples"
            )
        if n == 0:
            return params
        if self.config.dp is not None:
            return self._dp_train_block(
                params, xs, ys, rngs, sessions, node_ids
            )
        config = self.config
        dtype = params.dtype
        x_all = np.stack(xs)
        if x_all.dtype != dtype:
            x_all = x_all.astype(dtype)
        y_all = np.stack(ys)
        lrs = np.array(
            [
                config.learning_rate * (config.lr_decay**session)
                for session in sessions
            ]
        )
        optimizer = BatchedSGD(
            self._param_runs,
            lrs,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        # backward() writes every parameter slot, so one uninitialized
        # buffer serves all steps without zeroing.
        grads = np.empty_like(params)
        rows = np.arange(b)[:, None]
        step_idx = 0
        for _ in range(config.local_epochs):
            orders = [rng.permutation(n) for rng in rngs]
            for start in range(0, n, config.batch_size):
                batch = np.stack(
                    [order[start : start + config.batch_size] for order in orders]
                )
                self._install_mask_streams(node_ids, sessions, step_idx, 1)
                logits = self._batched.forward(params, x_all[rows, batch])
                _, grad = batched_cross_entropy_grad(
                    logits,
                    y_all[rows, batch],
                    config.label_smoothing,
                    with_losses=False,
                )
                self._batched.backward(grad, grads)
                optimizer.step(params, grads)
                self.steps_taken += 1
                step_idx += 1
        return params

    def _dp_train_block(
        self,
        params: np.ndarray,
        xs: Sequence[np.ndarray],
        ys: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
        sessions: Sequence[int],
        node_ids: Sequence[int] | None,
    ) -> np.ndarray:
        """Vectorized DP-SGD over a block: per-sample gradients at once.

        Every sample of every row becomes its own tile row — a
        ``(B * k, dim)`` forward/backward over parameter copies yields
        all per-sample gradients in one blocked pass (each tile row is
        a size-1 microbatch, so per-row parity makes it bit-identical
        to the serial microbatch loop). Clipping, the sum fold, noising
        and averaging then run as array ops (:func:`clip_block` /
        :func:`noisy_gradient_block`), and one persistent
        :class:`BatchedSGD` steps the real rows — reproducing
        ``LocalTrainer._dp_sgd_step`` exactly in float64.
        """
        dp = self.config.dp
        assert dp is not None
        config = self.config
        b = params.shape[0]
        n = xs[0].shape[0]
        dtype = params.dtype
        x_all = np.stack(xs)
        if x_all.dtype != dtype:
            x_all = x_all.astype(dtype)
        y_all = np.stack(ys)
        lrs = np.array(
            [
                config.learning_rate * (config.lr_decay**session)
                for session in sessions
            ]
        )
        optimizer = BatchedSGD(
            self._param_runs,
            lrs,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        rows = np.arange(b)[:, None]
        batched = self._batched
        batched.collect_bn_stats = True
        step_idx = 0
        try:
            for _ in range(config.local_epochs):
                orders = [rng.permutation(n) for rng in rngs]
                for start in range(0, n, config.batch_size):
                    batch = np.stack(
                        [
                            order[start : start + config.batch_size]
                            for order in orders
                        ]
                    )
                    k = batch.shape[1]
                    xb = x_all[rows, batch]  # (B, k, ...)
                    yb = y_all[rows, batch]  # (B, k)
                    # One tile row per sample: row b*k+i is node b's
                    # sample i run as a size-1 microbatch.
                    tiled, grads = self._dp_scratch(b * k, params)
                    tiled.reshape(b, k, -1)[...] = params[:, None, :]
                    x_tiled = xb.reshape((b * k, 1) + xb.shape[2:])
                    y_tiled = yb.reshape(b * k, 1)
                    self._install_mask_streams(
                        node_ids, sessions, step_idx, k
                    )
                    logits = batched.forward(tiled, x_tiled)
                    _, grad = batched_cross_entropy_grad(
                        logits,
                        y_tiled,
                        config.label_smoothing,
                        with_losses=False,
                    )
                    batched.backward(grad, grads)
                    self._fold_bn_stats(params, b, k)
                    clip_block(grads, self._param_segments, dp.clip_norm)
                    # Sequential left fold over the sample axis, like
                    # the serial `summed = [acc + g]` accumulation.
                    per_sample = grads.reshape(b, k, -1)
                    summed = per_sample[:, 0].copy()
                    for i in range(1, k):
                        summed += per_sample[:, i]
                    averaged = noisy_gradient_block(
                        summed, k, dp, list(rngs), self._param_segments
                    )
                    optimizer.step(params, averaged.astype(dtype, copy=False))
                    self.steps_taken += 1
                    step_idx += 1
        finally:
            batched.collect_bn_stats = False
        return params

    def _dp_scratch(
        self, rows: int, params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reusable (tile, grads) pair for a ``rows``-tile DP step.

        The grads buffer is zeroed once and stays valid across steps:
        ``backward`` write-once-fills every *parameter* slot each pass
        and never touches buffer columns, and the in-place clip scales
        parameter columns only — so the buffer columns' zeros (which
        the sum fold reads) are permanent.
        """
        key = (rows, params.dtype)
        pair = self._dp_buffers.get(key)
        if pair is None:
            pair = (
                np.empty((rows, params.shape[1]), dtype=params.dtype),
                np.zeros((rows, params.shape[1]), dtype=params.dtype),
            )
            self._dp_buffers[key] = pair
        return pair

    def _fold_bn_stats(self, params: np.ndarray, b: int, k: int) -> None:
        """Fold per-tile BatchNorm statistics into the real rows.

        The tiled forward computed each microbatch's (mean, var); the
        serial path folds them into the running buffers one microbatch
        at a time, so replay that exact sequence per row.
        """
        if not self._batchnorms:
            return
        block = _Block(self.layout, params)
        for prefix, module in self._batchnorms:
            mean, var = self._batched.bn_stats[prefix]
            mv = mean.reshape(b, k, -1)
            vv = var.reshape(b, k, -1)
            m = module.momentum
            rmean = block.get("buffer:" + prefix + "running_mean")
            rvar = block.get("buffer:" + prefix + "running_var")
            for i in range(k):
                rmean[...] = (1 - m) * rmean + m * mv[:, i]
                rvar[...] = (1 - m) * rvar + m * vv[:, i]
