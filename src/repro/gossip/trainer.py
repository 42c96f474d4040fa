"""Local update steps (Equation 2), with optional DP-SGD.

Every node's model is one row of the engine's flat arena, and
:class:`BatchedTrainer` trains a ``(B, dim)`` block of such rows in
place: ``B == 1`` is one node's update, larger blocks train several
same-size nodes in lockstep. It is the only trainer; the per-row
workspace loop it replaced lives on in the test suite as the reference
that the blocked kernel must reproduce bit for bit in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.batched import BatchedModel, parameter_column_runs
from repro.nn.flat import StateLayout
from repro.nn.layers import Module, mask_stream_rng, stream_dropout_layers
from repro.nn.loss import batched_cross_entropy_grad
from repro.nn.optim import BatchedSGD
from repro.privacy.dp import DPSGDConfig, clip_block, noisy_gradient_block

# Not called here: the end-to-end benchmark's tracer (benchmarks/e2e)
# wraps these two by name in this module, so they stay bound.
from repro.privacy.dp import clip_per_sample, noisy_gradient  # noqa: F401

__all__ = ["TrainerConfig", "BatchedTrainer", "check_sgd_hyperparameters"]


def check_sgd_hyperparameters(
    learning_rate: float, momentum: float, weight_decay: float
) -> None:
    """Reject SGD settings that fail mid-study (negative momentum) or
    train NaN models (non-finite values, negative weight decay): the
    learning rate must be finite and > 0, momentum and weight decay
    finite and >= 0."""
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(
            f"learning_rate must be finite and > 0, got {learning_rate!r}"
        )
    for name, value in (("momentum", momentum), ("weight_decay", weight_decay)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


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
        check_sgd_hyperparameters(
            self.learning_rate, self.momentum, self.weight_decay
        )
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")


class BatchedTrainer:
    """Lockstep local SGD for a block of models (one arena row each).

    ``train_block`` runs ``local_epochs`` of per-row mini-batch SGD over
    a ``(B, dim)`` parameter block, in place. Every row draws its
    mini-batches from its *own* generator (one permutation per epoch),
    steps with its own ``lr_decay ** session``-cooled learning rate and
    starts each call with fresh momentum: after gossip aggregation a
    stale velocity has no meaning, so each local session starts clean
    (see DESIGN.md). Rows never interact, so a row's result does not
    depend on what else shares its block. All math runs in the block
    dtype (a float32 arena trains in float32).

    The caller (the executor) groups rows so that every row of a block
    holds the same number of local samples (lockstep mini-batch
    geometry). DP-SGD and stream-mode dropout run on the same kernel:
    dropout masks come from per-row counter-based streams, and a DP-SGD
    step is one per-sample forward/backward over the live rows (every
    sample its own microbatch of one), after which each sample's
    gradient is written, clipped and summed in turn in reused scratch.
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
        # Per-parameter column segments in named_parameters() order:
        # the order the DP norm fold and noise draws iterate.
        self._param_segments = [
            (
                self.layout.slot(name).offset,
                self.layout.slot(name).offset + self.layout.slot(name).size,
            )
            for name, _ in model.named_parameters()
        ]
        # Row width of the DP clip's squares scratch: the widest
        # parameter.
        self._widest_segment = max(
            (stop - start for start, stop in self._param_segments), default=0
        )
        self._stream_layers = stream_dropout_layers(model)
        self.steps_taken = 0

    def set_config(self, config: TrainerConfig) -> None:
        """Swap hyperparameters explicitly (validated).

        The supported way to change config mid-run (e.g. DP
        installation); the next ``train_block`` call uses it.
        """
        if not isinstance(config, TrainerConfig):
            raise TypeError(
                f"expected TrainerConfig, got {type(config).__name__}"
            )
        self.config = config

    def _install_mask_streams(
        self, node_ids: Sequence[int], sessions: Sequence[int], step: int
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
        self._batched.set_mask_streams(streams)

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
        generator (mutated: batch orders and DP noise draw from it),
        ``sessions[b]`` its lr_decay session index. ``node_ids[b]``
        keys row b's dropout mask streams; required when the model has
        stream-mode dropout layers. Empty splits and zero epochs leave
        the block untouched.
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
        # backward() writes every parameter slot, so one buffer serves
        # all steps without zeroing. DP sums whole rows, so its buffer
        # columns (never written) must hold zeros, not garbage.
        if config.dp is None:
            grads = np.empty_like(params)
        else:
            grads = np.zeros_like(params)
            summed = np.empty_like(params)
            squares = np.empty(b * self._widest_segment, dtype=dtype)
        rows = np.arange(b)[:, None]
        step_idx = 0
        for _ in range(config.local_epochs):
            orders = [rng.permutation(n) for rng in rngs]
            for start in range(0, n, config.batch_size):
                batch = np.stack(
                    [order[start : start + config.batch_size] for order in orders]
                )
                # One stream per row and step: DP's per-sample pass
                # draws consecutive masks from it.
                self._install_mask_streams(node_ids, sessions, step_idx)
                xb, yb = x_all[rows, batch], y_all[rows, batch]
                if config.dp is None:
                    logits = self._batched.forward(params, xb)
                    _, grad = batched_cross_entropy_grad(
                        logits, yb, config.label_smoothing, with_losses=False
                    )
                    self._batched.backward(grad, grads)
                    optimizer.step(params, grads)
                else:
                    averaged = self._dp_gradient(
                        params, xb, yb, rngs, grads, summed, squares
                    )
                    optimizer.step(params, averaged.astype(dtype, copy=False))
                self.steps_taken += 1
                step_idx += 1
        self._batched.release()
        return params

    def _dp_gradient(
        self,
        params: np.ndarray,
        xb: np.ndarray,
        yb: np.ndarray,
        rngs: Sequence[np.random.Generator],
        grads: np.ndarray,
        summed: np.ndarray,
        squares: np.ndarray,
    ) -> np.ndarray:
        """DP-SGD: per-sample clipped gradients, summed, noised, averaged.

        One per-sample forward/backward runs every sample of the step
        as its own microbatch of one (BatchNorm folds each sample into
        the running statistics in sample order). Then, sample by
        sample, its gradient is written into ``grads``, clipped per row
        (:func:`clip_block`, squaring into ``squares``) and added to a
        left-to-right sum in ``summed``; :func:`noisy_gradient_block`
        then draws each row's noise from that row's generator, into
        ``grads`` when it is float64. Only one sample's gradient exists
        at a time: scratch is two blocks and the squares, whatever the
        batch size.
        """
        dp = self.config.dp
        b, k = yb.shape
        logits = self._batched.forward_per_sample(params, xb)
        # A microbatch of one: each sample's loss gradient divides by 1.
        _, grad = batched_cross_entropy_grad(
            logits.reshape(b * k, 1, -1),
            yb.reshape(b * k, 1),
            self.config.label_smoothing,
            with_losses=False,
        )
        self._batched.backward_per_sample(grad.reshape(logits.shape))
        for i in range(k):
            self._batched.sample_gradient(i, grads)
            clip_block(grads, self._param_segments, dp.clip_norm, squares)
            if i == 0:
                summed[...] = grads
            else:
                summed += grads
        return noisy_gradient_block(
            summed, k, dp, list(rngs), self._param_segments,
            out=grads if grads.dtype == np.float64 else None,
        )
