"""The optimizer: SGD over a block of models.

Table 2 of the paper trains every model with SGD, momentum in {0, 0.9}
and weight decay 5e-4.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchedSGD"]

# Elements of one (B, columns) chunk of BatchedSGD's elementwise update:
# the chunk's parameters, gradient, velocity and scratch (~1 MB in
# float64) stay in L2 between the decay, momentum and subtract passes.
# One paper-MLP step (B=1, ~200k parameters, momentum and weight decay
# on, float64; 2-vCPU Xeon VM, 2 MB L2 per core), median of 15
# alternating runs: 1k elements 1.36 ms (Python call overhead), 8k
# 0.56 ms, 16k 0.47 ms, 32k 0.44 ms, 64k 0.44 ms, 128k 0.55 ms, whole-row
# passes 0.73 ms.
CHUNK_ELEMENTS = 32_768


class BatchedSGD:
    """SGD over a ``(B, dim)`` parameter block, one model row each.

    Row ``r`` steps with its own learning rate ``lr[r]`` (the batched
    trainer passes ``learning_rate * lr_decay ** session`` per row);
    momentum and weight decay are shared hyperparameters. The update
    follows PyTorch's convention and matches the test suite's
    per-parameter ``SGD`` oracle (``tests/reference_nn.py``) element for
    element — weight decay is added to the gradient and momentum
    buffers accumulate the decayed gradient — and runs in the block
    dtype (learning rates are cast to it, exactly as numpy casts a
    scalar ``lr`` into float32 math).

    ``param_runs`` lists the ``[start, stop)`` column ranges holding
    trainable parameters (see
    :func:`~repro.nn.batched.parameter_column_runs`); other columns —
    e.g. BatchNorm running statistics — are never touched.

    Each run is updated one column chunk of about
    :data:`CHUNK_ELEMENTS` block elements at a time, so the chunk stays
    in cache across the decay, momentum and subtract passes. Every
    element sees the same operations in the same order whatever the
    chunk, so chunking never changes a bit.
    """

    def __init__(
        self,
        param_runs: list[tuple[int, int]],
        lr: np.ndarray,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        lr = np.atleast_1d(np.asarray(lr, dtype=np.float64))
        if lr.ndim != 1 or lr.size == 0:
            raise ValueError("lr must be a (B,) vector of learning rates")
        if np.any(lr <= 0):
            raise ValueError(f"learning rates must be positive, got {lr}")
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        self.param_runs = [(int(a), int(b)) for a, b in param_runs]
        self.lr = lr[:, None]  # broadcasts over the column axis
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}
        self._scratch: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Apply one update to ``params`` in place given ``grads``.

        The hot loop is allocation-free in steady state: temporaries
        live in one chunk-sized scratch buffer, and every in-place
        expression computes the same values in the same order as the
        per-parameter oracle step (``grads`` itself is never
        written). The first step writes the decayed gradient straight
        into the velocity buffer.
        """
        if params.shape != grads.shape or params.shape[0] != self.lr.shape[0]:
            raise ValueError(
                f"params {params.shape} / grads {grads.shape} must be "
                f"({self.lr.shape[0]}, dim) blocks"
            )
        lr = self.lr.astype(params.dtype, copy=False)
        width = max(1, CHUNK_ELEMENTS // params.shape[0])
        scratch = self._scratch
        if scratch is None or scratch.dtype != params.dtype:
            scratch = self._scratch = np.empty(
                (params.shape[0], width), dtype=params.dtype
            )
        decay, momentum = self.weight_decay, self.momentum
        for i, (start, stop) in enumerate(self.param_runs):
            velocity = self._velocity.get(i)
            first = velocity is None
            if momentum and first:
                velocity = self._velocity[i] = np.empty(
                    (params.shape[0], stop - start), dtype=params.dtype
                )
            for lo in range(start, stop, width):
                hi = min(lo + width, stop)
                grad = grads[:, lo:hi]
                block = params[:, lo:hi]
                tmp = scratch[:, : hi - lo]
                if decay:
                    # grad + wd * param, computed as wd * param + grad:
                    # IEEE addition commutes, so the values are identical.
                    # A first momentum step decays into the velocity.
                    out = (
                        velocity[:, lo - start : hi - start]
                        if momentum and first
                        else tmp
                    )
                    np.multiply(block, decay, out=out)
                    out += grad
                    grad = out
                if momentum:
                    buf = velocity[:, lo - start : hi - start]
                    if not first:
                        buf *= momentum
                        buf += grad
                    elif not decay:
                        buf[...] = grad
                    grad = buf
                np.multiply(grad, lr, out=tmp)
                block -= tmp

    def reset_state(self) -> None:
        """Drop momentum buffers (fresh velocity per local session)."""
        self._velocity.clear()
