"""Softmax cross-entropy over a block of models.

Dtype contract: the loss computes in the logits' floating dtype —
float32 logits produce float32 gradients (no silent float64 promotion),
so float32 arenas train in float32 end to end.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F

__all__ = ["batched_cross_entropy_grad"]


def batched_cross_entropy_grad(
    logits: np.ndarray,
    labels: np.ndarray,
    label_smoothing: float = 0.0,
    with_losses: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-row mean losses ``(B,)`` and logits gradient ``(B, N, C)``.

    Softmax cross-entropy over integer labels for B models at once: row
    ``b`` of the result is exactly what the test suite's scalar
    ``CrossEntropyLoss`` oracle (``tests/reference_nn.py``) computes on
    ``(logits[b], labels[b])`` — same math, same operand layout per
    slice, in the logits dtype. The gradient is already
    divided by the per-row batch size ``N``, composing directly with
    :meth:`~repro.nn.batched.BatchedModel.backward`. ``with_losses=False``
    skips the loss values (returns ``None`` in their place) — the
    training hot path only consumes the gradient.
    """
    logits = np.asarray(logits)
    if logits.ndim != 3:
        raise ValueError(f"logits must be (B, N, C), got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != logits.shape[:2]:
        raise ValueError(
            f"labels must be {logits.shape[:2]}, got {labels.shape}"
        )
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError("label_smoothing must be in [0, 1)")
    num_classes = logits.shape[2]
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range")
    log_probs = F.log_softmax(logits, axis=-1)
    targets = np.zeros(logits.shape, dtype=log_probs.dtype)
    np.put_along_axis(targets, labels[..., None], 1.0, axis=-1)
    if label_smoothing > 0.0:
        eps = label_smoothing
        targets = (1.0 - eps) * targets + eps / num_classes
    probs = np.exp(log_probs)
    losses = None
    if with_losses:
        losses = -(targets * log_probs).sum(axis=-1).mean(axis=-1)
    grad = (probs - targets) / logits.shape[1]
    return losses, grad
