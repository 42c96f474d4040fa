"""Model evaluation: accuracy, probabilities, generalization error.

Implements the metrics of Section 3.2: top-1 accuracy on the global
test set (Equation 5) and the generalization error as local-train minus
local-test accuracy (Equation 8).

:class:`BatchedEvaluator` scores a ``(B, dim)`` block of flat parameter
vectors (arena rows, addressed by a :class:`~repro.nn.flat.StateLayout`)
in blocked numpy ops; the observer scores every node this way, and
the shadow-model attack scores its shadows and classifier as one-row
blocks. One-model helpers on the per-layer passes (``predict_proba``,
``accuracy``) are the test suite's oracle, in ``tests/reference_nn.py``.

Dtype contract: the math runs in the dtype of the parameter block —
inputs are cast to it, so float32 states are scored in float32 end to
end instead of being promoted to float64. Probabilities come back in
that dtype; metric scalars are Python floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.nn import functional as F
from repro.nn.batched import (
    batched_forward,
    peak_activation_size,
    supports_batched_forward,
)
from repro.nn.flat import StateLayout
from repro.nn.layers import Module

__all__ = [
    "ModelEvaluation",
    "BatchedEvaluator",
    "row_block",
]

# Bytes one row block's largest activation may take when eval_batch=0:
# rows per block = ROW_BLOCK_BYTES // (largest per-sample activation x
# samples per kernel x itemsize), so a block's layer outputs stay in L2.
# accuracy_rows on the paper MLP (float64, 2-vCPU VM, 2 MB L2 per core,
# medians in one process): 64 rows x 512 samples 274-282 ms in one block
# vs 208-216 ms in 2-row blocks; 128 rows x 128 samples 157 ms vs
# 113-125 ms in 4-row blocks.
ROW_BLOCK_BYTES = 1 << 20


@dataclass
class ModelEvaluation:
    """All Section 3.2 metrics for one node's model at one round."""

    node_id: int
    global_test_accuracy: float
    local_train_accuracy: float
    local_test_accuracy: float
    mia_accuracy: float
    mia_tpr_at_1_fpr: float
    mia_auc: float

    @property
    def generalization_error(self) -> float:
        return self.local_train_accuracy - self.local_test_accuracy


def row_block(params: np.ndarray, rows: list[int]) -> np.ndarray:
    """``params[rows]`` as the slice view ``params[lo:hi]`` when ``rows``
    is one ascending range; a gather copy only for scattered rows."""
    lo = rows[0]
    if rows == list(range(lo, lo + len(rows))):
        return params[lo : lo + len(rows)]
    return params[np.asarray(rows, dtype=np.intp)]


class BatchedEvaluator:
    """Scores many flat parameter vectors against eval data at once.

    ``params`` arguments are ``(B, dim)`` blocks whose rows follow the
    evaluator's :class:`~repro.nn.flat.StateLayout` — arena rows, or
    packed dict states. Work is blocked along both axes: at most
    ``batch_size`` samples per kernel, and row blocks of ``eval_batch``
    model rows, or with ``eval_batch=0`` row blocks sized by the code
    (:meth:`rows_per_block`) so that a block's activations stay in
    cache. Every row's arithmetic is independent of its block, so every
    ``eval_batch`` gives identical results.

    All math runs in the dtype of the ``params`` block (the arena
    dtype); metric outputs are float64/Python floats as everywhere
    else. Results match the per-layer oracle within dtype tolerance —
    the ops are algebraically identical but associate differently.
    """

    def __init__(
        self,
        model: Module,
        layout: StateLayout | None = None,
        eval_batch: int = 0,
        batch_size: int = 256,
    ):
        if eval_batch < 0:
            raise ValueError(
                "eval_batch must be >= 0 (0 = row blocks sized by the code)"
            )
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not supports_batched_forward(model):
            raise ValueError(
                f"model {type(model).__name__} contains layers without a "
                "batched forward"
            )
        self.model = model
        self.layout = layout if layout is not None else StateLayout.from_model(model)
        self.eval_batch = eval_batch
        self.batch_size = batch_size
        self._peak: dict[tuple[int, ...], int] = {}

    def rows_per_block(
        self, sample_shape: tuple[int, ...], n_samples: int, dtype
    ) -> int:
        """Model rows per blocked kernel on inputs of ``n_samples``
        samples shaped ``sample_shape``: ``eval_batch`` when set, else
        as many rows as keep the largest activation within
        :data:`ROW_BLOCK_BYTES` (at least one)."""
        if self.eval_batch:
            return self.eval_batch
        shape = tuple(sample_shape)
        if shape not in self._peak:
            self._peak[shape] = peak_activation_size(self.model, shape)
        row_bytes = (
            self._peak[shape]
            * min(self.batch_size, n_samples)
            * np.dtype(dtype).itemsize
        )
        return max(1, ROW_BLOCK_BYTES // max(1, row_bytes))

    # -- internals ----------------------------------------------------

    def _shared_map(self, params: np.ndarray, x: np.ndarray, fn) -> np.ndarray:
        """Apply ``fn`` to blocked shared-input logits; stitch to (B, N, ...).

        Blocks cover at most :meth:`rows_per_block` parameter rows and
        ``batch_size`` samples at a time. The row blocks of one sample
        chunk run back to back and share its conv patches;
        single-block results are returned without a concatenate copy.
        """

        def concat(blocks, axis):
            return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis)

        # Cast once, not once per row block.
        x = np.asarray(x, dtype=params.dtype)
        step = self.rows_per_block(x.shape[1:], x.shape[0], params.dtype)
        chunks = []
        for start in range(0, x.shape[0], self.batch_size):
            patches: dict = {}
            row_blocks = [
                fn(
                    batched_forward(
                        self.model,
                        self.layout,
                        params[lo : lo + step],
                        x[start : start + self.batch_size],
                        shared=True,
                        patches=patches,
                    ),
                    start,
                )
                for lo in range(0, params.shape[0], step)
            ]
            chunks.append(concat(row_blocks, 0))
        return concat(chunks, 1)

    def _proba_shared(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(B, N, C) softmax probabilities on one shared input set."""
        return self._shared_map(
            params, x, lambda logits, _: F.softmax(logits, axis=-1)
        )

    def _grouped_proba_blocks(
        self,
        params: np.ndarray,
        xs: list[np.ndarray],
        rows: list[int] | None = None,
    ):
        """Yield ``(input_indices, probs (b, N, C))`` blocks, one input per row.

        ``rows`` maps each input set to its parameter row (defaults to
        ``i -> i``; repeats are allowed, so one call can score several
        input sets against the same model). Inputs are grouped by shape
        and by repeat count, so same-sized attack sets (the common case:
        every node subsamples to the same cap) run as one ``(B, N, ...)``
        batched forward; ragged leftovers form their own groups. A group
        whose rows form one ascending range reads its models as a slice
        of ``params``, not a gather copy. Each group is further split
        into :meth:`rows_per_block` row blocks, and each block stacks
        only its own inputs. Every row's math is independent of the
        block it lands in, so the grouping never changes results.
        """
        if rows is None:
            if len(xs) != params.shape[0]:
                raise ValueError("need exactly one input set per parameter row")
            rows = list(range(len(xs)))
        elif len(rows) != len(xs):
            raise ValueError("rows must map every input set to a parameter row")
        groups: dict[tuple, list[int]] = {}
        seen: Counter[int] = Counter()
        for i, x in enumerate(xs):
            # A row's k-th input set joins the k-th group of its shape,
            # so the observer's train and test sets form two row ranges.
            groups.setdefault((x.shape, seen[rows[i]]), []).append(i)
            seen[rows[i]] += 1
        for indices in groups.values():
            block = row_block(params, [rows[i] for i in indices])
            shape = xs[indices[0]].shape
            step = self.rows_per_block(shape[1:], shape[0], params.dtype)
            for lo in range(0, len(indices), step):
                hi = min(lo + step, len(indices))
                stacked = np.stack([xs[i] for i in indices[lo:hi]])
                chunks = [
                    F.softmax(
                        batched_forward(
                            self.model,
                            self.layout,
                            block[lo:hi],
                            stacked[:, start : start + self.batch_size],
                            shared=False,
                        ),
                        axis=-1,
                    )
                    for start in range(0, shape[0], self.batch_size)
                ]
                yield indices[lo:hi], (
                    chunks[0]
                    if len(chunks) == 1
                    else np.concatenate(chunks, axis=1)
                )

    # -- public API ---------------------------------------------------

    def predict_proba_rows(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Softmax probabilities of every row on shared ``x``: (B, N, C)."""
        x = np.asarray(x)
        if x.shape[0] == 0:
            # No samples: an empty (B, 0, 0) block.
            return np.empty((params.shape[0], 0, 0), params.dtype)
        return self._proba_shared(params, x)

    def accuracy_rows(
        self, params: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Top-1 accuracy of every row on one shared labeled set: (B,).

        Predictions come from logit argmax directly — softmax is
        monotone per row, so this matches the probability-path argmax
        while skipping the exp/normalize work.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[0] == 0:
            raise ValueError("cannot compute accuracy on an empty set")
        hits = self._shared_map(
            params,
            x,
            lambda logits, start: logits.argmax(axis=-1)
            == y[None, start : start + logits.shape[1]],
        )
        return hits.mean(axis=-1)

    def attack_observations(
        self,
        params: np.ndarray,
        xs: list[np.ndarray],
        ys: list[np.ndarray],
        rows: list[int] | None = None,
    ) -> list[tuple[np.ndarray, float]]:
        """Per-set ``(mpe_scores, accuracy)`` on one labeled set per entry.

        This is the privacy-attack observation primitive: each entry
        names a victim model (``rows[i]``, defaulting to ``i``) and its
        attack samples ``(xs[i], ys[i])``; repeated rows let one call
        cover several attack sets per model. The forward passes and the
        MPE scoring both run batched
        (:func:`repro.privacy.mia.mpe_scores_batched`); nothing is
        materialized per node beyond its own score vector.
        """
        from repro.privacy.mia import mpe_scores_batched

        xs = [np.asarray(x) for x in xs]
        ys = [np.asarray(y) for y in ys]
        out: list[tuple[np.ndarray, float] | None] = [None] * len(xs)
        for indices, probs in self._grouped_proba_blocks(params, xs, rows):
            labels = np.stack([ys[i] for i in indices])
            scores = mpe_scores_batched(probs, labels)
            hits = probs.argmax(axis=-1) == labels
            accs = hits.mean(axis=-1) if labels.shape[1] else np.zeros(len(indices))
            for j, i in enumerate(indices):
                out[i] = (scores[j], float(accs[j]))
        return out  # type: ignore[return-value]
