"""Model evaluation: accuracy, probabilities, generalization error.

Implements the metrics of Section 3.2: top-1 accuracy on the global
test set (Equation 5) and the generalization error as local-train minus
local-test accuracy (Equation 8).

Two evaluation paths share these formulas:

* the **per-model helpers** (:func:`predict_proba`, :func:`accuracy`)
  score one model loaded into a workspace
  :class:`~repro.nn.layers.Module` — for attacks on one model, and as
  the tests' reference;
* the **row-batch path** (:class:`BatchedEvaluator`) scores a
  ``(B, dim)`` block of flat parameter vectors (arena rows, addressed
  by a :class:`~repro.nn.flat.StateLayout`) in blocked numpy ops
  without touching a workspace model. The observer scores every node
  this way.

Dtype contract: both paths keep the math in the model's parameter
dtype — inputs are cast to it, so float32 states are scored in float32
end to end instead of being promoted to float64. Probabilities come
back in that dtype; metric scalars are Python floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.nn import functional as F
from repro.nn.batched import batched_forward, supports_batched_forward
from repro.nn.flat import StateLayout
from repro.nn.layers import Module

__all__ = [
    "predict_proba",
    "accuracy",
    "generalization_error",
    "ModelEvaluation",
    "BatchedEvaluator",
    "row_block",
]


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
    is scored in float32 (the arena-dtype contract) rather than letting
    float64 eval data promote every activation.
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
    packed dict states. Work is
    blocked along both axes to bound memory: at most ``eval_batch``
    model rows (0 = all at once) and ``batch_size`` samples per kernel.

    All math runs in the dtype of the ``params`` block (the arena
    dtype); metric outputs are float64/Python floats as everywhere
    else. Results match the per-model path within dtype tolerance —
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
            raise ValueError("eval_batch must be >= 0 (0 = all rows at once)")
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

    # -- internals ----------------------------------------------------

    def _row_blocks(self, n_rows: int):
        step = self.eval_batch or n_rows
        for start in range(0, n_rows, step):
            yield start, min(start + step, n_rows)

    def _shared_map(self, params: np.ndarray, x: np.ndarray, fn) -> np.ndarray:
        """Apply ``fn`` to blocked shared-input logits; stitch to (B, N, ...).

        Blocks cover at most ``eval_batch`` parameter rows and
        ``batch_size`` samples at a time; single-block results are
        returned without a concatenate copy.
        """

        def concat(blocks, axis):
            return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis)

        row_blocks = []
        for lo, hi in self._row_blocks(params.shape[0]):
            chunks = [
                fn(
                    batched_forward(
                        self.model,
                        self.layout,
                        params[lo:hi],
                        x[start : start + self.batch_size],
                        shared=True,
                    ),
                    start,
                )
                for start in range(0, x.shape[0], self.batch_size)
            ]
            row_blocks.append(concat(chunks, 1))
        return concat(row_blocks, 0)

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
        into ``eval_batch`` row blocks. Every row's math is independent
        of the block it lands in, so the grouping never changes results.
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
            stacked = np.stack([xs[i] for i in indices])
            n_samples = stacked.shape[1]
            for lo, hi in self._row_blocks(block.shape[0]):
                chunks = [
                    F.softmax(
                        batched_forward(
                            self.model,
                            self.layout,
                            block[lo:hi],
                            stacked[lo:hi, start : start + self.batch_size],
                            shared=False,
                        ),
                        axis=-1,
                    )
                    for start in range(0, n_samples, self.batch_size)
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
            # Mirror predict_proba's empty-input contract.
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
