"""Evaluation metrics and per-round record containers (Section 3.2)."""

from repro.metrics.evaluation import (
    accuracy,
    predict_proba,
    generalization_error,
    BatchedEvaluator,
    ModelEvaluation,
)
from repro.metrics.records import RoundRecord, RunResult

__all__ = [
    "accuracy",
    "predict_proba",
    "generalization_error",
    "BatchedEvaluator",
    "ModelEvaluation",
    "RoundRecord",
    "RunResult",
]
