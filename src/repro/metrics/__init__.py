"""Evaluation metrics and per-round record containers (Section 3.2)."""

from repro.metrics.evaluation import BatchedEvaluator, ModelEvaluation
from repro.metrics.records import RoundRecord, RunResult

__all__ = [
    "BatchedEvaluator",
    "ModelEvaluation",
    "RoundRecord",
    "RunResult",
]
