"""Correctness checks: the pinned record digests and record invariants.

Every check counts as one attempted operation; a failed check, an
exception or an unexpected status counts as one failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Record fields that are probabilities or accuracies.
_UNIT_INTERVAL = (
    "global_test_accuracy",
    "local_train_accuracy",
    "local_test_accuracy",
    "mia_accuracy",
    "mia_tpr_at_1_fpr",
    "mia_auc",
    "max_mia_tpr_at_1_fpr",
)


class Checks:
    """Tally of checks made and the messages of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def merge(self, other: dict) -> None:
        """Fold in a child's ``to_dict()``."""
        self.attempted += other["attempted"]
        self.failures.extend(other["failures"])

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failures": list(self.failures)}


def records_digest(lines: list[str]) -> str:
    """sha256 of ``RoundRecord.to_json()`` lines, newline-joined."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def pinned_digest(workload: str, seed: int, rounds: int) -> str | None:
    """The pinned digest for this run, or None when none is pinned."""
    pins = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    pin = pins.get(workload)
    if pin is None or pin["seed"] != seed or pin["rounds"] != rounds:
        return None
    return pin["sha256"]


def check_records(
    checks: Checks,
    lines: list[str],
    rounds: int,
    expected_digest: str | None,
    fallback_counts: dict,
) -> None:
    """Invariants for any seed, plus the digest where one is pinned."""
    checks.check(
        len(lines) == rounds, f"expected {rounds} records, got {len(lines)}"
    )
    previous_sent = -1
    for index, line in enumerate(lines):
        record = json.loads(line)
        checks.check(
            record["round_index"] == index,
            f"record {index} has round_index {record['round_index']}",
        )
        numbers = [
            v for v in record.values()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        checks.check(
            all(math.isfinite(v) for v in numbers),
            f"record {index} holds a non-finite value",
        )
        checks.check(
            all(0.0 <= record[k] <= 1.0 for k in _UNIT_INTERVAL),
            f"record {index} has an accuracy or MIA metric outside [0, 1]",
        )
        checks.check(
            record["messages_sent"] >= previous_sent,
            f"messages_sent decreased at record {index}",
        )
        previous_sent = record["messages_sent"]
    checks.check(
        fallback_counts == {},
        f"rows left the fast path: fallback_counts={fallback_counts}",
    )
    if expected_digest is not None:
        digest = records_digest(lines)
        checks.check(
            digest == expected_digest,
            f"records digest {digest} != pinned {expected_digest}",
        )
