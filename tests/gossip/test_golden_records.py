"""Golden records: fixed-seed studies pinned to recorded bytes.

A tiny matrix of studies (8 nodes, 3 rounds) covers both protocols on
static and PeerSwap graphs, failure injection with network delay,
``lr_decay`` and DP-SGD. Their ``RoundRecord``s and channel counters
are stored in ``golden_records.json``; any change to the gossip engine
that moves a result shows up here as a diff against those bytes.

Integers compare exactly. Floats compare at ``rel=1e-9`` because a
different numpy/BLAS build may round the last bit differently.

Regenerate the fixture (only when a result change is intended)::

    PYTHONPATH=src python tests/gossip/test_golden_records.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro import StudyConfig, run_study

FIXTURE = Path(__file__).with_name("golden_records.json")

_BASE = dict(
    dataset="purchase100",
    n_train=600,
    n_test=150,
    num_features=64,
    n_nodes=8,
    view_size=2,
    rounds=3,
    train_per_node=24,
    test_per_node=12,
    mlp_hidden=(32, 16),
    local_epochs=1,
    batch_size=12,
    max_attack_samples=32,
    max_global_test=64,
    seed=7,
)

CASES: dict[str, dict] = {
    "samo-static": dict(protocol="samo", sampler="static"),
    "samo-peerswap": dict(protocol="samo", sampler="peerswap"),
    "base-static": dict(protocol="base_gossip", sampler="static"),
    "base-peerswap": dict(protocol="base_gossip", sampler="peerswap"),
    "samo-faults": dict(
        protocol="samo",
        sampler="peerswap",
        drop_prob=0.15,
        failure_prob=0.1,
        delay_ticks=10,
        delay_jitter=60,
    ),
    "base-lr-decay": dict(protocol="base_gossip", lr_decay=0.8),
    "samo-dp": dict(protocol="samo", dp_epsilon=8.0),
}

COUNTERS = ("messages_dropped", "wakes_skipped", "messages_undelivered")


def case_config(name: str) -> StudyConfig:
    return StudyConfig(name=f"golden-{name}", **dict(_BASE, **CASES[name]))


def record_case(name: str) -> dict:
    result = run_study(case_config(name))
    return {
        "rounds": [record.to_dict() for record in result.rounds],
        "counters": {key: result.metadata[key] for key in COUNTERS},
    }


def assert_same(actual, expected, where: str) -> None:
    if isinstance(expected, dict):
        assert set(actual) == set(expected), where
        for key in expected:
            assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=0.0), (
            f"{where}: {actual!r} != {expected!r}"
        )
    else:
        # ints, bools and None: exact.
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_golden(name, golden):
    assert_same(record_case(name), golden[name], name)


def test_comparison_catches_a_last_digit_change(golden):
    """The float tolerance is tight enough to notice a real change."""
    entry = json.loads(json.dumps(golden["samo-static"]))
    record = entry["rounds"][-1]
    record["mia_accuracy"] = record["mia_accuracy"] * (1 + 1e-7)
    with pytest.raises(AssertionError):
        assert_same(entry, golden["samo-static"], "tampered")


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: record_case(name) for name in CASES}, indent=1)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
