"""Pinned ``config_hash`` corpus: stored configs keep their identity.

Service journals, the job manager's dedup index, checkpoints and
campaign manifests key a study by ``config_hash``. Each case below is a config payload in
one of the spellings ``StudyConfig.from_dict`` accepts, or a
``scaled_config`` preset; ``config_hash_corpus.json`` records its hash
hex and its ``to_dict()`` output. A change to the config layer that
moves either shows up here as a diff against those bytes.

A stored config whose loading changes on purpose is not re-recorded:
its entry keeps the bytes stored configs carry, and :data:`CHANGED`
names it with the reason and a test pins what loading it does now.

Regenerate the fixture (only when an identity change is intended)::

    PYTHONPATH=src python tests/core/test_config_hash_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import config_hash
from repro.core.study import StudyConfig
from repro.experiments.configs import SCALES, TABLE2, scaled_config

FIXTURE = Path(__file__).with_name("config_hash_corpus.json")

# One config in three spellings: flat keys, group sections, and a mix
# (each group either flat or as a section).
_SPELLING_FLAT = dict(
    name="spelling",
    seed=5,
    dataset="purchase100",
    n_train=600,
    n_test=150,
    num_features=64,
    mlp_hidden=[32, 16],
    n_nodes=8,
    rounds=3,
    sampler="peerswap",
    executor="batched",
    dp_epsilon=10.0,
    n_canaries=4,
)
_SPELLING_GROUPED = {
    "name": "spelling",
    "seed": 5,
    "data": {
        "dataset": "purchase100",
        "n_train": 600,
        "n_test": 150,
        "num_features": 64,
    },
    "model": {"mlp_hidden": [32, 16]},
    "topology": {"n_nodes": 8, "rounds": 3, "sampler": "peerswap"},
    "execution": {"executor": "batched"},
    "privacy": {"dp_epsilon": 10.0, "n_canaries": 4},
}
_SPELLING_MIXED = {
    "privacy": {"n_canaries": 4, "dp_epsilon": 10.0},
    "mlp_hidden": [32, 16],
    "data": {
        "num_features": 64,
        "dataset": "purchase100",
        "n_test": 150,
        "n_train": 600,
    },
    "executor": "batched",
    "seed": 5,
    "n_nodes": 8,
    "rounds": 3,
    "sampler": "peerswap",
    "name": "spelling",
}


def _pre_shard_removal_full() -> dict:
    """What ``to_dict`` wrote while the sharded executor existed:
    ``dropout_mode`` in ``model``, ``n_shards`` and ``shard_partition``
    in ``execution``, all at their defaults."""
    payload = StudyConfig(name="pre-removal", n_nodes=8, seed=3).to_dict()
    payload["model"] = dict(payload["model"], dropout_mode="stream")
    payload["execution"] = dict(
        payload["execution"], n_shards=0, shard_partition="contiguous"
    )
    return payload


def _pre_removal_full() -> dict:
    """What ``to_dict`` wrote while the dict engine and the process
    pool existed: every group spelled out, ``engine`` and ``n_workers``
    at their defaults."""
    payload = StudyConfig(name="pre-removal", n_nodes=8, seed=3).to_dict()
    payload["execution"] = dict(payload["execution"], engine="flat", n_workers=0)
    return payload


PAYLOADS: dict[str, dict] = {
    "defaults": {},
    # The benchmark's four workloads at seed 0 (engine rounds as run
    # with --seconds 20; the service mix's first fresh study).
    "e2e-samo-static-64": {
        "dataset": "purchase100",
        "n_nodes": 64,
        "protocol": "samo",
        "view_size": 2,
        "seed": 0,
        "name": "samo-static-64",
        "rounds": 21,
    },
    "e2e-base-peerswap-dp-16": {
        "dataset": "purchase100",
        "n_nodes": 16,
        "protocol": "base_gossip",
        "sampler": "peerswap",
        "view_size": 2,
        "dp_epsilon": 8.0,
        "local_epochs": 1,
        "seed": 0,
        "name": "base-peerswap-dp-16",
        "rounds": 12,
    },
    "e2e-samo-peerswap-v8-128": {
        "dataset": "purchase100",
        "n_nodes": 128,
        "protocol": "samo",
        "sampler": "peerswap",
        "view_size": 8,
        "local_epochs": 1,
        "train_per_node": 16,
        "test_per_node": 16,
        "max_global_test": 128,
        "max_attack_samples": 16,
        "seed": 0,
        "name": "samo-peerswap-v8-128",
        "rounds": 14,
    },
    "e2e-service-durable-mix": {
        "dataset": "purchase100",
        "n_nodes": 8,
        "rounds": 4,
        "n_train": 600,
        "n_test": 150,
        "num_features": 64,
        "mlp_hidden": [32, 16],
        "train_per_node": 24,
        "test_per_node": 12,
        "local_epochs": 1,
        "batch_size": 12,
        "max_attack_samples": 32,
        "max_global_test": 64,
        "seed": 0,
        "name": "e2e-c0-fresh-0",
    },
    "spelling-flat": _SPELLING_FLAT,
    "spelling-grouped": _SPELLING_GROUPED,
    "spelling-mixed": _SPELLING_MIXED,
    # Keys of configs stored before the dict engine and the process
    # pool were removed, flat and nested under "execution".
    "pre-removal-flat": dict(
        name="pre-removal",
        n_nodes=8,
        seed=3,
        engine="flat",
        n_workers=4,
        executor="process",
    ),
    "pre-removal-nested": {
        "name": "pre-removal",
        "seed": 3,
        "topology": {"n_nodes": 8},
        "execution": {"engine": "flat", "n_workers": 2, "executor": "process"},
    },
    "pre-removal-grouped-full": _pre_removal_full(),
    # Keys of configs stored before the sharded executor and the
    # dropout mode were removed: a float64 sharded run loads as serial.
    "pre-shard-removal-flat": dict(
        name="pre-removal",
        n_nodes=8,
        seed=3,
        executor="sharded",
        n_shards=2,
        shard_partition="balanced",
        dropout_mode="stream",
    ),
    "pre-shard-removal-nested": {
        "name": "pre-removal",
        "seed": 3,
        "model": {"dropout_mode": "stream"},
        "topology": {"n_nodes": 8},
        "execution": {
            "executor": "sharded",
            "n_shards": 2,
            "shard_partition": "balanced",
            "arena_dtype": "float64",
        },
    },
    "pre-shard-removal-grouped-full": _pre_shard_removal_full(),
    "modern-equivalent": dict(name="pre-removal", n_nodes=8, seed=3),
    "dp": dict(
        name="dp",
        dataset="purchase100",
        dp_epsilon=8.0,
        dp_delta=1e-6,
        dp_clip_norm=2.0,
    ),
    "canaries": dict(name="canaries", n_canaries=16),
    "dropout-stream": dict(name="dropout", dataset="purchase100", dropout=0.25),
    "dropout-legacy": dict(
        name="dropout", dataset="purchase100", dropout=0.25, dropout_mode="legacy"
    ),
    "dirichlet-beta": dict(name="non-iid", beta=0.5),
    "mlp-hidden-list": dict(name="mlp", dataset="purchase100", mlp_hidden=[64, 32]),
    "faults": dict(
        name="faults",
        drop_prob=0.1,
        failure_prob=0.05,
        delay_ticks=5,
        delay_jitter=10,
    ),
    "execution": dict(
        name="execution",
        executor="sharded",
        n_shards=2,
        shard_partition="balanced",
        train_batch=4,
        eval_batch=8,
        arena_dtype="float32",
        keep_node_records=True,
    ),
    "execution-batched": dict(
        name="execution",
        executor="batched",
        train_batch=4,
        eval_batch=8,
        arena_dtype="float32",
        keep_node_records=True,
    ),
    "escape-hatches": dict(name="per-row", train_batch=-1, eval_batch=-1),
    "protocols": dict(
        name="partial", protocol="base_gossip_partial", sampler="fresh", dynamic=True
    ),
    "training": dict(
        name="training",
        learning_rate=0.001,
        momentum=0.0,
        weight_decay=0.0,
        local_epochs=0,
        label_smoothing=0.1,
        lr_decay=0.9,
    ),
    "whole-pool-splits": dict(
        name="pool", train_per_node=None, test_per_node=None
    ),
}

PRESETS: dict[str, list[str]] = {
    f"preset-{dataset}-{scale}": [dataset, scale]
    for dataset in TABLE2
    for scale in SCALES
}

CORPUS: dict = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}

# Recorded entries whose loading changed on purpose, with the reason.
CHANGED: dict[str, str] = {
    "dropout-legacy": (
        "dropout_mode 'legacy' drew its masks in the removed workspace "
        "trainer; no kernel reproduces them, so loading is rejected"
    ),
    "escape-hatches": (
        "eval_batch -1 selected the removed per-node observer loop, which "
        "agrees with the row-batch observer only to ~1e-9, not bit for "
        "bit; loading it as 0 would serve per-node results under the "
        "eval_batch 0 hash, so loading is rejected"
    ),
    "execution": (
        "executor 'sharded' on a float32 arena trained stacked blocks on "
        "its shard workers, which round differently from one row per "
        "call; loading it as 'serial' would serve those results under "
        "the serial hash, so loading is rejected"
    ),
}


def build(entry: dict) -> StudyConfig:
    if "preset" in entry:
        return scaled_config(*entry["preset"])
    return StudyConfig.from_dict(json.loads(json.dumps(entry["payload"])))


def record() -> dict:
    """The fixture: each case's source, hash hex and ``to_dict()``."""
    out: dict = {}
    sources = [("payload", k, v) for k, v in PAYLOADS.items()] + [
        ("preset", k, v) for k, v in PRESETS.items()
    ]
    for kind, case, source in sources:
        if case in CHANGED:
            out[case] = CORPUS[case]
            continue
        entry = {kind: source}
        config = build(entry)
        entry["config_hash"] = config.config_hash()
        entry["to_dict"] = config.to_dict()
        out[case] = entry
    return out


def test_fixture_covers_every_case():
    assert sorted(CORPUS) == sorted([*PAYLOADS, *PRESETS])
    for case, payload in PAYLOADS.items():
        assert CORPUS[case]["payload"] == json.loads(json.dumps(payload)), case
    for case, preset in PRESETS.items():
        assert CORPUS[case]["preset"] == preset, case


def test_changed_entries_are_recorded_cases():
    assert set(CHANGED) <= set(PAYLOADS)


@pytest.mark.parametrize("case", sorted(set(CORPUS) - set(CHANGED)))
def test_config_hash_is_pinned(case):
    entry = CORPUS[case]
    config = build(entry)
    assert config.config_hash() == entry["config_hash"]
    # Same nested JSON, key order included.
    assert json.dumps(config.to_dict()) == json.dumps(entry["to_dict"])
    assert config_hash(entry["to_dict"]) == entry["config_hash"]
    assert StudyConfig.from_dict(entry["to_dict"]) == config
    if "payload" in entry:
        assert config_hash(entry["payload"]) == entry["config_hash"]


def test_spellings_share_one_identity():
    def digest(case: str) -> str:
        return CORPUS[case]["config_hash"]

    assert digest("spelling-flat") == digest("spelling-grouped")
    assert digest("spelling-flat") == digest("spelling-mixed")
    for case in (
        "pre-removal-flat",
        "pre-removal-nested",
        "pre-removal-grouped-full",
        "pre-shard-removal-flat",
        "pre-shard-removal-nested",
        "pre-shard-removal-grouped-full",
    ):
        assert digest(case) == digest("modern-equivalent"), case


def test_dropout_legacy_is_rejected():
    entry = CORPUS["dropout-legacy"]
    for payload in (entry["payload"], entry["to_dict"]):
        with pytest.raises(ValueError, match="workspace trainer"):
            StudyConfig.from_dict(payload)
        with pytest.raises(ValueError, match="workspace trainer"):
            config_hash(payload)


def test_escape_hatches_are_rejected():
    entry = CORPUS["escape-hatches"]
    for payload in (entry["payload"], entry["to_dict"]):
        with pytest.raises(ValueError, match="per-node observer loop"):
            StudyConfig.from_dict(payload)
        with pytest.raises(ValueError, match="per-node observer loop"):
            config_hash(payload)


def test_float32_sharded_is_rejected():
    entry = CORPUS["execution"]
    for payload in (entry["payload"], entry["to_dict"]):
        with pytest.raises(ValueError, match="on a float32 arena"):
            StudyConfig.from_dict(payload)
        with pytest.raises(ValueError, match="on a float32 arena"):
            config_hash(payload)


def test_per_row_trainer_loads_as_one_row_blocks():
    """``train_batch: -1`` (the removed per-row trainer) still loads as
    1, one row per blocked call, which gives the same float64 bits."""
    entry = CORPUS["escape-hatches"]
    payload = {k: v for k, v in entry["payload"].items() if k != "eval_batch"}
    stored = json.loads(json.dumps(entry["to_dict"]))
    del stored["execution"]["eval_batch"]
    upgraded = dict(payload, train_batch=1)
    for legacy in (payload, stored):
        config = StudyConfig.from_dict(legacy)
        assert config.train_batch == 1
        assert config.config_hash() == config_hash(upgraded)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
