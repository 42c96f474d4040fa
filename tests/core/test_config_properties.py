"""Property tests for the config identity: ``config_hash`` and the
``to_dict``/``from_dict``/``with_overrides`` spellings, over random
valid configs."""

from __future__ import annotations

import json
import random
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StudyConfig, config_hash
from repro.data.datasets import DATASET_BUILDERS
from repro.gossip.protocols import PROTOCOLS
from repro.graph.peer_sampling import SAMPLERS

GROUPS: dict[str, list[str]] = {}
for _f in fields(StudyConfig):
    if "group" in _f.metadata:
        GROUPS.setdefault(_f.metadata["group"], []).append(_f.name)


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _optional(strategy):
    return st.none() | strategy


# Valid values of every field but view_size (which depends on n_nodes).
VALUES = {
    "name": st.text("abcxyz-_09", min_size=1, max_size=8),
    "seed": st.integers(0, 2**31 - 1),
    "dataset": st.sampled_from(sorted(DATASET_BUILDERS)),
    "n_train": st.integers(1, 5_000),
    "n_test": st.integers(1, 5_000),
    "image_size": st.integers(1, 64),
    "num_features": st.integers(1, 1_000),
    "train_per_node": _optional(st.integers(1, 512)),
    "test_per_node": _optional(st.integers(1, 512)),
    "beta": _optional(_floats(1e-3, 10.0)),
    "model_width": st.integers(1, 32),
    "mlp_hidden": st.lists(st.integers(1, 512), max_size=4).map(tuple),
    "learning_rate": _floats(1e-6, 1.0),
    "momentum": _floats(0.0, 0.99),
    "weight_decay": _floats(0.0, 0.1),
    "local_epochs": st.integers(0, 10),
    "batch_size": st.integers(1, 128),
    "label_smoothing": _floats(0.0, 0.99),
    "lr_decay": _floats(0.01, 1.0),
    "dropout": _floats(0.0, 0.9),
    "dropout_mode": st.just("stream"),
    "n_nodes": st.integers(2, 256),
    "dynamic": st.booleans(),
    "sampler": _optional(st.sampled_from(sorted(SAMPLERS))),
    "protocol": st.sampled_from(sorted(PROTOCOLS)),
    "rounds": st.integers(1, 500),
    "ticks_per_round": st.integers(1, 500),
    "drop_prob": _floats(0.0, 0.99),
    "failure_prob": _floats(0.0, 0.99),
    "delay_ticks": st.integers(0, 50),
    "delay_jitter": st.integers(0, 50),
    "executor": st.sampled_from(["serial", "batched", "sharded"]),
    "n_shards": st.integers(0, 8),
    "shard_partition": st.sampled_from(["contiguous", "balanced"]),
    "train_batch": st.integers(0, 64),
    "arena_dtype": st.sampled_from(["float32", "float64"]),
    "eval_batch": st.integers(0, 64),
    "max_global_test": st.integers(1, 2_048),
    "max_attack_samples": st.integers(1, 512),
    "keep_node_records": st.booleans(),
    "dp_epsilon": _optional(_floats(0.01, 100.0)),
    "dp_delta": _floats(1e-9, 0.5),
    "dp_clip_norm": _floats(0.01, 10.0),
    "n_canaries": st.integers(0, 100),
}


@st.composite
def configs(draw) -> StudyConfig:
    """A valid config; fields left out keep their defaults."""
    kwargs = draw(st.fixed_dictionaries({}, optional=VALUES))
    n_nodes = kwargs.get("n_nodes", 16)
    if draw(st.booleans()) or n_nodes <= 2:
        # Buildable views only: n_nodes * view_size must be even, so an
        # odd n_nodes takes an even view size.
        if n_nodes % 2:
            kwargs["view_size"] = 2 * draw(st.integers(1, (n_nodes - 1) // 2))
        else:
            kwargs["view_size"] = draw(st.integers(1, n_nodes - 1))
    return StudyConfig(**kwargs)


def flat(payload: dict) -> dict:
    """A ``to_dict`` payload with every section spelled as flat keys."""
    out = {"name": payload["name"], "seed": payload["seed"]}
    for group in GROUPS:
        out.update(payload[group])
    return out


FLAT_DEFAULTS = flat(StudyConfig().to_dict())


def shuffled(payload: dict, rng: random.Random) -> dict:
    """Same content, keys (nested ones too) in a random order."""
    items = list(payload.items())
    rng.shuffle(items)
    return {
        key: shuffled(value, rng) if isinstance(value, dict) else value
        for key, value in items
    }


def without_defaults(payload: dict) -> dict:
    """Drop every field (top level or in a section) at its default."""
    out = {}
    for key, value in payload.items():
        if key in GROUPS:
            out[key] = {n: v for n, v in value.items() if v != FLAT_DEFAULTS[n]}
        elif value != FLAT_DEFAULTS[key]:
            out[key] = value
    return out


@settings(max_examples=60, deadline=None)
@given(configs(), st.randoms(use_true_random=False))
def test_hash_ignores_key_order(config, rng):
    digest = config.config_hash()
    assert config_hash(shuffled(config.to_dict(), rng)) == digest
    assert config_hash(shuffled(flat(config.to_dict()), rng)) == digest


@settings(max_examples=60, deadline=None)
@given(configs(), st.lists(st.booleans(), min_size=5, max_size=5))
def test_hash_ignores_flat_grouped_and_mixed_spelling(config, as_section):
    grouped = config.to_dict()
    mixed = {"name": grouped["name"], "seed": grouped["seed"]}
    for group, section in zip(GROUPS, as_section):
        if section:
            mixed[group] = grouped[group]
        else:
            mixed.update(grouped[group])
    digest = config.config_hash()
    for payload in (grouped, flat(grouped), mixed):
        assert StudyConfig.from_dict(payload) == config
        assert config_hash(payload) == digest


@settings(max_examples=60, deadline=None)
@given(configs())
def test_hash_ignores_omitted_defaults(config):
    digest = config.config_hash()
    assert config_hash(without_defaults(config.to_dict())) == digest
    assert config_hash(without_defaults(flat(config.to_dict()))) == digest


@settings(max_examples=60, deadline=None)
@given(configs())
def test_json_round_trip_is_identity(config):
    text = json.dumps(config.to_dict())
    assert StudyConfig.from_dict(json.loads(text)) == config


def _outcome(make):
    try:
        return make()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=60, deadline=None)
@given(
    configs(),
    configs(),
    st.sampled_from(sorted(GROUPS)),
    st.lists(st.booleans(), min_size=11, max_size=11),
)
def test_group_override_equals_flat_override(config, other, group, keep):
    """``with_overrides(<group>={...})`` is the same flat override; an
    invalid combination fails with the same error either way."""
    fields_ = [name for name, k in zip(GROUPS[group], keep) if k]
    overrides = {name: getattr(other, name) for name in fields_}
    assert _outcome(lambda: config.with_overrides(**{group: overrides})) == (
        _outcome(lambda: config.with_overrides(**overrides))
    )
