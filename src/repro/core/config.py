"""Grouped experiment configuration.

:class:`~repro.core.study.StudyConfig` historically grew to ~35 flat
knobs. This module decomposes that surface into five composable groups
— :class:`DataConfig`, :class:`ModelConfig`, :class:`TopologyConfig`,
:class:`ExecutionConfig` and :class:`PrivacyConfig` — each owning the
validation, serialization (``to_dict``/``from_dict``) and override
semantics of its slice. ``StudyConfig`` remains the flat compat shim:
it is assembled from the groups (``StudyConfig.from_groups``), exposes
them back as properties, and keeps accepting flat kwargs, so every
existing call site, preset and CLI flag continues to work unchanged.

All groups are frozen dataclasses. Unknown keys are rejected with an
error that lists the valid field names (never a bare ``TypeError``),
both at construction from dicts and through ``with_overrides``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

__all__ = [
    "ConfigGroup",
    "DataConfig",
    "ModelConfig",
    "TopologyConfig",
    "ExecutionConfig",
    "PrivacyConfig",
    "GROUPS",
    "FLAT_TO_GROUP",
    "config_hash",
    "group_field_names",
    "reject_unknown_keys",
    "upgrade_legacy_execution",
]


def group_field_names(cls) -> tuple[str, ...]:
    """Field names of one config dataclass, in declaration order."""
    return tuple(f.name for f in fields(cls))


def reject_unknown_keys(
    cls_name: str, keys, valid, extra_valid: tuple[str, ...] = ()
) -> None:
    """Raise a ValueError naming the offending and the valid keys.

    Shared by every group and by ``StudyConfig.with_overrides`` so a
    typo'd knob produces an actionable message instead of a dataclass
    ``TypeError``.
    """
    valid_set = set(valid) | set(extra_valid)
    unknown = [k for k in keys if k not in valid_set]
    if unknown:
        raise ValueError(
            f"unknown {cls_name} field(s): {', '.join(sorted(unknown))}; "
            f"valid fields are: {', '.join(sorted(valid_set))}"
        )


@dataclass(frozen=True)
class ConfigGroup:
    """Shared serialization/override behavior of all config groups."""

    def to_dict(self) -> dict:
        """JSON-ready dict of this group's fields."""
        out: dict[str, Any] = {}
        for name in group_field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ConfigGroup":
        """Build a group from a dict, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"{cls.__name__}.from_dict needs a mapping, "
                f"got {type(payload).__name__}"
            )
        reject_unknown_keys(cls.__name__, payload, group_field_names(cls))
        return cls(**payload)

    def with_overrides(self, **kwargs) -> "ConfigGroup":
        """Copy with the given fields replaced (unknown keys rejected)."""
        reject_unknown_keys(
            type(self).__name__, kwargs, group_field_names(type(self))
        )
        return replace(self, **kwargs)


@dataclass(frozen=True)
class DataConfig(ConfigGroup):
    """Dataset choice, pool sizes and the per-node partition."""

    dataset: str = "cifar10"
    n_train: int = 2_000
    n_test: int = 500
    image_size: int = 16
    num_features: int = 600
    train_per_node: int | None = 64
    test_per_node: int | None = 32
    beta: float | None = None  # None = i.i.d., else Dirichlet(beta)

    def __post_init__(self) -> None:
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("n_train and n_test must be positive")
        if self.image_size <= 0 or self.num_features <= 0:
            raise ValueError("image_size and num_features must be positive")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive (or None for i.i.d.)")


@dataclass(frozen=True)
class ModelConfig(ConfigGroup):
    """Architecture scale and the Table-2 local-training recipe."""

    model_width: int = 8
    mlp_hidden: tuple[int, ...] = (256, 128, 64)
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    local_epochs: int = 3
    batch_size: int = 32
    label_smoothing: float = 0.0
    lr_decay: float = 1.0
    dropout: float = 0.0
    dropout_mode: str = "stream"

    def __post_init__(self) -> None:
        if isinstance(self.mlp_hidden, list):
            # Normalize JSON round-trips: lists come back as tuples.
            object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
        if self.model_width <= 0:
            raise ValueError("model_width must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.dropout_mode not in ("stream", "legacy"):
            raise ValueError("dropout_mode must be 'stream' or 'legacy'")


@dataclass(frozen=True)
class TopologyConfig(ConfigGroup):
    """Communication graph, protocol, horizon and failure injection."""

    n_nodes: int = 16
    view_size: int = 2
    dynamic: bool = False
    sampler: str | None = None  # overrides `dynamic`: static/peerswap/fresh
    protocol: str = "samo"
    rounds: int = 10
    ticks_per_round: int = 100
    drop_prob: float = 0.0
    failure_prob: float = 0.0
    delay_ticks: int = 0
    delay_jitter: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes")
        if not 0 < self.view_size < self.n_nodes:
            raise ValueError("view_size must be in (0, n_nodes)")
        if self.rounds <= 0 or self.ticks_per_round <= 0:
            raise ValueError("rounds and ticks_per_round must be positive")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in [0, 1)")
        if self.delay_ticks < 0 or self.delay_jitter < 0:
            raise ValueError("delays must be non-negative")


def upgrade_legacy_execution(values: Mapping) -> dict:
    """Map execution keys of configs stored before the dict engine and
    the process-pool executor were removed onto today's fields.

    Service journals, checkpoints and campaign manifests written back
    then carry ``engine`` and ``n_workers``; they keep loading, and keep
    their ``config_hash``, as long as they describe a run the flat
    engine reproduces: ``engine: "flat"`` and any ``n_workers`` are
    dropped, and ``executor: "process"`` loads as ``"serial"``
    (bit-identical by the executor contract). ``engine: "dict"`` is
    rejected — its results were never bitwise comparable.
    """
    out = dict(values)
    engine = out.pop("engine", "flat")
    if engine != "flat":
        raise ValueError(
            f"engine {engine!r} was removed; the flat engine is the only "
            f"simulator (drop the 'engine' key)"
        )
    out.pop("n_workers", None)
    if out.get("executor") == "process":
        out["executor"] = "serial"
    return out


@dataclass(frozen=True)
class ExecutionConfig(ConfigGroup):
    """Executor selection and evaluation batching/limits."""

    executor: str = "serial"  # "serial"/"batched"/"sharded"
    n_shards: int = 0  # shard workers; 0 = one per CPU (capped)
    shard_partition: str = "contiguous"  # row->shard map
    train_batch: int = 0  # rows per blocked training op
    arena_dtype: str = "float64"  # flat-arena storage dtype
    eval_batch: int = 0  # node models per blocked eval op
    max_global_test: int = 512
    max_attack_samples: int = 256
    keep_node_records: bool = False

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExecutionConfig":
        """Build from a dict; pre-removal keys load through
        :func:`upgrade_legacy_execution`."""
        if isinstance(payload, Mapping):
            payload = upgrade_legacy_execution(payload)
        return super().from_dict(payload)

    def __post_init__(self) -> None:
        if self.executor not in ("serial", "batched", "sharded"):
            raise ValueError(
                "executor must be 'serial', 'batched' or 'sharded'"
            )
        if self.n_shards < 0:
            raise ValueError("n_shards must be non-negative")
        if self.shard_partition not in ("contiguous", "balanced"):
            raise ValueError(
                "shard_partition must be 'contiguous' or 'balanced'"
            )
        if self.train_batch < -1 or self.eval_batch < -1:
            raise ValueError("train_batch and eval_batch must be >= -1")
        if self.arena_dtype not in ("float32", "float64"):
            raise ValueError("arena_dtype must be 'float32' or 'float64'")
        if self.max_global_test <= 0 or self.max_attack_samples <= 0:
            raise ValueError(
                "max_global_test and max_attack_samples must be positive"
            )


@dataclass(frozen=True)
class PrivacyConfig(ConfigGroup):
    """Differential privacy (RQ7) and canary auditing (RQ3)."""

    dp_epsilon: float | None = None  # None disables DP
    dp_delta: float = 1e-5
    dp_clip_norm: float = 1.0
    n_canaries: int = 0  # 0 disables the canary audit

    def __post_init__(self) -> None:
        if self.dp_epsilon is not None and self.dp_epsilon <= 0:
            raise ValueError("dp_epsilon must be positive (or None)")
        if not 0.0 < self.dp_delta < 1.0:
            raise ValueError("dp_delta must be in (0, 1)")
        if self.dp_clip_norm <= 0:
            raise ValueError("dp_clip_norm must be positive")
        if self.n_canaries < 0:
            raise ValueError("n_canaries must be non-negative")


def config_hash(config) -> str:
    """Canonical SHA-256 hex digest of a study config.

    The identity key of the service-layer response cache and job
    deduplication: a fixed config + seed determines the run bit for bit
    (float64), so two requests with the same hash may share one
    simulator. Accepts a ``StudyConfig`` (anything with ``to_dict``) or
    a plain mapping in any accepted spelling — grouped, flat, or a mix.
    Mappings are normalized through ``StudyConfig.from_dict`` first, so
    dict key ordering, group-vs-flat spellings, and omitted-but-default
    fields all hash identically.
    """
    if isinstance(config, Mapping):
        # Lazy import: study.py imports this module at load time.
        from repro.core.study import StudyConfig

        config = StudyConfig.from_dict(dict(config))
    payload = config.to_dict()
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Group name -> group class, in StudyConfig presentation order.
GROUPS: dict[str, type[ConfigGroup]] = {
    "data": DataConfig,
    "model": ModelConfig,
    "topology": TopologyConfig,
    "execution": ExecutionConfig,
    "privacy": PrivacyConfig,
}

# Flat field name -> owning group name (the decomposition map).
FLAT_TO_GROUP: dict[str, str] = {
    name: group
    for group, cls in GROUPS.items()
    for name in group_field_names(cls)
}
