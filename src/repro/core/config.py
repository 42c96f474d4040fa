"""The study configuration: one frozen dataclass, five ``to_dict`` sections.

:class:`StudyConfig` describes everything the paper varies — dataset,
model, protocol, topology, dynamics, view size, data distribution,
DP — plus the scale knobs (nodes, rounds, samples) that let a study run
on a laptop. Its field table is the one declaration of every study
knob: each field records its group as metadata (``"group": "data"``)
and, if ``repro study`` sets it, its ``"flag"``, ``"help"`` and the
registry of its ``"choices"``. The groups ``data``, ``model``,
``topology``, ``execution`` and ``privacy`` are the sections of
:meth:`StudyConfig.to_dict`; ``from_dict``/``with_overrides`` accept a
section wherever they accept the flat fields it holds.

:class:`SimulatorConfig` and :class:`TrainerConfig` are filled from the
fields they share with :class:`StudyConfig` by name and own those
fields' checks; constructing a ``StudyConfig`` builds both.

Unknown keys are rejected with an error that lists the valid field
names (never a bare ``TypeError``), both in ``from_dict`` and through
``with_overrides``; mistyped and out-of-range values and unknown
dataset, protocol or sampler names are rejected at construction.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Any, Mapping

from repro.data.datasets import DATASET_BUILDERS
from repro.gossip.protocols import PROTOCOLS
from repro.gossip.simulator import ARENA_DTYPES, EXECUTORS, SimulatorConfig
from repro.gossip.trainer import TrainerConfig
from repro.graph.peer_sampling import SAMPLERS

__all__ = [
    "SCALAR_TYPES",
    "StudyConfig",
    "config_hash",
    "reject_unknown_keys",
    "upgrade_legacy_execution",
]

# Architecture used for each dataset in Table 2.
_DATASET_MODELS = {
    "cifar10": "cnn",
    "cifar100": "resnet8",
    "fashion_mnist": "cnn",
    "purchase100": "mlp",
}
_DATASET_CHANNELS = {"cifar10": 3, "cifar100": 3, "fashion_mnist": 1}
_DATASET_CLASSES = {
    "cifar10": 10,
    "cifar100": 100,
    "fashion_mnist": 10,
    "purchase100": 100,
}

# The to_dict sections, in order.
_GROUPS = ("data", "model", "topology", "execution", "privacy")
_DATA, _MODEL, _TOPOLOGY, _EXECUTION, _PRIVACY = _GROUPS


def _field(default: Any, group: str = "", flag: str = "", **meta) -> Any:
    """A row of the field table; ``meta`` holds a flag's ``help`` and
    the registry of its ``choices`` (the one the field's check reads)."""
    meta.update(group=group, flag=flag)
    return field(default=default, metadata={k: v for k, v in meta.items() if v})


def reject_unknown_keys(what: str, keys, valid) -> None:
    """Raise a ValueError naming the offending and the valid keys.

    Shared by ``from_dict`` and ``with_overrides`` so a typo'd knob
    produces an actionable message instead of a dataclass ``TypeError``.
    """
    unknown = [k for k in keys if k not in valid]
    if unknown:
        raise ValueError(
            f"unknown {what} field(s): {', '.join(sorted(unknown))}; "
            f"valid fields are: {', '.join(sorted(valid))}"
        )


# Keys of removed knobs that stored configs still carry, by the
# section they were stored in.
_LEGACY_KEYS = {
    "engine": _EXECUTION,
    "n_workers": _EXECUTION,
    "n_shards": _EXECUTION,
    "shard_partition": _EXECUTION,
    "dropout_mode": _MODEL,
}


def upgrade_legacy_execution(values: Mapping) -> dict:
    """Map the flat keys of configs stored before a knob was removed
    onto today's fields.

    Service journals, checkpoints and campaign manifests keep loading,
    and keep their ``config_hash``, as long as they describe a run
    today's code reproduces bit for bit:

    * ``engine: "flat"``, ``n_workers``, ``n_shards``,
      ``shard_partition`` and ``dropout_mode: "stream"`` are dropped;
    * ``executor: "process"`` loads as ``"serial"``, and so does
      ``"sharded"`` on a float64 arena (bit-identical by the executor
      contract);
    * ``train_batch: -1`` (the per-row trainer) loads as ``1``, one row
      per blocked call, which gives the same float64 bits.

    What no code reproduces any more is rejected: ``engine: "dict"``,
    ``dropout_mode: "legacy"`` and a float32 ``"sharded"`` run.
    """
    out = dict(values)
    engine = out.pop("engine", "flat")
    if engine != "flat":
        raise ValueError(
            f"engine {engine!r} was removed; the flat engine is the only "
            f"simulator (drop the 'engine' key)"
        )
    dropout_mode = out.pop("dropout_mode", "stream")
    if dropout_mode != "stream":
        raise ValueError(
            f"dropout_mode must be 'stream', got {dropout_mode!r}; "
            "'legacy' was removed with the workspace trainer that "
            "drew its masks"
        )
    for key in ("n_workers", "n_shards", "shard_partition"):
        out.pop(key, None)
    executor = out.get("executor")
    if executor == "sharded" and (
        out.get("arena_dtype", _DEFAULTS["arena_dtype"]) != "float64"
    ):
        raise ValueError(
            "executor 'sharded' was removed; on a float32 arena its shard "
            "workers trained stacked blocks, which round differently from "
            "one row per call, so its results cannot load as 'serial'"
        )
    if executor in ("process", "sharded"):
        out["executor"] = "serial"
    if out.get("train_batch") == -1:
        out["train_batch"] = 1
    return out


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one experimental run.

    Construct it flat (``StudyConfig(n_nodes=8, ...)``); every field
    but ``name`` and ``seed`` belongs to one group, recorded as
    ``metadata["group"]``. ``to_dict``/``from_dict`` round-trip the
    grouped form through JSON.
    """

    name: str = "study"
    # Data: dataset choice, pool sizes and the per-node partition.
    dataset: str = _field("cifar10", _DATA, "--dataset", choices=DATASET_BUILDERS)
    n_train: int = _field(2_000, _DATA)
    n_test: int = _field(500, _DATA)
    image_size: int = _field(16, _DATA)
    num_features: int = _field(600, _DATA)
    train_per_node: int | None = _field(64, _DATA)
    test_per_node: int | None = _field(32, _DATA)
    # None = i.i.d., else Dirichlet(beta).
    beta: float | None = _field(
        None, _DATA, "--beta", help="Dirichlet concentration for non-iid splits"
    )
    # Model: architecture scale and the Table-2 local-training recipe.
    model_width: int = _field(8, _MODEL)
    mlp_hidden: tuple[int, ...] = _field((256, 128, 64), _MODEL)
    learning_rate: float = _field(0.01, _MODEL)
    momentum: float = _field(0.9, _MODEL)
    weight_decay: float = _field(5e-4, _MODEL)
    local_epochs: int = _field(3, _MODEL)
    batch_size: int = _field(32, _MODEL)
    # Early-overfitting mitigations (Section 5 recommendations).
    label_smoothing: float = _field(0.0, _MODEL)
    lr_decay: float = _field(1.0, _MODEL)
    # Dropout regularization (MLP only).
    dropout: float = _field(
        0.0, _MODEL, "--dropout",
        help="dropout probability for the MLP hidden layers "
        "(counter-based mask streams; batchable)",
    )
    # Topology: graph, protocol, horizon and failure injection.
    n_nodes: int = _field(16, _TOPOLOGY, "--nodes")
    view_size: int = _field(2, _TOPOLOGY, "--view-size")
    dynamic: bool = _field(False, _TOPOLOGY, "--dynamic")
    # Overrides `dynamic`: static/peerswap/fresh.
    sampler: str | None = _field(None, _TOPOLOGY, "--sampler", choices=SAMPLERS)
    protocol: str = _field("samo", _TOPOLOGY, "--protocol", choices=PROTOCOLS)
    rounds: int = _field(10, _TOPOLOGY, "--rounds")
    ticks_per_round: int = _field(100, _TOPOLOGY)
    # Message loss and node churn.
    drop_prob: float = _field(0.0, _TOPOLOGY, "--drop-prob")
    failure_prob: float = _field(0.0, _TOPOLOGY, "--failure-prob")
    # Network latency: ticks per message plus uniform [0, jitter].
    delay_ticks: int = _field(0, _TOPOLOGY)
    delay_jitter: int = _field(0, _TOPOLOGY)
    # Execution (DESIGN.md, "Flat-state execution engine").
    executor: str = _field(
        "serial", _EXECUTION, "--executor", choices=EXECUTORS,
        help="local-update executor: the blocked kernel one row per call "
        "(serial) or on stacked rows (batched)",
    )
    train_batch: int = _field(
        0, _EXECUTION, "--train-batch",
        help="rows per blocked training op for the batched executor "
        "(0 = all same-size wake tasks at once)",
    )
    arena_dtype: str = _field(
        "float64", _EXECUTION, "--arena-dtype", choices=ARENA_DTYPES,
        help="flat-arena storage dtype",
    )
    eval_batch: int = _field(
        0, _EXECUTION, "--eval-batch",
        help="node models per blocked evaluation op (0 = row blocks sized "
        "by the code; identical results for every value)",
    )
    max_global_test: int = _field(512, _EXECUTION)
    max_attack_samples: int = _field(256, _EXECUTION)
    keep_node_records: bool = _field(False, _EXECUTION)
    # Privacy: DP-SGD (RQ7; dp_epsilon None disables) and the canary
    # audit (RQ3; 0 disables).
    dp_epsilon: float | None = _field(None, _PRIVACY, "--dp-epsilon")
    dp_delta: float = _field(1e-5, _PRIVACY)
    dp_clip_norm: float = _field(1.0, _PRIVACY)
    n_canaries: int = _field(0, _PRIVACY, "--canaries")
    seed: int = _field(0, flag="--seed")

    def __post_init__(self) -> None:
        if isinstance(self.mlp_hidden, list):
            # Normalize JSON round-trips: lists come back as tuples.
            object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
        # Declared types first: a mistyped value fails here, naming its field.
        for name, (kind, optional) in SCALAR_TYPES.items():
            value = getattr(self, name)
            if not (value is None and optional or _is_a(value, kind)):
                raise ValueError(
                    f"{name} must be {_TYPE_NAMES[kind]}"
                    f"{' (or None)' if optional else ''}, got {value!r}"
                )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # Data.
        if self.dataset not in DATASET_BUILDERS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; "
                f"choose from {sorted(DATASET_BUILDERS)}"
            )
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("n_train and n_test must be positive")
        if self.image_size <= 0 or self.num_features <= 0:
            raise ValueError("image_size and num_features must be positive")
        if any(
            size is not None and size <= 0
            for size in (self.train_per_node, self.test_per_node)
        ):
            raise ValueError(
                "train_per_node and test_per_node must be positive (or None)"
            )
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive (or None for i.i.d.)")
        # Model. TrainerConfig checks the local-training fields.
        if self.model_width <= 0:
            raise ValueError("model_width must be positive")
        if not isinstance(self.mlp_hidden, tuple) or not all(
            type(size) is int and size > 0 for size in self.mlp_hidden
        ):
            raise ValueError("mlp_hidden must be a sequence of positive ints")
        self.trainer_config()
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        # Topology and execution. SimulatorConfig checks the graph,
        # sampler, failure, delay and executor fields.
        self.simulator_config()
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOLS)}"
            )
        if self.rounds <= 0 or self.ticks_per_round <= 0:
            raise ValueError("rounds and ticks_per_round must be positive")
        if self.eval_batch < 0:
            raise ValueError(
                f"eval_batch must be >= 0, got {self.eval_batch}; -1 "
                "selected the removed per-node observer loop, whose "
                "results are not bitwise those of the row-batch observer"
            )
        if self.max_global_test <= 0 or self.max_attack_samples <= 0:
            raise ValueError(
                "max_global_test and max_attack_samples must be positive"
            )
        # Privacy.
        # ``x <= 0`` lets NaN through, and a NaN or infinite epsilon
        # calibrates to the floor of the sigma search (almost no noise).
        if self.dp_epsilon is not None and not (
            math.isfinite(self.dp_epsilon) and self.dp_epsilon > 0
        ):
            raise ValueError(
                "dp_epsilon must be finite and > 0 (or None), "
                f"got {self.dp_epsilon!r}"
            )
        if not 0.0 < self.dp_delta < 1.0:
            raise ValueError("dp_delta must be in (0, 1)")
        if not (math.isfinite(self.dp_clip_norm) and self.dp_clip_norm > 0):
            raise ValueError(
                "dp_clip_norm must be finite and > 0, "
                f"got {self.dp_clip_norm!r}"
            )
        if self.n_canaries < 0:
            raise ValueError("n_canaries must be non-negative")

    def simulator_config(self) -> SimulatorConfig:
        """The fields SimulatorConfig shares with this config, by name;
        the simulator draws from its own seed stream, ``seed + 3``."""
        shared = {name: getattr(self, name) for name in _SHARED[SimulatorConfig]}
        return SimulatorConfig(**shared, seed=self.seed + 3)

    def trainer_config(self) -> TrainerConfig:
        """The fields TrainerConfig shares with this config, by name
        (the study installs DP-SGD once it has calibrated the noise)."""
        shared = {name: getattr(self, name) for name in _SHARED[TrainerConfig]}
        return TrainerConfig(**shared)

    def to_dict(self) -> dict:
        """Grouped, JSON-ready representation (``from_dict`` inverts):
        ``name``, ``seed``, then one section per group."""
        out: dict = {"name": self.name, "seed": self.seed}
        for group, names in _GROUP_FIELDS.items():
            section = out[group] = {}
            for name in names:
                value = getattr(self, name)
                section[name] = (
                    list(value) if isinstance(value, tuple) else value
                )
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StudyConfig":
        """Build from :meth:`to_dict` output, flat keys, or a mix.

        A section stands for its whole group: the fields it omits take
        their defaults, and keys apply in payload order, so a section
        also resets its group's flat keys that come before it. Keys of
        removed knobs load at top level and in the section they were
        stored in (:func:`~repro.core.config.upgrade_legacy_execution`).
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"StudyConfig.from_dict needs a mapping, "
                f"got {type(payload).__name__}"
            )
        values: dict = {}
        for key, value in payload.items():
            if key in _GROUP_FIELDS:
                values = {
                    k: v for k, v in values.items() if _KEY_GROUPS.get(k) != key
                }
                values.update(_section(key, value, legacy=True))
            elif key in _DEFAULTS or key in _LEGACY_KEYS:
                values[key] = value
            else:
                reject_unknown_keys("StudyConfig", [key], _VALID_KEYS)
        return cls(**upgrade_legacy_execution(values))

    def with_overrides(self, **kwargs) -> "StudyConfig":
        """Copy with fields replaced.

        Accepts any field name, plus the group names (``data``,
        ``model``, ``topology``, ``execution``, ``privacy``) mapped to
        a dict of that group's fields, merged into the current values.
        Unknown keys raise a ValueError listing the valid names.
        """
        reject_unknown_keys("StudyConfig", kwargs, _VALID_KEYS)
        values: dict = {}
        for key, value in kwargs.items():
            if key in _GROUP_FIELDS:
                values.update(_section(key, value))
            else:
                values[key] = value
        return replace(self, **values)

    def config_hash(self) -> str:
        """Canonical content hash (:func:`repro.core.config.config_hash`)."""
        return config_hash(self)

    @property
    def architecture(self) -> str:
        return _DATASET_MODELS[self.dataset]

    @property
    def in_channels(self) -> int:
        return _DATASET_CHANNELS.get(self.dataset, 3)

    @property
    def num_classes(self) -> int:
        return _DATASET_CLASSES[self.dataset]


# Field name -> default, and group -> its field names in declaration
# order (read from the field metadata).
_DEFAULTS: dict[str, Any] = {f.name: f.default for f in fields(StudyConfig)}
_GROUP_FIELDS: dict[str, tuple[str, ...]] = {
    group: tuple(
        f.name for f in fields(StudyConfig) if f.metadata.get("group") == group
    )
    for group in _GROUPS
}
_VALID_KEYS = (*_DEFAULTS, *_GROUPS)
# Every key a section may hold -> its group.
_KEY_GROUPS: dict[str, str] = {
    **{name: group for group, names in _GROUP_FIELDS.items() for name in names},
    **_LEGACY_KEYS,
}
# The fields each lower config shares with StudyConfig by name (the
# simulator's seed is derived, not shared).
_SHARED: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if f.name in _DEFAULTS.keys() - {"seed"})
    for cls in (SimulatorConfig, TrainerConfig)
}
_SCALARS = {"bool": bool, "int": int, "float": float}
_TYPE_NAMES = {bool: "a bool", int: "an int", float: "a float"}
# Field name -> (type, accepts None) of every bool, int and float field,
# read from its annotation: ``int | None`` gives ``(int, True)``.
SCALAR_TYPES: dict[str, tuple[type, bool]] = {
    f.name: (_SCALARS[base], rest == "None")
    for f in fields(StudyConfig)
    for base, _, rest in [f.type.partition(" | ")]
    if base in _SCALARS
}


def _is_a(value: Any, kind: type) -> bool:
    """A bool only in a bool field, an integral number in an int field,
    a real number in a float field."""
    if type(value) is kind:
        return True
    if isinstance(value, bool) or kind is bool:
        return False
    return isinstance(value, Integral if kind is int else Real)


def _section(group: str, section: Any, legacy: bool = False) -> dict:
    """The fields one ``group`` section sets (unknown keys rejected);
    with ``legacy``, also the keys of removed knobs stored there."""
    if not isinstance(section, Mapping):
        raise ValueError(
            f"the {group} section needs a mapping of its fields, "
            f"got {type(section).__name__}"
        )
    reject_unknown_keys(
        group,
        [k for k in section if not (legacy and _LEGACY_KEYS.get(k) == group)],
        _GROUP_FIELDS[group],
    )
    return dict(section)


def config_hash(config: StudyConfig | Mapping) -> str:
    """Canonical SHA-256 hex digest of a study config.

    The identity key of the service layer's job deduplication: a fixed
    config + seed determines the run bit for bit (float64), so two
    requests with the same hash may share one simulator. Accepts a ``StudyConfig`` or a mapping in any spelling
    ``StudyConfig.from_dict`` accepts — grouped, flat, or a mix — so
    dict key ordering, group-vs-flat spellings, and omitted-but-default
    fields all hash identically. Anything else is a ValueError.
    """
    if isinstance(config, Mapping):
        config = StudyConfig.from_dict(config)
    elif not isinstance(config, StudyConfig):
        raise ValueError(
            f"config_hash needs a StudyConfig or a mapping, "
            f"got {type(config).__name__}"
        )
    text = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
