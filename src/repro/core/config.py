"""The study configuration: one frozen dataclass, five ``to_dict`` sections.

:class:`StudyConfig` describes everything the paper varies — dataset,
model, protocol, topology, dynamics, view size, data distribution,
DP — plus the scale knobs (nodes, rounds, samples) that let a study run
on a laptop. Its fields are flat (``config.n_nodes``); each one also
records its group as field metadata (``metadata={"group": "data"}``).
The groups are ``data``, ``model``, ``topology``, ``execution`` and
``privacy``: they are the sections of :meth:`StudyConfig.to_dict`, and
``from_dict``/``with_overrides`` accept a section wherever they accept
the flat fields it holds.

Unknown keys are rejected with an error that lists the valid field
names (never a bare ``TypeError``), both in ``from_dict`` and through
``with_overrides``; out-of-range values and unknown dataset, protocol or
sampler names are rejected at construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.data.datasets import DATASET_BUILDERS
from repro.gossip.protocols import PROTOCOLS
from repro.gossip.trainer import check_sgd_hyperparameters
from repro.graph.peer_sampling import SAMPLERS

__all__ = [
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

# The to_dict sections in order, and the field metadata naming each.
_GROUPS = ("data", "model", "topology", "execution", "privacy")
_DATA, _MODEL, _TOPOLOGY, _EXECUTION, _PRIVACY = (
    {"group": group} for group in _GROUPS
)


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


def upgrade_legacy_execution(values: Mapping) -> dict:
    """Map execution keys of configs stored before the dict engine, the
    process-pool executor and the per-row trainer were removed onto
    today's fields.

    Service journals, checkpoints and campaign manifests written back
    then carry ``engine`` and ``n_workers``; they keep loading, and keep
    their ``config_hash``, as long as they describe a run the flat
    engine reproduces: ``engine: "flat"`` and any ``n_workers`` are
    dropped, and ``executor: "process"`` loads as ``"serial"``
    (bit-identical by the executor contract). ``engine: "dict"`` is
    rejected — its results were never bitwise comparable.
    ``train_batch: -1`` (the per-row trainer) loads as ``1``, one row
    per blocked call, which gives the same float64 bits.
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
    dataset: str = field(default="cifar10", metadata=_DATA)
    n_train: int = field(default=2_000, metadata=_DATA)
    n_test: int = field(default=500, metadata=_DATA)
    image_size: int = field(default=16, metadata=_DATA)
    num_features: int = field(default=600, metadata=_DATA)
    train_per_node: int | None = field(default=64, metadata=_DATA)
    test_per_node: int | None = field(default=32, metadata=_DATA)
    # None = i.i.d., else Dirichlet(beta).
    beta: float | None = field(default=None, metadata=_DATA)
    # Model: architecture scale and the Table-2 local-training recipe.
    model_width: int = field(default=8, metadata=_MODEL)
    mlp_hidden: tuple[int, ...] = field(default=(256, 128, 64), metadata=_MODEL)
    learning_rate: float = field(default=0.01, metadata=_MODEL)
    momentum: float = field(default=0.9, metadata=_MODEL)
    weight_decay: float = field(default=5e-4, metadata=_MODEL)
    local_epochs: int = field(default=3, metadata=_MODEL)
    batch_size: int = field(default=32, metadata=_MODEL)
    # Early-overfitting mitigations (Section 5 recommendations).
    label_smoothing: float = field(default=0.0, metadata=_MODEL)
    lr_decay: float = field(default=1.0, metadata=_MODEL)
    # Dropout regularization (MLP only). Mask streams are counter-based
    # (keyed by node/session/step); "stream" is the only mode.
    dropout: float = field(default=0.0, metadata=_MODEL)
    dropout_mode: str = field(default="stream", metadata=_MODEL)
    # Topology: graph, protocol, horizon and failure injection.
    n_nodes: int = field(default=16, metadata=_TOPOLOGY)
    view_size: int = field(default=2, metadata=_TOPOLOGY)
    dynamic: bool = field(default=False, metadata=_TOPOLOGY)
    # Overrides `dynamic`: static/peerswap/fresh.
    sampler: str | None = field(default=None, metadata=_TOPOLOGY)
    protocol: str = field(default="samo", metadata=_TOPOLOGY)
    rounds: int = field(default=10, metadata=_TOPOLOGY)
    ticks_per_round: int = field(default=100, metadata=_TOPOLOGY)
    # Message loss and node churn.
    drop_prob: float = field(default=0.0, metadata=_TOPOLOGY)
    failure_prob: float = field(default=0.0, metadata=_TOPOLOGY)
    # Network latency: ticks per message plus uniform [0, jitter].
    delay_ticks: int = field(default=0, metadata=_TOPOLOGY)
    delay_jitter: int = field(default=0, metadata=_TOPOLOGY)
    # Execution (DESIGN.md "Flat-state execution engine"): executor
    # "serial"/"batched"/"sharded"; n_shards 0 = one per usable CPU
    # (capped at n_nodes); shard_partition contiguous/balanced;
    # train_batch 0 = all rows at once, N = blocks of N rows; eval_batch
    # 0 = row blocks sized by the code, N = blocks of N rows (identical
    # results for every value).
    executor: str = field(default="serial", metadata=_EXECUTION)
    n_shards: int = field(default=0, metadata=_EXECUTION)
    shard_partition: str = field(default="contiguous", metadata=_EXECUTION)
    train_batch: int = field(default=0, metadata=_EXECUTION)
    arena_dtype: str = field(default="float64", metadata=_EXECUTION)
    eval_batch: int = field(default=0, metadata=_EXECUTION)
    max_global_test: int = field(default=512, metadata=_EXECUTION)
    max_attack_samples: int = field(default=256, metadata=_EXECUTION)
    keep_node_records: bool = field(default=False, metadata=_EXECUTION)
    # Privacy: DP-SGD (RQ7; dp_epsilon None disables) and the canary
    # audit (RQ3; 0 disables).
    dp_epsilon: float | None = field(default=None, metadata=_PRIVACY)
    dp_delta: float = field(default=1e-5, metadata=_PRIVACY)
    dp_clip_norm: float = field(default=1.0, metadata=_PRIVACY)
    n_canaries: int = field(default=0, metadata=_PRIVACY)
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.mlp_hidden, list):
            # Normalize JSON round-trips: lists come back as tuples.
            object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
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
        # Model.
        if self.model_width <= 0:
            raise ValueError("model_width must be positive")
        if not isinstance(self.mlp_hidden, tuple) or not all(
            isinstance(size, int) and size > 0 for size in self.mlp_hidden
        ):
            raise ValueError("mlp_hidden must be a sequence of positive ints")
        check_sgd_hyperparameters(
            self.learning_rate, self.momentum, self.weight_decay
        )
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
        if self.dropout_mode != "stream":
            raise ValueError(
                f"dropout_mode must be 'stream', got {self.dropout_mode!r}; "
                "'legacy' was removed with the workspace trainer that "
                "drew its masks"
            )
        # Topology.
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes")
        if not 0 < self.view_size < self.n_nodes:
            raise ValueError("view_size must be in (0, n_nodes)")
        if self.sampler is not None and self.sampler not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {self.sampler!r}; "
                f"choose from {sorted(SAMPLERS)}"
            )
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOLS)}"
            )
        if self.rounds <= 0 or self.ticks_per_round <= 0:
            raise ValueError("rounds and ticks_per_round must be positive")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in [0, 1)")
        if self.delay_ticks < 0 or self.delay_jitter < 0:
            raise ValueError("delays must be non-negative")
        # Execution.
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
        if self.train_batch < 0:
            raise ValueError("train_batch must be >= 0")
        if self.eval_batch < 0:
            raise ValueError(
                f"eval_batch must be >= 0, got {self.eval_batch}; -1 "
                "selected the removed per-node observer loop, whose "
                "results are not bitwise those of the row-batch observer"
            )
        if self.arena_dtype not in ("float32", "float64"):
            raise ValueError("arena_dtype must be 'float32' or 'float64'")
        if self.max_global_test <= 0 or self.max_attack_samples <= 0:
            raise ValueError(
                "max_global_test and max_attack_samples must be positive"
            )
        # Privacy.
        if self.dp_epsilon is not None and self.dp_epsilon <= 0:
            raise ValueError("dp_epsilon must be positive (or None)")
        if not 0.0 < self.dp_delta < 1.0:
            raise ValueError("dp_delta must be in (0, 1)")
        if self.dp_clip_norm <= 0:
            raise ValueError("dp_clip_norm must be positive")
        if self.n_canaries < 0:
            raise ValueError("n_canaries must be non-negative")

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
        also resets its group's flat keys that come before it. The
        pre-removal ``engine``/``n_workers`` keys load at top level and
        in the ``execution`` section
        (:func:`~repro.core.config.upgrade_legacy_execution`).
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"StudyConfig.from_dict needs a mapping, "
                f"got {type(payload).__name__}"
            )
        values: dict = {}
        for key, value in upgrade_legacy_execution(payload).items():
            if key in _GROUP_FIELDS:
                if key == "execution" and isinstance(value, Mapping):
                    value = upgrade_legacy_execution(value)
                section = _section(key, value)
                for name in _GROUP_FIELDS[key]:
                    values[name] = section.get(name, _DEFAULTS[name])
            elif key in _DEFAULTS:
                values[key] = value
            else:
                reject_unknown_keys("StudyConfig", [key], _VALID_KEYS)
        return cls(**values)

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


def _section(group: str, section: Any) -> dict:
    """The fields one ``group`` section sets (unknown keys rejected)."""
    if not isinstance(section, Mapping):
        raise ValueError(
            f"the {group} section needs a mapping of its fields, "
            f"got {type(section).__name__}"
        )
    reject_unknown_keys(group, section, _GROUP_FIELDS[group])
    return dict(section)


def config_hash(config: StudyConfig | Mapping) -> str:
    """Canonical SHA-256 hex digest of a study config.

    The identity key of the service-layer response cache and job
    deduplication: a fixed config + seed determines the run bit for bit
    (float64), so two requests with the same hash may share one
    simulator. Accepts a ``StudyConfig`` or a mapping in any spelling
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
