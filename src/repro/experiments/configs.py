"""Experiment configurations: Table 2 of the paper plus scaled presets.

The paper trains 150 nodes (60 on CIFAR-100) for 250-500 rounds on
full datasets; that is CPU-days in pure numpy, so three presets are
provided:

* ``tiny``  — seconds per run; used by the test suite and benchmarks.
* ``small`` — minutes per run; clearer separation between settings.
* ``paper`` — the paper's full scale (Table 2 hyperparameters,
  150/60 nodes, full dataset sizes). Runnable, given time.

All presets keep the Table 2 learning rate / momentum / weight decay /
local-epoch values per dataset; only the scale knobs change.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.study import StudyConfig

__all__ = [
    "SCALES",
    "TABLE2",
    "scaled_config",
    "paper_table2_config",
    "table2_rows",
    "dataset_model_summary",
]


@dataclass(frozen=True)
class _Table2Row:
    """One row of Table 2 (training configuration)."""

    dataset: str
    model: str
    parameters: str
    learning_rate: float
    momentum: float
    weight_decay: float
    local_epochs: int
    rounds: int


TABLE2: dict[str, _Table2Row] = {
    "cifar10": _Table2Row("cifar10", "CNN", "124k", 0.01, 0.0, 5e-4, 3, 250),
    "cifar100": _Table2Row("cifar100", "ResNet-8", "1.2M", 0.001, 0.9, 5e-4, 5, 500),
    "fashion_mnist": _Table2Row(
        "fashion_mnist", "CNN", "124k", 0.01, 0.9, 5e-4, 3, 250
    ),
    "purchase100": _Table2Row("purchase100", "MLP", "1.3M", 0.01, 0.9, 5e-4, 10, 250),
}

# Table 1 (dataset characteristics) as structured data.
TABLE1: dict[str, dict] = {
    "cifar10": {
        "train_set": 50_000,
        "test_set": 10_000,
        "input_size": (32, 32, 3),
        "classes": 10,
        "model": "CNN",
        "description": "Color images across 10 classes including animals, vehicles",
    },
    "cifar100": {
        "train_set": 50_000,
        "test_set": 10_000,
        "input_size": (32, 32, 3),
        "classes": 100,
        "model": "ResNet-8",
        "description": "Fine-grained color images with 100 object classes",
    },
    "fashion_mnist": {
        "train_set": 60_000,
        "test_set": 10_000,
        "input_size": (28, 28, 1),
        "classes": 10,
        "model": "CNN",
        "description": "Grayscale images of clothing and fashion accessories",
    },
    "purchase100": {
        "train_set": 157_859,
        "test_set": 39_465,
        "input_size": (600,),
        "classes": 100,
        "model": "MLP",
        "description": "A tabular dataset of customer purchases to classify buying behavior",
    },
}


@dataclass(frozen=True)
class _Scale:
    """Scale knobs shared across datasets for one preset.

    :func:`scaled_config` copies every field ``StudyConfig`` declares
    by name; ``local_epoch_cap`` and ``figure4_canaries`` (Figure 4's
    canary count) are read separately.
    """

    n_nodes: int
    rounds: int
    n_train: int
    n_test: int
    train_per_node: int
    test_per_node: int
    image_size: int
    model_width: int
    mlp_hidden: tuple[int, ...]
    num_features: int
    max_attack_samples: int
    max_global_test: int
    batch_size: int
    local_epoch_cap: int | None
    figure4_canaries: int


SCALES: dict[str, _Scale] = {
    "tiny": _Scale(
        n_nodes=8,
        rounds=4,
        n_train=700,
        n_test=200,
        train_per_node=32,
        test_per_node=16,
        image_size=8,
        model_width=4,
        mlp_hidden=(64, 32),
        num_features=128,
        max_attack_samples=64,
        max_global_test=128,
        batch_size=16,
        local_epoch_cap=2,
        figure4_canaries=16,
    ),
    "small": _Scale(
        n_nodes=16,
        rounds=12,
        n_train=2_500,
        n_test=600,
        train_per_node=64,
        test_per_node=32,
        image_size=16,
        model_width=8,
        mlp_hidden=(128, 64, 32),
        num_features=300,
        max_attack_samples=128,
        max_global_test=256,
        batch_size=32,
        local_epoch_cap=None,
        figure4_canaries=40,
    ),
    "paper": _Scale(
        n_nodes=150,
        rounds=250,
        n_train=50_000,
        n_test=10_000,
        train_per_node=256,
        test_per_node=128,
        image_size=32,
        model_width=16,
        mlp_hidden=(1024, 512, 256),
        num_features=600,
        max_attack_samples=256,
        max_global_test=1024,
        batch_size=32,
        local_epoch_cap=None,
        figure4_canaries=600,
    ),
}

# The _Scale fields StudyConfig declares, which scaled_config copies.
_SCALE_FIELDS = tuple(
    f.name for f in fields(_Scale) if f.name in StudyConfig.__dataclass_fields__
)


def scaled_config(
    dataset: str,
    scale: str = "tiny",
    **overrides,
) -> StudyConfig:
    """Build a StudyConfig for ``dataset`` at the given preset scale.

    Table 2 hyperparameters (learning rate, momentum, weight decay,
    local epochs) are applied per dataset; ``overrides`` are forwarded
    to :meth:`StudyConfig.with_overrides` last, so callers can vary
    protocol, dynamics, view size, beta, DP, etc.
    """
    if dataset not in TABLE2:
        raise ValueError(f"unknown dataset {dataset!r}; choose from {sorted(TABLE2)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    row = TABLE2[dataset]
    s = SCALES[scale]
    knobs = {name: getattr(s, name) for name in _SCALE_FIELDS}
    local_epochs = row.local_epochs
    if s.local_epoch_cap is not None:
        local_epochs = min(local_epochs, s.local_epoch_cap)
    if scale == "paper":
        if dataset == "cifar100":
            knobs["n_nodes"] = 60  # the paper uses 60 nodes on CIFAR-100
        knobs["rounds"] = row.rounds
    config = StudyConfig(
        name=f"{dataset}-{scale}",
        dataset=dataset,
        learning_rate=row.learning_rate,
        momentum=row.momentum,
        weight_decay=row.weight_decay,
        local_epochs=local_epochs,
        **knobs,
    )
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def paper_table2_config(dataset: str, **overrides) -> StudyConfig:
    """The paper-scale configuration for ``dataset`` (Table 2 row)."""
    return scaled_config(dataset, scale="paper", **overrides)


def table2_rows() -> list[dict]:
    """Table 2 as a list of dict rows (for rendering and tests)."""
    return [
        {
            "dataset": row.dataset,
            "model": row.model,
            "parameters": row.parameters,
            "learning_rate": row.learning_rate,
            "momentum": row.momentum,
            "weight_decay": row.weight_decay,
            "local_epochs": row.local_epochs,
            "rounds": row.rounds,
        }
        for row in TABLE2.values()
    ]


def dataset_model_summary() -> list[dict]:
    """Table 1 as a list of dict rows."""
    return [
        {"dataset": name, **info} for name, info in TABLE1.items()
    ]
