"""The compliant twin of bad/src/repro/core/purity.py: JSON-clean
configs, telemetry by reference, None defaults, package imports only."""

from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

from repro.nn.optim import BatchedSGD  # ok: the package's own kernel


@dataclass
class NoiseConfig:
    sigma: float = 0.0
    clip: float | None = None


@dataclass
class SweepConfig:
    name: str
    rounds: int
    hidden: tuple[int, ...] = (32, 16)
    labels: Sequence[str] = ()
    extras: Mapping[str, float] | None = None
    noise: NoiseConfig = field(default_factory=NoiseConfig)  # nested group
    SCHEMA: ClassVar[int] = 1  # ok: ClassVar is not a field
    _cache: dict = field(default_factory=dict)  # ok: private, not serialized


@dataclass
class ShardTask:
    node_id: int
    vector_row: int
    seed: int


def accumulate(value, acc=None):  # ok: build inside the function
    if acc is None:
        acc = []
    acc.append(value)
    return acc
