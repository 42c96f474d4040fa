"""Configuration of one gossip run's communication layer.

The simulator itself is :class:`~repro.gossip.engine.FlatGossipSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.peer_sampling import SAMPLERS

__all__ = ["ARENA_DTYPES", "EXECUTORS", "SimulatorConfig"]

# The accepted values of the two named execution knobs.
EXECUTORS = ("serial", "batched")
ARENA_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class SimulatorConfig:
    """Static description of one gossip run's communication layer.

    A study fills every field but ``wake_mu``, ``wake_sigma`` and
    ``seed`` from the :class:`~repro.core.config.StudyConfig` field of
    the same name; this class owns their checks, and
    docs/configuration.md describes each field. In short: ``sampler``
    names the peer-sampling service ("static", "peerswap", "fresh";
    None derives it from ``dynamic``); ``drop_prob`` loses messages and
    ``failure_prob`` skips wakes; a message sent at tick t arrives at
    ``t + delay_ticks + U{0..delay_jitter}``. The execution fields
    (DESIGN.md, "Flat-state execution engine") choose how a tick's
    local updates run: one row per call ("serial") or stacked rows
    ("batched"), bit-identical on float64 arenas.
    """

    n_nodes: int = 16
    view_size: int = 2
    dynamic: bool = False
    sampler: str | None = None
    ticks_per_round: int = 100
    wake_mu: float = 100.0
    wake_sigma: float = 10.0
    drop_prob: float = 0.0
    failure_prob: float = 0.0
    delay_ticks: int = 0
    delay_jitter: int = 0
    executor: str = "serial"
    train_batch: int = 0
    arena_dtype: str = "float64"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes")
        if not 0 < self.view_size < self.n_nodes:
            raise ValueError("view_size must be in (0, n_nodes)")
        if self.n_nodes * self.view_size % 2:
            raise ValueError(
                "n_nodes * view_size must be even (every sampler starts "
                f"from a view_size-regular graph), got n_nodes="
                f"{self.n_nodes}, view_size={self.view_size}"
            )
        if self.sampler is not None and self.sampler not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {self.sampler!r}; "
                f"choose from {sorted(SAMPLERS)}"
            )
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in [0, 1)")
        if self.delay_ticks < 0 or self.delay_jitter < 0:
            raise ValueError("delays must be non-negative")
        if self.executor not in EXECUTORS:
            raise ValueError("executor must be 'serial' or 'batched'")
        if self.train_batch < 0:
            raise ValueError("train_batch must be >= 0")
        if self.arena_dtype not in ARENA_DTYPES:
            raise ValueError("arena_dtype must be 'float32' or 'float64'")

    @property
    def sampler_name(self) -> str:
        if self.sampler is not None:
            return self.sampler
        return "peerswap" if self.dynamic else "static"
