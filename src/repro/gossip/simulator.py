"""Configuration of one gossip run's communication layer.

The simulator itself is :class:`~repro.gossip.engine.FlatGossipSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimulatorConfig"]


@dataclass(frozen=True)
class SimulatorConfig:
    """Static description of one gossip run's communication layer.

    ``sampler`` selects the peer-sampling service by name ("static",
    "peerswap", "fresh"); when None it is derived from ``dynamic`` for
    backward compatibility with the paper's two-setting grid.

    Failure injection (both default off):

    * ``drop_prob`` — every message is independently lost with this
      probability (lossy links);
    * ``failure_prob`` — a waking node is unavailable with this
      probability and skips the wake entirely (crash-recovery churn).

    ``delay_ticks``/``delay_jitter`` model network latency: a message
    sent at tick t is delivered at ``t + delay_ticks + U{0..jitter}``.
    The default 0 reproduces the paper's instantaneous exchanges.

    Execution (see DESIGN.md, "Flat-state execution engine"):

    * ``executor`` — "serial", "batched" or "sharded": run a tick's
      local updates one by one on the shared workspace model, train
      them in lockstep as one ``(B, dim)`` block ("batched" — models
      without a batched backward fall back per row), or partition arena
      rows across long-lived shard workers that each run the batched
      kernels over a zero-copy shared-memory arena ("sharded"). All
      three are bit-identical on float64 arenas.
    * ``n_shards`` — shard-worker count for the sharded executor
      (0 = one per CPU, capped; always clamped to ``n_nodes``).
    * ``shard_partition`` — how arena rows map to shards:
      "contiguous" row ranges, or "balanced" greedy assignment by
      per-node sample count (equalizes shard compute when splits are
      uneven).
    * ``train_batch`` — rows per blocked training op for the batched
      executor (and for each shard of the sharded one): 0 = one block
      per same-size group of a tick's wake tasks, N > 0 = blocks of at
      most N rows (bounds peak activation memory for conv models),
      -1 = force the per-row path. Ignored by the serial executor.
    * ``arena_dtype`` — storage dtype of the flat arena; evaluation
      *and* batched-executor training math stay in this dtype (no
      float64 promotion).
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
    n_shards: int = 0
    shard_partition: str = "contiguous"
    train_batch: int = 0
    arena_dtype: str = "float64"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes")
        if not 0 < self.view_size < self.n_nodes:
            raise ValueError("view_size must be in (0, n_nodes)")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in [0, 1)")
        if self.delay_ticks < 0 or self.delay_jitter < 0:
            raise ValueError("delays must be non-negative")
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
        if self.train_batch < -1:
            raise ValueError("train_batch must be >= -1")
        if self.arena_dtype not in ("float32", "float64"):
            raise ValueError("arena_dtype must be 'float32' or 'float64'")

    @property
    def sampler_name(self) -> str:
        if self.sampler is not None:
            return self.sampler
        return "peerswap" if self.dynamic else "static"
