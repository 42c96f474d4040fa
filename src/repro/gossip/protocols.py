"""The two gossip-learning protocols of the paper.

* :class:`BaseGossipProtocol` — Algorithm 1. On wake-up a node sends
  its model to ONE random neighbor. On reception it aggregates pairwise
  (``theta_i <- (theta_i + theta_j) / 2``) and immediately performs a
  local update.
* :class:`SAMOProtocol` — Algorithm 2 (Send-All-Merge-Once, the
  paper's contribution). On reception a node only stores the model. On
  wake-up, if models were received it averages them with its own,
  performs a local update, clears the buffer, and finally sends its
  model to ALL neighbors.

A protocol object is data: it names the algorithm and carries its
trainer and hyperparameters. The semantics above are implemented once,
over arena rows, by :class:`~repro.gossip.engine.FlatGossipSimulator`
(``_samo_wakes``, ``_base_wakes`` and ``_process_pending``).
"""

from __future__ import annotations

from repro.gossip.trainer import BatchedTrainer

__all__ = [
    "GossipProtocol",
    "BaseGossipProtocol",
    "PartialMergeGossipProtocol",
    "SAMOProtocol",
    "PROTOCOLS",
    "make_protocol",
]


class GossipProtocol:
    """What the engine reads from either protocol.

    ``max_updates_per_node`` caps local updates per node; once a node
    exhausts the cap it keeps gossiping (aggregation and dissemination
    continue) but skips further training. The DP runner uses this to
    make the calibrated privacy budget a hard guarantee — exactly the
    fixed-step budget of DP-SGD deployments.
    """

    name = "abstract"

    def __init__(self, trainer: BatchedTrainer, max_updates_per_node: int | None = None):
        self.trainer = trainer
        self.max_updates_per_node = max_updates_per_node


class BaseGossipProtocol(GossipProtocol):
    """Algorithm 1: push to one random neighbor; merge+train on receive.

    ``merge_weight`` is the weight given to the INCOMING model during
    the pairwise merge. The paper's Algorithm 1 uses 0.5 (plain
    averaging); values below 0.5 reproduce the *partial* aggregation of
    Pasquini et al. [62], which Section 6.2 argues mixes worse and
    leaks more — exercised by the aggregation ablation benchmark.
    """

    name = "base_gossip"

    def __init__(
        self,
        trainer: BatchedTrainer,
        max_updates_per_node: int | None = None,
        merge_weight: float = 0.5,
    ):
        super().__init__(trainer, max_updates_per_node)
        if not 0.0 < merge_weight <= 1.0:
            raise ValueError("merge_weight must be in (0, 1]")
        self.merge_weight = merge_weight


class PartialMergeGossipProtocol(BaseGossipProtocol):
    """Base Gossip with self-biased (partial) aggregation.

    Keeps 75% of the local model on each merge — the weaker-mixing
    aggregation style the paper contrasts against (Section 6.2).
    """

    name = "base_gossip_partial"

    def __init__(
        self, trainer: BatchedTrainer, max_updates_per_node: int | None = None
    ):
        super().__init__(trainer, max_updates_per_node, merge_weight=0.25)


class SAMOProtocol(GossipProtocol):
    """Algorithm 2: buffer on receive; merge-once and push-all on wake."""

    name = "samo"


# Protocol classes keyed by the names used in experiment configs, the
# default first (the order ``repro study --protocol`` lists them in).
PROTOCOLS: dict[str, type[GossipProtocol]] = {
    "samo": SAMOProtocol,
    "base_gossip": BaseGossipProtocol,
    "base_gossip_partial": PartialMergeGossipProtocol,
}


def make_protocol(name: str, trainer: BatchedTrainer) -> GossipProtocol:
    """Protocol factory keyed by the names used in experiment configs."""
    if name not in PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}")
    return PROTOCOLS[name](trainer)
