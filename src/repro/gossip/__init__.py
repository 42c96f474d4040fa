"""Asynchronous gossip-learning runtime.

A discrete-event, tick-based simulator (Section 3.1 of the paper): a
round of communication is 100 ticks; each node waits a per-node gap
sampled once from N(mu=100, sigma^2=100) between wake-ups. Two
protocols are provided: Base Gossip Learning (Algorithm 1) and
Send-All-Merge-Once / SAMO (Algorithm 2).
"""

from repro.gossip.clock import WakeSchedule, TickClock
from repro.gossip.messages import ModelMessage, MessageLog
from repro.gossip.node import GossipNode
from repro.gossip.trainer import BatchedTrainer, TrainerConfig
from repro.gossip.protocols import (
    GossipProtocol,
    BaseGossipProtocol,
    PartialMergeGossipProtocol,
    SAMOProtocol,
    make_protocol,
)
from repro.gossip.simulator import SimulatorConfig
from repro.gossip.engine import (
    BatchedExecutor,
    Executor,
    FlatGossipSimulator,
    StateArena,
    UpdateTask,
)

__all__ = [
    "BatchedExecutor",
    "BatchedTrainer",
    "Executor",
    "FlatGossipSimulator",
    "StateArena",
    "UpdateTask",
    "WakeSchedule",
    "TickClock",
    "ModelMessage",
    "MessageLog",
    "GossipNode",
    "TrainerConfig",
    "GossipProtocol",
    "BaseGossipProtocol",
    "PartialMergeGossipProtocol",
    "SAMOProtocol",
    "make_protocol",
    "SimulatorConfig",
]
