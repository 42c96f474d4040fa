"""Model-exchange messages and the omniscient observer's log.

The threat model (Section 2.6) assumes an attacker observing all
messages exchanged in the system. :class:`MessageLog` records every
exchange so attacks and communication-cost accounting (Figure 5's
"models sent per user") can be computed after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ModelMessage", "MessageLog"]


@dataclass(frozen=True)
class ModelMessage:
    """One model sent from ``sender`` to ``receiver`` at ``tick``.

    The payload is the sender's flat model vector, stored by reference —
    senders pass the read-only snapshot the send already holds.
    """

    sender: int
    receiver: int
    tick: int
    payload: np.ndarray

    @property
    def payload_size(self) -> int:
        """Number of scalars transferred (proxy for bytes on the wire)."""
        return int(self.payload.size)


@dataclass
class MessageLog:
    """Append-only record of all exchanged messages."""

    keep_payloads: bool = False
    count: int = 0
    per_sender: dict[int, int] = field(default_factory=dict)
    messages: list[ModelMessage] = field(default_factory=list)

    def record(self, message: ModelMessage) -> None:
        self.count += 1
        self.per_sender[message.sender] = self.per_sender.get(message.sender, 0) + 1
        if self.keep_payloads:
            self.messages.append(message)

    def sent_by(self, node_id: int) -> int:
        return self.per_sender.get(node_id, 0)

    def models_sent_per_node(self, n_nodes: int) -> float:
        """Average number of models each node sent (Figure 5 cost axis)."""
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        return self.count / n_nodes
