"""Flat-buffer state layout: map a model State onto one contiguous vector.

The gossip hot path treats models as elements of R^d (Section 4 of the
paper). A :class:`StateLayout` computes the name -> (offset, shape,
dtype) mapping *once* per model so every node's state lives as one row
of a contiguous ``(n_nodes, dim)`` arena and gossip aggregation is a
vectorized numpy op over rows (see DESIGN.md, "Flat-state execution
engine"). Entries are laid out in sorted-name order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.nn.serialize import State, get_state
from repro.nn.layers import Module

__all__ = ["StateSlot", "StateLayout"]


class StateSlot(NamedTuple):
    """Placement of one state entry inside the flat vector."""

    name: str
    offset: int
    size: int
    shape: tuple[int, ...]
    dtype: np.dtype


class StateLayout:
    """Immutable name -> slice mapping for one model architecture.

    Layout contract: slots are laid out in sorted-name order. Dtype
    contract: a layout records each entry's template dtype but does not
    impose it — :meth:`pack` casts into the target vector's dtype (the
    arena dtype).
    """

    def __init__(self, slots: list[StateSlot]):
        self.slots = list(slots)
        self.dim = sum(slot.size for slot in self.slots)
        self._by_name = {slot.name: slot for slot in self.slots}

    # -- construction -------------------------------------------------

    @classmethod
    def from_state(cls, template: State) -> "StateLayout":
        """Compute the layout of a state dict (sorted-name order)."""
        slots: list[StateSlot] = []
        offset = 0
        for name in sorted(template):
            arr = np.asarray(template[name])
            slots.append(
                StateSlot(name, offset, int(arr.size), arr.shape, arr.dtype)
            )
            offset += int(arr.size)
        return cls(slots)

    @classmethod
    def from_model(cls, model: Module) -> "StateLayout":
        """Compute the layout of a model's parameters and buffers."""
        return cls.from_state(get_state(model))

    # -- introspection ------------------------------------------------

    @property
    def names(self) -> list[str]:
        return [slot.name for slot in self.slots]

    def slot(self, name: str) -> StateSlot:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self.slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateLayout):
            return NotImplemented
        return self.slots == other.slots

    def compatible_with(self, other: "StateLayout") -> bool:
        """True when both layouts address vectors identically.

        Compares names, offsets, sizes and shapes but not template
        dtypes — a float32 workspace and a float64 template describe
        the same slot addressing, and vectors are stored in the
        arena/target dtype anyway.
        """
        return [slot[:4] for slot in self.slots] == [
            slot[:4] for slot in other.slots
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateLayout(entries={len(self.slots)}, dim={self.dim})"

    # -- pack ---------------------------------------------------------

    def check_state(self, state: State) -> None:
        """Raise if ``state`` does not match this layout."""
        if set(state) != set(self._by_name):
            missing = sorted(set(self._by_name) - set(state))
            extra = sorted(set(state) - set(self._by_name))
            raise KeyError(
                f"state does not match layout (missing={missing}, extra={extra})"
            )
        for slot in self.slots:
            if np.asarray(state[slot.name]).shape != slot.shape:
                raise ValueError(
                    f"shape mismatch for {slot.name!r}: "
                    f"{np.asarray(state[slot.name]).shape} vs {slot.shape}"
                )

    def pack(
        self,
        state: State,
        out: np.ndarray | None = None,
        dtype: np.dtype | str | None = None,
    ) -> np.ndarray:
        """Flatten ``state`` into one vector (allocating unless ``out``).

        ``dtype`` selects the vector dtype for a fresh allocation; when
        writing into ``out`` the values are cast to ``out.dtype``.
        """
        self.check_state(state)
        if out is None:
            out = np.empty(self.dim, dtype=dtype or np.float64)
        elif out.shape != (self.dim,):
            raise ValueError(f"out has shape {out.shape}, expected ({self.dim},)")
        for slot in self.slots:
            out[slot.offset : slot.offset + slot.size] = np.asarray(
                state[slot.name]
            ).ravel()
        return out

    def empty(self, dtype: np.dtype | str = np.float64) -> np.ndarray:
        """Zero-filled flat vector of this layout's dimension."""
        return np.zeros(self.dim, dtype=dtype)
