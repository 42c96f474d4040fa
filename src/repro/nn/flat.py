"""Flat-buffer state layout: map a model State onto one contiguous vector.

The gossip hot path treats models as elements of R^d (Section 4 of the
paper). A :class:`StateLayout` computes the name -> (offset, shape,
dtype) mapping *once* per model so every node's state lives as one row
of a contiguous ``(n_nodes, dim)`` arena and gossip aggregation is a
vectorized numpy op over rows (see DESIGN.md, "Flat-state execution
engine"). Entries are laid out in sorted-name order.

:class:`SharedArena` is the cross-process backing for such buffers: one
named POSIX shared-memory segment holding an ``(n_rows, dim)`` array
that a creator process owns and shard workers attach to by name, so
rows move between processes without being pickled (see DESIGN.md,
"Sharded execution").
"""

from __future__ import annotations

import weakref
from multiprocessing import shared_memory
from typing import NamedTuple

import numpy as np

from repro.nn.serialize import State, get_state
from repro.nn.layers import Module

__all__ = ["StateSlot", "StateLayout", "SharedArena"]


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

    Instances are plain data (picklable) so shard workers address rows
    with the same layout on their side of the fence.
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


def _release_segment(shm: shared_memory.SharedMemory, unlink: bool) -> None:
    """Detach (and, for the owner, unlink) one shared-memory segment.

    Used both for explicit :meth:`SharedArena.close` calls and as the
    ``weakref.finalize`` fallback that fires at garbage collection or
    interpreter exit, so a segment whose owner forgot to close — or
    crashed out of a run mid-exception — is still unlinked instead of
    leaking in ``/dev/shm`` (and instead of tripping the stdlib
    resource-tracker "leaked shared_memory objects" warning).
    """
    try:
        shm.close()
    except BufferError:  # pragma: no cover - live exports keep the map
        pass
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class SharedArena:
    """An ``(n_rows, dim)`` float array in a named shared-memory segment.

    Lifecycle contract: the *creator* (``SharedArena(n_rows, dim)``)
    owns the segment — its :meth:`close` both detaches and unlinks.
    Workers :meth:`attach` by name and their :meth:`close` only
    detaches. Both directions are idempotent, and a
    ``weakref.finalize`` guard releases the segment at garbage
    collection or interpreter exit if :meth:`close` was never called,
    so an exception mid-run cannot leak ``/dev/shm`` segments.

    ``data`` is an ndarray view over the segment: writes made by any
    attached process are immediately visible to every other one —
    the zero-copy channel of the sharded executor.
    """

    def __init__(
        self,
        n_rows: int,
        dim: int,
        dtype: np.dtype | str = np.float64,
        *,
        name: str | None = None,
        create: bool = True,
    ):
        if n_rows <= 0 or dim <= 0:
            raise ValueError("n_rows and dim must be positive")
        self.shape = (int(n_rows), int(dim))
        self.dtype = np.dtype(dtype)
        nbytes = self.shape[0] * self.shape[1] * self.dtype.itemsize
        if create:
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=nbytes
            )
        else:
            if name is None:
                raise ValueError("attaching needs the segment name")
            # Note: Python < 3.13 registers even attachments with the
            # resource tracker. Shard workers share the owner's tracker
            # process (fork/spawn both inherit it), where registrations
            # of one name dedupe and the owner's unlink unregisters it
            # exactly once — so no per-attachment bookkeeping is needed.
            self._shm = shared_memory.SharedMemory(name=name, create=False)
            if self._shm.size < nbytes:
                size = self._shm.size
                self._shm.close()
                raise ValueError(
                    f"segment {name!r} holds {size} bytes, "
                    f"need {nbytes} for shape {self.shape} {self.dtype}"
                )
        self.owner = bool(create)
        self.data = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)
        self._finalizer = weakref.finalize(
            self, _release_segment, self._shm, self.owner
        )

    @classmethod
    def attach(
        cls,
        name: str,
        n_rows: int,
        dim: int,
        dtype: np.dtype | str = np.float64,
    ) -> "SharedArena":
        """Attach to an existing segment (worker side; never unlinks)."""
        return cls(n_rows, dim, dtype, name=name, create=False)

    @property
    def name(self) -> str:
        """Segment name other processes attach with."""
        return self._shm.name

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Release the segment (detach; owner also unlinks). Idempotent.

        ``data`` must no longer be used afterwards — callers that need
        the values past the segment's life copy them out first (see
        ``StateArena.release``).
        """
        if not self._finalizer.alive:
            return
        self._finalizer.detach()
        self.data = None  # drop our export so the mmap can unmap
        _release_segment(self._shm, self.owner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "attached"
        return (
            f"SharedArena(name={self.name!r}, shape={self.shape}, "
            f"dtype={self.dtype}, {role})"
        )
