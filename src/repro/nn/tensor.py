"""Named parameter arrays.

A :class:`Parameter` is one trainable slot of a layer spec: its value
and its qualified name. Gradients never live here — the blocked kernel
(:class:`~repro.nn.batched.BatchedModel`) writes them into a ``(B,
dim)`` block laid out like the parameter block.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A trainable array and its name.

    Parameters
    ----------
    data:
        Initial value. Stored as ``float64`` by default; pass ``dtype``
        to keep a narrower type.
    name:
        Identifier used in state dictionaries.
    dtype:
        Storage dtype of the value.
    """

    __slots__ = ("data", "name")

    def __init__(
        self,
        data: np.ndarray,
        name: str = "",
        dtype: np.dtype | str = np.float64,
    ):
        self.data = np.asarray(data, dtype=dtype)
        self.name = name

    def astype(self, dtype: np.dtype | str) -> "Parameter":
        """Cast the value in place; returns self for chaining."""
        self.data = self.data.astype(dtype, copy=False)
        return self

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"
