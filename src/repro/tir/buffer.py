"""Buffers: named, typed, shaped memory regions referenced by tensor programs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import TIRError

_DTYPE_BYTES = {
    "float16": 2,
    "bfloat16": 2,
    "float32": 4,
    "float64": 8,
    "int8": 1,
    "int32": 4,
    "int64": 8,
}

_VALID_SCOPES = ("global", "shared", "local")


@dataclass(frozen=True)
class Buffer:
    """A memory buffer accessed by a tensor program.

    Attributes:
        name: Unique (within a program) buffer name, e.g. ``"input"``.
        shape: Static shape.  All extents must be positive.
        dtype: Element type; determines bytes-per-element.
        scope: Memory scope (``global`` DRAM, ``shared`` on-chip, ``local``
            registers).  Cache stages introduce shared/local buffers.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str = "float32"
    scope: str = "global"

    def __post_init__(self) -> None:
        if not self.name:
            raise TIRError("buffer name must be non-empty")
        if self.dtype not in _DTYPE_BYTES:
            raise TIRError(f"unsupported dtype {self.dtype!r}")
        if self.scope not in _VALID_SCOPES:
            raise TIRError(f"unsupported scope {self.scope!r}")
        shape = tuple(int(s) for s in self.shape)
        if any(s <= 0 for s in shape):
            raise TIRError(f"buffer {self.name!r} has non-positive extent in {shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        """Total number of elements."""
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    @property
    def dtype_bytes(self) -> int:
        """Bytes per element."""
        return _DTYPE_BYTES[self.dtype]

    @property
    def size_bytes(self) -> int:
        """Total footprint in bytes."""
        return self.num_elements * self.dtype_bytes

    def with_scope(self, scope: str) -> "Buffer":
        """Return a copy of this buffer in a different memory scope."""
        return Buffer(name=f"{self.name}.{scope}", shape=self.shape, dtype=self.dtype, scope=scope)

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"Buffer({self.name}: {self.dtype}[{dims}] @{self.scope})"
