"""Statement nodes of the miniature TIR: loop nests and compute statements."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.errors import TIRError
from repro.tir.buffer import Buffer
from repro.tir.expr import Expr, Var


class LoopKind(enum.Enum):
    """Annotation of a loop produced by schedule primitives."""

    SERIAL = "serial"
    PARALLEL = "parallel"
    VECTORIZED = "vectorized"
    UNROLLED = "unrolled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Stmt:
    """Base class for statements."""

    def walk(self) -> Iterator["Stmt"]:
        """Pre-order traversal over the statement tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> Tuple["Stmt", ...]:
        """Direct child statements."""
        return ()


@dataclass
class ComputeStmt(Stmt):
    """A leaf statement: store the value of ``value`` into ``buffer[indices]``.

    Attributes:
        buffer: Destination buffer.
        indices: Index expressions (usually plain loop variables).
        value: Right-hand-side expression.
        is_reduction: True when the statement accumulates into its output
            (``C[i, j] += ...``) over the enclosing reduction loops.
        is_init: True for reduction-initialisation statements (``C[i, j] = 0``).
        label: Human-readable statement label used in ASTs and features
            (e.g. ``"conv2d.update"`` or ``"relu"``).
    """

    buffer: Buffer
    indices: Tuple[Expr, ...]
    value: Expr
    is_reduction: bool = False
    is_init: bool = False
    label: str = "compute"

    def __post_init__(self) -> None:
        self.indices = tuple(self.indices)
        if self.is_init and self.is_reduction:
            raise TIRError("a statement cannot be both init and reduction update")

    @property
    def flops(self) -> float:
        """FLOPs performed by one execution of the statement."""
        base = self.value.flops()
        if self.is_reduction:
            base += 1.0  # the accumulate add
        return base

    @property
    def num_loads(self) -> int:
        """Number of buffer loads per execution."""
        return len(self.value.loads())

    @property
    def bytes_read(self) -> float:
        """Bytes read from memory per execution."""
        return float(sum(load.buffer.dtype_bytes for load in self.value.loads()))

    @property
    def bytes_written(self) -> float:
        """Bytes written to memory per execution."""
        return float(self.buffer.dtype_bytes)

    def __repr__(self) -> str:
        idx = ", ".join(repr(i) for i in self.indices)
        op = "+=" if self.is_reduction else "="
        return f"{self.buffer.name}[{idx}] {op} {self.value!r}"


@dataclass
class ForLoop(Stmt):
    """A counted loop with a static extent and a schedule annotation."""

    var: Var
    extent: int
    kind: LoopKind
    body: Stmt

    def __post_init__(self) -> None:
        self.extent = int(self.extent)
        if self.extent <= 0:
            raise TIRError(f"loop {self.var.name!r} has non-positive extent {self.extent}")

    def children(self) -> Tuple[Stmt, ...]:
        return (self.body,)

    def __repr__(self) -> str:
        return f"for {self.var.name} in range({self.extent})  # {self.kind.value}"


@dataclass
class SeqStmt(Stmt):
    """A sequence of statements executed in order."""

    stmts: List[Stmt] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.stmts:
            raise TIRError("SeqStmt must contain at least one statement")

    def children(self) -> Tuple[Stmt, ...]:
        return tuple(self.stmts)

    def __repr__(self) -> str:
        return f"seq[{len(self.stmts)}]"


def iter_compute_stmts(stmt: Stmt) -> Iterator[ComputeStmt]:
    """Yield every compute statement (AST leaf) under ``stmt`` in order."""
    for node in stmt.walk():
        if isinstance(node, ComputeStmt):
            yield node


def format_stmt(stmt: Stmt, indent: int = 0) -> str:
    """Pretty-print a statement tree as pseudo-code (used for debugging/docs)."""
    pad = "  " * indent
    if isinstance(stmt, ForLoop):
        header = f"{pad}for {stmt.var.name} in range({stmt.extent}):"
        if stmt.kind is not LoopKind.SERIAL:
            header += f"  # {stmt.kind.value}"
        return header + "\n" + format_stmt(stmt.body, indent + 1)
    if isinstance(stmt, SeqStmt):
        return "\n".join(format_stmt(child, indent) for child in stmt.stmts)
    return f"{pad}{stmt!r}"
