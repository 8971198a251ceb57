"""Concrete tensor programs and their structural statistics.

A :class:`TensorProgram` is the result of lowering a (task, schedule) pair.
It is the object the profiler measures (on the simulated device) and the
feature extractor consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from repro.tir.schedule import Schedule
from repro.tir.stmt import ComputeStmt, ForLoop, LoopKind, SeqStmt, Stmt
from repro.tir.task import Task
from repro.utils.rng import stable_hash


@dataclass(frozen=True)
class LoopContext:
    """Information about one loop enclosing a leaf statement."""

    name: str
    extent: int
    kind: LoopKind


@dataclass(frozen=True)
class LeafRecord:
    """A compute statement together with its enclosing loop context.

    This is the unit from which the Compact AST's computation vectors are
    extracted: every leaf knows its statement, the loops wrapping it (from
    outermost to innermost) and how many times it executes.
    """

    stmt: ComputeStmt
    loops: Tuple[LoopContext, ...]

    @property
    def trip_count(self) -> int:
        """Number of times the statement executes."""
        count = 1
        for loop in self.loops:
            count *= loop.extent
        return count

    @property
    def loop_depth(self) -> int:
        """Number of enclosing loops."""
        return len(self.loops)

    def extent_of(self, kind: LoopKind) -> int:
        """Product of extents of enclosing loops with the given annotation."""
        total = 1
        for loop in self.loops:
            if loop.kind is kind:
                total *= loop.extent
        return total

    @property
    def total_flops(self) -> float:
        """FLOPs contributed by this leaf over all its executions."""
        return self.stmt.flops * self.trip_count

    @property
    def total_bytes_read(self) -> float:
        """Bytes read by this leaf over all its executions (no reuse model)."""
        return self.stmt.bytes_read * self.trip_count

    @property
    def total_bytes_written(self) -> float:
        """Bytes written by this leaf over all its executions."""
        return self.stmt.bytes_written * self.trip_count


@dataclass(frozen=True)
class LeafLayout:
    """The leaves of a program's AST and where they sit in it.

    Attributes:
        records: Every compute statement with its loop context, in order.
        positions: Pre-order index of each leaf in the full AST (the Compact
            AST's ordering vector).
        num_ast_nodes: Node count of the full AST.
    """

    records: Tuple[LeafRecord, ...]
    positions: Tuple[int, ...]
    num_ast_nodes: int


@dataclass(frozen=True)
class ProgramStats:
    """Aggregate structural statistics of a tensor program."""

    total_flops: float
    total_bytes_read: float
    total_bytes_written: float
    num_leaves: int
    num_ast_nodes: int
    max_loop_depth: int
    parallel_extent: int
    vectorized_extent: int
    unrolled_extent: int
    num_cache_stages: int
    num_intrinsic_calls: int

    @property
    def total_bytes(self) -> float:
        """Total memory traffic in bytes."""
        return self.total_bytes_read + self.total_bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of memory traffic."""
        return self.total_flops / max(self.total_bytes, 1.0)


@dataclass
class TensorProgram:
    """A lowered tensor program: task + schedule + concrete loop-nest IR."""

    task: Task
    schedule: Schedule
    root: Stmt

    @cached_property
    def leaf_layout(self) -> LeafLayout:
        """Leaves, their AST pre-order positions and the AST size, in one walk.

        Positions and node count are those of the Tiramisu-style AST
        (:func:`repro.tir.ast.build_ast` + :func:`~repro.tir.ast.
        preorder_serialize`): loops and compute statements are nodes,
        statement sequences are flattened, and a synthetic root is added
        unless the top level is a single loop.
        """
        records: List[LeafRecord] = []
        positions: List[int] = []
        counter = 0

        def visit(stmt: Stmt, loops: Tuple[LoopContext, ...]) -> None:
            nonlocal counter
            if isinstance(stmt, ForLoop):
                counter += 1
                context = LoopContext(stmt.var.name, stmt.extent, stmt.kind)
                visit(stmt.body, loops + (context,))
            elif isinstance(stmt, SeqStmt):
                for child in stmt.stmts:
                    visit(child, loops)
            elif isinstance(stmt, ComputeStmt):
                positions.append(counter)
                counter += 1
                records.append(LeafRecord(stmt, loops))

        visit(self.root, ())
        top = self.root
        while isinstance(top, SeqStmt) and len(top.stmts) == 1:
            top = top.stmts[0]
        if not isinstance(top, ForLoop):  # the synthetic root is node 0
            positions = [position + 1 for position in positions]
            counter += 1
        return LeafLayout(tuple(records), tuple(positions), counter)

    @cached_property
    def schedule_fingerprint(self) -> int:
        """A stable 48-bit fingerprint of the schedule steps.

        Schedule steps are frozen dataclasses with deterministic ``repr``, so
        the fingerprint is reproducible across processes (unlike ``hash``,
        which is randomized for strings).  Computed once per program: the
        serving caches key every submit on it, hits included.
        """
        return stable_hash(tuple(repr(step) for step in self.schedule.steps), bits=48)

    @property
    def leaf_records(self) -> Tuple[LeafRecord, ...]:
        """All compute statements with their enclosing loop context, in order."""
        return self.leaf_layout.records

    @cached_property
    def stats(self) -> ProgramStats:
        """Aggregate structural statistics (FLOPs, bytes, loop structure...)."""
        total_flops = 0.0
        bytes_read = 0.0
        bytes_written = 0.0
        max_depth = 0
        parallel_extent = 1
        vectorized_extent = 1
        unrolled_extent = 1
        cache_stages = 0
        intrinsic_calls = 0

        seen_loops: Dict[str, LoopContext] = {}
        for record in self.leaf_records:
            total_flops += record.total_flops
            bytes_read += record.total_bytes_read
            bytes_written += record.total_bytes_written
            max_depth = max(max_depth, record.loop_depth)
            if record.stmt.label.startswith("cache_read"):
                cache_stages += 1
            intrinsic_calls += sum(
                1 for node in record.stmt.value.walk() if node.__class__.__name__ == "Call"
            )
            for loop in record.loops:
                seen_loops.setdefault(loop.name, loop)

        for loop in seen_loops.values():
            if loop.kind is LoopKind.PARALLEL:
                parallel_extent *= loop.extent
            elif loop.kind is LoopKind.VECTORIZED:
                vectorized_extent *= loop.extent
            elif loop.kind is LoopKind.UNROLLED:
                unrolled_extent *= loop.extent

        num_nodes = len(seen_loops) + len(self.leaf_records)
        return ProgramStats(
            total_flops=total_flops,
            total_bytes_read=bytes_read,
            total_bytes_written=bytes_written,
            num_leaves=len(self.leaf_records),
            num_ast_nodes=num_nodes,
            max_loop_depth=max_depth,
            parallel_extent=parallel_extent,
            vectorized_extent=vectorized_extent,
            unrolled_extent=unrolled_extent,
            num_cache_stages=cache_stages,
            num_intrinsic_calls=intrinsic_calls,
        )

    @property
    def num_leaves(self) -> int:
        """Number of AST leaves (compute statements)."""
        return len(self.leaf_records)

    def describe(self) -> str:
        """Human-readable pseudo-code of the program."""
        from repro.tir.stmt import format_stmt

        header = f"# task: {self.task.op_type}  model: {self.task.model}\n"
        return header + format_stmt(self.root)

    def __repr__(self) -> str:
        return (
            f"TensorProgram({self.task.op_type}, leaves={self.num_leaves}, "
            f"flops={self.stats.total_flops:.3g})"
        )
