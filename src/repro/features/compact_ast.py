"""Compact AST extraction (Section 4.1 of the paper).

A Compact AST keeps only the AST leaves (computation statements).  Each leaf
is summarised by a fixed-length *computation vector* describing its
computation, memory accesses and the loop nest wrapping it; the *ordering
vector* records the leaf's position in the pre-order traversal of the full
AST, so no structural information is lost even though non-leaf (loop) nodes
are dropped.

Every schedule of a task lowers to the same compute statements, so the
statement part of a computation vector (flops, intrinsics, loads, bytes,
footprints, access patterns, dtype, scope) is computed once per task and
memoised; only the loop-nest part is computed for each program.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import FeatureError
from repro.tir.expr import Call
from repro.tir.program import TensorProgram
from repro.tir.stmt import ComputeStmt, LoopKind
from repro.tir.task import Task

# Length of one computation vector.  Changing this changes the predictor's
# input width, so it is exported as a constant.
COMPUTATION_VECTOR_LENGTH = 36


@dataclass(frozen=True)
class CompactAST:
    """The Compact AST of one tensor program.

    Attributes:
        computation_vectors: ``[num_leaves, COMPUTATION_VECTOR_LENGTH]`` array.
        ordering_vector: Pre-order position of each leaf in the original AST.
        num_ast_nodes: Node count of the original AST (kept for statistics).
    """

    computation_vectors: np.ndarray
    ordering_vector: np.ndarray
    num_ast_nodes: int

    @property
    def num_leaves(self) -> int:
        """Number of leaves (sequence length of the Compact AST)."""
        return int(self.computation_vectors.shape[0])

    def __post_init__(self) -> None:
        if self.computation_vectors.ndim != 2:
            raise FeatureError("computation_vectors must be a 2-D array")
        if self.computation_vectors.shape[1] != COMPUTATION_VECTOR_LENGTH:
            raise FeatureError(
                f"computation vectors must have length {COMPUTATION_VECTOR_LENGTH}, "
                f"got {self.computation_vectors.shape[1]}"
            )
        if self.ordering_vector.shape[0] != self.computation_vectors.shape[0]:
            raise FeatureError("ordering vector length must equal the number of leaves")


def _log1p(value: float) -> float:
    return float(np.log1p(max(value, 0.0)))


# Columns of a computation vector that depend on the loop nest around a
# leaf (everything else depends only on the statement and its task).  The
# first group enters the vector as log1p, the second as plain counts.
_LOOP_LOG_COLUMNS = np.array([1, 2, 13, 14, 23, 24, 25, 26, 27, 28, 29, 31])
_LOOP_COUNT_COLUMNS = np.array([18, 19, 20, 21, 22])


@dataclass(frozen=True)
class _StatementFeatures:
    """The loop-independent part of a leaf's computation vector."""

    template: np.ndarray  # statement columns filled, loop columns zero
    flops: float
    bytes_read: float
    bytes_written: float


def _statement_features(
    stmt: ComputeStmt, pattern_by_buffer: Dict[str, str]
) -> _StatementFeatures:
    """Statement columns of a computation vector (Section 4.1, category 1+2)."""
    loads = stmt.value.loads()
    loads_global = sum(1 for load in loads if load.buffer.scope == "global")
    loads_fast = len(loads) - loads_global
    intrinsics = [node for node in stmt.value.walk() if isinstance(node, Call)]
    intrinsic_flops = sum(
        node.flops() - sum(arg.flops() for arg in node.args) for node in intrinsics
    )
    read_footprint = sum(load.buffer.num_elements for load in loads)

    # Memory access patterns of this statement's reads (contiguous accesses
    # coalesce; strided/gather accesses waste bandwidth on most devices).
    pattern_counts = {"contiguous": 0, "strided": 0, "gather": 0}
    for load in loads:
        pattern = pattern_by_buffer.get(load.buffer.name, "contiguous")
        pattern_counts[pattern] += 1

    loop = 0.0  # filled per leaf from its loop nest
    vector = [
        # Computation features.
        _log1p(stmt.flops),
        loop,  # trip count
        loop,  # total flops
        _log1p(intrinsic_flops),
        float(len(intrinsics)),
        float(stmt.is_reduction),
        float(stmt.is_init),
        float(stmt.label.startswith("cache_read")),
        # Memory-access features.
        float(len(loads)),
        float(loads_global),
        float(loads_fast),
        _log1p(stmt.bytes_read),
        _log1p(stmt.bytes_written),
        loop,  # total bytes read
        loop,  # total bytes written
        _log1p(stmt.buffer.num_elements),
        _log1p(read_footprint),
        _log1p(stmt.buffer.dtype_bytes),
        # Loop features: number of loops, lengths and properties.
        loop,  # loop depth
        loop,  # serial loops
        loop,  # parallel loops
        loop,  # vectorized loops
        loop,  # unrolled loops
        loop,  # serial extent
        loop,  # parallel extent
        loop,  # vectorized extent
        loop,  # unrolled extent
        loop,  # innermost extent
        loop,  # outermost extent
        loop,  # product of extents
        float(len(stmt.indices)),
        loop,  # flops times innermost extent
        # Access-pattern features.
        float(pattern_counts["contiguous"]),
        float(pattern_counts["strided"]),
        float(pattern_counts["gather"]),
        float(stmt.buffer.scope != "global"),
    ]
    if len(vector) != COMPUTATION_VECTOR_LENGTH:
        raise FeatureError(
            f"internal error: computation vector has {len(vector)} entries, "
            f"expected {COMPUTATION_VECTOR_LENGTH}"
        )
    return _StatementFeatures(
        template=np.asarray(vector, dtype=np.float64),
        flops=stmt.flops,
        bytes_read=stmt.bytes_read,
        bytes_written=stmt.bytes_written,
    )


class _TaskStatements:
    """Statement features of one task, keyed by statement structure.

    Every schedule of a task lowers to the same few statements (init,
    anchor, epilogues, cache copies), rebuilt as fresh objects, so the key is
    structural.  Access patterns are a property of the task, which is why an
    instance never serves a second task.
    """

    MAX_STATEMENTS = 64

    def __init__(self, task: Task):
        self.task_ref = weakref.ref(task)
        self.pattern_by_buffer = {
            read.buffer.name: read.pattern
            for stmt in (task.body, *task.epilogues)
            for read in stmt.reads
        }
        self.features: Dict[tuple, _StatementFeatures] = {}

    def lookup(self, stmt: ComputeStmt) -> _StatementFeatures:
        key = (stmt.label, stmt.is_init, stmt.is_reduction, stmt.buffer, stmt.indices, stmt.value)
        found = self.features.get(key)
        if found is None:
            found = _statement_features(stmt, self.pattern_by_buffer)
            if len(self.features) < self.MAX_STATEMENTS:
                self.features[key] = found
        return found


class _StatementMemo:
    """A bounded LRU of per-task statement features.

    Tasks are unhashable (their params are a dict), so entries are keyed by
    ``id`` and hold a weak reference that must still point at the very task
    asked about; a recycled ``id`` never finds another task's entry.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._tasks: "OrderedDict[int, _TaskStatements]" = OrderedDict()  # guarded-by: _lock

    def for_task(self, task: Task) -> _TaskStatements:
        with self._lock:
            entry = self._tasks.get(id(task))
            if entry is not None and entry.task_ref() is task:
                self._tasks.move_to_end(id(task))
                return entry
        entry = _TaskStatements(task)
        with self._lock:
            self._tasks[id(task)] = entry
            self._tasks.move_to_end(id(task))
            while len(self._tasks) > self.capacity:
                self._tasks.popitem(last=False)
        return entry


# Process-wide, like any pure cache: a hit returns exactly what recomputing
# would, so sharing it between callers changes only speed.
_STATEMENTS = _StatementMemo()


def extract_compact_ast(program: TensorProgram) -> CompactAST:
    """Extract the Compact AST of a tensor program.

    The ordering vector comes from the pre-order serialization of the full
    Tiramisu-style AST (Fig. 1(d)): entry ``i`` is the pre-order index of the
    ``i``-th leaf.  Statement columns come from a per-task memo; only the
    loop columns are computed for each program.
    """
    layout = program.leaf_layout
    leaves = layout.records
    if not leaves:
        raise FeatureError("program has no compute statements")
    statements = _STATEMENTS.for_task(program.task)
    templates, loop_logs, loop_counts = [], [], []
    for leaf in leaves:
        features = statements.lookup(leaf.stmt)
        # One pass over the loops (LeafRecord.trip_count/extent_of take one each).
        trip = serial = parallel = vectorized = unrolled = 1
        counts = [0, 0, 0, 0]  # serial, parallel, vectorized, unrolled
        for loop in leaf.loops:
            extent = loop.extent
            trip *= extent
            kind = loop.kind
            if kind is LoopKind.SERIAL:
                serial *= extent
                counts[0] += 1
            elif kind is LoopKind.PARALLEL:
                parallel *= extent
                counts[1] += 1
            elif kind is LoopKind.VECTORIZED:
                vectorized *= extent
                counts[2] += 1
            else:
                unrolled *= extent
                counts[3] += 1
        innermost = leaf.loops[-1].extent if leaf.loops else 1
        outermost = leaf.loops[0].extent if leaf.loops else 1
        templates.append(features.template)
        loop_logs.append((
            trip,
            features.flops * trip,
            features.bytes_read * trip,
            features.bytes_written * trip,
            serial,
            parallel,
            vectorized,
            unrolled,
            innermost,
            outermost,
            trip,  # product of all extents
            features.flops * innermost,
        ))
        loop_counts.append((len(leaf.loops), *counts))
    vectors = np.array(templates)
    vectors[:, _LOOP_LOG_COLUMNS] = np.log1p(np.array(loop_logs, dtype=np.float64))
    vectors[:, _LOOP_COUNT_COLUMNS] = loop_counts
    return CompactAST(
        computation_vectors=vectors,
        ordering_vector=np.asarray(layout.positions, dtype=np.float64),
        num_ast_nodes=layout.num_ast_nodes,
    )
