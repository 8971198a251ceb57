"""Task templates: the declarative description of one computational subgraph.

A *task* corresponds to one TVM auto-scheduler task -- a computational
subgraph (e.g. a fused Conv2d+ReLU) together with its iteration space.  The
auto-tuner samples many schedules per task; lowering a (task, schedule) pair
yields a concrete :class:`~repro.tir.program.TensorProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.errors import TIRError
from repro.tir.buffer import Buffer
from repro.utils.rng import stable_hash

if TYPE_CHECKING:
    from repro.tir.lower import TaskStatements

SPATIAL = "spatial"
REDUCE = "reduce"


@dataclass(frozen=True)
class IterVar:
    """One axis of a task's iteration space."""

    name: str
    extent: int
    kind: str = SPATIAL

    def __post_init__(self) -> None:
        if self.kind not in (SPATIAL, REDUCE):
            raise TIRError(f"iter var kind must be spatial/reduce, got {self.kind!r}")
        if int(self.extent) <= 0:
            raise TIRError(f"iter var {self.name!r} has non-positive extent {self.extent}")
        object.__setattr__(self, "extent", int(self.extent))


@dataclass(frozen=True)
class ReadSpec:
    """A read of one input buffer performed by a statement.

    ``index_vars`` lists the iteration variables that appear in the access
    index; ``pattern`` summarises the access pattern (contiguous accesses hit
    caches and coalesce, strided/gather accesses do not), which the device
    simulator uses to derive effective memory bandwidth.
    """

    buffer: Buffer
    index_vars: Tuple[str, ...]
    pattern: str = "contiguous"

    def __post_init__(self) -> None:
        if self.pattern not in ("contiguous", "strided", "gather"):
            raise TIRError(f"unknown access pattern {self.pattern!r}")
        object.__setattr__(self, "index_vars", tuple(self.index_vars))


@dataclass(frozen=True)
class StatementSpec:
    """Declarative description of one compute statement.

    Attributes:
        name: Statement label (shows up in ASTs/features), e.g. ``"conv2d"``.
        output: Destination buffer.
        output_vars: Spatial iteration variables indexing the output.
        reads: Input buffer reads.
        intrinsics: Intrinsic functions applied to the combined value
            (e.g. ``("exp",)`` for softmax, ``("max",)`` for ReLU).
        reduction: Whether the statement accumulates over the task's
            reduction axes.
        init_value: Initial value for the accumulator (only for reductions).
    """

    name: str
    output: Buffer
    output_vars: Tuple[str, ...]
    reads: Tuple[ReadSpec, ...] = ()
    intrinsics: Tuple[str, ...] = ()
    reduction: bool = False
    init_value: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "output_vars", tuple(self.output_vars))
        object.__setattr__(self, "reads", tuple(self.reads))
        object.__setattr__(self, "intrinsics", tuple(self.intrinsics))


@dataclass(frozen=True)
class Task:
    """A schedulable computational subgraph.

    Attributes:
        op_type: Operator family (``"conv2d"``, ``"dense"``, ``"softmax"``...).
        params: Operator parameters (shapes, strides, ...), used only for
            bookkeeping and baseline features.
        iter_vars: The iteration space (spatial + reduction axes).
        body: The anchor statement (carries the bulk of the FLOPs).
        epilogues: Follow-up statements over the spatial axes only
            (bias add, ReLU, residual add, ...); fusion adds epilogues.
        model: Name of the DNN model this task was extracted from (domain
            label for cross-model experiments); ``None`` for synthetic tasks.
    """

    op_type: str
    params: Mapping[str, int]
    iter_vars: Tuple[IterVar, ...]
    body: StatementSpec
    epilogues: Tuple[StatementSpec, ...] = ()
    model: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "iter_vars", tuple(self.iter_vars))
        object.__setattr__(self, "epilogues", tuple(self.epilogues))
        object.__setattr__(self, "params", dict(self.params))
        names = [iv.name for iv in self.iter_vars]
        if len(names) != len(set(names)):
            raise TIRError(f"duplicate iteration variable names in {names}")
        known = set(names)
        spatial_names = {iv.name for iv in self.iter_vars if iv.kind == SPATIAL}
        for stmt in (self.body, *self.epilogues):
            missing = set(stmt.output_vars) - known
            if missing:
                raise TIRError(
                    f"statement {stmt.name!r} indexes unknown iteration vars {sorted(missing)}"
                )
            # Lowering shares one spatial loop nest across all statements, so a
            # statement's output must span exactly the spatial axes; otherwise
            # its trip count (and therefore FLOPs/bytes) would be inflated.
            if set(stmt.output_vars) != spatial_names:
                raise TIRError(
                    f"statement {stmt.name!r} must be indexed by all spatial axes "
                    f"{sorted(spatial_names)}, got {sorted(stmt.output_vars)}"
                )

    # ------------------------------------------------------------------
    # Iteration-space helpers
    # ------------------------------------------------------------------
    @property
    def spatial_vars(self) -> Tuple[IterVar, ...]:
        """Spatial axes, in declaration order."""
        return tuple(iv for iv in self.iter_vars if iv.kind == SPATIAL)

    @property
    def reduce_vars(self) -> Tuple[IterVar, ...]:
        """Reduction axes, in declaration order."""
        return tuple(iv for iv in self.iter_vars if iv.kind == REDUCE)

    @property
    def spatial_extent(self) -> int:
        """Product of spatial axis extents (number of output points)."""
        total = 1
        for iv in self.spatial_vars:
            total *= iv.extent
        return total

    @property
    def reduce_extent(self) -> int:
        """Product of reduction axis extents."""
        total = 1
        for iv in self.reduce_vars:
            total *= iv.extent
        return total

    @cached_property
    def workload_key(self) -> str:
        """Stable identifier of the task (operator type + parameters + model).

        Computed once per task: a frozen dataclass without slots keeps the
        cached value in its instance ``__dict__``, outside the fields.
        """
        key = stable_hash(self.op_type, sorted(self.params.items()), self.model, bits=48)
        return f"{self.op_type}-{key:012x}"

    @cached_property
    def statements(self) -> "TaskStatements":
        """The compute statements every lowering of this task shares.

        Built once per task, cached like :attr:`workload_key`; see
        :class:`repro.tir.lower.TaskStatements`.
        """
        from repro.tir.lower import TaskStatements  # local import to avoid cycle

        return TaskStatements(self)

    @property
    def input_buffers(self) -> Tuple[Buffer, ...]:
        """All distinct global input buffers read by the task."""
        seen: Dict[str, Buffer] = {}
        for stmt in (self.body, *self.epilogues):
            for read in stmt.reads:
                if read.buffer.scope == "global":
                    seen.setdefault(read.buffer.name, read.buffer)
        return tuple(seen.values())

    @property
    def output_buffer(self) -> Buffer:
        """The buffer written by the last statement of the task."""
        if self.epilogues:
            return self.epilogues[-1].output
        return self.body.output

    def naive_flops(self) -> float:
        """FLOP count of the unscheduled task (used by analytical baselines)."""
        from repro.tir.lower import statement_value_flops  # local import to avoid cycle

        flops = self.spatial_extent * self.reduce_extent * (
            statement_value_flops(self.body) + (1.0 if self.body.reduction else 0.0)
        )
        for epi in self.epilogues:
            flops += self.spatial_extent * statement_value_flops(epi)
        return float(flops)

    def __repr__(self) -> str:
        space = "x".join(f"{iv.name}:{iv.extent}" for iv in self.iter_vars)
        return f"Task({self.op_type}, [{space}], model={self.model})"
