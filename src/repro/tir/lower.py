"""Lowering a (task, schedule) pair into a concrete tensor program.

Lowering materialises the task's iteration space as a loop nest, applies the
schedule's split/fuse/reorder/annotate/cache steps, and emits compute
statements (AST leaves): an optional reduction initialiser, the anchor
statement wrapped in the reduction loops, the fused epilogue statements, and
one copy statement per cache stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ScheduleError
from repro.tir.expr import BinaryOp, BufferLoad, Call, Expr, FloatImm, Var
from repro.tir.schedule import (
    AnnotateStep,
    CacheStep,
    FuseStep,
    ReorderStep,
    Schedule,
    SplitStep,
)
from repro.tir.stmt import ComputeStmt, ForLoop, LoopKind, SeqStmt, Stmt
from repro.tir.task import REDUCE, SPATIAL, StatementSpec, Task

_ANNOTATION_TO_KIND = {
    "parallel": LoopKind.PARALLEL,
    "vectorize": LoopKind.VECTORIZED,
    "unroll": LoopKind.UNROLLED,
}


@dataclass
class _Axis:
    """A loop axis during lowering (mutable working representation)."""

    name: str
    extent: int
    kind: str  # spatial | reduce
    annotation: LoopKind = LoopKind.SERIAL


def statement_value_expr(spec: StatementSpec) -> Expr:
    """Build the right-hand-side expression of a statement spec.

    All reads are multiplied together (the dominant pattern of contraction
    style operators); intrinsics are applied on top.  Statements without
    reads produce a constant.
    """
    loads: List[Expr] = [
        BufferLoad(read.buffer, tuple(Var(v) for v in read.index_vars)) for read in spec.reads
    ]
    if not loads:
        value: Expr = FloatImm(float(spec.init_value))
    else:
        value = loads[0]
        for load in loads[1:]:
            value = BinaryOp("*", value, load)
    for intrinsic in spec.intrinsics:
        if intrinsic in ("max", "min"):
            value = Call(intrinsic, (value, FloatImm(0.0)))
        else:
            value = Call(intrinsic, (value,))
    return value


def statement_value_flops(spec: StatementSpec) -> float:
    """FLOPs of one execution of the statement's value expression."""
    return statement_value_expr(spec).flops()


def _apply_fuse(axes: List[_Axis], step: FuseStep) -> List[_Axis]:
    names = [axis.name for axis in axes]
    try:
        positions = [names.index(loop) for loop in step.loops]
    except ValueError as exc:
        raise ScheduleError(f"fuse references unknown loop: {exc}") from exc
    positions.sort()
    kinds = {axes[p].kind for p in positions}
    if len(kinds) != 1:
        raise ScheduleError("cannot fuse spatial and reduction loops together")
    extent = 1
    for p in positions:
        extent *= axes[p].extent
    fused = _Axis(
        name="@".join(axes[p].name for p in positions),
        extent=extent,
        kind=axes[positions[0]].kind,
    )
    result = [axis for i, axis in enumerate(axes) if i not in positions]
    result.insert(positions[0], fused)
    return result


def _apply_split(axes: List[_Axis], step: SplitStep) -> List[_Axis]:
    names = [axis.name for axis in axes]
    if step.loop not in names:
        raise ScheduleError(f"split references unknown loop {step.loop!r}")
    index = names.index(step.loop)
    axis = axes[index]
    inner_product = 1
    for factor in step.factors:
        inner_product *= factor
    outer_extent = max(1, math.ceil(axis.extent / inner_product))
    new_axes = [_Axis(f"{axis.name}.0", outer_extent, axis.kind)]
    for level, factor in enumerate(step.factors, start=1):
        new_axes.append(_Axis(f"{axis.name}.{level}", int(factor), axis.kind))
    return axes[:index] + new_axes + axes[index + 1 :]


def _apply_reorder(axes: List[_Axis], step: ReorderStep) -> List[_Axis]:
    by_name = {axis.name: axis for axis in axes}
    ordered = [by_name[name] for name in step.order if name in by_name]
    rest = [axis for axis in axes if axis.name not in set(step.order)]
    return ordered + rest


def _apply_annotate(axes: List[_Axis], step: AnnotateStep) -> None:
    for axis in axes:
        if axis.name == step.loop:
            axis.annotation = _ANNOTATION_TO_KIND[step.annotation]
            return
    # Annotations that refer to loops removed by later fusion or that never
    # existed are dropped, mirroring the leniency of auto-generated schedules.


def _nest(axes: Sequence[_Axis], body: Stmt) -> Stmt:
    """Wrap ``body`` in the loops of ``axes`` (first axis is outermost)."""
    result = body
    for axis in reversed(list(axes)):
        result = ForLoop(Var(axis.name), axis.extent, axis.annotation, result)
    return result


def _cache_statements(task: Task, cache_steps: Sequence[CacheStep]) -> List[ComputeStmt]:
    stmts: List[ComputeStmt] = []
    reads_by_buffer = {read.buffer.name: read for read in task.body.reads}
    for step in cache_steps:
        read = reads_by_buffer.get(step.buffer)
        if read is None:
            raise ScheduleError(f"cache step references unknown input buffer {step.buffer!r}")
        cached = read.buffer.with_scope(step.scope)
        index_exprs = tuple(Var(v) for v in read.index_vars)
        stmts.append(
            ComputeStmt(
                buffer=cached,
                indices=index_exprs,
                value=BufferLoad(read.buffer, index_exprs),
                label=f"cache_read.{read.buffer.name}",
            )
        )
    return stmts


def lower(task: Task, schedule: Optional[Schedule] = None) -> "TensorProgram":
    """Lower ``task`` with ``schedule`` into a :class:`TensorProgram`.

    When ``schedule`` is ``None`` the task's default (untiled, serial) loop
    nest is produced.
    """
    from repro.tir.program import TensorProgram  # local import to avoid a cycle

    schedule = schedule or Schedule()
    axes: List[_Axis] = [_Axis(iv.name, iv.extent, iv.kind) for iv in task.iter_vars]
    cache_steps: List[CacheStep] = []

    for step in schedule.steps:
        if isinstance(step, FuseStep):
            axes = _apply_fuse(axes, step)
        elif isinstance(step, SplitStep):
            axes = _apply_split(axes, step)
        elif isinstance(step, ReorderStep):
            axes = _apply_reorder(axes, step)
        elif isinstance(step, AnnotateStep):
            _apply_annotate(axes, step)
        elif isinstance(step, CacheStep):
            cache_steps.append(step)
        else:
            raise ScheduleError(f"unknown schedule step {step!r}")

    spatial_axes = [axis for axis in axes if axis.kind == SPATIAL]
    reduce_axes = [axis for axis in axes if axis.kind == REDUCE]

    # Innermost body: init + reduction nest around the anchor + epilogues.
    inner_stmts: List[Stmt] = []
    anchor_indices = tuple(Var(v) for v in task.body.output_vars)
    if task.body.reduction:
        inner_stmts.append(
            ComputeStmt(
                buffer=task.body.output,
                indices=anchor_indices,
                value=FloatImm(float(task.body.init_value)),
                is_init=True,
                label=f"{task.body.name}.init",
            )
        )
    anchor = ComputeStmt(
        buffer=task.body.output,
        indices=anchor_indices,
        value=statement_value_expr(task.body),
        is_reduction=task.body.reduction,
        label=task.body.name,
    )
    if task.body.reduction and reduce_axes:
        inner_stmts.append(_nest(reduce_axes, anchor))
    else:
        inner_stmts.append(anchor)
    for epilogue in task.epilogues:
        inner_stmts.append(
            ComputeStmt(
                buffer=epilogue.output,
                indices=tuple(Var(v) for v in epilogue.output_vars),
                value=statement_value_expr(epilogue),
                label=epilogue.name,
            )
        )
    inner_body: Stmt = inner_stmts[0] if len(inner_stmts) == 1 else SeqStmt(inner_stmts)

    cache_stmts = _cache_statements(task, cache_steps)
    if spatial_axes:
        if cache_stmts:
            # Cache copies execute once per iteration of the outermost spatial
            # loop and are reused by the inner loops, modelling data staging.
            outer, rest = spatial_axes[0], spatial_axes[1:]
            body_below_outer: Stmt = _nest(rest, inner_body) if rest else inner_body
            outer_body = SeqStmt([*cache_stmts, body_below_outer])
            root: Stmt = ForLoop(Var(outer.name), outer.extent, outer.annotation, outer_body)
        else:
            root = _nest(spatial_axes, inner_body)
    else:
        stmts = [*cache_stmts, inner_body] if cache_stmts else [inner_body]
        root = stmts[0] if len(stmts) == 1 else SeqStmt(stmts)

    return TensorProgram(task=task, schedule=schedule, root=root)
