"""Reduction operator builders (sum/mean/argmax-style reductions)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import TIRError
from repro.tir.buffer import Buffer
from repro.tir.task import IterVar, ReadSpec, StatementSpec, Task

_REDUCE_KINDS = ("sum", "mean", "max")


def reduce_op(
    shape: Sequence[int],
    axis: int = -1,
    kind: str = "sum",
    *,
    model: Optional[str] = None,
) -> Task:
    """Reduce one axis of a tensor with sum/mean/max."""
    if kind not in _REDUCE_KINDS:
        raise TIRError(f"unsupported reduce kind {kind!r}")
    shape = tuple(int(s) for s in shape)
    axis = axis % len(shape)
    out_shape = tuple(s for i, s in enumerate(shape) if i != axis) or (1,)

    data = Buffer("data", shape)
    out = Buffer(f"reduce_{kind}", out_shape)

    iter_vars = []
    spatial_names = []
    for i, extent in enumerate(shape):
        if i == axis:
            iter_vars.append(IterVar("rk", extent, "reduce"))
        else:
            name = f"d{i}"
            iter_vars.append(IterVar(name, extent))
            spatial_names.append(name)
    if not spatial_names:
        iter_vars.insert(0, IterVar("d0", 1))
        spatial_names.append("d0")

    read_vars = tuple("rk" if i == axis else f"d{i}" for i in range(len(shape)))
    body = StatementSpec(
        f"reduce_{kind}",
        out,
        tuple(spatial_names),
        reads=(ReadSpec(data, read_vars),),
        intrinsics=("max",) if kind == "max" else (),
        reduction=True,
    )
    params = {"kind_id": _REDUCE_KINDS.index(kind), "axis": axis}
    params.update({f"s{i}": s for i, s in enumerate(shape)})
    return Task("reduce", params, tuple(iter_vars), body, model=model)
