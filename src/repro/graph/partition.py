"""Partitioning DNN models into auto-scheduler tasks and tensor programs.

TVM's auto-scheduler assigns one tuning task per (deduplicated) fused
subgraph.  Here a task is attached to every operator node already, so
partitioning amounts to collecting and deduplicating them -- but the helpers
below also support gathering tasks across many models, which is how the
Tenset-like dataset is assembled.

:func:`partition_into_programs` goes one step further, from tasks to lowered
*tensor programs*: it dissects a model into the TIR data-flow graph the
replayer and the graph-level serving tier (:mod:`repro.serving.fleet`)
consume, with one scheduled kernel per unique workload.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

from repro.graph.model import ModelGraph
from repro.graph.zoo import build_model
from repro.tir.task import Task

ModelLike = Union[str, ModelGraph]


def _as_graph(model: ModelLike, batch_size: int = 1) -> ModelGraph:
    if isinstance(model, ModelGraph):
        return model
    return build_model(model, batch_size=batch_size)


def partition_into_programs(
    model: ModelLike,
    target_kind: str = "gpu",
    batch_size: int = 1,
    seed: int | str | None = 0,
):
    """Partition a model into its TIR data-flow graph of tensor programs.

    Each operator node is lowered with one deterministic random schedule per
    unique workload (nodes sharing a workload share the kernel, as a compiled
    model does).  ``target_kind`` is the device taxonomy (``"gpu"``, ``"cpu"``
    or ``"accel"``) the schedules are sampled for.  Returns a
    :class:`repro.graph.dfg.TIRDataFlowGraph`; its ``unique_programs()`` are
    the per-kernel queries a cost model has to answer for the whole model.
    """
    from repro.graph.dfg import build_dfg

    return build_dfg(_as_graph(model, batch_size), target_kind=target_kind, seed=seed)


def extract_tasks(model: ModelLike, batch_size: int = 1) -> List[Task]:
    """All tasks of a model (one per node, duplicates included)."""
    from repro.graph.dfg import TIRDataFlowGraph

    if isinstance(model, TIRDataFlowGraph):
        return [node.program.task for node in model.nodes.values()]
    return _as_graph(model, batch_size).tasks()


def extract_unique_tasks(model: ModelLike, batch_size: int = 1) -> Dict[str, Task]:
    """Deduplicated tasks of a model keyed by workload key.

    Accepts a zoo name, a :class:`ModelGraph`, or an already-partitioned
    :class:`~repro.graph.dfg.TIRDataFlowGraph` (whose nodes carry their tasks
    — ``batch_size`` is ignored since the DFG was built at a fixed batch).
    The DFG path lets the schedule-search tier tune exactly the kernels a
    fleet serves without re-partitioning.
    """
    from repro.graph.dfg import TIRDataFlowGraph

    if isinstance(model, TIRDataFlowGraph):
        return {key: program.task for key, program in model.unique_programs().items()}
    return _as_graph(model, batch_size).unique_tasks()


def extract_tasks_from_models(
    models: Sequence[ModelLike],
    batch_size: int = 1,
) -> Dict[str, Task]:
    """Union of the unique tasks of several models.

    When two models share a workload (e.g. the same dense layer shape), the
    task of the first model wins -- matching Tenset, where each deduplicated
    workload appears once regardless of how many networks use it.
    """
    merged: Dict[str, Task] = {}
    for model in models:
        for key, task in extract_unique_tasks(model, batch_size).items():
            merged.setdefault(key, task)
    return merged


def tasks_by_model(
    models: Sequence[ModelLike],
    batch_size: int = 1,
) -> Dict[str, List[Task]]:
    """Unique tasks grouped by the model they came from."""
    grouped: Dict[str, List[Task]] = {}
    for model in models:
        graph = _as_graph(model, batch_size)
        grouped[graph.name] = list(graph.unique_tasks().values())
    return grouped
