"""DNN models represented as graphs of operator nodes.

A :class:`ModelGraph` is the frontend-level view of a network: each node is
one (possibly fused) operator, carries the TIR :class:`~repro.tir.task.Task`
it lowers to, and lists its data dependencies.  The replayer turns this graph
into a TIR-based data-flow graph; the dataset generator extracts the tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ModelError
from repro.tir.task import Task
from repro.utils.topo import topological_order


@dataclass(frozen=True)
class OpNode:
    """One operator instance in a DNN model graph."""

    name: str
    task: Task
    inputs: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))


class ModelGraph:
    """A DNN model: a named, acyclic graph of operator nodes."""

    def __init__(self, name: str, batch_size: int = 1):
        if batch_size <= 0:
            raise ModelError(f"batch size must be positive, got {batch_size}")
        self.name = name
        self.batch_size = int(batch_size)
        self._nodes: Dict[str, OpNode] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, name: str, task: Task, inputs: Sequence[str] = ()) -> str:
        """Add an operator node and return its name (for chaining)."""
        if name in self._nodes:
            raise ModelError(f"duplicate node name {name!r} in model {self.name!r}")
        for dep in inputs:
            if dep not in self._nodes:
                raise ModelError(
                    f"node {name!r} depends on unknown node {dep!r} (add order matters)"
                )
        self._nodes[name] = OpNode(name=name, task=task, inputs=tuple(inputs))
        return name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Dict[str, OpNode]:
        """All nodes keyed by name (insertion ordered)."""
        return dict(self._nodes)

    def node(self, name: str) -> OpNode:
        """Look up one node."""
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise ModelError(f"model {self.name!r} has no node {name!r}") from exc

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def successors(self) -> Dict[str, List[str]]:
        """Adjacency map node -> nodes that consume its output."""
        succ: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for node in self._nodes.values():
            for dep in node.inputs:
                succ[dep].append(node.name)
        return succ

    def topo_order(self) -> List[str]:
        """Node names in topological (executable) order."""
        return list(topological_order(self._nodes.keys(), self.successors()))

    def tasks(self) -> List[Task]:
        """The task of every node, in insertion order (duplicates included)."""
        return [node.task for node in self._nodes.values()]

    def unique_tasks(self) -> Dict[str, Task]:
        """Deduplicated tasks keyed by workload key.

        Multiple nodes frequently share a workload (e.g. the repeated blocks
        of ResNet); the cost model only needs one prediction per workload.
        """
        unique: Dict[str, Task] = {}
        for node in self._nodes.values():
            unique.setdefault(node.task.workload_key, node.task)
        return unique

    def op_type_histogram(self) -> Dict[str, int]:
        """Count nodes per operator family (used in dataset statistics)."""
        histogram: Dict[str, int] = {}
        for node in self._nodes.values():
            histogram[node.task.op_type] = histogram.get(node.task.op_type, 0) + 1
        return histogram

    def total_naive_flops(self) -> float:
        """Sum of unscheduled FLOPs over all nodes (model 'size')."""
        return float(sum(node.task.naive_flops() for node in self._nodes.values()))

    def __repr__(self) -> str:
        return (
            f"ModelGraph({self.name!r}, batch={self.batch_size}, nodes={len(self)}, "
            f"unique_tasks={len(self.unique_tasks())})"
        )
