"""TIR-based data-flow graphs: the input of the end-to-end replayer.

A :class:`TIRDataFlowGraph` has one node per tensor program (one per operator
node of the source model) and edges for data dependencies.  Each node carries
the latency assigned to it -- either measured on the simulator (ground truth)
or predicted by a cost model -- plus an optional gap modelling framework
overhead between kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ReplayError
from repro.graph.model import ModelGraph
from repro.tir.lower import lower
from repro.tir.program import TensorProgram
from repro.tir.schedule import Schedule, random_schedule
from repro.utils.rng import new_rng, spawn_rng
from repro.utils.topo import topological_order


@dataclass
class DFGNode:
    """One tensor program instance in the data-flow graph."""

    name: str
    program: TensorProgram
    inputs: List[str] = field(default_factory=list)
    duration_s: float = 0.0
    gap_s: float = 0.0
    device_slot: int = 0

    @property
    def task_key(self) -> str:
        """Workload key of the node's task."""
        return self.program.task.workload_key


class TIRDataFlowGraph:
    """A DAG of tensor programs with per-node durations."""

    def __init__(self, name: str):
        self.name = name
        self._nodes: Dict[str, DFGNode] = {}

    def add_node(self, node: DFGNode) -> None:
        """Insert a node; dependencies must already be present."""
        if node.name in self._nodes:
            raise ReplayError(f"duplicate DFG node {node.name!r}")
        for dep in node.inputs:
            if dep not in self._nodes:
                raise ReplayError(f"DFG node {node.name!r} depends on unknown node {dep!r}")
        self._nodes[node.name] = node

    @property
    def nodes(self) -> Dict[str, DFGNode]:
        """All nodes keyed by name."""
        return dict(self._nodes)

    def node(self, name: str) -> DFGNode:
        """Look up one node."""
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise ReplayError(f"DFG {self.name!r} has no node {name!r}") from exc

    def __len__(self) -> int:
        return len(self._nodes)

    def successors(self) -> Dict[str, List[str]]:
        """Adjacency map node -> consumers."""
        succ: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for node in self._nodes.values():
            for dep in node.inputs:
                succ[dep].append(node.name)
        return succ

    def topo_order(self) -> List[str]:
        """Node names in topological order."""
        return list(topological_order(self._nodes.keys(), self.successors()))

    def unique_programs(self) -> Dict[str, TensorProgram]:
        """Deduplicated tensor programs keyed by workload key.

        The replayer queries the cost model once per unique program and
        shares the prediction across all nodes with the same workload.
        """
        unique: Dict[str, TensorProgram] = {}
        for node in self._nodes.values():
            unique.setdefault(node.task_key, node.program)
        return unique

    def assign_durations(self, durations: Dict[str, float], gap_s: float = 0.0) -> None:
        """Assign per-node durations from a mapping of workload key -> seconds."""
        missing = [n.name for n in self._nodes.values() if n.task_key not in durations]
        if missing:
            raise ReplayError(f"missing durations for nodes {missing[:5]} (and possibly more)")
        for node in self._nodes.values():
            node.duration_s = float(durations[node.task_key])
            node.gap_s = float(gap_s)

    def total_duration(self) -> float:
        """Sum of node durations (serial lower bound, ignores gaps)."""
        return float(sum(node.duration_s for node in self._nodes.values()))


def build_dfg(
    model: ModelGraph,
    schedule_chooser: Optional[Callable[[object, np.random.Generator], Schedule]] = None,
    target_kind: str = "gpu",
    seed: int | str | None = 0,
) -> TIRDataFlowGraph:
    """Build the TIR data-flow graph of a model.

    Each operator node is lowered with a schedule chosen by
    ``schedule_chooser`` (default: one random schedule per unique workload,
    mirroring the paper's "randomly sample a schedule for each task" protocol
    in the end-to-end experiments).  Nodes sharing a workload share the same
    schedule, as a compiled model reuses one kernel per workload.
    """
    rng = new_rng(seed)
    dfg = TIRDataFlowGraph(model.name)
    schedule_cache: Dict[str, Schedule] = {}
    program_cache: Dict[str, TensorProgram] = {}

    for name in model.topo_order():
        op_node = model.node(name)
        key = op_node.task.workload_key
        if key not in program_cache:
            task_rng = spawn_rng(rng, "dfg", key)
            if schedule_chooser is not None:
                schedule = schedule_chooser(op_node.task, task_rng)
            else:
                schedule = random_schedule(op_node.task, task_rng, target_kind=target_kind)
            schedule_cache[key] = schedule
            program_cache[key] = lower(op_node.task, schedule)
        dfg.add_node(
            DFGNode(name=name, program=program_cache[key], inputs=list(op_node.inputs))
        )
    return dfg
