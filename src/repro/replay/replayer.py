"""The replayer: topological simulation of a TIR data-flow graph (Algorithm 2).

Given a DFG whose nodes carry durations (predicted or measured), the replayer
maintains one priority queue per device slot, repeatedly dequeues the ready
node with the smallest ready time, advances that slot's clock and releases
the node's successors.  The iteration time is the largest device clock when
the queues drain.  Multiple slots model devices that execute several kernels
concurrently (e.g. the three GEMM engines of HL-100, or multiple CUDA
streams).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ReplayError
from repro.graph.dfg import TIRDataFlowGraph


@dataclass
class ScheduledNode:
    """Replay outcome of one DFG node."""

    name: str
    start_s: float
    end_s: float
    device_slot: int


@dataclass
class ReplayResult:
    """Outcome of one replay."""

    iteration_time_s: float
    timeline: Dict[str, ScheduledNode] = field(default_factory=dict)
    durations: Dict[str, float] = field(default_factory=dict)

    @property
    def critical_path_bound_s(self) -> float:
        """Longest chain of scheduled intervals (a lower bound on iteration time)."""
        return max((node.end_s for node in self.timeline.values()), default=0.0)


class Replayer:
    """Simulates the execution order of a TIR DFG (Algorithm 2)."""

    def __init__(self, num_device_slots: int = 1, gap_s: float = 0.0):
        if num_device_slots <= 0:
            raise ReplayError("num_device_slots must be positive")
        self.num_device_slots = int(num_device_slots)
        self.gap_s = float(gap_s)

    def replay(self, dfg: TIRDataFlowGraph) -> ReplayResult:
        """Simulate ``dfg`` and return the iteration time and per-node timeline."""
        if len(dfg) == 0:
            raise ReplayError("cannot replay an empty DFG")

        successors = dfg.successors()
        indegree = {name: 0 for name in dfg.nodes}
        for src, dsts in successors.items():
            for dst in dsts:
                indegree[dst] += 1

        ready_time = {name: 0.0 for name in dfg.nodes}
        device_time = [0.0] * self.num_device_slots
        # Per-slot priority queues keyed by (readyTime, insertion order).
        queues: List[List[Tuple[float, int, str]]] = [[] for _ in range(self.num_device_slots)]
        counter = 0
        for name, node in dfg.nodes.items():
            if indegree[name] == 0:
                slot = node.device_slot % self.num_device_slots
                heapq.heappush(queues[slot], (0.0, counter, name))
                counter += 1

        timeline: Dict[str, ScheduledNode] = {}
        scheduled = 0
        total = len(dfg)
        nodes = dfg.nodes
        while scheduled < total:
            # select(D): the device slot with the smallest deviceTime among
            # those with a non-empty queue.
            candidates = [slot for slot in range(self.num_device_slots) if queues[slot]]
            if not candidates:
                raise ReplayError("replay deadlocked: no ready nodes but DFG not fully scheduled")
            slot = min(candidates, key=lambda s: device_time[s])
            _, _, name = heapq.heappop(queues[slot])
            node = nodes[name]

            start = max(device_time[slot], ready_time[name])
            end = start + node.duration_s
            device_time[slot] = end + (node.gap_s or self.gap_s)
            timeline[name] = ScheduledNode(name=name, start_s=start, end_s=end, device_slot=slot)
            scheduled += 1

            for succ in successors[name]:
                indegree[succ] -= 1
                ready_time[succ] = max(ready_time[succ], device_time[slot])
                if indegree[succ] == 0:
                    succ_slot = nodes[succ].device_slot % self.num_device_slots
                    heapq.heappush(queues[succ_slot], (ready_time[succ], counter, succ))
                    counter += 1

        iteration_time = max(device_time)
        durations = {node.task_key: node.duration_s for node in nodes.values()}
        return ReplayResult(iteration_time_s=float(iteration_time), timeline=timeline, durations=durations)
