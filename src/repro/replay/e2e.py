"""End-to-end model latency: ground truth and cost-model-driven prediction.

``measure_end_to_end`` obtains per-program latencies from the device
simulator (standing in for real profiling) and replays the DFG;
``predict_end_to_end`` does the same but takes latencies from an arbitrary
cost function (the CDMPP predictor, a baseline, ...), querying it once per
unique tensor program, as in Section 5.5.

Both are thin wrappers around :func:`compose_latencies`, the reusable step
that turns (DFG, per-kernel durations) into one end-to-end number.  The
serving layer's :class:`repro.serving.fleet.FleetService` calls it directly,
with durations coming from its batched prediction path.  Two composition
modes exist:

* ``"replay"`` — critical-path simulation of the execution order
  (Algorithm 2, the paper's method);
* ``"serial"`` — the serial-sum fallback: every kernel runs back to back on
  one queue, so the estimate is the sum of durations plus inter-kernel gaps.
  An upper bound on the replayed time, and exact on single-queue devices
  with linear graphs.

Device-specific replay behaviour: on accelerators with multiple GEMM engines
(HL-100 has 3) contraction nodes are split into ``gemm_engines`` parallel
sub-operators, each carrying 1/``gemm_engines`` of the predicted time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.devices.simulator import DeviceSimulator
from repro.devices.spec import ACCEL, DeviceSpec, get_device
from repro.errors import ReplayError
from repro.graph.dfg import DFGNode, TIRDataFlowGraph, build_dfg
from repro.graph.model import ModelGraph
from repro.replay.replayer import ReplayResult, Replayer, ScheduledNode
from repro.tir.program import TensorProgram

# Operator families that run on GEMM/convolution engines (used for splitting
# nodes on multi-engine accelerators, Section 5.5).
_SPLITTABLE_OPS = {"conv2d", "dense", "batch_matmul", "attention_scores", "attention_context"}

COMPOSE_MODES = ("replay", "serial")

CostFn = Callable[[List[TensorProgram]], Dict[str, float]]


def cost_fn_from_model(model, device: Union[str, DeviceSpec]) -> CostFn:
    """Adapt anything with ``predict_programs(programs, device)`` into a cost_fn.

    Any :class:`repro.backends.CostModel` (CDMPP or a baseline) qualifies, so
    the replayer can be driven by every backend through one code path.
    """

    def cost_fn(programs: List[TensorProgram]) -> Dict[str, float]:
        predictions = model.predict_programs(programs, device)
        return {
            program.task.workload_key: float(value)
            for program, value in zip(programs, predictions)
        }

    return cost_fn


def _split_for_accelerator(dfg: TIRDataFlowGraph, device: DeviceSpec) -> TIRDataFlowGraph:
    """Split contraction nodes into per-engine sub-operators on accelerators."""
    engines = max(int(device.gemm_engines), 1)
    if device.taxonomy != ACCEL or engines <= 1:
        return dfg

    split = TIRDataFlowGraph(f"{dfg.name}@{device.name}")
    name_map: Dict[str, List[str]] = {}
    for name in dfg.topo_order():
        node = dfg.node(name)
        inputs = [sub for dep in node.inputs for sub in name_map[dep]]
        if node.program.task.op_type in _SPLITTABLE_OPS:
            sub_names = []
            for engine in range(engines):
                sub_name = f"{name}#engine{engine}"
                split.add_node(
                    DFGNode(
                        name=sub_name,
                        program=node.program,
                        inputs=list(inputs),
                        duration_s=node.duration_s / engines,
                        device_slot=engine,
                    )
                )
                sub_names.append(sub_name)
            name_map[name] = sub_names
        else:
            split.add_node(
                DFGNode(
                    name=name,
                    program=node.program,
                    inputs=list(inputs),
                    duration_s=node.duration_s,
                    device_slot=0,
                )
            )
            name_map[name] = [name]
    return split


def _serial_sum(dfg: TIRDataFlowGraph, gap_s: float) -> ReplayResult:
    """Serial-sum composition: kernels back to back on one execution queue."""
    timeline: Dict[str, ScheduledNode] = {}
    clock = 0.0
    for name in dfg.topo_order():
        node = dfg.node(name)
        end = clock + node.duration_s
        timeline[name] = ScheduledNode(name=name, start_s=clock, end_s=end, device_slot=0)
        clock = end + (node.gap_s or gap_s)
    return ReplayResult(iteration_time_s=float(clock), timeline=timeline)


def compose_latencies(
    dfg: TIRDataFlowGraph,
    durations: Dict[str, float],
    device: Union[str, DeviceSpec],
    gap_s: float = 2e-6,
    mode: str = "replay",
) -> ReplayResult:
    """Compose per-kernel latencies into an end-to-end model estimate.

    ``durations`` maps workload keys to predicted (or measured) seconds, one
    entry per unique kernel of ``dfg``.  ``mode="replay"`` runs the
    critical-path simulation of Algorithm 2 (splitting contraction nodes
    across GEMM engines on accelerators); ``mode="serial"`` is the serial-sum
    fallback that never parallelizes.  The returned
    :class:`~repro.replay.replayer.ReplayResult` reports ``durations`` per
    unique workload, pre-splitting.
    """
    if mode not in COMPOSE_MODES:
        raise ReplayError(f"unknown composition mode {mode!r}; expected one of {COMPOSE_MODES}")
    if len(dfg) == 0:
        raise ReplayError(f"cannot compose latencies of empty DFG {dfg.name!r}")
    device = get_device(device) if isinstance(device, str) else device
    dfg.assign_durations(durations, gap_s=gap_s)
    if mode == "serial":
        result = _serial_sum(dfg, gap_s)
    else:
        runnable = _split_for_accelerator(dfg, device)
        num_slots = device.gemm_engines if device.taxonomy == ACCEL else 1
        replayer = Replayer(num_device_slots=max(num_slots, 1), gap_s=gap_s)
        result = replayer.replay(runnable)
    # Report durations per unique workload (pre-splitting).
    result.durations = dict(durations)
    return result


def predict_end_to_end(
    model: Union[str, ModelGraph],
    device: Union[str, DeviceSpec],
    cost_fn: CostFn,
    gap_s: float = 2e-6,
    seed: int | str | None = 0,
    compose: str = "replay",
) -> ReplayResult:
    """Predict the end-to-end latency of ``model`` on ``device`` using ``cost_fn``.

    ``cost_fn`` receives the unique tensor programs of the model's DFG and
    returns predicted latency (seconds) keyed by workload key; the cost model
    is therefore queried only once per unique TIR kernel, as in the paper.
    Instead of a callable, any :class:`repro.backends.CostModel` may be
    passed directly (adapted via :func:`cost_fn_from_model`).  ``compose``
    picks the composition mode (see :func:`compose_latencies`).
    """
    from repro.graph.zoo import build_model

    device = get_device(device) if isinstance(device, str) else device
    if not callable(cost_fn) and hasattr(cost_fn, "predict_programs"):
        from repro.backends import ensure_model_level

        ensure_model_level(cost_fn, ReplayError)
        cost_fn = cost_fn_from_model(cost_fn, device)
    graph = model if isinstance(model, ModelGraph) else build_model(model)
    dfg = build_dfg(graph, target_kind=device.taxonomy, seed=seed)
    unique = dfg.unique_programs()
    durations = cost_fn(list(unique.values()))
    missing = set(unique) - set(durations)
    if missing:
        raise ReplayError(f"cost function did not return predictions for {sorted(missing)[:3]}")
    return compose_latencies(dfg, durations, device, gap_s, mode=compose)


def measure_end_to_end(
    model: Union[str, ModelGraph],
    device: Union[str, DeviceSpec],
    gap_s: float = 2e-6,
    seed: int | str | None = 0,
    compose: str = "replay",
) -> ReplayResult:
    """Ground-truth end-to-end latency using the device simulator as profiler."""
    from repro.graph.zoo import build_model

    device = get_device(device) if isinstance(device, str) else device
    graph = model if isinstance(model, ModelGraph) else build_model(model)
    dfg = build_dfg(graph, target_kind=device.taxonomy, seed=seed)
    simulator = DeviceSimulator(device, seed=seed)
    durations = {key: simulator.measure(program) for key, program in dfg.unique_programs().items()}
    return compose_latencies(dfg, durations, device, gap_s, mode=compose)
