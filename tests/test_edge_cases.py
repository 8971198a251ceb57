"""Additional edge-case and failure-injection tests across modules."""

import numpy as np
import pytest

from repro.baselines.habitat import roofline_scale
from repro.baselines.tlp import TLPCostModel
from repro.core.config import PredictorConfig
from repro.core.predictor import CDMPPPredictor
from repro.core.scale import get_scale
from repro.devices.simulator import DeviceSimulator
from repro.devices.spec import get_device
from repro.errors import FeatureError
from repro.features.pipeline import FeatureSet, featurize_programs
from repro.graph.dfg import build_dfg
from repro.graph.zoo import build_model
from repro.ops import dense, elementwise_unary, softmax
from repro.replay.replayer import Replayer
from repro.tir.lower import lower
from repro.tir.schedule import Schedule
from repro.tir.task import IterVar, ReadSpec, StatementSpec, Task
from repro.tir.buffer import Buffer


class TestSimulatorAcrossOpFamilies:
    """The simulator should behave sensibly for every operator family."""

    @pytest.mark.parametrize("device_name", ["t4", "epyc-7452", "hl100"])
    def test_memory_bound_ops_are_memory_bound(self, device_name):
        program = lower(elementwise_unary((64, 4096), "relu", model="edge"))
        breakdown = DeviceSimulator(get_device(device_name), seed=0).breakdown(program)
        assert breakdown.bound == "memory"

    def test_matmul_latency_dominates_equal_size_elementwise(self):
        device = get_device("a100")
        simulator = DeviceSimulator(device, seed=0)
        matmul = simulator.measure(lower(dense(64, 2048, 2048, model="edge")))
        relu = simulator.measure(lower(elementwise_unary((64, 2048), "relu", model="edge")))
        # Same output size, vastly different FLOPs: the contraction must be
        # far slower than the elementwise pass on any device.
        assert matmul > 20 * relu

    def test_launch_overhead_dominates_tiny_kernels(self):
        tiny = lower(elementwise_unary((4, 4), "relu", model="edge"))
        device = get_device("t4")
        latency = DeviceSimulator(device, seed=0).measure(tiny)
        assert latency < 3 * device.launch_overhead_us * 1e-6

    def test_noise_is_bounded(self):
        program = lower(dense(16, 256, 256, model="edge"))
        device = get_device("v100")
        values = [DeviceSimulator(device, seed=s).measure(program) for s in range(20)]
        spread = (max(values) - min(values)) / np.mean(values)
        assert spread < 0.5


class TestSingleStatementTasks:
    def test_task_with_no_reads_lowers(self):
        out = Buffer("out", (8, 8))
        task = Task(
            "fill",
            {"n": 8},
            (IterVar("i", 8), IterVar("j", 8)),
            StatementSpec("fill", out, ("i", "j")),
        )
        program = lower(task)
        assert program.num_leaves == 1
        assert program.stats.total_bytes_read == 0.0

    def test_scalar_task_without_spatial_axes(self):
        out = Buffer("out", (1,))
        data = Buffer("data", (128,))
        task = Task(
            "reduce_all",
            {},
            (IterVar("d0", 1), IterVar("k", 128, "reduce")),
            StatementSpec("sum", out, ("d0",), reads=(ReadSpec(data, ("k",)),), reduction=True),
        )
        program = lower(task, Schedule().split("k", [16]))
        assert program.stats.total_flops > 0
        features = featurize_programs([program], "t4")
        assert len(features) == 1


class TestPredictorEdgeCases:
    def test_single_sample_batch(self, t4_features):
        train, _, _ = t4_features
        predictor = CDMPPPredictor(PredictorConfig(d_model=16, num_heads=2, num_encoder_layers=1,
                                                   embedding_dim=16, decoder_hidden=(16,)), seed=0)
        x, mask, counts, dev = predictor.tensors_from(train, np.array([0]))
        assert predictor(x, mask, counts, dev).shape == (1,)

    def test_predictor_without_device_features(self, t4_features):
        train, _, _ = t4_features
        config = PredictorConfig(d_model=16, num_heads=2, num_encoder_layers=1, embedding_dim=16,
                                 decoder_hidden=(16,), use_device_features=False)
        predictor = CDMPPPredictor(config, seed=0)
        x, mask, counts, _ = predictor.tensors_from(train, np.arange(4))
        out = predictor(x, mask, counts, None)
        assert out.shape == (4,)

    def test_max_leaves_padding_matches_scale_configs(self):
        for scale_name in ("tiny", "small", "medium"):
            config = get_scale(scale_name).predictor_config()
            assert config.max_leaves >= 12  # covers every op builder in the zoo


class TestBaselineInternals:
    def test_roofline_scale_directions(self):
        k80, a100 = get_device("k80"), get_device("a100")
        compute_bound = roofline_scale(1e-3, flops=1e9, bytes_moved=1e3, source=k80, target=a100)
        memory_bound = roofline_scale(1e-3, flops=1e3, bytes_moved=1e9, source=k80, target=a100)
        # Scaling K80 -> A100 must predict a speed-up in both regimes.
        assert compute_bound < 1e-3
        assert memory_bound < 1e-3

    def test_tlp_relative_targets_are_at_least_one(self, t4_splits):
        model = TLPCostModel(epochs=1, seed=0)
        relative = model._relative_targets(t4_splits.train)
        assert np.all(relative >= 1.0 - 1e-12)


class TestReplayerEdgeCases:
    def test_single_node_graph(self, dense_program):
        from repro.graph.dfg import DFGNode, TIRDataFlowGraph

        dfg = TIRDataFlowGraph("single")
        dfg.add_node(DFGNode("only", dense_program, [], duration_s=1e-3))
        result = Replayer().replay(dfg)
        assert result.iteration_time_s == pytest.approx(1e-3)

    def test_wide_fanout_graph(self, dense_program):
        from repro.graph.dfg import DFGNode, TIRDataFlowGraph

        dfg = TIRDataFlowGraph("fanout")
        dfg.add_node(DFGNode("root", dense_program, [], duration_s=1e-4))
        for index in range(16):
            # Spread the independent leaves across four device slots (the
            # replayer follows the node's slot assignment, as in Algorithm 2).
            dfg.add_node(DFGNode(f"leaf{index}", dense_program, ["root"], duration_s=1e-4,
                                 device_slot=index % 4))
        serial = Replayer(num_device_slots=1).replay(dfg).iteration_time_s
        parallel = Replayer(num_device_slots=4).replay(dfg).iteration_time_s
        assert parallel < serial
        assert parallel >= 1e-4 * (1 + 4) - 1e-12  # root + 16/4 waves of leaves

    def test_replay_deterministic(self):
        model = build_model("mobilenet_v2")
        dfg = build_dfg(model, seed=3)
        durations = {key: 1e-5 for key in dfg.unique_programs()}
        dfg.assign_durations(durations)
        first = Replayer().replay(dfg).iteration_time_s
        dfg.assign_durations(durations)
        second = Replayer().replay(dfg).iteration_time_s
        assert first == pytest.approx(second)


class TestFeatureSetErrors:
    def test_concatenate_dimension_mismatch(self, t4_features):
        train, _, _ = t4_features
        other = FeatureSet(
            x=np.zeros((2, 3, train.feature_dim + 1)),
            mask=np.ones((2, 3)),
            leaf_counts=np.array([3, 3]),
            device_features=np.zeros((2, train.device_features.shape[1])),
            y=np.ones(2),
            task_keys=["a", "b"],
            models=["m", "m"],
            op_types=["dense", "dense"],
            devices=["t4", "t4"],
        )
        with pytest.raises(FeatureError):
            FeatureSet.concatenate([train, other])

    def test_concatenate_empty_list(self):
        with pytest.raises(FeatureError):
            FeatureSet.concatenate([])


class TestScheduleRobustness:
    def test_split_larger_than_extent_still_lowers(self):
        task = dense(2, 8, 8, model="edge")
        program = lower(task, Schedule().split("b", [16]))
        # Outer loop collapses to one iteration; program remains valid.
        assert program.stats.total_flops >= task.naive_flops()

    def test_conflicting_annotations_last_wins(self):
        task = dense(4, 16, 16, model="edge")
        program = lower(task, Schedule().annotate("b", "parallel").annotate("b", "vectorize"))
        assert program.stats.vectorized_extent == 4
        assert program.stats.parallel_extent == 1

    def test_softmax_schedules_lower_without_reduce_axes(self):
        task = softmax(64, 64, model="edge")
        program = lower(task, Schedule().split("r", [8]).annotate("r.0", "parallel"))
        assert program.num_leaves == 2
