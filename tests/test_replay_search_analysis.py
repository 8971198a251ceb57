"""Tests for the replayer, end-to-end prediction, schedule search and analysis."""

import numpy as np
import pytest

from repro.analysis.distribution import (
    ast_node_distribution,
    histogram,
    latency_distribution,
    normality_score,
    skewness,
)
from repro.analysis.projection import domain_overlap, pca_project, tsne_project
from repro.devices.spec import get_device
from repro.errors import ReplayError, ReproError, SearchError
from repro.graph.dfg import DFGNode, TIRDataFlowGraph
from repro.graph.zoo import build_model
from repro.replay.e2e import measure_end_to_end, predict_end_to_end
from repro.replay.replayer import Replayer
from repro.search.ansor import evolutionary_search, search_model_schedules


class TestReplayer:
    def _chain_dfg(self, dense_program, durations):
        dfg = TIRDataFlowGraph("chain")
        previous = None
        for index, duration in enumerate(durations):
            name = f"node{index}"
            dfg.add_node(
                DFGNode(name=name, program=dense_program, inputs=[previous] if previous else [],
                        duration_s=duration)
            )
            previous = name
        return dfg

    def test_serial_chain_sums_durations(self, dense_program):
        durations = [1e-3, 2e-3, 3e-3]
        result = Replayer().replay(self._chain_dfg(dense_program, durations))
        assert result.iteration_time_s == pytest.approx(sum(durations))

    def test_gap_added_between_kernels(self, dense_program):
        durations = [1e-3, 1e-3]
        with_gap = Replayer(gap_s=5e-4).replay(self._chain_dfg(dense_program, durations))
        without_gap = Replayer().replay(self._chain_dfg(dense_program, durations))
        assert with_gap.iteration_time_s > without_gap.iteration_time_s

    def test_parallel_branches_overlap_with_multiple_slots(self, dense_program):
        dfg = TIRDataFlowGraph("diamond")
        dfg.add_node(DFGNode("root", dense_program, [], duration_s=1e-3))
        dfg.add_node(DFGNode("left", dense_program, ["root"], duration_s=2e-3, device_slot=0))
        dfg.add_node(DFGNode("right", dense_program, ["root"], duration_s=2e-3, device_slot=1))
        dfg.add_node(DFGNode("sink", dense_program, ["left", "right"], duration_s=1e-3))
        serial = Replayer(num_device_slots=1).replay(dfg).iteration_time_s
        parallel = Replayer(num_device_slots=2).replay(dfg).iteration_time_s
        assert parallel < serial
        assert parallel == pytest.approx(4e-3, rel=1e-6)

    def test_dependencies_respected_in_timeline(self, dense_program):
        dfg = self._chain_dfg(dense_program, [1e-3, 1e-3, 1e-3])
        result = Replayer().replay(dfg)
        assert result.timeline["node0"].end_s <= result.timeline["node1"].start_s
        assert result.timeline["node1"].end_s <= result.timeline["node2"].start_s

    def test_empty_dfg_raises(self):
        with pytest.raises(ReplayError):
            Replayer().replay(TIRDataFlowGraph("empty"))

    def test_invalid_slot_count(self):
        with pytest.raises(ReplayError):
            Replayer(num_device_slots=0)


class TestEndToEnd:
    def test_measured_e2e_is_positive_and_below_serial_sum(self):
        result = measure_end_to_end("bert_tiny", "t4", seed=0)
        assert result.iteration_time_s > 0
        serial_sum = sum(result.durations.values())
        assert result.iteration_time_s >= max(result.durations.values())
        # With per-kernel gaps the iteration time can slightly exceed the sum
        # of unique durations but must stay within a small factor of it.
        assert result.iteration_time_s < serial_sum * 50

    def test_predicted_e2e_with_oracle_costs_matches_measurement(self):
        device = get_device("t4")
        from repro.devices.simulator import DeviceSimulator

        simulator = DeviceSimulator(device, seed=0)
        oracle = lambda programs: {p.task.workload_key: simulator.measure(p) for p in programs}
        predicted = predict_end_to_end("bert_tiny", device, oracle, seed=0)
        measured = measure_end_to_end("bert_tiny", device, seed=0)
        assert predicted.iteration_time_s == pytest.approx(measured.iteration_time_s, rel=1e-6)

    def test_missing_cost_predictions_raise(self):
        with pytest.raises(ReplayError):
            predict_end_to_end("bert_tiny", "t4", lambda programs: {}, seed=0)

    def test_accelerator_splits_contraction_nodes(self):
        result = measure_end_to_end("bert_tiny", "hl100", seed=0)
        assert any("#engine" in name for name in result.timeline)
        slots = {node.device_slot for node in result.timeline.values()}
        assert len(slots) == get_device("hl100").gemm_engines

    def test_gpu_does_not_split_nodes(self):
        result = measure_end_to_end("bert_tiny", "t4", seed=0)
        assert not any("#engine" in name for name in result.timeline)


class TestScheduleSearch:
    def test_best_latency_is_monotone_over_rounds(self, conv_task):
        oracle_scores = lambda programs: np.asarray([p.stats.total_flops for p in programs])
        result = evolutionary_search(conv_task, "t4", oracle_scores, num_rounds=4, population=6,
                                     measurements_per_round=2, seed=0)
        history = result.best_latency_per_round
        assert len(history) == 4
        assert all(a >= b - 1e-18 for a, b in zip(history, history[1:]))
        assert result.num_measurements == 8
        assert result.best_schedule is not None

    def test_good_cost_model_beats_adversarial_one(self, conv_task):
        from repro.devices.simulator import DeviceSimulator

        simulator = DeviceSimulator(get_device("t4"), seed=0)
        oracle = lambda programs: np.asarray([simulator.measure(p) for p in programs])
        adversarial = lambda programs: -oracle(programs)  # prefers the slowest candidates
        good = evolutionary_search(conv_task, "t4", oracle, num_rounds=5, population=8,
                                   measurements_per_round=2, seed=1)
        bad = evolutionary_search(conv_task, "t4", adversarial, num_rounds=5, population=8,
                                  measurements_per_round=2, seed=1)
        assert good.best_latency_s <= bad.best_latency_s

    def test_wrong_score_count_raises(self, conv_task):
        with pytest.raises(SearchError):
            evolutionary_search(conv_task, "t4", lambda programs: np.zeros(1), num_rounds=1,
                                population=4, measurements_per_round=1)

    def test_search_model_schedules_covers_all_tasks(self):
        model = build_model("bert_tiny")
        oracle = lambda programs: np.asarray([p.stats.total_flops for p in programs])
        results = search_model_schedules(model, "t4", oracle, num_rounds=1, population=3,
                                         measurements_per_round=1, seed=0)
        assert set(results) == set(model.unique_tasks())


class TestAnalysis:
    def test_ast_distribution_statistics(self, t4_splits):
        programs = [record.program for record in t4_splits.train[:50]]
        distribution = ast_node_distribution(programs)
        assert distribution["num_nodes"].min() >= distribution["num_leaves"].min()
        assert distribution["depth"].min() >= 2

    def test_leaf_count_range_much_smaller_than_node_range(self, t4_splits):
        # The Fig. 2 observation that motivates Compact ASTs.
        programs = [record.program for record in t4_splits.train[:200]]
        distribution = ast_node_distribution(programs)
        node_range = distribution["num_nodes"].max() - distribution["num_nodes"].min()
        leaf_range = distribution["num_leaves"].max() - distribution["num_leaves"].min()
        assert leaf_range <= node_range

    def test_latency_distribution_and_skew(self, t4_splits):
        latencies = latency_distribution(t4_splits.train)
        assert skewness(latencies) > 1.0  # long right tail
        assert normality_score(np.log(latencies)) > normality_score(latencies)

    def test_histogram_output(self):
        result = histogram(np.arange(100), bins=10)
        assert len(result["counts"]) == 10
        assert len(result["edges"]) == 11

    def test_empty_inputs_raise(self):
        with pytest.raises(ReproError):
            ast_node_distribution([])
        with pytest.raises(ReproError):
            latency_distribution([])
        with pytest.raises(ReproError):
            normality_score(np.arange(3))

    def test_pca_projection_shape(self):
        x = np.random.default_rng(0).normal(size=(40, 10))
        assert pca_project(x, dim=2).shape == (40, 2)

    def test_tsne_separates_well_separated_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, size=(25, 6))
        b = rng.normal(8.0, 0.1, size=(25, 6))
        projection = tsne_project(np.vstack([a, b]), iterations=120, seed=0)
        labels = np.array([0] * 25 + [1] * 25)
        assert domain_overlap(projection, labels, k=5) < 0.2

    def test_domain_overlap_of_mixed_points_is_high(self):
        rng = np.random.default_rng(1)
        projection = rng.normal(size=(60, 2))
        labels = rng.integers(0, 2, size=60)
        assert domain_overlap(projection, labels, k=5) > 0.25

    def test_projection_input_validation(self):
        with pytest.raises(ReproError):
            pca_project(np.zeros((1, 3)))
        with pytest.raises(ReproError):
            tsne_project(np.zeros((3, 3)))
        with pytest.raises(ReproError):
            domain_overlap(np.zeros((5, 2)), np.zeros(4))
