"""Tests for the model zoo, graphs, DFGs and the dataset substrate."""

import numpy as np
import pytest

from repro.dataset.splits import split_dataset
from repro.dataset.synthetic import synthetic_model_tasks
from repro.dataset.tenset import DatasetConfig, generate_dataset
from repro.errors import DatasetError, ModelError, ReplayError
from repro.graph.dfg import DFGNode, TIRDataFlowGraph, build_dfg
from repro.graph.model import ModelGraph
from repro.graph.partition import extract_tasks_from_models, extract_unique_tasks, tasks_by_model
from repro.graph.zoo import MODEL_BUILDERS, build_model, list_models


class TestModelGraph:
    def test_add_and_lookup(self, dense_task):
        graph = ModelGraph("toy", batch_size=2)
        name = graph.add("fc", dense_task)
        assert name == "fc"
        assert graph.node("fc").task is dense_task
        assert "fc" in graph and len(graph) == 1

    def test_duplicate_node_rejected(self, dense_task):
        graph = ModelGraph("toy")
        graph.add("fc", dense_task)
        with pytest.raises(ModelError):
            graph.add("fc", dense_task)

    def test_unknown_dependency_rejected(self, dense_task):
        graph = ModelGraph("toy")
        with pytest.raises(ModelError):
            graph.add("fc", dense_task, inputs=["ghost"])

    def test_invalid_batch_size(self):
        with pytest.raises(ModelError):
            ModelGraph("toy", batch_size=0)

    def test_topo_order_respects_dependencies(self, dense_task, conv_task):
        graph = ModelGraph("toy")
        graph.add("a", conv_task)
        graph.add("b", dense_task, ["a"])
        graph.add("c", dense_task, ["a", "b"])
        order = graph.topo_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_unique_tasks_deduplicate(self, dense_task):
        graph = ModelGraph("toy")
        graph.add("a", dense_task)
        graph.add("b", dense_task, ["a"])
        assert len(graph.tasks()) == 2
        assert len(graph.unique_tasks()) == 1


class TestZoo:
    def test_list_models_matches_registry(self):
        assert set(list_models()) == set(MODEL_BUILDERS)

    def test_unknown_model_raises(self):
        with pytest.raises(ModelError):
            build_model("alexnet")

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_every_zoo_model_builds_and_is_acyclic(self, name):
        graph = build_model(name, batch_size=1)
        assert len(graph) > 5
        assert len(graph.topo_order()) == len(graph)
        assert graph.total_naive_flops() > 0
        # All tasks carry the model name as their domain label.
        assert all(task.model == graph.name for task in graph.tasks())

    def test_resnet50_has_expected_structure(self):
        graph = build_model("resnet50")
        histogram = graph.op_type_histogram()
        assert histogram["conv2d"] == 53
        assert histogram["dense"] == 1

    def test_bert_base_larger_than_bert_tiny(self):
        assert build_model("bert_base").total_naive_flops() > 20 * build_model("bert_tiny").total_naive_flops()

    def test_batch_size_scales_flops(self):
        single = build_model("vgg16", batch_size=1).total_naive_flops()
        quadruple = build_model("vgg16", batch_size=4).total_naive_flops()
        assert quadruple > 3 * single


class TestPartition:
    def test_extract_unique_tasks(self):
        tasks = extract_unique_tasks("bert_tiny")
        assert len(tasks) > 5
        assert all(key == task.workload_key for key, task in tasks.items())

    def test_union_across_models_deduplicates(self):
        merged = extract_tasks_from_models(["bert_tiny", "bert_tiny"])
        single = extract_unique_tasks("bert_tiny")
        assert set(merged) == set(single)

    def test_tasks_by_model_keys(self):
        grouped = tasks_by_model(["bert_tiny", "mobilenet_v2"])
        assert set(grouped) == {"bert_tiny", "mobilenet_v2"}


class TestDFG:
    def test_build_dfg_matches_model(self):
        model = build_model("bert_tiny")
        dfg = build_dfg(model, seed=0)
        assert len(dfg) == len(model)
        assert len(dfg.topo_order()) == len(model)
        assert set(dfg.unique_programs()) == set(model.unique_tasks())

    def test_shared_workloads_share_programs(self):
        dfg = build_dfg(build_model("bert_tiny"), seed=0)
        programs = {}
        for node in dfg.nodes.values():
            programs.setdefault(node.task_key, node.program)
            assert node.program is programs[node.task_key]

    def test_assign_durations_and_total(self):
        dfg = build_dfg(build_model("bert_tiny"), seed=0)
        durations = {key: 1e-5 for key in dfg.unique_programs()}
        dfg.assign_durations(durations)
        assert dfg.total_duration() == pytest.approx(1e-5 * len(dfg))

    def test_assign_durations_missing_key_raises(self):
        dfg = build_dfg(build_model("bert_tiny"), seed=0)
        with pytest.raises(ReplayError):
            dfg.assign_durations({})

    def test_duplicate_dfg_node_rejected(self, dense_program):
        dfg = TIRDataFlowGraph("toy")
        dfg.add_node(DFGNode("a", dense_program))
        with pytest.raises(ReplayError):
            dfg.add_node(DFGNode("a", dense_program))


class TestSyntheticModels:
    def test_requested_number_of_models(self):
        tasks = synthetic_model_tasks(6, seed=0)
        assert len(tasks) == 6
        assert all(len(task_list) > 0 for task_list in tasks.values())

    def test_family_rotation_in_names(self):
        names = list(synthetic_model_tasks(4, seed=0))
        assert any("cnn" in name for name in names)
        assert any("transformer" in name for name in names)

    def test_deterministic_given_seed(self):
        first = synthetic_model_tasks(3, seed=9)
        second = synthetic_model_tasks(3, seed=9)
        for model in first:
            assert [t.workload_key for t in first[model]] == [t.workload_key for t in second[model]]


class TestDataset:
    def test_summary_and_accessors(self, tiny_dataset):
        summary = tiny_dataset.summary()
        assert summary["num_records"] == tiny_dataset.num_records()
        assert set(tiny_dataset.devices) == {"t4", "k80", "epyc-7452"}
        assert "bert_tiny" in tiny_dataset.models
        assert tiny_dataset.num_records("t4") == len(tiny_dataset.records("t4"))

    def test_same_tasks_measured_on_all_devices(self, tiny_dataset):
        keys_t4 = {r.task_key for r in tiny_dataset.records("t4")}
        keys_k80 = {r.task_key for r in tiny_dataset.records("k80")}
        assert keys_t4 == keys_k80

    def test_latencies_are_long_tailed(self, tiny_dataset):
        latencies = tiny_dataset.latencies("t4")
        assert latencies.min() > 0
        assert latencies.mean() > 2 * np.median(latencies)

    def test_unknown_device_or_model_raises(self, tiny_dataset):
        with pytest.raises(DatasetError):
            tiny_dataset.records("tpu")
        with pytest.raises(DatasetError):
            tiny_dataset.tasks_of_model("alexnet")

    def test_records_by_model_partition(self, tiny_dataset):
        grouped = tiny_dataset.records_by_model("t4")
        assert sum(len(v) for v in grouped.values()) == tiny_dataset.num_records("t4")

    def test_invalid_config_rejected(self):
        with pytest.raises(DatasetError):
            DatasetConfig(schedules_per_task=0)
        with pytest.raises(DatasetError):
            DatasetConfig(zoo_models=("alexnet",))

    def test_generation_is_deterministic(self):
        config = DatasetConfig(devices=("t4",), zoo_models=("bert_tiny",),
                               num_synthetic_models=0, schedules_per_task=2, seed=5)
        first = generate_dataset(config).latencies("t4")
        second = generate_dataset(config).latencies("t4")
        assert np.array_equal(first, second)


class TestSplits:
    def test_ratios_and_disjointness(self, tiny_dataset):
        records = tiny_dataset.records("t4")
        splits = split_dataset(records, seed=0)
        sizes = splits.sizes
        assert sizes["train"] > sizes["valid"] >= 0
        assert sizes["train"] + sizes["valid"] + sizes["test"] == len(records)

    def test_holdout_models_excluded_from_train(self, tiny_dataset):
        records = tiny_dataset.records("t4")
        splits = split_dataset(records, holdout_models=("bert_tiny",), seed=0)
        assert all(r.model != "bert_tiny" for r in splits.train)
        assert all(r.model == "bert_tiny" for r in splits.holdout)
        assert "bert_tiny" in splits.holdout_by_model()

    def test_group_by_task_keeps_tasks_together(self, tiny_dataset):
        records = tiny_dataset.records("t4")
        splits = split_dataset(records, seed=0, group_by_task=True)
        train_keys = {r.task_key for r in splits.train}
        test_keys = {r.task_key for r in splits.test}
        assert not train_keys & test_keys

    def test_invalid_ratios_raise(self, tiny_dataset):
        with pytest.raises(DatasetError):
            split_dataset(tiny_dataset.records("t4"), ratios=(0.5, 0.1, 0.1))

    def test_all_holdout_raises(self, tiny_dataset):
        records = [r for r in tiny_dataset.records("t4") if r.model == "bert_tiny"]
        with pytest.raises(DatasetError):
            split_dataset(records, holdout_models=("bert_tiny",))
