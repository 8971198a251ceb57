"""Tests for graph-level fleet serving (repro.serving.fleet) and its CLI."""

from pathlib import Path

import pytest

from repro.cli import main, render_cli_docs
from repro.core.api import CDMPP
from repro.errors import ReplayError, ServingError
from repro.graph.model import ModelGraph
from repro.graph.partition import partition_into_programs
from repro.replay.e2e import compose_latencies
from repro.serving import DeviceShardedCache, FleetService, ModelRegistry

GAP_S = 2e-6


@pytest.fixture(scope="module")
def fleet(trained_trainer):
    """A two-GPU fleet sharing one cross-device model."""
    return FleetService({"t4": trained_trainer, "k80": trained_trainer})


class TestDeviceShardedCache:
    def test_routes_keys_to_device_shards(self):
        cache = DeviceShardedCache(capacity_per_device=4)
        cache.put(("wk1", 1, "t4", 16), 1.0)
        cache.put(("wk1", 1, "k80", 16), 2.0)
        assert cache.get(("wk1", 1, "t4", 16)) == 1.0
        assert cache.get(("wk1", 1, "k80", 16)) == 2.0
        assert set(cache.devices) == {"t4", "k80"}
        assert len(cache) == 2
        assert len(cache.shard("t4")) == 1

    def test_invalidate_device_leaves_other_shards(self):
        cache = DeviceShardedCache(capacity_per_device=4)
        cache.put(("wk1", 1, "t4", 16), 1.0)
        cache.put(("wk2", 2, "t4", 16), 2.0)
        cache.put(("wk1", 1, "k80", 16), 3.0)
        assert cache.invalidate_device("t4") == 2
        assert len(cache.shard("t4")) == 0
        assert cache.peek(("wk1", 1, "k80", 16)) == 3.0
        assert cache.invalidate_device("unknown") == 0

    def test_capacity_is_per_device(self):
        cache = DeviceShardedCache(capacity_per_device=2)
        for i in range(3):
            cache.put((f"wk{i}", i, "t4", 16), float(i))
            cache.put((f"wk{i}", i, "k80", 16), float(i))
        assert len(cache.shard("t4")) == 2
        assert len(cache.shard("k80")) == 2
        assert cache.evictions == 2
        stats = cache.stats()
        assert set(stats["devices"]) == {"t4", "k80"}

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DeviceShardedCache(capacity_per_device=0)


class TestFleetComposition:
    """The acceptance contract: the composed estimate IS built from the
    per-kernel predictions it reports."""

    def test_replay_compose_matches_facade(self, fleet, trained_trainer):
        facade = CDMPP.from_trainer(trained_trainer)
        reference = facade.predict_model("bert_tiny", "t4", seed=0)
        prediction = fleet.predict_model("bert_tiny", "t4", seed=0)
        assert prediction.predicted_latency_s == pytest.approx(
            reference.predicted_latency_s, rel=1e-9
        )
        assert prediction.per_kernel_latency_s == pytest.approx(
            reference.per_program_latency_s, rel=1e-9
        )
        assert prediction.num_nodes == reference.num_nodes

    def test_serial_compose_is_sum_of_per_kernel_predictions(self, fleet):
        prediction = fleet.predict_model("bert_tiny", "t4", seed=0, compose="serial")
        dfg = partition_into_programs("bert_tiny", target_kind="gpu", seed=0)
        expected = (
            sum(prediction.per_kernel_latency_s[node.task_key] for node in dfg.nodes.values())
            + GAP_S * len(dfg)
        )
        assert prediction.predicted_latency_s == pytest.approx(expected, rel=1e-9)
        assert prediction.serial_latency_s == prediction.predicted_latency_s
        assert prediction.compose == "serial"

    def test_replay_compose_equals_compose_latencies_of_reported_kernels(self, fleet):
        prediction = fleet.predict_model("bert_tiny", "k80", seed=0)
        dfg = partition_into_programs("bert_tiny", target_kind="gpu", seed=0)
        recomposed = compose_latencies(
            dfg, prediction.per_kernel_latency_s, "k80", gap_s=GAP_S, mode="replay"
        )
        assert prediction.predicted_latency_s == pytest.approx(
            recomposed.iteration_time_s, rel=1e-9
        )

    def test_serial_bounds_replay_and_speedup(self, fleet):
        prediction = fleet.predict_model("inception_v3", "t4", seed=0)
        assert prediction.serial_latency_s >= prediction.predicted_latency_s
        assert prediction.parallel_speedup >= 1.0

    def test_per_kernel_latencies_match_service_predictions(self, fleet):
        prediction = fleet.predict_model("bert_tiny", "t4", seed=0)
        dfg = partition_into_programs("bert_tiny", target_kind="gpu", seed=0)
        unique = dfg.unique_programs()
        values = fleet.predict_programs(list(unique.values()), "t4")
        for key, value in zip(unique, values):
            assert prediction.per_kernel_latency_s[key] == pytest.approx(value, rel=1e-12)


class TestFleetFanout:
    def test_fanout_covers_all_devices_ranked(self, fleet):
        results = fleet.predict_model_fleet("bert_tiny", seed=0)
        assert [r.device for r in results] != []
        assert sorted(r.device for r in results) == ["k80", "t4"]
        latencies = [r.predicted_latency_s for r in results]
        assert latencies == sorted(latencies)

    def test_fanout_matches_single_device_queries(self, fleet):
        results = {r.device: r for r in fleet.predict_model_fleet("bert_tiny", seed=0)}
        for device in ("t4", "k80"):
            single = fleet.predict_model("bert_tiny", device, seed=0)
            assert results[device].predicted_latency_s == pytest.approx(
                single.predicted_latency_s, rel=1e-9
            )

    def test_shared_model_fans_out_in_one_predictor_batch(self, trained_trainer):
        fleet = FleetService({"t4": trained_trainer, "k80": trained_trainer})
        fleet.predict_model_fleet("bert_tiny", seed=0)
        stats = fleet.describe_stats()["kernel_service"]
        assert stats["flushes"] == 1
        assert stats["batches"] == 1  # same model object -> one vectorized call

    def test_registered_device_joins_existing_batch_group(self, trained_trainer):
        fleet = FleetService({"t4": trained_trainer})
        fleet.register_device("k80", trained_trainer)  # same underlying trainer
        fleet.predict_model_fleet("bert_tiny", seed=0)
        assert fleet.describe_stats()["kernel_service"]["batches"] == 1

    def test_duplicate_devices_deduplicated(self, fleet):
        results = fleet.predict_model_fleet("bert_tiny", devices=["t4", "t4"], seed=0)
        assert [r.device for r in results] == ["t4"]

    def test_device_keys_canonicalized(self, trained_trainer):
        fleet = FleetService({"T4": trained_trainer})  # alias-cased key
        assert fleet.devices == ["t4"]
        prediction = fleet.predict_model("bert_tiny", "T4", seed=0)
        assert prediction.device == "t4"
        fleet.register_device("K80", trained_trainer)
        assert fleet.devices == ["k80", "t4"]

    def test_partition_cache_reused_across_queries(self, trained_trainer):
        fleet = FleetService({"t4": trained_trainer, "k80": trained_trainer})
        fleet.predict_model_fleet("bert_tiny", seed=0)
        assert fleet.stats.partitions == 1  # both GPUs share one taxonomy
        fleet.predict_model_fleet("bert_tiny", seed=0)
        assert fleet.stats.partitions == 1
        assert fleet.stats.partition_cache_hits >= 1

    def test_accepts_model_graph_and_dfg_inputs(self, fleet, trained_trainer):
        from repro.graph.zoo import build_model

        graph = build_model("bert_tiny")
        by_name = fleet.predict_model("bert_tiny", "t4", seed=0)
        by_graph = fleet.predict_model(graph, "t4", seed=0)
        assert by_graph.predicted_latency_s == pytest.approx(
            by_name.predicted_latency_s, rel=1e-9
        )
        dfg = partition_into_programs(graph, target_kind="gpu", seed=0)
        by_dfg = fleet.predict_model(dfg, "t4", seed=0)
        assert by_dfg.predicted_latency_s == pytest.approx(
            by_name.predicted_latency_s, rel=1e-9
        )


class TestFleetCaches:
    def test_per_device_cache_isolation_on_swap(self, trained_trainer):
        fleet = FleetService({"t4": trained_trainer, "k80": trained_trainer})
        fleet.predict_model_fleet("bert_tiny", seed=0)
        t4_size = len(fleet.prediction_cache.shard("t4"))
        k80_size = len(fleet.prediction_cache.shard("k80"))
        assert t4_size > 0 and k80_size > 0

        fleet.register_device("t4", trained_trainer)  # "retrain" t4 only
        assert len(fleet.prediction_cache.shard("t4")) == 0
        assert len(fleet.prediction_cache.shard("k80")) == k80_size

        # k80 answers from its untouched shard: no new featurization.
        featurized = fleet.describe_stats()["kernel_service"]["programs_featurized"]
        fleet.predict_model("bert_tiny", "k80", seed=0)
        stats = fleet.describe_stats()["kernel_service"]
        assert stats["programs_featurized"] == featurized

    def test_feature_cache_shared_across_devices(self, trained_trainer):
        fleet = FleetService({"t4": trained_trainer, "k80": trained_trainer})
        assert fleet.service_for_kernels().feature_cache is fleet.feature_cache
        fleet.predict_model_fleet("bert_tiny", seed=0)
        assert len(fleet.feature_cache) > 0

    def test_warm_queries_skip_the_predictor(self, trained_trainer):
        fleet = FleetService({"t4": trained_trainer})
        first = fleet.predict_model("bert_tiny", "t4", seed=0)
        batches = fleet.describe_stats()["kernel_service"]["batches"]
        second = fleet.predict_model("bert_tiny", "t4", seed=0)
        assert fleet.describe_stats()["kernel_service"]["batches"] == batches
        assert second.predicted_latency_s == pytest.approx(
            first.predicted_latency_s, rel=1e-12
        )


class TestFleetErrors:
    def test_unknown_device_rejected(self, fleet):
        with pytest.raises(ServingError):
            fleet.predict_model("bert_tiny", "epyc-7452", seed=0)

    def test_empty_model_graph_rejected(self, fleet):
        with pytest.raises(ServingError):
            fleet.predict_model(ModelGraph("empty"), "t4", seed=0)

    def test_empty_device_list_rejected(self, fleet):
        with pytest.raises(ServingError):
            fleet.predict_model_fleet("bert_tiny", devices=[], seed=0)

    def test_unknown_compose_mode_rejected(self, fleet):
        with pytest.raises(ServingError):
            fleet.predict_model("bert_tiny", "t4", compose="magic")

    def test_fallback_only_fleet_needs_explicit_devices(self, trained_trainer):
        fleet = FleetService(trained_trainer)  # only the "*" fallback
        with pytest.raises(ServingError):
            fleet.predict_model_fleet("bert_tiny")
        results = fleet.predict_model_fleet("bert_tiny", devices=["t4"], seed=0)
        assert results[0].device == "t4"

    def test_compose_latencies_rejects_empty_dfg_and_bad_mode(self, dense_program):
        from repro.graph.dfg import TIRDataFlowGraph

        with pytest.raises(ReplayError):
            compose_latencies(TIRDataFlowGraph("empty"), {}, "t4")
        dfg = partition_into_programs("bert_tiny", target_kind="gpu", seed=0)
        with pytest.raises(ReplayError):
            compose_latencies(dfg, {}, "t4", mode="diagonal")


class TestFleetRegistry:
    def test_from_registry_shares_checkpoint_across_devices(
        self, trained_trainer, tmp_path
    ):
        registry = ModelRegistry(tmp_path)
        registry.save("cross", trained_trainer)
        fleet = FleetService.from_registry(registry, {"t4": "cross", "k80": "cross"})
        service = fleet.service_for_kernels()
        assert service.model_for("t4") is service.model_for("k80")
        fleet.predict_model_fleet("bert_tiny", seed=0)
        assert fleet.describe_stats()["kernel_service"]["batches"] == 1

    def test_from_registry_single_name_with_devices(self, trained_trainer, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("cross", trained_trainer)
        fleet = FleetService.from_registry(registry, "cross", devices=["t4", "k80"])
        assert fleet.devices == ["k80", "t4"]

    def test_load_shared_memoizes_until_reregistered(self, trained_trainer, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("m", trained_trainer)
        first = registry.load_shared("m")
        assert registry.load_shared("m") is first
        assert registry.load("m") is not first  # plain load never memoizes


class TestFleetCLI:
    @pytest.fixture()
    def registered(self, trained_trainer, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny")
        registry.save("k80-tiny", trained_trainer, device="k80", scale="tiny")
        return str(tmp_path)

    def test_predict_model_serves_from_checkpoints(self, capsys, registered):
        exit_code = main(
            ["predict-model", "bert_tiny", "--devices", "t4,k80", "--registry", registered]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "end-to-end latency on 2 device(s)" in output
        assert "t4" in output and "k80" in output
        assert "training" not in output  # never retrains

    def test_predict_model_without_checkpoints_is_an_error(self, capsys, tmp_path):
        exit_code = main(
            ["predict-model", "bert_tiny", "--devices", "t4", "--registry", str(tmp_path)]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "no registered checkpoint" in err
        assert "cdmpp train t4" in err

    def test_predict_model_unknown_device_is_an_error(self, capsys, registered):
        exit_code = main(
            ["predict-model", "bert_tiny", "--devices", "tpu-v9", "--registry", registered]
        )
        assert exit_code == 2
        assert "unknown device" in capsys.readouterr().err

    def test_fleet_streams_multi_device_queries(self, capsys, registered, tmp_path):
        requests = tmp_path / "requests.txt"
        requests.write_text("# comment\nbert_tiny\nbert_tiny 1 t4\nnope 1\n")
        exit_code = main(
            [
                "fleet",
                "--devices",
                "t4,k80",
                "--registry",
                registered,
                "--requests",
                str(requests),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "served 2 model queries" in captured.out
        assert "bad query" in captured.err


class TestCLIDocsInSync:
    def test_cli_md_matches_argparse_tree(self):
        doc = Path(__file__).resolve().parent.parent / "docs" / "cli.md"
        assert doc.exists(), "docs/cli.md is missing; run tools/gen_cli_docs.py"
        assert doc.read_text() == render_cli_docs(), (
            "docs/cli.md is stale; regenerate with "
            "`PYTHONPATH=src python tools/gen_cli_docs.py`"
        )
