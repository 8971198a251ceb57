"""Tests for the backend-agnostic CostModel protocol and registry.

Covers the protocol conformance of every runnable backend, pickle-free
checkpoint round-trips through the ModelRegistry, legacy untagged trainer
checkpoints, unknown-backend tags, canonical naming/aliases, and serving
model-level queries through multiple backends.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import (
    BaselineBackend,
    CDMPPBackend,
    CostModel,
    as_cost_model,
    available_backends,
    backend_of_checkpoint,
    load_backend,
    make_backend,
    resolve_backend_name,
)
from repro.baselines import (
    BASELINE_CAPABILITIES,
    XGBoostCostModel,
    baseline_capabilities,
    canonical_baseline_name,
    make_baseline,
)
from repro.core.persistence import save_trainer
from repro.core.trainer import Trainer
from repro.dataset.tenset import DatasetConfig, generate_dataset
from repro.dataset.splits import split_dataset
from repro.errors import ServingError, TrainingError
from repro.serving import FleetService, ModelRegistry, PredictionService

# Cheap configurations per backend, fast enough for unit tests.
BACKEND_CONFIGS = {
    "xgboost": {"n_estimators": 8},
    "tlp": {"epochs": 4},
    "habitat": {"target_device": "t4", "epochs": 2},
    "tiramisu": {"epochs": 1, "max_train_samples": 30},
}


@pytest.fixture(scope="module")
def backend_splits():
    """Small single-GPU splits shared by the backend tests."""
    dataset = generate_dataset(
        DatasetConfig(
            devices=("t4",),
            zoo_models=("bert_tiny",),
            num_synthetic_models=1,
            schedules_per_task=3,
            seed=0,
        )
    )
    return split_dataset(dataset.records("t4"), seed=0)


@pytest.fixture(scope="module")
def fitted_backends(backend_splits):
    """Every runnable baseline backend, fitted once."""
    fitted = {}
    for name, config in BACKEND_CONFIGS.items():
        model = make_backend(name, **config)
        model.fit(backend_splits.train, valid=backend_splits.valid)
        fitted[name] = model
    return fitted


class TestNaming:
    def test_canonical_names_and_aliases(self):
        assert canonical_baseline_name("xgboost") == "xgboost"
        assert canonical_baseline_name("autotvm_xgboost") == "xgboost"
        assert canonical_baseline_name("AutoTVM-XGBoost") == "xgboost"
        assert canonical_baseline_name("cdmpp") == "cdmpp"
        with pytest.raises(TrainingError):
            canonical_baseline_name("not-a-method")

    def test_make_baseline_accepts_aliases(self):
        assert isinstance(make_baseline("autotvm_xgboost"), XGBoostCostModel)

    def test_make_baseline_cdmpp_points_to_backend(self):
        with pytest.raises(TrainingError, match="make_backend"):
            make_baseline("cdmpp")

    def test_capabilities_resolve_through_aliases(self):
        assert baseline_capabilities("xgboost") == BASELINE_CAPABILITIES["autotvm_xgboost"]
        assert baseline_capabilities("autotvm_xgboost") == baseline_capabilities("xgboost")
        assert baseline_capabilities("cdmpp")["cross_device"]

    def test_backend_registry_shares_the_name_table(self):
        assert resolve_backend_name("autotvm_xgboost") == "xgboost"
        assert set(available_backends()) == {
            "cdmpp",
            "xgboost",
            "tlp",
            "habitat",
            "tiramisu",
            "distilled",
        }
        with pytest.raises(TrainingError, match="available backends"):
            resolve_backend_name("nnlqp")  # known method, not constructible

    def test_custom_backends_register_outside_the_table1_families(self):
        from repro.backends import register_backend
        from repro.backends.registry import _REGISTRY

        sentinel = object()
        register_backend("my_gnn", lambda **cfg: sentinel, lambda path: sentinel)
        try:
            assert resolve_backend_name("My-GNN") == "my_gnn"
            assert "my_gnn" in available_backends()
            assert make_backend("my_gnn") is sentinel
        finally:
            del _REGISTRY["my_gnn"]


class TestProtocolConformance:
    def test_every_backend_implements_the_protocol(self, fitted_backends, backend_splits):
        for name, model in fitted_backends.items():
            assert isinstance(model, CostModel)
            assert model.backend == name
            assert model.fitted
            stats = model.train_stats
            assert stats.train_seconds > 0
            assert stats.throughput_samples_per_s > 0
            assert np.isfinite(stats.best_valid_mape)
            caps = model.capabilities
            assert set(caps) == {"absolute_time", "model_level", "op_level", "cross_device"}
            programs = [record.program for record in backend_splits.test[:4]]
            predictions = model.predict_programs(programs, "t4")
            assert predictions.shape == (4,)
            assert np.all(predictions > 0)
            metrics = model.evaluate(backend_splits.test)
            assert np.isfinite(metrics["mape"])

    def test_cdmpp_backend_protocol(self, trained_trainer, t4_splits):
        model = CDMPPBackend(trainer=trained_trainer)
        assert model.backend == "cdmpp"
        assert model.fitted
        assert model.capabilities["cross_device"]
        programs = [record.program for record in t4_splits.test[:3]]
        per_program = model.predict_programs(programs, "t4")
        assert per_program.shape == (3,)
        mixed = model.predict_programs(programs, ["t4", "k80", "t4"])
        assert mixed.shape == (3,)
        metrics = model.evaluate(t4_splits.test[:10])
        assert np.isfinite(metrics["mape"])

    def test_per_program_device_mismatch_rejected(self, fitted_backends, backend_splits):
        programs = [record.program for record in backend_splits.test[:3]]
        with pytest.raises(TrainingError):
            fitted_backends["xgboost"].predict_programs(programs, ["t4", "k80"])

    def test_train_stats_before_fit_raises(self):
        with pytest.raises(TrainingError):
            make_backend("xgboost").train_stats

    def test_as_cost_model_adapters(self, trained_trainer):
        backend = as_cost_model(trained_trainer)
        assert isinstance(backend, CDMPPBackend)
        assert backend.wraps(trained_trainer)
        assert as_cost_model(backend) is backend
        baseline = make_baseline("xgboost")
        adapted = as_cost_model(baseline)
        assert isinstance(adapted, BaselineBackend)
        assert adapted.wraps(baseline)
        with pytest.raises(TrainingError):
            as_cost_model(object())


class TestCheckpointRoundTrips:
    @pytest.mark.parametrize("name", sorted(BACKEND_CONFIGS))
    def test_registry_roundtrip_identical_predictions(
        self, name, fitted_backends, backend_splits, tmp_path
    ):
        registry = ModelRegistry(tmp_path)
        model = fitted_backends[name]
        registry.save(f"m-{name}", model, device="t4", scale="tiny")
        assert registry.backend_of(f"m-{name}") == name
        restored = registry.load(f"m-{name}")
        assert isinstance(restored, BaselineBackend)
        assert restored.backend == name
        reference = model.predict_records(backend_splits.test)
        reloaded = restored.predict_records(backend_splits.test)
        np.testing.assert_allclose(reloaded, reference)
        # Train stats survive the round trip (the Fig. 6 comparison needs them).
        assert restored.train_stats.train_seconds == pytest.approx(
            model.train_stats.train_seconds
        )

    def test_cdmpp_roundtrip_through_registry(self, trained_trainer, t4_features, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("cdmpp-model", CDMPPBackend(trainer=trained_trainer))
        assert registry.backend_of("cdmpp-model") == "cdmpp"
        restored = registry.load("cdmpp-model")
        assert isinstance(restored, Trainer)  # back-compat contract
        _, _, test = t4_features
        np.testing.assert_allclose(restored.predict(test), trained_trainer.predict(test))

    def test_legacy_untagged_checkpoint_loads_as_cdmpp(
        self, trained_trainer, t4_features, tmp_path
    ):
        path = tmp_path / "legacy.npz"
        save_trainer(trained_trainer, path)
        # Strip the backend tag to emulate a pre-protocol checkpoint.
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["meta_json"].tobytes()).decode("utf-8"))
        del meta["backend"]
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)

        assert backend_of_checkpoint(path) == "cdmpp"
        restored = load_backend(path)
        assert isinstance(restored, CDMPPBackend)
        registry = ModelRegistry(tmp_path)
        trainer = registry.load("legacy")
        assert isinstance(trainer, Trainer)
        _, _, test = t4_features
        np.testing.assert_allclose(trainer.predict(test), trained_trainer.predict(test))

    def test_unknown_backend_tag_fails_clearly(self, fitted_backends, tmp_path):
        path = tmp_path / "exotic.npz"
        fitted_backends["xgboost"].save(path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["meta_json"].tobytes()).decode("utf-8"))
        meta["backend"] = "quantum_annealer"
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(TrainingError, match="quantum_annealer"):
            load_backend(path)

    def test_load_trainer_refuses_baseline_checkpoints(self, fitted_backends, tmp_path):
        from repro.core.persistence import load_trainer

        path = tmp_path / "xgb.npz"
        fitted_backends["xgboost"].save(path)
        with pytest.raises(TrainingError, match="load_backend"):
            load_trainer(path)

    def test_unfitted_backend_refuses_to_save(self, tmp_path):
        with pytest.raises(TrainingError):
            make_backend("xgboost").save(tmp_path / "nope.npz")


class TestRegistryCacheEviction:
    def test_delete_evicts_load_shared_cache(self, fitted_backends, tmp_path, monkeypatch):
        registry = ModelRegistry(tmp_path)
        registry.save("m", fitted_backends["xgboost"])
        first = registry.load_shared("m")
        assert registry.load_shared("m") is first
        # Freeze mtime reads so re-registering collides with the old mtime.
        frozen = registry.path_for("m").stat().st_mtime_ns
        real_stat = type(registry.path_for("m")).stat

        class _FrozenStat:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, attr):
                if attr == "st_mtime_ns":
                    return frozen
                return getattr(self._inner, attr)

        monkeypatch.setattr(
            type(registry.path_for("m")),
            "stat",
            lambda self, **kw: _FrozenStat(real_stat(self, **kw)),
        )
        assert registry.delete("m")
        registry.save("m", fitted_backends["tlp"])
        fresh = registry.load_shared("m")
        assert fresh is not first
        assert fresh.backend == "tlp"


class TestServingAcrossBackends:
    def test_prediction_service_serves_baseline_backends(
        self, fitted_backends, backend_splits
    ):
        service = PredictionService(fitted_backends["xgboost"])
        programs = [record.program for record in backend_splits.test[:5]]
        served = service.predict(programs, "t4")
        direct = fitted_backends["xgboost"].predict_programs(programs, "t4")
        np.testing.assert_allclose(served, direct)
        stats = service.describe_stats()
        assert stats["batches"] == 1
        # Exact repeats come from the prediction cache, not the predictor.
        again = service.predict(programs, "t4")
        np.testing.assert_allclose(again, served)
        assert service.describe_stats()["predictions_computed"] == len(programs)

    def test_distinct_backends_never_alias_in_the_cache(
        self, fitted_backends, backend_splits
    ):
        shared_cache_service = PredictionService(
            {"t4": fitted_backends["xgboost"], "k80": fitted_backends["tlp"]}
        )
        program = backend_splits.test[0].program
        xgb = shared_cache_service.predict_program(program, "t4")
        tlp = shared_cache_service.predict_program(program, "k80")
        assert xgb != tlp  # distinct backends, distinct cache entries

    def test_model_level_queries_through_two_backends(
        self, trained_trainer, fitted_backends
    ):
        fleet = FleetService({"t4": fitted_backends["xgboost"], "k80": trained_trainer})
        via_xgb = fleet.predict_model("bert_tiny", "t4", seed=0)
        via_cdmpp = fleet.predict_model("bert_tiny", "k80", seed=0)
        assert via_xgb.predicted_latency_s > 0
        assert via_cdmpp.predicted_latency_s > 0
        assert via_xgb.model == via_cdmpp.model == "bert_tiny"

    def test_unfitted_backend_rejected_by_service(self):
        with pytest.raises(ServingError, match="unfitted"):
            PredictionService(make_backend("xgboost"))

    def test_fleet_serves_mixed_backends_from_registry(
        self, trained_trainer, fitted_backends, tmp_path
    ):
        registry = ModelRegistry(tmp_path)
        registry.save("xgb-t4", fitted_backends["xgboost"], device="t4")
        registry.save("cdmpp-k80", CDMPPBackend(trainer=trained_trainer), device="k80")
        fleet = FleetService.from_registry(
            registry, {"t4": "xgb-t4", "k80": "cdmpp-k80"}
        )
        results = fleet.predict_model_fleet("bert_tiny", seed=0)
        assert sorted(prediction.device for prediction in results) == ["k80", "t4"]
        assert all(prediction.predicted_latency_s > 0 for prediction in results)
        # Two distinct underlying models -> two batch groups in one flush.
        assert fleet.describe_stats()["kernel_service"]["batches"] == 2

    def test_fleet_gates_op_level_only_backends(self, fitted_backends):
        fleet = FleetService({"t4": fitted_backends["tiramisu"]})
        with pytest.raises(ServingError, match="op-level only"):
            fleet.predict_model("bert_tiny", "t4", seed=0)

    def test_replay_accepts_cost_model_directly(self, fitted_backends):
        from repro.replay.e2e import predict_end_to_end

        outcome = predict_end_to_end(
            "bert_tiny", "t4", cost_fn=fitted_backends["xgboost"], seed=0
        )
        assert outcome.iteration_time_s > 0

    def test_replay_gates_op_level_only_backends_too(self, fitted_backends):
        from repro.errors import ReplayError
        from repro.replay.e2e import predict_end_to_end

        with pytest.raises(ReplayError, match="op-level only"):
            predict_end_to_end("bert_tiny", "t4", cost_fn=fitted_backends["tiramisu"], seed=0)


class TestSharedDefaultConfigs:
    def test_default_trainers_do_not_share_a_config(self):
        assert Trainer().config is not Trainer().config

    def test_default_predictors_do_not_share_a_config(self):
        from repro.core.predictor import CDMPPPredictor

        assert CDMPPPredictor().config is not CDMPPPredictor().config

    def test_autotuner_defaults_are_per_instance(self):
        from repro.core.autotuner import AutoTuner

        assert AutoTuner().search_space is not AutoTuner().search_space


class TestCompareCLI:
    def test_compare_subcommand_runs_fast_backends(self, capsys):
        from repro.cli import main

        rc = main(["compare", "t4", "--scale", "tiny", "--backends", "xgboost,tlp"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table-1-style comparison" in out
        assert "xgboost" in out and "tlp" in out
        assert "best test MAPE" in out

    def test_compare_reports_unrunnable_backends(self, capsys):
        from repro.cli import main

        # habitat cannot target a CPU; the comparison reports it and goes on.
        rc = main(["compare", "epyc-7452", "--scale", "tiny", "--backends", "habitat,xgboost"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "failed" in out
        assert "xgboost" in out

    def test_train_and_query_through_a_baseline_checkpoint(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("CDMPP_REGISTRY", str(tmp_path))
        assert main(["train", "t4", "--scale", "tiny", "--backend", "xgboost"]) == 0
        capsys.readouterr()
        assert main(["query", "bert_tiny", "1", "t4", "--scale", "tiny", "--backend", "xgboost"]) == 0
        out = capsys.readouterr().out
        assert "loading pre-trained xgboost model 't4-tiny-xgboost'" in out
        assert "predicted latency" in out

    def test_explicit_checkpoint_with_wrong_backend_flag_errors(
        self, capsys, tmp_path, fitted_backends
    ):
        from repro.cli import main

        checkpoint = tmp_path / "xgb.npz"
        fitted_backends["xgboost"].save(checkpoint)
        rc = main([
            "query", "bert_tiny", "1", "t4", "--scale", "tiny",
            "--backend", "tlp", "--checkpoint", str(checkpoint),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "written by backend 'xgboost'" in err
        # Without --backend the checkpoint serves as whatever it is.
        assert main([
            "query", "bert_tiny", "1", "t4", "--scale", "tiny",
            "--checkpoint", str(checkpoint),
        ]) == 0

    def test_query_backend_mismatch_is_a_clear_error(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("CDMPP_REGISTRY", str(tmp_path))
        assert main(["train", "t4", "--scale", "tiny", "--backend", "tlp", "--name", "t4-tiny-xgboost"]) == 0
        capsys.readouterr()
        rc = main(["query", "bert_tiny", "1", "t4", "--scale", "tiny", "--backend", "xgboost"])
        assert rc == 2
        assert "written by backend 'tlp'" in capsys.readouterr().err
