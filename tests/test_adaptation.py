"""Tests for device onboarding (repro.adaptation) and its regression fixes.

Covers the clone-then-finetune contract (fine-tuning must never mutate a
pre-trained — possibly fleet-shared — model), the onboarding pipeline, fleet
hot-swap with shard-isolated cache invalidation, registry lineage metadata,
the ``cdmpp onboard`` CLI, and regression tests for three bugs: target
featurization clamped to the source padding width, zero-row ``FeatureSet``
handling, and the profiler aliasing a caller-supplied RNG stream.
"""

import numpy as np
import pytest

from repro.adaptation import OnboardingPipeline
from repro.backends import CDMPPBackend, as_cost_model
from repro.cli import main
from repro.core.config import TrainingConfig
from repro.core.finetune import FineTuner, cross_device_adaptation, featurize_for_predictor
from repro.core.trainer import Trainer
from repro.errors import ServingError, TrainingError
from repro.features.pipeline import featurize_records
from repro.profiler.profiler import Profiler
from repro.serving import FleetService, ModelRegistry


def _weights(trainer: Trainer):
    return {name: value.copy() for name, value in trainer.predictor.state_dict().items()}


def _same_weights(before, trainer: Trainer) -> bool:
    after = trainer.predictor.state_dict()
    return all(np.array_equal(before[name], after[name]) for name in before)


@pytest.fixture(scope="module")
def target_records(tiny_dataset):
    return tiny_dataset.records("k80")


# ---------------------------------------------------------------------------
# Clone + detached fine-tuning (the shared-checkpoint corruption fix)
# ---------------------------------------------------------------------------
class TestClone:
    def test_clone_is_detached_and_equivalent(self, trained_trainer, t4_features):
        _, _, test = t4_features
        twin = trained_trainer.clone()
        np.testing.assert_array_equal(twin.predict(test), trained_trainer.predict(test))

        before = _weights(trained_trainer)
        twin.predictor.parameters()[0].data += 1.0
        twin.transform._mean += 1.0
        twin._x_mean += 1.0
        assert _same_weights(before, trained_trainer)
        assert trained_trainer.transform._mean != twin.transform._mean

    def test_clone_requires_fitted_trainer(self):
        with pytest.raises(TrainingError):
            Trainer(config=TrainingConfig(epochs=1)).clone()

    def test_backend_clone_is_detached(self, trained_trainer):
        backend = CDMPPBackend(trainer=trained_trainer)
        twin = backend.clone()
        assert twin.trainer is not backend.trainer
        assert not backend.wraps(twin)
        assert twin.fitted

    def test_finetuner_never_mutates_pretrained_model(
        self, trained_trainer, t4_features, target_records
    ):
        train, _, _ = t4_features
        target = featurize_records(target_records[:60], max_leaves=trained_trainer.max_leaves)
        before = _weights(trained_trainer)
        finetuner = FineTuner(trained_trainer)
        finetuner.finetune(train.subset(range(64)), target, epochs=1)
        assert _same_weights(before, trained_trainer)
        assert finetuner.source_trainer is trained_trainer
        assert not _same_weights(before, finetuner.trainer)

    def test_finetuner_clone_false_keeps_legacy_in_place_behaviour(
        self, trained_trainer, t4_features, target_records
    ):
        train, _, _ = t4_features
        owned = trained_trainer.clone()
        target = featurize_records(target_records[:40], max_leaves=owned.max_leaves)
        finetuner = FineTuner(owned, clone=False)
        assert finetuner.trainer is owned
        before = _weights(owned)
        finetuner.finetune(train.subset(range(32)), target, epochs=1)
        assert not _same_weights(before, owned)


class TestFinetuneValidation:
    def test_validation_populates_best_epoch_and_restores(
        self, trained_trainer, t4_features, target_records
    ):
        train, _, _ = t4_features
        target = featurize_records(target_records[:80], max_leaves=trained_trainer.max_leaves)
        finetuner = FineTuner(trained_trainer)
        result = finetuner.finetune(
            train.subset(range(64)),
            target,
            target_labeled=target.subset(range(30)),
            valid=target.subset(range(30, 50)),
            epochs=2,
        )
        assert result.best_valid_mape < float("inf")
        assert -1 <= result.best_epoch < 2
        assert all("valid_mape" in entry for entry in result.history)

    def test_zero_shot_baseline_rolls_back_bad_finetunes(
        self, trained_trainer, t4_features, target_records
    ):
        """A fine-tune that never beats zero-shot on validation is undone."""
        train, _, _ = t4_features
        target = featurize_records(target_records[:60], max_leaves=trained_trainer.max_leaves)
        finetuner = FineTuner(trained_trainer)
        before = _weights(finetuner.trainer)
        result = finetuner.finetune(
            train.subset(range(64)),
            target,
            target_labeled=target.subset(range(20)),
            valid=target.subset(range(20, 40)),
            epochs=1,
            learning_rate=10.0,  # guaranteed to diverge
        )
        assert result.best_epoch == -1
        assert _same_weights(before, finetuner.trainer)


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------
class TestMaxLeavesRegression:
    def test_adaptation_pads_to_predictor_width(self, trained_trainer, tiny_dataset):
        """Target programs wider than every *source* program must still featurize.

        The old code padded target records to ``source_train.max_leaves``; a
        target program with more leaves then crashed featurization even
        though the predictor supports up to ``PredictorConfig.max_leaves``.
        """
        records = tiny_dataset.records("t4")
        widths = sorted({r.program.num_leaves for r in records})
        narrow = min(widths[0] + 1, trained_trainer.max_leaves - 1)
        source_records = [r for r in records if r.program.num_leaves <= narrow]
        target_records = tiny_dataset.records("k80")
        assert max(r.program.num_leaves for r in target_records) > max(
            r.program.num_leaves for r in source_records
        )

        source_train = featurize_records(source_records)
        assert source_train.max_leaves < trained_trainer.max_leaves
        target_test = featurize_records(
            target_records[:30], max_leaves=trained_trainer.max_leaves
        )
        result = cross_device_adaptation(
            trained_trainer,
            source_train=source_train,
            target_records=target_records,
            target_test=target_test,
            num_tasks=2,
            epochs=1,
            seed=0,
        )
        assert result.adapted_trainer is not None

    def test_clear_error_when_predictor_capacity_exceeded(self, tiny_dataset):
        records = tiny_dataset.records("t4")
        too_narrow = max(r.program.num_leaves for r in records) - 1
        with pytest.raises(TrainingError, match="max_leaves"):
            featurize_for_predictor(records, too_narrow)


class TestEmptyFeatureSetRegression:
    def test_predict_on_zero_rows_returns_empty(self, trained_trainer, t4_features):
        train, _, _ = t4_features
        empty = train.subset([])
        assert trained_trainer.predict(empty).shape == (0,)

    def test_latent_on_zero_rows_returns_empty(self, trained_trainer, t4_features):
        train, _, _ = t4_features
        latent = trained_trainer.latent(train.subset([]))
        assert latent.shape[0] == 0
        assert latent.shape[1] == trained_trainer.predictor.latent_dim

    def test_evaluate_on_zero_rows_raises_training_error(self, trained_trainer, t4_features):
        train, _, _ = t4_features
        with pytest.raises(TrainingError, match="empty"):
            trained_trainer.evaluate(train.subset([]))


class TestProfilerRngRegression:
    def test_generator_seed_is_not_aliased(self):
        rng = np.random.default_rng(3)
        profiler = Profiler("t4", seed=rng)
        assert profiler._rng is not rng

    def test_generator_seed_is_deterministic(self, dense_task):
        # Both generators are kept alive so the two Profilers cannot agree by
        # object-address reuse: equal generator *state* must be enough (the
        # simulator used to hash repr(generator), which embeds the address).
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        profiler_a, profiler_b = Profiler("t4", seed=rng_a), Profiler("t4", seed=rng_b)
        records_a = profiler_a.profile_task(dense_task, num_schedules=3)
        records_b = profiler_b.profile_task(dense_task, num_schedules=3)
        assert [r.latency_s for r in records_a] == [r.latency_s for r in records_b]

    def test_profiling_does_not_consume_callers_stream_per_measurement(self, dense_task):
        """The caller's generator state must not depend on how much was profiled."""
        rng_short, rng_long = np.random.default_rng(5), np.random.default_rng(5)
        Profiler("t4", seed=rng_short).profile_task(dense_task, num_schedules=1)
        Profiler("t4", seed=rng_long).profile_task(dense_task, num_schedules=5)
        assert rng_short.integers(1 << 30) == rng_long.integers(1 << 30)


# ---------------------------------------------------------------------------
# The onboarding pipeline
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def onboarding_result(trained_trainer, t4_features, tiny_dataset):
    train, _, _ = t4_features
    pipeline = OnboardingPipeline(trained_trainer, train, parent_name="t4-tiny", seed=0)
    return pipeline.onboard(
        "k80", tiny_dataset.tasks(), num_tasks=4, schedules_per_task=3, epochs=1
    )


class TestOnboardingPipeline:
    def test_pipeline_produces_detached_adapted_model(
        self, trained_trainer, onboarding_result
    ):
        result = onboarding_result
        assert result.device == "k80"
        assert isinstance(result.model, CDMPPBackend)
        assert result.model.trainer is not trained_trainer
        assert 1 <= len(result.selected_tasks) <= 4
        assert 0 < result.profiled_records <= 4 * 3
        assert result.eval_split in ("holdout", "profiled")
        assert "mape" in result.zero_shot and "mape" in result.adapted
        assert result.cmd_before > 0 and result.cmd_after > 0

    def test_pipeline_never_mutates_parent(self, trained_trainer, t4_features, tiny_dataset):
        train, _, _ = t4_features
        before = _weights(trained_trainer)
        pipeline = OnboardingPipeline(trained_trainer, train, seed=1)
        pipeline.onboard("k80", tiny_dataset.tasks(), num_tasks=3, epochs=1)
        assert _same_weights(before, trained_trainer)

    def test_lineage_records_provenance(self, onboarding_result):
        lineage = onboarding_result.lineage
        assert lineage["parent"] == "t4-tiny"
        assert lineage["kappa"] == 4
        assert lineage["strategy"] == "kmeans"
        assert lineage["epochs"] == 1
        assert lineage["records_profiled"] == onboarding_result.profiled_records

    def test_budget_caps_measurements(self, trained_trainer, t4_features, tiny_dataset):
        train, _, _ = t4_features
        pipeline = OnboardingPipeline(trained_trainer, train, seed=0)
        result = pipeline.onboard(
            "k80",
            tiny_dataset.tasks(),
            num_tasks=4,
            schedules_per_task=3,
            max_measurements=5,
            epochs=1,
        )
        assert result.profiled_records <= 5
        assert result.profiling_budget == 5

    def test_refuses_non_cdmpp_backends(self, t4_features, t4_splits):
        from repro.baselines import XGBoostCostModel

        train, _, _ = t4_features
        xgb = XGBoostCostModel(n_estimators=4, seed=0)
        xgb.fit(t4_splits.train[:40])
        with pytest.raises(TrainingError, match="cdmpp"):
            OnboardingPipeline(as_cost_model(xgb), train)

    def test_refuses_unknown_strategy(self, trained_trainer, t4_features, tiny_dataset):
        train, _, _ = t4_features
        pipeline = OnboardingPipeline(trained_trainer, train, seed=0)
        with pytest.raises(TrainingError, match="strategy"):
            pipeline.onboard("k80", tiny_dataset.tasks(), strategy="grid", epochs=1)

    def test_registers_checkpoint_with_lineage(
        self, trained_trainer, t4_features, tiny_dataset, tmp_path
    ):
        train, _, _ = t4_features
        registry = ModelRegistry(tmp_path / "registry")
        pipeline = OnboardingPipeline(trained_trainer, train, parent_name="t4-tiny", seed=0)
        result = pipeline.onboard(
            "k80",
            tiny_dataset.tasks(),
            num_tasks=3,
            epochs=1,
            registry=registry,
            register_as="k80-adapted",
        )
        assert result.registered_as == "k80-adapted"
        assert registry.exists("k80-adapted")
        assert registry.backend_of("k80-adapted") == "cdmpp"
        assert registry.lineage_of("k80-adapted")["parent"] == "t4-tiny"
        loaded = registry.load("k80-adapted")
        assert isinstance(loaded, Trainer)


# ---------------------------------------------------------------------------
# Fleet integration: onboard without corrupting the shared checkpoint
# ---------------------------------------------------------------------------
class TestFleetOnboarding:
    def test_shared_checkpoint_survives_onboarding_bit_identical(
        self, trained_trainer, t4_features, tiny_dataset, tmp_path
    ):
        """The acceptance scenario: a two-device fleet serves one load_shared
        checkpoint; onboarding one device must leave the other device's
        model weights, predictions and cache shard bit-identical."""
        train, _, _ = t4_features
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("shared", trained_trainer, device="t4", scale="tiny")
        fleet = FleetService.from_registry(registry, "shared", devices=["t4", "k80"])
        shared = registry.load_shared("shared")
        weights_before = _weights(shared)

        t4_before = fleet.predict_model("bert_tiny", "t4", seed=0)
        k80_before = fleet.predict_model("bert_tiny", "k80", seed=0)
        k80_shard = fleet.prediction_cache.shard("k80")
        k80_entries_before = {key: k80_shard.peek(key) for key in k80_shard}
        assert k80_entries_before

        pipeline = OnboardingPipeline(shared, train, parent_name="shared", seed=0)
        result = pipeline.onboard("t4", tiny_dataset.tasks(), num_tasks=3, epochs=1)
        fleet.onboard_device("t4", result)

        # The shared parent's in-memory weights are bit-identical.
        assert _same_weights(weights_before, shared)
        # Only the onboarded device's shard was invalidated.
        assert len(fleet.prediction_cache.shard("t4")) == 0
        k80_entries_after = {key: k80_shard.peek(key) for key in k80_shard}
        assert k80_entries_after == k80_entries_before
        # The other device still answers bit-identically.
        k80_after = fleet.predict_model("bert_tiny", "k80", seed=0)
        assert k80_after.predicted_latency_s == k80_before.predicted_latency_s
        assert k80_after.per_kernel_latency_s == k80_before.per_kernel_latency_s
        assert fleet.stats.devices_onboarded == 1
        # The onboarded device now answers from the adapted weights.
        t4_after = fleet.predict_model("bert_tiny", "t4", seed=0)
        assert t4_after.predicted_latency_s != t4_before.predicted_latency_s

    def test_onboard_device_accepts_result_and_plain_model(
        self, trained_trainer, onboarding_result
    ):
        fleet = FleetService({"t4": trained_trainer, "k80": trained_trainer})
        fleet.onboard_device("k80", onboarding_result)
        assert fleet.stats.devices_onboarded == 1
        fleet.onboard_device("k80", onboarding_result.model.trainer.clone())
        assert fleet.stats.devices_onboarded == 2

    def test_onboard_device_rejects_wrong_device_result(
        self, trained_trainer, onboarding_result
    ):
        fleet = FleetService({"t4": trained_trainer, "k80": trained_trainer})
        with pytest.raises(ServingError, match="not 't4'"):
            fleet.onboard_device("t4", onboarding_result)

    def test_onboard_device_refuses_in_place_finetuned_model(self, trained_trainer):
        """The corruption scenario itself: handing the fleet a model that
        still shares weights with a served one must be refused."""
        fleet = FleetService({"t4": trained_trainer, "k80": trained_trainer})
        in_place = FineTuner(trained_trainer, clone=False)
        with pytest.raises(ServingError, match="detached clone"):
            fleet.onboard_device("k80", in_place.trainer)

    def test_onboard_device_can_add_a_new_device(self, trained_trainer, onboarding_result):
        fleet = FleetService({"t4": trained_trainer})
        fleet.onboard_device("k80", onboarding_result)
        assert "k80" in fleet.devices


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestOnboardCLI:
    def test_onboard_requires_existing_parent(self, tmp_path, capsys):
        code = main(
            ["onboard", "k80", "--parent", "nope", "--registry", str(tmp_path / "reg")]
        )
        assert code == 2
        assert "no parent checkpoint" in capsys.readouterr().err

    def test_onboard_rejects_same_device(self, trained_trainer, tmp_path, capsys):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny", seed=0)
        code = main(
            ["onboard", "t4", "--parent", "t4-tiny", "--registry", str(tmp_path / "reg")]
        )
        assert code == 2
        assert "already trained on t4" in capsys.readouterr().err

    def test_onboard_registers_adapted_checkpoint(self, trained_trainer, tmp_path, capsys):
        registry_dir = str(tmp_path / "reg")
        registry = ModelRegistry(registry_dir)
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny", seed=0)
        code = main(
            [
                "onboard",
                "k80",
                "--parent",
                "t4-tiny",
                "--registry",
                registry_dir,
                "--num-tasks",
                "3",
                "--epochs",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "zero-shot" in out and "adapted" in out
        assert registry.exists("k80-tiny")
        lineage = registry.lineage_of("k80-tiny")
        assert lineage["parent"] == "t4-tiny"
        assert lineage["kappa"] == 3
        # The adapted entry carries the same bookkeeping as a trained one,
        # so a later onboard can chain off it (scale/seed are read back).
        extra = registry.describe("k80-tiny")["extra"]
        assert extra["device"] == "k80"
        assert extra["scale"] == "tiny"
        assert extra["seed"] == 0
        # The parent checkpoint on disk was not replaced.
        assert registry.lineage_of("t4-tiny") == {}

    def test_onboard_no_register(self, trained_trainer, tmp_path, capsys):
        registry_dir = str(tmp_path / "reg")
        registry = ModelRegistry(registry_dir)
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny", seed=0)
        code = main(
            [
                "onboard",
                "k80",
                "--parent",
                "t4-tiny",
                "--registry",
                registry_dir,
                "--num-tasks",
                "2",
                "--epochs",
                "1",
                "--no-register",
            ]
        )
        assert code == 0
        assert not registry.exists("k80-tiny")
