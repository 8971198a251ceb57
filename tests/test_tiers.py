"""Tests for the two-tier serving path: accurate teacher vs. distilled student.

The "fast" tier answers from a distilled MLP student of the CDMPP teacher
(:class:`repro.backends.DistilledBackend`); the "accurate" tier answers from
the teacher itself.  These tests cover tier validation, per-tier caching and
counters at every serving layer (service, fleet, daemon), the hard fast-miss
errors, and the distilled backend's persistence/lineage contract.
"""

import numpy as np
import pytest

from repro.backends import DistilledBackend, backend_of_checkpoint
from repro.errors import ServingError, TrainingError
from repro.serving import (
    DEFAULT_TIER,
    TIERS,
    DaemonClient,
    DaemonConfig,
    DaemonRequestError,
    FleetService,
    ModelRegistry,
    PredictionService,
    ServingDaemon,
    validate_tier,
)
from repro.tir.lower import lower
from repro.tir.schedule import random_schedule


@pytest.fixture(scope="module")
def fast_student(trained_trainer, t4_features):
    """A distilled student of the shared tiny T4 teacher (read-only)."""
    train, _, _ = t4_features
    return DistilledBackend.distill_from(trained_trainer, train, distill_epochs=30, seed=0)


@pytest.fixture(scope="module")
def gpu_programs(dense_task):
    return [
        lower(dense_task, random_schedule(dense_task, np.random.default_rng(i), "gpu"))
        for i in range(3)
    ]


class TestValidateTier:
    def test_tiers_constant(self):
        assert TIERS == ("fast", "accurate")
        assert DEFAULT_TIER == "accurate"

    def test_normalises_case_and_whitespace(self):
        assert validate_tier(" Fast ") == "fast"
        assert validate_tier("ACCURATE") == "accurate"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ServingError, match="unknown tier"):
            validate_tier("warp")


class TestPredictionServiceTiers:
    def test_fast_tier_unservable_without_student(self, trained_trainer, gpu_programs):
        service = PredictionService(trained_trainer)
        with pytest.raises(ServingError, match="no fast-tier model"):
            service.predict_program(gpu_programs[0], "t4", tier="fast")

    def test_tiers_cache_separately(self, trained_trainer, fast_student, gpu_programs):
        service = PredictionService(trained_trainer)
        accurate = service.predict(gpu_programs, "t4").tolist()
        service.register_fast_model("t4", fast_student)
        fast = service.predict(gpu_programs, "t4", tier="fast").tolist()
        # Accurate answers are unchanged by the fast registration (no cache
        # aliasing between tiers), and the student genuinely differs.
        assert service.predict(gpu_programs, "t4").tolist() == accurate
        assert all(a != f for a, f in zip(accurate, fast))
        # Cached fast answers stay fast-tier.
        assert service.predict_program(gpu_programs[0], "t4", tier="fast") == fast[0]

    def test_per_tier_counters(self, trained_trainer, fast_student, gpu_programs):
        service = PredictionService(trained_trainer, fast_models={"t4": fast_student})
        service.predict(gpu_programs, "t4")
        service.predict(gpu_programs, "t4", tier="fast")
        stats = service.describe_stats()
        assert stats["accurate_tier_queries"] == 3
        assert stats["fast_tier_queries"] == 3
        assert stats["fast_devices"] == ["t4"]


class TestFleetTiers:
    def test_fleet_tier_split(self, trained_trainer, fast_student):
        fleet = FleetService({"t4": trained_trainer}, fast_models={"t4": fast_student})
        accurate = fleet.predict_model("bert_tiny", "t4", batch_size=1)
        fast = fleet.predict_model("bert_tiny", "t4", batch_size=1, tier="fast")
        assert accurate.predicted_latency_s != fast.predicted_latency_s
        stats = fleet.describe_stats()
        assert stats["fast_tier_model_queries"] == 1
        assert stats["accurate_tier_model_queries"] == 1

    def test_fleet_fast_miss_and_late_registration(self, trained_trainer, fast_student):
        fleet = FleetService({"t4": trained_trainer})
        with pytest.raises(ServingError, match="no fast-tier model"):
            fleet.predict_model("bert_tiny", "t4", tier="fast")
        fleet.register_fast_model("t4", fast_student)
        result = fleet.predict_model("bert_tiny", "t4", batch_size=1, tier="fast")
        reference = FleetService(
            {"t4": trained_trainer}, fast_models={"t4": fast_student}
        ).predict_model("bert_tiny", "t4", batch_size=1, tier="fast")
        assert result.predicted_latency_s == reference.predicted_latency_s


class TestDistilledBackend:
    def test_cache_signature_carries_teacher_lineage(self, fast_student):
        tag, fingerprint, max_leaves = fast_student.cache_signature
        assert tag == "distilled"
        assert fingerprint not in ("", "unknown")
        assert max_leaves == fast_student.max_leaves

    def test_unfitted_backend_refuses_queries(self, gpu_programs):
        backend = DistilledBackend()
        assert backend.cache_signature == ("distilled", "unfitted")
        with pytest.raises(TrainingError, match="before fit"):
            backend.predict_programs(gpu_programs, "t4")

    def test_save_load_roundtrip_bit_identical(self, fast_student, gpu_programs, tmp_path):
        before = fast_student.predict_programs(gpu_programs, "t4")
        path = fast_student.save(tmp_path / "student.npz")
        loaded = DistilledBackend.load(path)
        assert np.array_equal(loaded.predict_programs(gpu_programs, "t4"), before)
        assert loaded.cache_signature == fast_student.cache_signature

    def test_registry_roundtrip_keeps_distilled_tag(self, fast_student, gpu_programs, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("t4-tiny-distilled", fast_student, device="t4", scale="tiny")
        assert backend_of_checkpoint(registry.path_for("t4-tiny-distilled")) == "distilled"
        loaded = registry.load("t4-tiny-distilled")
        assert isinstance(loaded, DistilledBackend)
        assert np.array_equal(
            loaded.predict_programs(gpu_programs, "t4"),
            fast_student.predict_programs(gpu_programs, "t4"),
        )

    def test_clone_is_detached(self, fast_student, gpu_programs):
        twin = fast_student.clone()
        before = fast_student.predict_programs(gpu_programs, "t4")
        twin.model.rep_mean = twin.model.rep_mean + 1.0
        assert np.array_equal(fast_student.predict_programs(gpu_programs, "t4"), before)

    def test_student_tracks_teacher_accuracy(self, trained_trainer, fast_student, t4_features):
        _, _, test = t4_features
        teacher_mape = trained_trainer.evaluate(test)["mape"]
        student_mape = fast_student.evaluate_features(test)["mape"]
        # The student may lose at most 10 MAPE points to its teacher on
        # held-out data; mape is a fraction, so 10 points is 0.10.
        assert student_mape <= teacher_mape + 0.10


class TestDaemonTiers:
    def test_rejects_fast_model_for_unserved_device(self, trained_trainer, fast_student):
        with pytest.raises(ServingError, match="does not serve"):
            ServingDaemon(
                {"t4": trained_trainer}, DaemonConfig(port=0), fast_models={"k80": fast_student}
            )

    def test_tiered_round_trips(self, trained_trainer, fast_student):
        config = DaemonConfig(port=0)
        with ServingDaemon(
            {"t4": trained_trainer}, config, fast_models={"t4": fast_student}
        ) as daemon:
            host, port = daemon.address
            with DaemonClient(host, port) as client:
                assert client.health()["fast_devices"] == ["t4"]

                accurate = client.query("bert_tiny", device="t4", seed=0)
                fast = client.query("bert_tiny", device="t4", seed=0, tier="fast")
                assert accurate["tier"] == "accurate"
                assert fast["tier"] == "fast"
                assert accurate["latency_s"] != fast["latency_s"]

                # Explicit accurate answers exactly like the default tier.
                explicit = client.query("bert_tiny", device="t4", seed=0, tier="accurate")
                assert explicit["latency_s"] == accurate["latency_s"]

                ranked = client.predict_model_raw("bert_tiny", tier="fast")
                assert ranked["tier"] == "fast"
                assert ranked["results"][0]["latency_s"] == fast["latency_s"]

                with pytest.raises(DaemonRequestError) as excinfo:
                    client.query("bert_tiny", device="t4", tier="warp")
                assert excinfo.value.code == "bad_request"

                # Tune must not search against the student's approximation.
                with pytest.raises(DaemonRequestError) as excinfo:
                    client._call(
                        {
                            "op": "tune",
                            "network": "bert_tiny",
                            "tier": "fast",
                            "rounds": 1,
                            "population": 2,
                            "measurements_per_round": 1,
                        }
                    )
                assert excinfo.value.code == "bad_request"

                counters = client.stats()["daemon"]
                assert counters["fast_tier_requests"] == 2
                assert counters["accurate_tier_requests"] >= 2

    def test_fast_tier_without_student_is_bad_request(self, trained_trainer):
        with ServingDaemon({"t4": trained_trainer}, DaemonConfig(port=0)) as daemon:
            host, port = daemon.address
            with DaemonClient(host, port) as client:
                assert client.health()["fast_devices"] == []
                with pytest.raises(DaemonRequestError) as excinfo:
                    client.query("bert_tiny", device="t4", tier="fast")
                assert excinfo.value.code == "bad_request"
