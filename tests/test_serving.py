"""Tests for the prediction-serving subsystem (repro.serving)."""

import numpy as np
import pytest

from repro.core.api import CDMPP
from repro.errors import ServingError, TrainingError
from repro.serving import (
    LRUCache,
    ModelRegistry,
    PredictionService,
    program_cache_key,
    schedule_fingerprint,
)
from repro.tir.lower import lower
from repro.tir.schedule import random_schedule


@pytest.fixture(scope="module")
def query_programs(tiny_dataset):
    """Distinct test programs for the serving tests (T4 records)."""
    programs, seen = [], set()
    for record in tiny_dataset.records("t4"):
        key = program_cache_key(record.program, "t4", 0)
        if key not in seen:
            seen.add(key)
            programs.append(record.program)
        if len(programs) == 12:
            break
    return programs


@pytest.fixture(scope="module")
def service(trained_trainer):
    return PredictionService(trained_trainer)


class TestLRUCache:
    def test_put_get_and_counters(self):
        cache = LRUCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1.0)
        assert cache.get("a") == 1.0
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh 'a' so 'b' is the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_peek_does_not_count_or_refresh(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        cache.put("c", 3)  # 'a' was NOT refreshed by peek, so it is evicted
        assert "a" not in cache
        assert (cache.hits, cache.misses) == (0, 0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestCacheKeys:
    def test_key_distinguishes_devices_and_padding(self, dense_program):
        key_t4 = program_cache_key(dense_program, "t4", 16)
        assert key_t4 == program_cache_key(dense_program, "t4", 16)
        assert key_t4 != program_cache_key(dense_program, "k80", 16)
        assert key_t4 != program_cache_key(dense_program, "t4", 32)

    def test_key_distinguishes_schedules_of_one_task(self, dense_task):
        p1 = lower(dense_task, random_schedule(dense_task, np.random.default_rng(1), "gpu"))
        p2 = lower(dense_task, random_schedule(dense_task, np.random.default_rng(2), "gpu"))
        assert p1.task.workload_key == p2.task.workload_key
        assert schedule_fingerprint(p1) != schedule_fingerprint(p2)
        assert program_cache_key(p1, "t4", 16) != program_cache_key(p2, "t4", 16)

    def test_cached_fingerprint_equals_the_per_submit_formula(self, dense_task):
        from repro.utils.rng import stable_hash

        for seed in range(20):
            schedule = random_schedule(dense_task, np.random.default_rng(seed), "gpu")
            program = lower(dense_task, schedule)
            formula = stable_hash(tuple(repr(step) for step in schedule.steps), bits=48)
            assert program.schedule_fingerprint == formula
            assert schedule_fingerprint(program) == formula
            assert program_cache_key(program, "t4", 16) == (
                dense_task.workload_key, formula, "t4", 16
            )


class TestPredictionService:
    def test_batch_matches_single_program_queries(self, service, trained_trainer, query_programs):
        cdmpp = CDMPP.from_trainer(trained_trainer)
        naive = [cdmpp.predict_program(program, "t4") for program in query_programs]
        batched = service.predict(query_programs, "t4")
        np.testing.assert_allclose(batched, naive, rtol=1e-9)

    def test_cache_hit_miss_accounting(self, trained_trainer, query_programs):
        service = PredictionService(trained_trainer)
        first = service.predict(query_programs, "t4")
        n = len(query_programs)
        assert service.prediction_cache.misses == n
        assert service.prediction_cache.hits == 0
        assert service.stats.programs_featurized == n
        assert service.stats.batches == 1

        second = service.predict(query_programs, "t4")
        np.testing.assert_allclose(second, first)
        assert service.prediction_cache.hits == n
        assert service.stats.programs_featurized == n  # nothing re-featurized
        assert service.stats.batches == 1  # no new predictor call either

    def test_submit_flush_lifecycle(self, trained_trainer, query_programs):
        service = PredictionService(trained_trainer)
        tickets = [service.submit(program, "t4") for program in query_programs]
        assert service.pending == len(query_programs)
        assert not tickets[0].done
        resolved = service.flush()
        assert resolved == len(query_programs)
        assert service.pending == 0
        assert all(ticket.done for ticket in tickets)
        assert all(ticket.result() > 0 for ticket in tickets)

    def test_ticket_result_triggers_flush(self, trained_trainer, query_programs):
        service = PredictionService(trained_trainer)
        ticket = service.submit(query_programs[0], "t4")
        assert not ticket.done
        assert ticket.result() > 0  # implicit flush
        assert service.pending == 0

    def test_duplicate_submissions_coalesce(self, trained_trainer, query_programs):
        service = PredictionService(trained_trainer)
        program = query_programs[0]
        t1, t2 = service.submit(program, "t4"), service.submit(program, "t4")
        assert service.pending == 1
        assert service.stats.coalesced == 1
        service.flush()
        assert t1.result() == t2.result()
        assert service.stats.predictions_computed == 1

    def test_auto_flush_at_max_batch_size(self, trained_trainer, query_programs):
        service = PredictionService(trained_trainer, max_batch_size=4)
        tickets = [service.submit(program, "t4") for program in query_programs[:4]]
        assert service.pending == 0  # hit the batch limit -> flushed
        assert all(ticket.done for ticket in tickets)

    def test_cross_device_queries_in_one_flush(self, service, trained_trainer, query_programs):
        program = query_programs[0]
        t4 = service.predict_program(program, "t4")
        k80 = service.predict_program(program, "k80")
        cdmpp = CDMPP.from_trainer(trained_trainer)
        assert t4 == pytest.approx(cdmpp.predict_program(program, "t4"), rel=1e-9)
        assert k80 == pytest.approx(cdmpp.predict_program(program, "k80"), rel=1e-9)

    def test_swap_model_invalidates_predictions_keeps_features(
        self, trained_trainer, query_programs
    ):
        service = PredictionService(trained_trainer)
        service.predict(query_programs, "t4")
        featurized_before = service.stats.programs_featurized
        service.swap_model("t4", trained_trainer)
        assert len(service.prediction_cache) == 0
        assert len(service.feature_cache) == len(query_programs)
        service.predict(query_programs, "t4")
        assert service.stats.programs_featurized == featurized_before

    def test_unfitted_model_rejected(self):
        from repro.core.trainer import Trainer

        with pytest.raises(ServingError):
            PredictionService(Trainer())

    def test_unknown_device_without_fallback(self, trained_trainer, query_programs):
        service = PredictionService({"t4": trained_trainer})
        with pytest.raises(ServingError):
            service.submit(query_programs[0], "k80")


class TestPerProgramPredictions:
    """Regression: programs sharing a workload key must not collapse."""

    def test_predict_latencies_returns_one_value_per_program(self, trained_trainer, dense_task):
        cdmpp = CDMPP.from_trainer(trained_trainer)
        p1 = lower(dense_task, random_schedule(dense_task, np.random.default_rng(1), "gpu"))
        p2 = lower(dense_task, random_schedule(dense_task, np.random.default_rng(2), "gpu"))
        assert p1.task.workload_key == p2.task.workload_key
        latencies = cdmpp.predict_latencies([p1, p2, p1], "t4")
        assert latencies.shape == (3,)
        assert latencies[0] == pytest.approx(latencies[2], rel=1e-12)
        assert latencies[0] == pytest.approx(cdmpp.predict_program(p1, "t4"), rel=1e-9)
        assert latencies[1] == pytest.approx(cdmpp.predict_program(p2, "t4"), rel=1e-9)

    def test_predict_programs_dedupes_on_first_occurrence(self, trained_trainer, dense_task):
        cdmpp = CDMPP.from_trainer(trained_trainer)
        p1 = lower(dense_task, random_schedule(dense_task, np.random.default_rng(1), "gpu"))
        p2 = lower(dense_task, random_schedule(dense_task, np.random.default_rng(2), "gpu"))
        result = cdmpp.predict_programs([p1, p2], "t4")
        assert list(result) == [p1.task.workload_key]
        assert result[p1.task.workload_key] == pytest.approx(
            cdmpp.predict_program(p1, "t4"), rel=1e-9
        )

    def test_service_keeps_distinct_schedules_distinct(self, service, dense_task):
        p1 = lower(dense_task, random_schedule(dense_task, np.random.default_rng(1), "gpu"))
        p2 = lower(dense_task, random_schedule(dense_task, np.random.default_rng(2), "gpu"))
        values = service.predict([p1, p2], "t4")
        assert values[0] != values[1]


class TestModelRegistry:
    def test_save_load_roundtrip(self, trained_trainer, t4_features, tmp_path):
        _, _, test = t4_features
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny")
        restored = registry.load("t4-tiny")
        np.testing.assert_allclose(
            restored.predict(test), trained_trainer.predict(test), rtol=1e-10
        )

    def test_listing_exists_and_describe(self, trained_trainer, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.list() == []
        assert not registry.exists("t4-tiny")
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny")
        registry.save("k80-tiny", trained_trainer, device="k80", scale="tiny")
        assert registry.list() == ["k80-tiny", "t4-tiny"]
        assert "t4-tiny" in registry
        meta = registry.describe("t4-tiny")
        assert meta["extra"]["device"] == "t4"
        assert meta["extra"]["scale"] == "tiny"
        assert meta["extra"]["registry_name"] == "t4-tiny"

    def test_delete_and_missing_load(self, trained_trainer, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("m", trained_trainer)
        assert registry.delete("m")
        assert not registry.delete("m")
        with pytest.raises(TrainingError):
            registry.load("m")

    def test_invalid_names_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(TrainingError):
                registry.path_for(bad)

    def test_service_from_registry(self, trained_trainer, query_programs, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("t4-tiny", trained_trainer)
        service = PredictionService.from_registry(registry, "t4-tiny")
        direct = PredictionService(trained_trainer)
        np.testing.assert_allclose(
            service.predict(query_programs, "t4"),
            direct.predict(query_programs, "t4"),
            rtol=1e-10,
        )


class TestConcurrency:
    """Regression tests for the thread-safety fixes in the serving layer.

    Before the serving daemon, ``PredictionService.submit``/``flush`` raced
    on the shared queue and stats counters, and ``DeviceShardedCache``
    eviction was not atomic.  These tests hammer the hot paths from many
    threads and assert the counters still reconcile exactly.
    """

    def test_submit_flush_hammer_totals_reconcile(self, trained_trainer, query_programs):
        import threading

        service = PredictionService(trained_trainer)
        num_threads, rounds = 8, 6
        errors = []
        barrier = threading.Barrier(num_threads)

        def hammer(worker: int) -> None:
            try:
                barrier.wait()
                for round_index in range(rounds):
                    tickets = [
                        service.submit(program, "t4")
                        for program in query_programs[: 4 + (worker + round_index) % 8]
                    ]
                    service.flush()
                    for ticket in tickets:
                        value = ticket.result()  # flushed by us or a peer
                        assert value > 0.0
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert service.pending == 0
        stats = service.describe_stats()
        expected_queries = sum(
            4 + (worker + round_index) % 8
            for worker in range(num_threads)
            for round_index in range(rounds)
        )
        # Every submit is either a cache hit, coalesced onto an in-flight
        # duplicate, or computed by a flush: the counters must add up exactly
        # — a lost update under the old unlocked counters breaks this.
        assert stats["queries"] == expected_queries
        cache_hits = stats["prediction_cache"]["hits"]
        assert cache_hits + stats["coalesced"] + stats["predictions_computed"] == expected_queries

    def test_concurrent_swap_model_never_serves_stale_cache(
        self, trained_trainer, query_programs
    ):
        import threading

        service = PredictionService({"t4": trained_trainer})
        clone = trained_trainer.clone()
        stop = threading.Event()
        errors = []

        def swapper() -> None:
            try:
                while not stop.is_set():
                    service.swap_model("t4", clone)
                    service.swap_model("t4", trained_trainer)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        thread = threading.Thread(target=swapper)
        thread.start()
        try:
            for _ in range(30):
                values = service.predict(query_programs[:6], "t4")
                assert np.all(values > 0.0)
        finally:
            stop.set()
            thread.join()
        assert not errors
        # Both models share weights (clone of a fitted trainer), so every
        # answer must equal the single-model reference bit for bit; a stale
        # cache entry written by a detached flush after a swap would differ.
        reference = PredictionService(trained_trainer).predict(query_programs[:6], "t4")
        np.testing.assert_array_equal(service.predict(query_programs[:6], "t4"), reference)

    def test_sharded_cache_concurrent_eviction_is_atomic(self):
        import threading

        from repro.serving import DeviceShardedCache

        cache = DeviceShardedCache(capacity_per_device=64)
        num_threads, per_thread = 8, 400
        errors = []
        barrier = threading.Barrier(num_threads + 1)

        def writer(worker: int) -> None:
            try:
                barrier.wait()
                for i in range(per_thread):
                    key = (f"wl-{worker}-{i}", 0, "t4", 0)
                    cache.put(key, float(i))
                    cache.get(key)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def invalidator() -> None:
            try:
                barrier.wait()
                for _ in range(200):
                    cache.invalidate_device("t4")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(num_threads)]
        threads.append(threading.Thread(target=invalidator))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        shard = cache.shard("t4")
        assert len(shard) <= shard.capacity
        # Evictions + invalidations + survivors account for every insert
        # that was not a same-key refresh; with unique keys per write the
        # books must balance: nothing vanishes, nothing is counted twice.
        total_lookups = cache.hits + cache.misses
        assert total_lookups == num_threads * per_thread
