"""Tests for the schedule-search serving tier (repro.serving.search*).

Covers the full surface of the SearchService stack: the ScoreFn contract of
the refactored evolutionary search, bit-identical seed determinism (across
runs, across warm/cold prediction caches, and for Generator seeds), the
batching guarantees asserted via the prediction service's own counters (one
predict per round for a task, task-aligned slices for tune_model's lock
step, which equals a per-task search loop seed for seed), search-cache persistence and invalidation (model
swaps, registry re-saves and deletes evict exactly the affected entries),
and the daemon's ``tune`` op + ``cdmpp tune`` CLI round trip.
"""

import json
import threading

import numpy as np
import pytest

from repro.devices.spec import get_device
from repro.errors import SearchError, ServingError
from repro.search.ansor import SearchResult, evolutionary_search
from repro.serving import (
    DaemonConfig,
    DaemonRequestError,
    FleetService,
    ModelRegistry,
    PredictionService,
    SearchCache,
    SearchService,
    ServingDaemon,
)
from repro.ops import dense
from repro.tir.schedule import schedule_to_dict

#: A deliberately tiny search budget so every test stays fast.
BUDGET = dict(num_rounds=3, population=4, measurements_per_round=2)


def flops_score(programs):
    """A cheap, deterministic, stateless stand-in for a cost model."""
    return np.array([float(program.stats.total_flops) for program in programs])


@pytest.fixture(scope="module")
def small_task():
    return dense(4, 16, 16, model="search-test")


def run_search(task, seed=0, score_fn=flops_score, **overrides):
    params = dict(BUDGET, **overrides)
    return evolutionary_search(task, "t4", score_fn, seed=seed, **params)


# ----------------------------------------------------------------------
# ScoreFn contract
# ----------------------------------------------------------------------
class TestScoreFnContract:
    def test_nan_scores_rejected(self, small_task):
        def bad(programs):
            scores = np.ones(len(programs))
            scores[0] = np.nan
            return scores

        with pytest.raises(SearchError, match="non-finite"):
            run_search(small_task, score_fn=bad)

    def test_inf_scores_rejected(self, small_task):
        with pytest.raises(SearchError, match="non-finite"):
            run_search(small_task, score_fn=lambda programs: [float("inf")] * len(programs))

    def test_wrong_shape_rejected(self, small_task):
        with pytest.raises(SearchError, match="1-D"):
            run_search(small_task, score_fn=lambda programs: np.ones((len(programs), 1)))

    def test_wrong_count_rejected(self, small_task):
        with pytest.raises(SearchError, match="wrong number of scores"):
            run_search(small_task, score_fn=lambda programs: np.ones(len(programs) + 1))

    def test_non_numeric_rejected(self, small_task):
        with pytest.raises(SearchError, match="non-numeric"):
            run_search(small_task, score_fn=lambda programs: ["fast"] * len(programs))

    def test_non_positive_budget_rejected(self, small_task):
        with pytest.raises(SearchError):
            run_search(small_task, num_rounds=0)
        with pytest.raises(SearchError):
            run_search(small_task, population=0)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestSeedDeterminism:
    def test_same_seed_bit_identical(self, small_task):
        first = run_search(small_task, seed=7)
        second = run_search(small_task, seed=7)
        assert first == second  # dataclass equality covers schedule + history
        assert first.best_latency_s == second.best_latency_s
        assert first.best_latency_per_round == second.best_latency_per_round

    def test_different_seeds_explore_differently(self, small_task):
        histories = {tuple(run_search(small_task, seed=s).best_latency_per_round) for s in range(5)}
        assert len(histories) > 1

    def test_generator_seeds_are_reproducible(self, small_task):
        first = run_search(small_task, seed=np.random.default_rng(3))
        second = run_search(small_task, seed=np.random.default_rng(3))
        assert first == second

    def test_generator_seed_not_aliased(self, small_task):
        """The search derives a child stream; the caller's Generator stays usable
        and is advanced identically regardless of how much the search draws."""
        rng_used = np.random.default_rng(11)
        run_search(small_task, seed=rng_used)
        long_rng = np.random.default_rng(11)
        run_search(small_task, seed=long_rng, num_rounds=4, population=6)
        # Both searches consumed the same (constant) number of parent draws,
        # so the caller streams continue in lockstep.
        assert rng_used.integers(0, 2**31) == long_rng.integers(0, 2**31)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestSearchResultSerialization:
    def test_roundtrip_is_bit_identical(self, small_task):
        result = run_search(small_task, seed=5)
        replayed = SearchResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert replayed == result
        assert schedule_to_dict(replayed.best_schedule) == schedule_to_dict(result.best_schedule)

    def test_none_schedule_roundtrip(self):
        result = SearchResult(task_key="k", best_latency_s=1.0, best_schedule=None)
        assert SearchResult.from_dict(result.to_dict()) == result


# ----------------------------------------------------------------------
# SearchService: batching + caching through a real prediction tier
# ----------------------------------------------------------------------
class TestSearchServiceBatching:
    def test_one_batched_predict_per_round(self, trained_trainer, small_task):
        service = PredictionService(trained_trainer)
        search = SearchService(service, cache=SearchCache())
        before = service.stats.batches
        result = search.tune_task(small_task, "t4", **BUDGET, seed=0)
        assert result.scoring_batches == BUDGET["num_rounds"]
        assert service.stats.batches - before == BUDGET["num_rounds"]

    def test_warm_prediction_cache_is_bit_identical_with_zero_batches(
        self, trained_trainer, small_task
    ):
        service = PredictionService(trained_trainer)
        cold = SearchService(service, cache=SearchCache()).tune_task(
            small_task, "t4", **BUDGET, seed=0
        )
        before = service.stats.batches
        warm = SearchService(service, cache=SearchCache()).tune_task(
            small_task, "t4", **BUDGET, seed=0
        )
        assert warm == cold
        assert service.stats.batches == before  # every score came from cache

    def test_cached_retune_issues_no_queries(self, trained_trainer, small_task):
        service = PredictionService(trained_trainer)
        search = SearchService(service, cache=SearchCache())
        first = search.tune_task(small_task, "t4", **BUDGET, seed=0)
        queries_before = service.stats.queries
        second = search.tune_task(small_task, "t4", **BUDGET, seed=0)
        assert second == first
        assert service.stats.queries == queries_before
        assert search.stats.cache_hits == 1

    def test_no_cache_forces_fresh_search(self, trained_trainer, small_task):
        service = PredictionService(trained_trainer)
        search = SearchService(service, cache=SearchCache())
        first = search.tune_task(small_task, "t4", **BUDGET, seed=0)
        queries_before = service.stats.queries
        second = search.tune_task(small_task, "t4", **BUDGET, seed=0, use_cache=False)
        assert search.stats.searches_run == 2 and search.stats.cache_hits == 0
        # The re-search really re-queried the tier (the warm prediction cache
        # answers them without new predictor batches) and re-derived the same
        # result, which replaces the cached entry.
        assert service.stats.queries > queries_before
        assert second == first and len(search.cache) == 1

    def test_different_params_are_distinct_entries(self, trained_trainer, small_task):
        service = PredictionService(trained_trainer)
        search = SearchService(service, cache=SearchCache())
        search.tune_task(small_task, "t4", **BUDGET, seed=0)
        search.tune_task(small_task, "t4", **BUDGET, seed=1)
        assert len(search.cache) == 2
        assert search.stats.searches_run == 2

    def test_rejects_non_service_tier(self):
        with pytest.raises(ServingError, match="FleetService or PredictionService"):
            SearchService(object())


class TestTuneModel:
    def test_partitions_and_tunes_every_unique_task(self, trained_trainer):
        fleet = FleetService({"t4": trained_trainer})
        search = SearchService(fleet, cache=SearchCache())
        (tuning,) = search.tune_model("bert_tiny", devices=["t4"], **BUDGET, seed=0)
        assert tuning.device == "t4"
        assert tuning.model == "bert_tiny"
        assert len(tuning.results) > 1
        assert sorted(tuning.fresh_tasks) == sorted(tuning.results)
        assert not tuning.cached_tasks and not tuning.fully_cached
        assert tuning.tuned_latency_s == pytest.approx(
            sum(result.best_latency_s for result in tuning.results.values())
        )

    def test_retune_is_fully_cached_and_bit_identical(self, trained_trainer):
        fleet = FleetService({"t4": trained_trainer})
        search = SearchService(fleet, cache=SearchCache())
        (first,) = search.tune_model("bert_tiny", devices=["t4"], **BUDGET, seed=0)
        kernel = fleet.service_for_kernels()
        queries_before = kernel.stats.queries
        (second,) = search.tune_model("bert_tiny", devices=["t4"], **BUDGET, seed=0)
        assert second.fully_cached
        assert kernel.stats.queries == queries_before
        assert second.results == first.results

    def test_tune_model_and_tune_task_do_not_alias(self, trained_trainer):
        """tune_model searches task under (seed, key); a base-seed tune_task of
        the same task must not be served that entry (or vice versa)."""
        fleet = FleetService({"t4": trained_trainer})
        search = SearchService(fleet, cache=SearchCache())
        (tuning,) = search.tune_model("bert_tiny", devices=["t4"], **BUDGET, seed=0)
        entries_before = len(search.cache)
        key, task = None, None
        from repro.graph.partition import extract_unique_tasks, partition_into_programs

        dfg = partition_into_programs("bert_tiny", target_kind="gpu", batch_size=1, seed=0)
        key, task = next(iter(extract_unique_tasks(dfg).items()))
        direct = search.tune_task(task, "t4", **BUDGET, seed=0)
        assert len(search.cache) == entries_before + 1  # a distinct entry, not a hit
        assert search.stats.searches_run == len(tuning.results) + 1
        # The per-task stream of tune_model differs from the base-seed stream.
        assert direct != tuning.results[key]

    @pytest.mark.parametrize("seed", [0, 11])
    def test_lock_step_equals_a_per_task_search_loop(self, trained_trainer, seed):
        from repro.serving.search import _unique_tasks_in_topo_order
        from repro.graph.zoo import build_model

        budget = dict(num_rounds=2, population=8, measurements_per_round=2)
        tasks = _unique_tasks_in_topo_order(build_model("resnet50"))
        search = SearchService(PredictionService(trained_trainer), cache=SearchCache())
        tunings = search.tune_model("resnet50", devices=["t4", "e5-2673"], seed=seed, **budget)
        for tuning in tunings:
            spec = get_device(tuning.device)
            alone = PredictionService(trained_trainer)
            expected = {
                key: evolutionary_search(
                    task,
                    spec,
                    lambda programs: alone.predict(programs, spec),
                    seed=(seed, key),
                    **budget,
                )
                for key, task in tasks.items()
            }
            assert list(tuning.results) == list(expected)
            assert {k: r.to_dict() for k, r in tuning.results.items()} == {
                k: r.to_dict() for k, r in expected.items()
            }
            assert all(r.scoring_batches == budget["num_rounds"] for r in tuning.results.values())

    def test_lock_step_scores_in_task_aligned_slices(self, trained_trainer):
        from repro.serving.search import SCORE_SLICE_ROWS

        service = PredictionService(trained_trainer)
        search = SearchService(service, cache=SearchCache())
        before = service.stats.batches
        (tuning,) = search.tune_model(
            "resnet50", devices=["t4"], num_rounds=2, population=8, measurements_per_round=2
        )
        tasks = len(tuning.results)
        per_slice = -(-SCORE_SLICE_ROWS // 8)  # whole tasks of 8 candidates
        assert service.stats.batches - before == 2 * -(-tasks // per_slice)

    def test_cached_tasks_drop_out_of_the_lock_step(self, trained_trainer):
        budget = dict(num_rounds=2, population=4, measurements_per_round=2)
        fleet = FleetService({"t4": trained_trainer})
        search = SearchService(fleet, cache=SearchCache())
        (full,) = search.tune_model("bert_tiny", devices=["t4"], seed=3, **budget)
        keys = list(full.results)
        # A fresh cache that holds every other task's tuning.
        partial = SearchService(fleet, cache=SearchCache())
        for key in keys[::2]:
            partial.cache.put(
                key,
                get_device("t4"),
                tuple(fleet.service_for_kernels().model_for("t4").cache_signature),
                {**{k: int(v) for k, v in budget.items()}, "seed": (3, key)},
                full.results[key],
            )
        (mixed,) = partial.tune_model("bert_tiny", devices=["t4"], seed=3, **budget)
        assert list(mixed.results) == keys
        assert mixed.cached_tasks == keys[::2]
        assert mixed.fresh_tasks == keys[1::2]
        assert mixed.results == full.results
        assert partial.stats.searches_run == len(keys[1::2])

    def test_lock_step_batches_rows_for_the_predictor(self, trained_trainer, monkeypatch):
        """Traced like the perfbench tune-cold op (one round of 8 candidates
        per resnet50 task): rows per predictor call, and CPU per row, with
        lock-step scoring and with a per-task search loop."""
        import time

        from repro.core.trainer import Trainer
        from repro.graph.zoo import build_model
        from repro.serving.search import _unique_tasks_in_topo_order

        calls = []
        original = Trainer.predict

        def traced(self, features, *args, **kwargs):
            started = time.thread_time()
            result = original(self, features, *args, **kwargs)
            calls.append((len(features), time.thread_time() - started))
            return result

        monkeypatch.setattr(Trainer, "predict", traced)
        budget = dict(num_rounds=1, population=8, measurements_per_round=2)

        def rows_and_us_per_row():
            rows = sum(n for n, _ in calls)
            return rows / len(calls), 1e6 * sum(t for _, t in calls) / rows

        per_task, lock_step = [], []
        for seed in range(3):
            calls.clear()
            alone = PredictionService(trained_trainer)
            for key, task in _unique_tasks_in_topo_order(build_model("resnet50")).items():
                evolutionary_search(
                    task, "t4", lambda p: alone.predict(p, "t4"), seed=(seed, key), **budget
                )
            per_task.append(rows_and_us_per_row())
            calls.clear()
            search = SearchService(PredictionService(trained_trainer), cache=SearchCache())
            search.tune_model("resnet50", devices=["t4"], seed=seed, **budget)
            lock_step.append(rows_and_us_per_row())
        assert all(rows <= 8 for rows, _ in per_task)  # duplicates coalesce
        assert all(rows >= 50 for rows, _ in lock_step)
        assert min(us for _, us in lock_step) < min(us for _, us in per_task)

    def test_devices_default_to_fleet(self, trained_trainer):
        fleet = FleetService({"t4": trained_trainer, "k80": trained_trainer})
        search = SearchService(fleet, cache=SearchCache())
        tunings = search.tune_model("bert_tiny", **BUDGET, seed=0)
        assert sorted(tuning.device for tuning in tunings) == ["k80", "t4"]

    def test_task_order_matches_the_dfg(self):
        from repro.graph.partition import partition_into_programs
        from repro.graph.zoo import build_model, list_models
        from repro.serving.search import _unique_tasks_in_topo_order

        for name in list_models():
            tasks = _unique_tasks_in_topo_order(build_model(name))
            dfg = partition_into_programs(name, target_kind="cpu", seed=3)
            assert list(tasks) == list(dfg.unique_programs())

    def test_zoo_task_list_is_listed_once(self, trained_trainer, monkeypatch):
        import repro.serving.search as search_module

        calls = []
        real_build = search_module.build_model

        def counting_build(name, batch_size=1):
            calls.append((name, batch_size))
            return real_build(name, batch_size=batch_size)

        monkeypatch.setattr(search_module, "build_model", counting_build)
        search = SearchService(FleetService({"t4": trained_trainer}), cache=SearchCache())
        (first,) = search.tune_model("bert_tiny", devices=["t4"], **BUDGET, seed=0)
        (second,) = search.tune_model("bert_tiny", devices=["t4"], **BUDGET, seed=1)
        assert calls == [("bert_tiny", 1)]
        assert list(second.results) == list(first.results)

    def test_task_list_memo_is_bounded(self, trained_trainer, monkeypatch):
        import repro.serving.search as search_module

        monkeypatch.setattr(search_module, "TASK_LIST_MEMO_SIZE", 2)
        search = SearchService(FleetService({"t4": trained_trainer}), cache=SearchCache())
        for batch_size in (1, 2, 4):
            search._zoo_tasks("bert_tiny", batch_size)
        assert list(search._task_lists) == [("bert_tiny", 2), ("bert_tiny", 4)]

    def test_model_graph_is_enumerated_every_call(self, trained_trainer):
        from repro.graph.zoo import build_model

        search = SearchService(FleetService({"t4": trained_trainer}), cache=SearchCache())
        graph = build_model("bert_tiny")
        (by_graph,) = search.tune_model(graph, devices=["t4"], **BUDGET, seed=0)
        (by_name,) = search.tune_model("bert_tiny", devices=["t4"], **BUDGET, seed=0)
        assert list(search._task_lists) == [("bert_tiny", 1)]  # the graph was not kept
        assert by_graph.results == by_name.results

    def test_unsupported_model_type_rejected(self, trained_trainer):
        search = SearchService(FleetService({"t4": trained_trainer}), cache=SearchCache())
        with pytest.raises(SearchError, match="zoo name"):
            search.tune_model(42, devices=["t4"], **BUDGET)

    def test_empty_devices_rejected(self, trained_trainer):
        search = SearchService(FleetService({"t4": trained_trainer}), cache=SearchCache())
        with pytest.raises(SearchError, match="at least one device"):
            search.tune_model("bert_tiny", devices=[], **BUDGET)


# ----------------------------------------------------------------------
# SearchCache: persistence + invalidation
# ----------------------------------------------------------------------
class TestSearchCache:
    def _result(self, key="wl-0"):
        return SearchResult(task_key=key, best_latency_s=1e-4, best_schedule=None)

    def test_put_get_and_stats(self):
        cache = SearchCache()
        spec = get_device("t4")
        params = {"seed": 0}
        assert cache.get("wl-0", spec, ("sig",), params) is None
        cache.put("wl-0", spec, ("sig",), params, self._result())
        assert cache.get("wl-0", spec, ("sig",), params) == self._result()
        stats = cache.describe_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["puts"] == 1

    def test_signature_and_params_distinguish_entries(self):
        cache = SearchCache()
        spec = get_device("t4")
        cache.put("wl-0", spec, ("sig", 1), {"seed": 0}, self._result())
        assert cache.get("wl-0", spec, ("sig", 2), {"seed": 0}) is None
        assert cache.get("wl-0", spec, ("sig", 1), {"seed": 1}) is None
        assert cache.get("wl-0", spec, ("sig", 1), {"seed": (0, "dense")}) is None

    def test_disk_persistence_across_instances(self, tmp_path):
        spec = get_device("t4")
        params = {"seed": 3}
        SearchCache(tmp_path).put("wl-0", spec, ("sig",), params, self._result())
        reloaded = SearchCache(tmp_path)
        assert reloaded.get("wl-0", spec, ("sig",), params) == self._result()

    def test_invalidate_device_evicts_only_that_device(self, tmp_path):
        cache = SearchCache(tmp_path)
        params = {"seed": 0}
        cache.put("wl-0", get_device("t4"), ("sig",), params, self._result())
        cache.put("wl-0", get_device("k80"), ("sig",), params, self._result())
        assert cache.invalidate_device("t4") == 1
        assert cache.get("wl-0", get_device("t4"), ("sig",), params) is None
        assert cache.get("wl-0", get_device("k80"), ("sig",), params) is not None
        # The eviction reaches the disk copy too: a fresh instance agrees.
        assert SearchCache(tmp_path).get("wl-0", get_device("t4"), ("sig",), params) is None

    def test_invalidate_model_evicts_only_that_model(self):
        cache = SearchCache()
        spec = get_device("t4")
        cache.put("wl-0", spec, ("sig",), {"seed": 0}, self._result(), model_name="a")
        cache.put("wl-1", spec, ("sig",), {"seed": 0}, self._result("wl-1"), model_name="b")
        assert cache.invalidate_model("a") == 1
        assert cache.get("wl-0", spec, ("sig",), {"seed": 0}) is None
        assert cache.get("wl-1", spec, ("sig",), {"seed": 0}) is not None

    def test_concurrent_eviction_is_atomic(self):
        """Mirror of the DeviceShardedCache hammer: unique-key writers racing a
        device invalidator must never error and the books must balance."""
        cache = SearchCache()
        spec = get_device("t4")
        num_threads, per_thread = 8, 400
        errors = []
        barrier = threading.Barrier(num_threads + 1)

        def writer(worker: int) -> None:
            try:
                barrier.wait()
                for i in range(per_thread):
                    key = f"wl-{worker}-{i}"
                    cache.put(key, spec, ("sig",), {"seed": 0}, self._result(key))
                    cache.get(key, spec, ("sig",), {"seed": 0})
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
        stats = cache.describe_stats()
        assert stats["hits"] + stats["misses"] == num_threads * per_thread
        assert stats["puts"] == num_threads * per_thread


class TestInvalidation:
    def test_swap_evicts_only_swapped_device(self, trained_trainer, small_task):
        fleet = FleetService({"t4": trained_trainer, "k80": trained_trainer})
        search = SearchService(fleet, cache=SearchCache())
        search.tune_task(small_task, "t4", **BUDGET, seed=0)
        search.tune_task(small_task, "k80", **BUDGET, seed=0)
        fleet.register_device("k80", trained_trainer.clone())
        assert len(search.cache) == 1  # only the t4 entry survived
        kernel = fleet.service_for_kernels()
        queries_before = kernel.stats.queries
        search.tune_task(small_task, "t4", **BUDGET, seed=0)  # still a hit
        assert kernel.stats.queries == queries_before
        search.tune_task(small_task, "k80", **BUDGET, seed=0)  # forced fresh
        assert kernel.stats.queries > queries_before
        assert search.stats.searches_run == 3

    def test_registry_resave_evicts_model_entries(self, trained_trainer, small_task, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny", seed=0)
        fleet = FleetService({"t4": registry.load("t4-tiny")})
        search = SearchService(fleet, registry=registry, model_names={"t4": "t4-tiny"})
        first = search.tune_task(small_task, "t4", **BUDGET, seed=0)
        assert len(search.cache) == 1
        # Re-saving the checkpoint (a retrain under the same name) must evict
        # its tunings; serving the stale cached result would be a bug.
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny", seed=0)
        assert len(search.cache) == 0
        again = search.tune_task(small_task, "t4", **BUDGET, seed=0)
        assert search.stats.searches_run == 2
        assert again == first  # same weights, same seed -> same search

    def test_registry_delete_evicts_model_entries(self, trained_trainer, small_task, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny", seed=0)
        search = SearchService(
            FleetService({"t4": registry.load("t4-tiny")}),
            registry=registry,
            model_names={"t4": "t4-tiny"},
        )
        search.tune_task(small_task, "t4", **BUDGET, seed=0)
        registry.delete("t4-tiny")
        assert len(search.cache) == 0

    def test_cache_persists_across_service_instances(self, trained_trainer, small_task, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("t4-tiny", trained_trainer, device="t4", scale="tiny", seed=0)
        first = SearchService(
            FleetService({"t4": registry.load("t4-tiny")}), registry=registry
        ).tune_task(small_task, "t4", **BUDGET, seed=0)
        # A brand-new registry + service on the same directory serves the
        # persisted tuning without searching.
        fresh_registry = ModelRegistry(tmp_path)
        fresh = SearchService(
            FleetService({"t4": fresh_registry.load("t4-tiny")}), registry=fresh_registry
        )
        result = fresh.tune_task(small_task, "t4", **BUDGET, seed=0)
        assert result == first
        assert fresh.stats.cache_hits == 1 and fresh.stats.searches_run == 0


# ----------------------------------------------------------------------
# Daemon `tune` op
# ----------------------------------------------------------------------
class TestDaemonTune:
    @pytest.fixture()
    def daemon(self, trained_trainer):
        daemon = ServingDaemon(
            {"t4": trained_trainer, "k80": trained_trainer},
            DaemonConfig(port=0),
        )
        daemon.start()
        yield daemon
        daemon.stop()

    def _connect(self, daemon):
        from repro.serving import DaemonClient

        host, port = daemon.address
        return DaemonClient(host, port)

    def test_tune_roundtrip_and_cached_retune(self, daemon):
        with self._connect(daemon) as client:
            (first,) = client.tune(
                "bert_tiny", devices=["t4"], rounds=2, population=4, measurements_per_round=2, seed=0
            )
            assert first["device"] == "t4"
            assert first["fresh_tasks"] and not first["cached_tasks"]
            (second,) = client.tune(
                "bert_tiny", devices=["t4"], rounds=2, population=4, measurements_per_round=2, seed=0
            )
            assert not second["fresh_tasks"]
            assert sorted(second["cached_tasks"]) == sorted(first["fresh_tasks"])
            assert second["results"] == first["results"]  # bit-identical off the wire
            stats = client.stats()
            assert stats["daemon"]["tune_queries"] == 2
            assert stats["shards"]["t4"]["search"]["cache_hits"] > 0

    def test_tune_fans_out_to_all_devices_by_default(self, daemon):
        with self._connect(daemon) as client:
            results = client.tune("bert_tiny", rounds=2, population=4, measurements_per_round=2, seed=0)
            assert sorted(result["device"] for result in results) == ["k80", "t4"]

    def test_bad_budget_rejected(self, daemon):
        with self._connect(daemon) as client:
            with pytest.raises(DaemonRequestError) as excinfo:
                client.tune("bert_tiny", devices=["t4"], rounds=0)
            assert excinfo.value.code == "bad_request"

    def test_unknown_network_rejected(self, daemon):
        with self._connect(daemon) as client:
            with pytest.raises(DaemonRequestError) as excinfo:
                client.tune("no-such-net", devices=["t4"], rounds=2)
            assert excinfo.value.code == "bad_request"


# ----------------------------------------------------------------------
# `cdmpp tune` CLI
# ----------------------------------------------------------------------
class TestCLITune:
    def test_tune_then_cached_retune(self, trained_trainer, tmp_path, capsys):
        from repro.cli import main

        ModelRegistry(tmp_path).save(
            "t4-tiny", trained_trainer, device="t4", scale="tiny", seed=0
        )
        argv = [
            "tune",
            "bert_tiny",
            "--devices",
            "t4",
            "--registry",
            str(tmp_path),
            "--rounds",
            "2",
            "--population",
            "4",
            "--measurements-per-round",
            "2",
        ]
        assert main(argv) == 0
        fresh_out = capsys.readouterr().out
        assert "0 cached" in fresh_out and "fresh" in fresh_out

        assert main(argv) == 0
        cached_out = capsys.readouterr().out
        assert "0 fresh" in cached_out
        assert "0 candidates scored in 0 batched predictor calls" in cached_out

        def latencies(text):
            return [
                line.split("tuned latency")[1]
                for line in text.splitlines()
                if "tuned latency" in line
            ]

        assert latencies(cached_out) == latencies(fresh_out)

    def test_missing_checkpoint_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["tune", "bert_tiny", "--devices", "t4", "--registry", str(tmp_path)]) == 2
        assert "train" in capsys.readouterr().err
