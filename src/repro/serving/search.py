"""Schedule search as a fleet service (ROADMAP item 2, Fig. 14b in production).

:func:`repro.search.evolutionary_search` is offline and one-shot: the caller
hands it a bare ``ScoreFn`` closure and the serving stack — batching, caches,
per-device models, checkpoints — is bypassed entirely.  :class:`SearchService`
promotes search to a first-class serving tier, the role a learned cost model
actually plays inside an auto-tuner (Ansor, TLP, the TPU learned performance
model all score thousands of candidates per batched inference):

* **lock-step scoring** — each task's search is a stepper
  (:func:`~repro.search.ansor.search_steps`) that yields a round's
  candidates and receives their scores.  :meth:`SearchService.tune_model`
  advances every uncached task of a device one round at a time and scores
  that round of all of them through the shared
  :class:`~repro.serving.service.PredictionService`, in task-aligned slices
  of at least :data:`SCORE_SLICE_ROWS` candidates (submit the slice, flush
  once).  Candidate scoring rides the same batch/cache path as every other
  query, in a few large batches instead of one small batch per task;
* **result caching** — a finished tuning is cached per
  ``(task, device, CostModel.cache_signature, search params)`` in a
  :class:`~repro.serving.search_cache.SearchCache`, persisted in the
  :class:`~repro.serving.registry.ModelRegistry` when one is attached, so a
  re-tune is a cache hit returning the bit-identical
  :class:`~repro.search.SearchResult` with zero new predicts;
* **active invalidation** — the service registers a swap listener on the
  prediction tier: ``swap_model`` / ``onboard_device`` on the underlying
  fleet evicts the swapped device's cached tunings (``cache_signature``
  alone cannot catch a fine-tuned clone with identical architecture), and
  the registry evicts by checkpoint name on re-save/delete;
* **fleet-wide tuning** — :meth:`SearchService.tune_model` lists a model's
  unique tasks (once per zoo network and batch size) and searches each
  task for each requested device, exactly how an operator tunes a new
  network for every device they own.

Determinism contract: with the same ``seed``, tuning is bit-identical across
runs and across warm/cold prediction caches — predictions are deterministic
functions of (program, device, model), so cached scores equal recomputed
ones, and each task searches under its own ``(seed, task_key)`` child stream
(independent tasks, no Generator aliasing).  Lock step changes which rows
share a predict, not which candidates are drawn or how they are ranked,
except where two candidates of one round score within the last-bit
difference that batch composition can make (ROADMAP item 2: BLAS sums a
differently shaped matmul in another order).  On the goldens, in the tests
and in the benchmark runs a lock-step ``tune_model`` equalled a per-task
:func:`~repro.search.evolutionary_search` loop seed for seed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.devices.spec import DeviceSpec, get_device
from repro.errors import SearchError, ServingError
from repro.graph.model import ModelGraph
from repro.graph.partition import extract_unique_tasks
from repro.graph.zoo import build_model
from repro.search.ansor import SearchResult, SearchSteps, search_steps
# Kept as a module attribute: perfbench/traced_daemon.py wraps this name.
from repro.search.ansor import evolutionary_search  # noqa: F401
from repro.serving.fleet import FleetService
from repro.serving.search_cache import SearchCache
from repro.serving.service import PredictionService
from repro.tir.program import TensorProgram
from repro.tir.task import Task

#: Default search budget, matching the Fig. 14b benchmark's scale.
DEFAULT_NUM_ROUNDS = 6
DEFAULT_POPULATION = 12
DEFAULT_MEASUREMENTS_PER_ROUND = 3

#: Rows per predict in tune_model's lock step: whole tasks are gathered
#: until a slice holds at least this many candidates.  Measured on resnet50
#: candidates with the tiny t4 checkpoint (2-core x86-64, BLAS on one
#: thread), predict_rows cost 58 us per row at batch 8, 38 at batch 64 and
#: 42 at batch 248, so 64 rows already reach the floor.  Scoring a whole
#: 248-row round at once raised the serve-warm daemon's peak RSS from 104 to
#: 131 MB (its quality pass runs two tunes at once); 64-row slices gave 112.
SCORE_SLICE_ROWS = 64

#: Zoo networks whose task lists :meth:`SearchService.tune_model` keeps.
TASK_LIST_MEMO_SIZE = 32


def _unique_tasks_in_topo_order(graph: ModelGraph) -> Dict[str, Task]:
    """A model's unique tasks keyed by workload key, in the order its DFG
    lists them (first occurrence in topological order), without lowering."""
    tasks: Dict[str, Task] = {}
    for name in graph.topo_order():
        task = graph.node(name).task
        tasks.setdefault(task.workload_key, task)
    return tasks


@dataclass
class ModelTuning:
    """Outcome of tuning one model for one device.

    ``results`` maps workload key to its :class:`SearchResult`;
    ``cached_tasks`` / ``fresh_tasks`` split the tasks by whether the search
    cache answered them (a fully-cached re-tune has every task in
    ``cached_tasks`` and issued zero predicts).
    """

    model: str
    device: str
    results: Dict[str, SearchResult] = field(default_factory=dict)
    cached_tasks: List[str] = field(default_factory=list)
    fresh_tasks: List[str] = field(default_factory=list)

    @property
    def tuned_latency_s(self) -> float:
        """Sum of per-task best latencies (the tuned model latency of Fig. 14b)."""
        return float(sum(result.best_latency_s for result in self.results.values()))

    @property
    def fully_cached(self) -> bool:
        """Whether every task came out of the search cache."""
        return not self.fresh_tasks

    def to_dict(self) -> Dict:
        """JSON-serializable form (used by the daemon's ``tune`` op)."""
        return {
            "model": self.model,
            "device": self.device,
            "results": {key: result.to_dict() for key, result in self.results.items()},
            "cached_tasks": list(self.cached_tasks),
            "fresh_tasks": list(self.fresh_tasks),
            "tuned_latency_s": self.tuned_latency_s,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ModelTuning":
        """Rebuild a tuning from :meth:`to_dict` output."""
        return cls(
            model=payload["model"],
            device=payload["device"],
            results={
                key: SearchResult.from_dict(value)
                for key, value in payload.get("results", {}).items()
            },
            cached_tasks=list(payload.get("cached_tasks", [])),
            fresh_tasks=list(payload.get("fresh_tasks", [])),
        )


@dataclass
class SearchServiceStats:
    """Lifetime counters of one :class:`SearchService`."""

    tasks_tuned: int = 0
    cache_hits: int = 0
    searches_run: int = 0
    programs_scored: int = 0
    measurements: int = 0


class SearchService:
    """Cost-model-guided schedule search over a serving tier.

    ``service`` is the prediction tier that scores candidates: a
    :class:`FleetService` (the shared kernel service is used, and fleet
    ``register_device``/``onboard_device`` swaps auto-invalidate the search
    cache) or a bare :class:`PredictionService`.

    ``registry`` attaches the persistent search cache living next to the
    checkpoints (``<root>/search``); without one the cache is in-memory.
    ``model_names`` maps device name → registry checkpoint name and tags
    cache entries so ``ModelRegistry.save``/``delete`` of a checkpoint evicts
    its tunings; a plain string tags every device with one shared name.
    """

    def __init__(
        self,
        service: Union[FleetService, PredictionService],
        registry=None,
        model_names: Union[str, Mapping[str, str], None] = None,
        cache: Optional[SearchCache] = None,
    ):
        if isinstance(service, FleetService):
            self._fleet: Optional[FleetService] = service
            self._kernels = service.service_for_kernels()
        elif isinstance(service, PredictionService):
            self._fleet = None
            self._kernels = service
        else:
            raise ServingError(
                "SearchService needs a FleetService or PredictionService, "
                f"got {type(service).__name__}"
            )
        self.registry = registry
        if cache is not None:
            self.cache = cache
        elif registry is not None:
            self.cache = registry.search_cache
        else:
            self.cache = SearchCache()
        self._lock = threading.RLock()
        if model_names is None:
            self._model_names: Dict[str, str] = {}  # guarded-by: _lock
            self._shared_name: Optional[str] = None
        elif isinstance(model_names, str):
            self._model_names = {}  # guarded-by: _lock
            self._shared_name = model_names
        else:
            self._model_names = {get_device(d).name: n for d, n in model_names.items()}  # guarded-by: _lock
            self._shared_name = None
        self.stats = SearchServiceStats()  # guarded-by: _lock
        # (zoo name, batch size) -> unique tasks; zoo networks never change.
        self._task_lists: "OrderedDict[tuple, Dict[str, Task]]" = OrderedDict()  # guarded-by: _lock
        # A swap on any device (register_device / onboard_device / raw
        # swap_model) makes that device's cached tunings stale even when the
        # new model's cache_signature matches the old one's.
        self._kernels.add_swap_listener(self._on_swap)

    def _on_swap(self, device: str) -> None:
        self.cache.invalidate_device(device)
        with self._lock:
            self._model_names.pop(device, None)

    def _zoo_tasks(self, name: str, batch_size: int) -> Dict[str, Task]:
        """The unique tasks of a zoo network, listed once per batch size."""
        key = (name, int(batch_size))
        with self._lock:
            tasks = self._task_lists.get(key)
            if tasks is not None:
                self._task_lists.move_to_end(key)
                return tasks
        tasks = _unique_tasks_in_topo_order(build_model(name, batch_size=batch_size))
        with self._lock:
            self._task_lists[key] = tasks
            while len(self._task_lists) > TASK_LIST_MEMO_SIZE:
                self._task_lists.popitem(last=False)
        return tasks

    def _model_name_for(self, device: str) -> Optional[str]:
        with self._lock:
            return self._model_names.get(device, self._shared_name)

    # ------------------------------------------------------------------
    # Tuning
    # ------------------------------------------------------------------
    def tune_task(
        self,
        task: Task,
        device: Union[str, DeviceSpec],
        num_rounds: int = DEFAULT_NUM_ROUNDS,
        population: int = DEFAULT_POPULATION,
        measurements_per_round: int = DEFAULT_MEASUREMENTS_PER_ROUND,
        seed: Union[int, str, None] = 0,
        use_cache: bool = True,
    ) -> SearchResult:
        """Search a fast schedule for one task on one device.

        Each round's candidates are scored by one predict through the shared
        prediction service (submit them all, flush once), exactly as one
        task of :meth:`tune_model`'s lock step.  Results are cached; pass
        ``use_cache=False`` to force a fresh search (the fresh result still
        replaces the cached entry).
        """
        spec = get_device(device) if isinstance(device, str) else device
        outcomes = self._tune(
            {task.workload_key: (task, seed)},
            spec,
            num_rounds=num_rounds,
            population=population,
            measurements_per_round=measurements_per_round,
            use_cache=use_cache,
        )
        return outcomes[task.workload_key][0]

    def _tune(
        self,
        jobs: Mapping[str, tuple],
        spec: DeviceSpec,
        num_rounds: int,
        population: int,
        measurements_per_round: int,
        use_cache: bool,
    ) -> Dict[str, tuple]:
        """``{key: (result, was_cached)}`` for ``jobs`` (``key -> (task, seed)``), in job order.

        Cached tasks are answered by the search cache and drop out; every
        fresh task runs :func:`~repro.search.ansor.search_steps` under its
        own seed, and all of them advance one round at a time in lock step
        (see :meth:`_score_round`).  The cache key carries the seed each
        search runs under, so a base-seed ``tune_task`` and a ``tune_model``
        sweep (``(seed, task_key)`` per task) never alias each other's
        entries.
        """
        signature = tuple(self._kernels.model_for(spec).cache_signature)
        outcomes: Dict[str, tuple] = {}
        params: Dict[str, dict] = {}
        searches: Dict[str, SearchSteps] = {}
        for key, (task, seed) in jobs.items():
            params[key] = {
                "num_rounds": int(num_rounds),
                "population": int(population),
                "measurements_per_round": int(measurements_per_round),
                "seed": seed,
            }
            cached = (
                self.cache.get(task.workload_key, spec, signature, params[key])
                if use_cache
                else None
            )
            if cached is not None:
                with self._lock:
                    self.stats.tasks_tuned += 1
                    self.stats.cache_hits += 1
                outcomes[key] = (cached, True)
                continue
            searches[key] = search_steps(
                task,
                spec,
                num_rounds=num_rounds,
                population=population,
                measurements_per_round=measurements_per_round,
                seed=seed,
            )

        rounds = {key: next(steps) for key, steps in searches.items()}
        while rounds:
            scores = self._score_round(rounds, spec)
            for key in list(rounds):
                try:
                    rounds[key] = searches[key].send(scores[key])
                except StopIteration as stop:
                    del rounds[key]
                    result: SearchResult = stop.value
                    self.cache.put(
                        jobs[key][0].workload_key,
                        spec,
                        signature,
                        params[key],
                        result,
                        model_name=self._model_name_for(spec.name),
                    )
                    with self._lock:
                        self.stats.tasks_tuned += 1
                        self.stats.searches_run += 1
                        self.stats.programs_scored += result.num_scored
                        self.stats.measurements += result.num_measurements
                    outcomes[key] = (result, False)
        return {key: outcomes[key] for key in jobs}

    def _score_round(
        self, rounds: Mapping[str, List[TensorProgram]], spec: DeviceSpec
    ) -> Dict[str, np.ndarray]:
        """Scores of one round of every task in ``rounds``.

        Whole tasks are gathered into slices of at least
        :data:`SCORE_SLICE_ROWS` candidates and each slice is one predict
        (submit every candidate, flush once); the last slice holds what is
        left.
        """
        scores: Dict[str, np.ndarray] = {}
        keys: List[str] = []
        programs: List[TensorProgram] = []
        last = len(rounds) - 1
        for index, (key, candidates) in enumerate(rounds.items()):
            keys.append(key)
            programs.extend(candidates)
            if len(programs) < SCORE_SLICE_ROWS and index < last:
                continue
            answers = self._kernels.predict(programs, spec)
            start = 0
            for sliced in keys:
                stop = start + len(rounds[sliced])
                scores[sliced] = answers[start:stop]
                start = stop
            keys, programs = [], []
        return scores

    def tune_model(
        self,
        model,
        devices: Optional[Sequence[Union[str, DeviceSpec]]] = None,
        batch_size: int = 1,
        num_rounds: int = DEFAULT_NUM_ROUNDS,
        population: int = DEFAULT_POPULATION,
        measurements_per_round: int = DEFAULT_MEASUREMENTS_PER_ROUND,
        seed: Union[int, str, None] = 0,
        use_cache: bool = True,
    ) -> List[ModelTuning]:
        """Tune a whole model for every requested device.

        ``model`` is a zoo name, a :class:`~repro.graph.model.ModelGraph` or
        a pre-partitioned :class:`~repro.graph.dfg.TIRDataFlowGraph`; its
        unique tasks are listed in the order its DFG lists them and each task
        is searched per device (schedules are sampled for the device's
        taxonomy) under its own independent ``(seed, task_key)`` stream,
        matching :func:`repro.search.search_model_schedules`.  Per device,
        the tasks the search cache cannot answer advance in lock step: each
        round of all of them is scored in slices of at least
        :data:`SCORE_SLICE_ROWS` candidates, so the cost model sees a few
        large batches instead of one small batch per task.  Each task keeps
        its own stream, accounting and cache entry, so its result is the
        one a search of that task alone under the same seed finds (up to
        the last-bit caveat in the module docstring).  A zoo
        network's task list is kept per ``(name, batch_size)`` in a bounded
        memo; a caller-built graph is enumerated afresh on every call.

        ``devices`` defaults to every device of the underlying fleet.
        Returns one :class:`ModelTuning` per device, in request order.
        """
        from repro.graph.dfg import TIRDataFlowGraph
        from repro.serving.service import DEFAULT_DEVICE

        if devices is None:
            names = [name for name in self._kernels.devices if name != DEFAULT_DEVICE]
            if not names:
                raise ServingError(
                    "the serving tier has only the '*' fallback model; "
                    "pass devices= explicitly"
                )
            devices = names
        if not devices:
            raise SearchError("tune_model needs at least one device")
        specs: List[DeviceSpec] = []
        seen = set()
        for device in devices:
            spec = device if isinstance(device, DeviceSpec) else get_device(device)
            if spec.name not in seen:
                seen.add(spec.name)
                specs.append(spec)

        # The DFG's first-occurrence topological order fixes the order of
        # ModelTuning.results, and so of the tuned_latency_s sum.
        if isinstance(model, TIRDataFlowGraph):
            tasks = extract_unique_tasks(model)
        elif isinstance(model, str):
            tasks = self._zoo_tasks(model, batch_size)
        elif isinstance(model, ModelGraph):
            tasks = _unique_tasks_in_topo_order(model)
        else:
            raise SearchError(
                "tune_model needs a zoo name, a ModelGraph or a TIRDataFlowGraph, "
                f"got {type(model).__name__}"
            )

        model_name = model if isinstance(model, str) else getattr(model, "name", repr(model))
        tunings: List[ModelTuning] = []
        for spec in specs:
            outcomes = self._tune(
                {key: (task, (seed, key)) for key, task in tasks.items()},
                spec,
                num_rounds=num_rounds,
                population=population,
                measurements_per_round=measurements_per_round,
                use_cache=use_cache,
            )
            tuning = ModelTuning(model=model_name, device=spec.name)
            for key, (result, was_cached) in outcomes.items():
                tuning.results[key] = result
                (tuning.cached_tasks if was_cached else tuning.fresh_tasks).append(key)
            tunings.append(tuning)
        return tunings

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe_stats(self) -> Dict[str, object]:
        """Search counters plus the search cache's hit/miss/eviction counters."""
        with self._lock:
            counters: Dict[str, object] = asdict(self.stats)
        counters["search_cache"] = self.cache.describe_stats()
        return counters

    def reset_stats(self) -> None:
        """Zero the search counters (cache contents are kept)."""
        with self._lock:
            self.stats = SearchServiceStats()

    def __repr__(self) -> str:
        tier = "fleet" if self._fleet is not None else "service"
        return f"SearchService(tier={tier!r}, cache={self.cache!r})"
