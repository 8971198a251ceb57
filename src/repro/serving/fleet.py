"""Graph-level fleet serving: end-to-end model latency across devices.

:class:`repro.serving.service.PredictionService` answers *per-kernel* latency
queries; callers who want a whole-model number ("how long does ResNet-50 take
on a T4?") would have to partition the model, loop over kernels and compose
the results themselves.  :class:`FleetService` is that graph-level tier, the
way TLP-style cost models and the TPU learned performance model are consumed
in practice:

* **partition** — the model (a zoo name, a :class:`ModelGraph` or a
  pre-built :class:`TIRDataFlowGraph`) is dissected into tensor programs via
  :func:`repro.graph.partition.partition_into_programs`, one scheduled kernel
  per unique workload; partitioned DFGs are memoized per
  (model, batch, taxonomy, seed) so repeated queries skip lowering;
* **batch** — the kernel queries of *every* requested device are submitted to
  one shared :class:`PredictionService` and answered by a single flush: one
  vectorized predictor call per distinct underlying model, which means
  literally one call when the fleet serves a shared cross-device checkpoint
  (CDMPP's speciality);
* **compose** — per-kernel latencies are folded into the end-to-end estimate
  by :func:`repro.replay.compose_latencies`: critical-path replay
  (Algorithm 2) by default, with a serial-sum fallback (``compose="serial"``);
* **fleet caches** — the per-device predictors share one feature cache
  (featurization does not depend on the model) while predictions live in a
  :class:`~repro.serving.cache.DeviceShardedCache`, so retraining one device
  invalidates only that device's shard.

Build a fleet from registry checkpoints with :meth:`FleetService.from_registry`
(devices naming the same checkpoint share one in-memory model via
``ModelRegistry.load_shared``), then ask :meth:`FleetService.predict_model`
for one device or :meth:`FleetService.predict_model_fleet` for a ranked
answer across every registered device.  Both go through
:meth:`FleetService.predict_model_batch`, the one serving path for
whole-model answers.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import ensure_model_level
from repro.devices.spec import ACCEL, DeviceSpec, get_device
from repro.errors import ServingError
from repro.graph.dfg import TIRDataFlowGraph
from repro.graph.model import ModelGraph
from repro.graph.partition import partition_into_programs
from repro.graph.zoo import build_model, resolve_model_name
from repro.replay.e2e import COMPOSE_MODES, compose_latencies
from repro.serving.cache import DeviceShardedCache, LRUCache
from repro.serving.service import (
    DEFAULT_DEVICE,
    DEFAULT_TIER,
    ModelLike,
    PredictionService,
    validate_tier,
)
from repro.tir.program import TensorProgram

ModelQuery = Union[str, ModelGraph, TIRDataFlowGraph]

DEFAULT_GAP_S = 2e-6


def _canonical_device(name: Union[str, DeviceSpec]) -> str:
    """Canonical device name for fleet model keys (``"*"`` passes through)."""
    if isinstance(name, DeviceSpec):
        return name.name
    if name == DEFAULT_DEVICE:
        return name
    return get_device(name).name


@dataclass
class FleetPrediction:
    """End-to-end latency estimate of one model on one device.

    ``predicted_latency_s`` is composed with the requested mode;
    ``serial_latency_s`` is always the serial-sum bound, so callers can see
    how much graph parallelism the replay credited the device with.
    """

    model: str
    device: str
    predicted_latency_s: float
    serial_latency_s: float
    per_kernel_latency_s: Dict[str, float]
    num_nodes: int
    num_unique_kernels: int
    compose: str

    @property
    def parallel_speedup(self) -> float:
        """Serial bound over composed estimate (1.0 = no overlap credited)."""
        if self.predicted_latency_s <= 0:
            return 1.0
        return self.serial_latency_s / self.predicted_latency_s


@dataclass
class FleetStats:
    """Lifetime counters of one :class:`FleetService`."""

    model_queries: int = 0
    fanout_queries: int = 0
    partitions: int = 0
    partition_cache_hits: int = 0
    devices_onboarded: int = 0
    fast_tier_model_queries: int = 0
    accurate_tier_model_queries: int = 0


class FleetService:
    """Serve whole-model latency queries across a fleet of devices.

    ``models`` maps device names to fitted models — any
    :class:`repro.backends.CostModel` backend, the legacy
    ``CDMPP``/``Trainer`` entry points or a raw baseline; ``"*"`` is the
    any-device fallback, and different devices may be served by different
    backends.  All devices are served by one internal
    :class:`PredictionService` so kernel queries micro-batch across devices;
    devices passing the *same* model object share one predictor group and
    therefore one vectorized call per flush.
    """

    def __init__(
        self,
        models: Union[ModelLike, Mapping[str, ModelLike]],
        feature_cache_size: int = 8192,
        prediction_cache_size_per_device: int = 16384,
        max_batch_size: int = 512,
        predict_chunk_size: Optional[int] = 1024,
        gap_s: float = DEFAULT_GAP_S,
        fast_models: Optional[Union[ModelLike, Mapping[str, ModelLike]]] = None,
    ):
        self.gap_s = float(gap_s)
        self.feature_cache = LRUCache(feature_cache_size)
        self.prediction_cache = DeviceShardedCache(prediction_cache_size_per_device)
        if isinstance(models, Mapping):
            # Canonicalize device keys (queries resolve aliases/case through
            # get_device, so 'T4' must register under 't4' to be reachable).
            models = {_canonical_device(name): model for name, model in models.items()}
        if isinstance(fast_models, Mapping):
            fast_models = {
                _canonical_device(name): model for name, model in fast_models.items()
            }
        self._service = PredictionService(
            models,
            max_batch_size=max_batch_size,
            predict_chunk_size=predict_chunk_size,
            feature_cache=self.feature_cache,
            prediction_cache=self.prediction_cache,
            fast_models=fast_models,
        )
        self._dfg_cache = LRUCache(64)
        # Guards the fleet-level counters; the heavy lifting (queue, caches)
        # is protected by the underlying PredictionService's own lock.
        self._stats_lock = threading.Lock()
        self.stats = FleetStats()  # guarded-by: _stats_lock

    # ------------------------------------------------------------------
    # Construction / fleet management
    # ------------------------------------------------------------------
    @classmethod
    def from_registry(
        cls,
        registry,
        names: Union[str, Mapping[str, str]],
        devices: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> "FleetService":
        """Build a fleet from registry checkpoints, one device per entry.

        ``names`` is either a ``{device: checkpoint_name}`` mapping or one
        checkpoint name combined with ``devices`` (the same cross-device
        model serving every listed device; with no ``devices`` it becomes the
        ``"*"`` fallback).  Checkpoints are loaded through
        ``ModelRegistry.load_shared``, so devices naming the same checkpoint
        share one in-memory model — and their kernel queries batch into one
        predictor call.
        """
        load = getattr(registry, "load_shared", registry.load)
        if isinstance(names, Mapping):
            if devices is not None:
                raise ServingError("pass either a {device: name} mapping or devices=, not both")
            if not names:
                raise ServingError("FleetService.from_registry needs at least one device")
            return cls({device: load(name) for device, name in names.items()}, **kwargs)
        model = load(names)
        if devices is None:
            return cls(model, **kwargs)
        if not devices:
            raise ServingError("FleetService.from_registry needs at least one device")
        return cls({get_device(device).name: model for device in devices}, **kwargs)

    @property
    def devices(self) -> List[str]:
        """Sorted device names served by the fleet (``"*"`` = fallback)."""
        return self._service.devices

    @property
    def fast_devices(self) -> List[str]:
        """Sorted device names with a registered fast-tier model."""
        return self._service.fast_devices

    def register_device(self, device: str, model: ModelLike) -> None:
        """Add (or replace) the predictor serving ``device``.

        Only that device's prediction-cache shard is invalidated; every other
        device keeps its warm cache.
        """
        self._service.swap_model(_canonical_device(device), model)

    def register_fast_model(self, device: str, model: ModelLike) -> None:
        """Install (or replace) the fast-tier model serving ``device``.

        ``model`` is normally a :class:`repro.backends.DistilledBackend`
        student of the accurate model serving the same device; queries with
        ``tier="fast"`` route to it.
        """
        self._service.swap_model(_canonical_device(device), model, tier="fast")

    def onboard_device(self, device: str, adapted) -> None:
        """Hot-swap an onboarded device's *adapted* model into the fleet.

        ``adapted`` is an :class:`repro.adaptation.OnboardingResult` (its
        ``model`` is used) or any fitted model.  The adapted model must be a
        detached clone (:meth:`repro.core.trainer.Trainer.clone`, what
        :class:`~repro.adaptation.OnboardingPipeline` produces): a model that
        still shares weights with the one currently serving ``device`` means
        fine-tuning mutated the served object — possibly shared with every
        other device via ``ModelRegistry.load_shared`` — and is refused.

        Only the onboarded device's prediction-cache shard is invalidated;
        every other device keeps its warm cache and its weights untouched.
        """
        from repro.adaptation.pipeline import OnboardingResult

        if isinstance(adapted, OnboardingResult):
            if adapted.device != _canonical_device(device):
                raise ServingError(
                    f"onboarding result is for device {adapted.device!r}, "
                    f"not {device!r}"
                )
            adapted = adapted.model
        name = _canonical_device(device)
        for served_device in self._service.devices:
            served = self._service.model_for(served_device)
            if served.wraps(adapted):
                raise ServingError(
                    f"the adapted model for {name!r} shares weights with the model "
                    f"serving device {served_device!r}; fine-tune a detached clone "
                    "(Trainer.clone / OnboardingPipeline) instead of the served object"
                )
        self._service.swap_model(name, adapted)
        with self._stats_lock:
            self.stats.devices_onboarded += 1

    def service_for_kernels(self) -> PredictionService:
        """The shared per-kernel service (for direct program-level queries)."""
        return self._service

    def add_swap_listener(self, listener) -> None:
        """Register ``listener(device_name)`` for model swaps on any device.

        Fires for :meth:`register_device` and :meth:`onboard_device` alike
        (both route through the kernel service's ``swap_model``); see
        :meth:`PredictionService.add_swap_listener`.
        """
        self._service.add_swap_listener(listener)

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _resolve_targets(self, devices: Optional[Sequence[str]]) -> List[DeviceSpec]:
        if devices is None:
            names = [name for name in self.devices if name != DEFAULT_DEVICE]
            if not names:
                raise ServingError(
                    "fleet has only the '*' fallback model; pass devices= explicitly"
                )
        else:
            names = list(devices)
            if not names:
                raise ServingError("predict_model_fleet needs at least one device")
        specs, seen = [], set()
        for name in names:
            spec = name if isinstance(name, DeviceSpec) else get_device(name)
            if spec.name not in seen:
                seen.add(spec.name)
                specs.append(spec)
        return specs

    def _partition(
        self,
        model: ModelQuery,
        taxonomy: str,
        batch_size: int,
        seed,
    ) -> TIRDataFlowGraph:
        """The DFG of ``model`` for one device taxonomy (memoized for zoo names)."""
        if isinstance(model, TIRDataFlowGraph):
            if len(model) == 0:
                raise ServingError(f"cannot predict an empty data-flow graph {model.name!r}")
            return model
        if isinstance(model, ModelGraph):
            # Caller-built graphs are mutable, so they are partitioned fresh.
            if len(model) == 0:
                raise ServingError(f"cannot predict an empty model graph {model.name!r}")
            with self._stats_lock:
                self.stats.partitions += 1
            return partition_into_programs(model, target_kind=taxonomy, seed=seed)
        name = resolve_model_name(model)
        key = (name, int(batch_size), taxonomy, repr(seed))
        dfg = self._dfg_cache.get(key)
        if dfg is None:
            # Two threads may race to build the same DFG; partitioning is
            # deterministic per (name, batch, taxonomy, seed) so last-put-wins
            # is harmless, and duplicate work is bounded by the race window.
            graph = build_model(name, batch_size=batch_size)
            dfg = partition_into_programs(graph, target_kind=taxonomy, seed=seed)
            self._dfg_cache.put(key, dfg)
            with self._stats_lock:
                self.stats.partitions += 1
        else:
            with self._stats_lock:
                self.stats.partition_cache_hits += 1
        return dfg

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def predict_model(
        self,
        model: ModelQuery,
        device: Union[str, DeviceSpec],
        batch_size: int = 1,
        seed: Union[int, str, None] = 0,
        compose: str = "replay",
        tier: str = DEFAULT_TIER,
    ) -> FleetPrediction:
        """End-to-end latency of one model on one device.

        Partition → batch → compose for a single device; equivalent to a
        one-device :meth:`predict_model_fleet`.  ``tier="fast"`` answers the
        kernel queries from the device's registered distilled student.
        """
        device_name = device if isinstance(device, str) else device.name
        results = self.predict_model_fleet(
            model,
            devices=[device_name],
            batch_size=batch_size,
            seed=seed,
            compose=compose,
            tier=tier,
        )
        return results[0]

    def predict_model_fleet(
        self,
        model: ModelQuery,
        devices: Optional[Sequence[str]] = None,
        batch_size: int = 1,
        seed: Union[int, str, None] = 0,
        compose: str = "replay",
        tier: str = DEFAULT_TIER,
    ) -> List[FleetPrediction]:
        """End-to-end latency of one model on every requested device, ranked.

        ``devices`` defaults to every registered device.  All kernel queries
        of all devices are enqueued first and answered by one flush — one
        vectorized predictor call per distinct underlying model — then each
        device's latencies are composed independently.  Results are sorted
        fastest-first.

        ``batch_size`` only applies when ``model`` is a zoo name; a
        :class:`ModelGraph` or :class:`TIRDataFlowGraph` is predicted at the
        batch size it was built with.
        """
        specs = self._resolve_targets(devices)
        results = self.predict_model_batch(
            [(model, spec, batch_size) for spec in specs],
            seed=seed,
            compose=compose,
            tier=tier,
        )
        if len(specs) > 1:
            with self._stats_lock:
                self.stats.fanout_queries += 1
        results.sort(key=lambda prediction: prediction.predicted_latency_s)
        return results

    def predict_model_batch(
        self,
        queries: Sequence[Tuple[ModelQuery, Union[str, DeviceSpec], int]],
        seed: Union[int, str, None] = 0,
        compose: str = "replay",
        tier: str = DEFAULT_TIER,
    ) -> List[FleetPrediction]:
        """Answer many heterogeneous model queries with one batched flush.

        ``queries`` is a sequence of ``(model, device, batch_size)`` triples —
        different networks, devices and batch sizes may be mixed freely.  All
        per-kernel queries of *all* triples are enqueued on the shared
        :class:`PredictionService` first and answered by a single flush (one
        vectorized predictor call per distinct underlying model), then each
        triple's latencies are composed independently.  Results come back in
        input order (unsorted).

        This is the cross-request micro-batching primitive the serving daemon
        builds on: a shard worker drains its request queue into one
        ``predict_model_batch`` call, so concurrent clients amortize
        featurization and predictor overhead exactly like one big caller.
        """
        if compose not in COMPOSE_MODES:
            raise ServingError(
                f"unknown composition mode {compose!r}; expected one of {COMPOSE_MODES}"
            )
        if not queries:
            return []
        tier = validate_tier(tier)
        resolved: List[Tuple[ModelQuery, DeviceSpec, int]] = []
        for model, device, batch_size in queries:
            spec = device if isinstance(device, DeviceSpec) else get_device(device)
            backend = self._service.model_for(spec, tier=tier)  # raises when unservable
            ensure_model_level(backend, ServingError, device=spec.name)
            resolved.append((model, spec, int(batch_size)))
        with self._stats_lock:
            self.stats.model_queries += len(resolved)
            if tier == "fast":
                self.stats.fast_tier_model_queries += len(resolved)
            else:
                self.stats.accurate_tier_model_queries += len(resolved)

        # Partition each distinct (model, batch, taxonomy) once; the DFG cache
        # additionally memoizes zoo names across calls.
        dfgs: Dict[tuple, TIRDataFlowGraph] = {}
        for model, spec, batch_size in resolved:
            key = (id(model) if not isinstance(model, str) else model, batch_size, spec.taxonomy)
            if key not in dfgs:
                dfgs[key] = self._partition(model, spec.taxonomy, batch_size, seed)

        # Batch: enqueue every (kernel, device) pair, then flush once.
        tickets: List[tuple] = []
        for model, spec, batch_size in resolved:
            key = (id(model) if not isinstance(model, str) else model, batch_size, spec.taxonomy)
            unique = dfgs[key].unique_programs()
            tickets.append(
                (
                    dfgs[key],
                    spec,
                    {
                        k: self._service.submit(program, spec, tier=tier)
                        for k, program in unique.items()
                    },
                )
            )
        self._service.flush()

        # Compose: fold per-kernel latencies into each query's estimate.
        results: List[FleetPrediction] = []
        for dfg, spec, device_tickets in tickets:
            durations = {key: ticket.result() for key, ticket in device_tickets.items()}
            composed = compose_latencies(dfg, durations, spec, gap_s=self.gap_s, mode=compose)
            # On single-slot devices replay degenerates to the serial sum, so
            # the bound is free; only multi-engine accelerators need a second
            # composition pass.
            multi_slot = spec.taxonomy == ACCEL and spec.gemm_engines > 1
            serial = (
                compose_latencies(dfg, durations, spec, gap_s=self.gap_s, mode="serial")
                if compose != "serial" and multi_slot
                else composed
            )
            results.append(
                FleetPrediction(
                    model=dfg.name,
                    device=spec.name,
                    predicted_latency_s=composed.iteration_time_s,
                    serial_latency_s=serial.iteration_time_s,
                    per_kernel_latency_s=dict(durations),
                    num_nodes=len(dfg),
                    num_unique_kernels=len(durations),
                    compose=compose,
                )
            )
        return results

    def predict_programs(
        self,
        programs: Sequence[TensorProgram],
        device: Union[str, DeviceSpec],
        tier: str = DEFAULT_TIER,
    ) -> np.ndarray:
        """Per-kernel latencies through the shared batch-and-cache path."""
        return self._service.predict(programs, device, tier=tier)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe_stats(self) -> Dict[str, object]:
        """Fleet counters plus the shared kernel service's counters."""
        with self._stats_lock:
            counters: Dict[str, object] = asdict(self.stats)
        counters["kernel_service"] = self._service.describe_stats()
        return counters

    def reset_stats(self) -> None:
        """Zero every counter (cache and DFG contents are kept)."""
        with self._stats_lock:
            self.stats = FleetStats()
        self._service.reset_stats()

    def __repr__(self) -> str:
        return (
            f"FleetService(devices={self.devices}, "
            f"dfg_cache={len(self._dfg_cache)}, "
            f"prediction_cache={self.prediction_cache!r})"
        )
