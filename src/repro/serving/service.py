"""Micro-batched, cached latency-prediction serving for any backend.

The one-shot :class:`repro.core.api.CDMPP` facade featurizes and runs the
predictor from scratch on every call.  A :class:`PredictionService` turns a
set of trained cost models — **any** :class:`repro.backends.CostModel`
backend: CDMPP, XGBoost, TLP, Habitat, Tiramisu — into a long-lived service
in the "train once, query many" regime the paper targets (and that TLP-style
tuners exercise when they score thousands of candidate schedules per round):

* **micro-batching** — queries are enqueued with :meth:`submit` and executed
  by :meth:`flush` as one vectorized backend call per model, so per-query
  Python and predictor overhead is amortized across the batch;
* **feature cache** — backends that expose the ``featurize_rows`` /
  ``predict_rows`` fast path (the CDMPP transformer, whose featurization
  dominates per-query cost) get their per-(program, device) feature rows
  (compact, unpadded :class:`~repro.features.pipeline.FeatureRow` objects)
  cached in an LRU, so repeats skip featurization; other backends featurize
  internally and skip this tier;
* **prediction cache** — final latencies are kept in a second LRU keyed per
  backend feature space (``CostModel.cache_signature``), so exact repeats
  skip the predictor entirely and different backends never alias;
* **model registry integration** — services are built straight from
  :class:`repro.serving.registry.ModelRegistry` checkpoints (whatever
  backend wrote them), never retraining in the serving process.

The service is synchronous but **thread-safe**: ``submit``, ``flush``,
``swap_model`` and the stats counters are serialized by one reentrant lock,
so multiple threads (the shard workers of
:class:`repro.serving.daemon.ServingDaemon`, or any concurrent callers)
can share one service without losing queue entries or tearing counters.
Async front-ends wrap it without changing the batching core.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.backends import CostModel, as_cost_model
from repro.core.api import CDMPP
from repro.core.trainer import Trainer
from repro.devices.spec import DeviceSpec
from repro.errors import ServingError, TrainingError
from repro.serving.cache import CacheKey, LRUCache, program_cache_key
from repro.tir.program import TensorProgram

ModelLike = Union[CDMPP, Trainer, CostModel, object]

DEFAULT_DEVICE = "*"

#: Serving tiers: ``accurate`` answers from the full model, ``fast`` from a
#: distilled student registered alongside it.  The tier is part of every
#: prediction-cache key, so a fast answer can never alias an accurate one.
TIERS = ("fast", "accurate")
DEFAULT_TIER = "accurate"


def validate_tier(tier: str) -> str:
    """Normalise and validate a tier name."""
    name = str(tier).strip().lower()
    if name not in TIERS:
        raise ServingError(f"unknown tier {tier!r} (tiers: {', '.join(TIERS)})")
    return name


def _as_serving_model(model: ModelLike) -> CostModel:
    """Adapt ``model`` onto the CostModel protocol, requiring it to be fitted."""
    try:
        cost_model = as_cost_model(model)
    except TrainingError as error:
        raise ServingError(str(error)) from error
    if not cost_model.fitted:
        raise ServingError(
            f"PredictionService needs a fitted model, got an unfitted "
            f"{cost_model.backend!r} backend (train it first)"
        )
    return cost_model


class PendingPrediction:
    """A ticket for one submitted query; resolved by the next flush."""

    __slots__ = ("key", "device", "_service", "_value")

    def __init__(self, service: "PredictionService", key: CacheKey, device: str):
        self._service = service
        self.key = key
        self.device = device
        self._value: Optional[float] = None

    @property
    def done(self) -> bool:
        """Whether the prediction has been computed."""
        return self._value is not None

    def result(self) -> float:
        """The predicted latency in seconds, flushing the service if needed."""
        if self._value is None:
            self._service.flush()
        if self._value is None:  # pragma: no cover - flush always resolves
            raise ServingError("pending prediction was not resolved by flush()")
        return self._value

    def _resolve(self, value: float) -> None:
        self._value = float(value)


@dataclass
class _QueueEntry:
    """One distinct queued query with every ticket coalesced onto it."""

    program: TensorProgram
    device: str
    model_id: int
    tier: str = DEFAULT_TIER
    tickets: List[PendingPrediction] = field(default_factory=list)


@dataclass
class ServingStats:
    """Lifetime counters of one :class:`PredictionService`."""

    queries: int = 0
    coalesced: int = 0
    flushes: int = 0
    batches: int = 0
    programs_featurized: int = 0
    predictions_computed: int = 0
    fast_tier_queries: int = 0
    accurate_tier_queries: int = 0


class PredictionService:
    """Serve latency queries from trained cost models with batching + caching.

    ``models`` is either a single fitted model (CDMPP is device-agnostic, so
    one cross-device model can serve every device) or a mapping from device
    name to a per-device model; the entry under ``"*"`` acts as the fallback
    for unlisted devices.  Every model is adapted onto the
    :class:`repro.backends.CostModel` protocol, so different devices may be
    served by entirely different backends (one device on CDMPP, another on
    XGBoost) behind the same batching and caching contracts.
    """

    def __init__(
        self,
        models: Union[ModelLike, Mapping[str, ModelLike]],
        feature_cache_size: int = 4096,
        prediction_cache_size: int = 16384,
        max_batch_size: int = 256,
        predict_chunk_size: Optional[int] = 1024,
        feature_cache: Optional[LRUCache] = None,
        prediction_cache=None,
        fast_models: Optional[Union[ModelLike, Mapping[str, ModelLike]]] = None,
    ):
        self._models = self._adapt_models(models)  # guarded-by: _lock
        # The fast tier is optional per device; queries with tier="fast" are
        # refused (not silently downgraded) for devices without an entry.
        self._fast_models: Dict[str, CostModel] = (  # guarded-by: _lock
            self._adapt_models(fast_models) if fast_models is not None else {}
        )
        if max_batch_size <= 0:
            raise ServingError(f"max_batch_size must be positive, got {max_batch_size}")
        self.max_batch_size = int(max_batch_size)
        self.predict_chunk_size = predict_chunk_size
        # Caches may be injected (any object with the LRUCache get/put/stats
        # surface) so several services — or a fleet — can share featurization
        # work, or shard predictions per device (DeviceShardedCache).
        self.feature_cache = feature_cache if feature_cache is not None else LRUCache(feature_cache_size)
        self.prediction_cache = (
            prediction_cache if prediction_cache is not None else LRUCache(prediction_cache_size)
        )
        # One reentrant lock serializes the queue, the model table and the
        # stats counters.  flush() holds it across the predictor call too:
        # cheaper-but-racier schemes (detach the queue, predict unlocked)
        # would let swap_model() retire a model while a detached flush is
        # still writing its stale predictions into the cache.
        self._lock = threading.RLock()
        self.stats = ServingStats()  # guarded-by: _lock
        # Called with the device name after every swap_model; lets higher
        # tiers (the search-result cache) invalidate state derived from the
        # replaced model even when its cache_signature is unchanged.
        self._swap_listeners: List = []  # guarded-by: _lock
        self._queue: "OrderedDict[CacheKey, _QueueEntry]" = OrderedDict()  # guarded-by: _lock

    @staticmethod
    def _adapt_models(
        models: Union[ModelLike, Mapping[str, ModelLike]]
    ) -> Dict[str, CostModel]:
        """Adapt a model-or-mapping argument onto per-device CostModels."""
        if isinstance(models, Mapping):
            if not models:
                raise ServingError("PredictionService needs at least one model")
            # Devices handing in the same model object share one adapter, so
            # their queries land in one batch group at flush time.
            adapters: Dict[int, CostModel] = {}
            return {
                name: adapters.setdefault(id(model), _as_serving_model(model))
                for name, model in models.items()
            }
        return {DEFAULT_DEVICE: _as_serving_model(models)}

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    @classmethod
    def from_registry(
        cls,
        registry,
        names: Union[str, Mapping[str, str]],
        **kwargs,
    ) -> "PredictionService":
        """Build a service from registry checkpoints (any backend).

        ``names`` is either one checkpoint name (shared cross-device model)
        or a mapping from device name to checkpoint name.
        """
        if isinstance(names, Mapping):
            return cls({device: registry.load(name) for device, name in names.items()}, **kwargs)
        return cls(registry.load(names), **kwargs)

    @property
    def devices(self) -> List[str]:
        """Sorted device names with a dedicated model (``"*"`` = fallback)."""
        with self._lock:
            return sorted(self._models)

    @property
    def fast_devices(self) -> List[str]:
        """Sorted device names with a registered fast-tier model."""
        with self._lock:
            return sorted(self._fast_models)

    def model_for(
        self, device: Union[str, DeviceSpec], tier: str = DEFAULT_TIER
    ) -> CostModel:
        """The model that serves ``device`` on ``tier`` (exact entry, else fallback)."""
        name = device if isinstance(device, str) else device.name
        tier = validate_tier(tier)
        with self._lock:
            table = self._fast_models if tier == "fast" else self._models
            model = table.get(name) or table.get(DEFAULT_DEVICE)
        if model is None:
            if tier == "fast":
                raise ServingError(
                    f"no fast-tier model registered for device {name!r} "
                    f"(fast devices: {', '.join(self.fast_devices) or 'none'}; "
                    "register a distilled student with register_fast_model, or "
                    "query tier='accurate')"
                )
            raise ServingError(
                f"no model registered for device {name!r} "
                f"(devices: {', '.join(self.devices)}; add one under '*' as fallback)"
            )
        return model

    def register_fast_model(self, device: str, model: ModelLike) -> None:
        """Install (or replace) the fast-tier model serving ``device``."""
        self.swap_model(device, model, tier="fast")

    def swap_model(self, device: str, model: ModelLike, tier: str = DEFAULT_TIER) -> None:
        """Install (or replace) the model serving ``device`` on ``tier``.

        Cached *predictions* are dropped — they were produced by the old
        weights — but cached *features* are kept: a feature row only depends
        on the backend's feature space (``cache_signature``), so a
        fine-tuned replacement with the same architecture reuses them for
        free.

        With a device-sharded prediction cache only the swapped device's
        shard is invalidated (unless the device is the ``"*"`` fallback,
        whose model may have answered queries for any device).  Swapping one
        tier invalidates the device shard as a whole — conservative for the
        untouched tier, but cache keys are tier-qualified so correctness
        never depends on it.
        """
        tier = validate_tier(tier)
        with self._lock:
            if self._queue:
                self.flush()
            table = self._fast_models if tier == "fast" else self._models
            # Reuse the adapter of a model already serving another device, so the
            # one-predictor-call-per-distinct-model batch grouping is preserved.
            adapter = next(
                (existing for existing in table.values() if existing.wraps(model)),
                None,
            )
            table[device] = adapter if adapter is not None else _as_serving_model(model)
            invalidate_device = getattr(self.prediction_cache, "invalidate_device", None)
            if invalidate_device is not None and device != DEFAULT_DEVICE:
                invalidate_device(device)
            else:
                self.prediction_cache.clear()
            listeners = list(self._swap_listeners)
        for listener in listeners:
            listener(device)

    def add_swap_listener(self, listener) -> None:
        """Register ``listener(device_name)`` to run after every swap_model.

        The predictions cache is invalidated by :meth:`swap_model` itself;
        listeners exist for state the service cannot see — most importantly
        cached *schedule-search results* (:class:`repro.serving.search_cache.
        SearchCache`), which stay bit-valid only while the exact fitted model
        that scored them keeps serving the device.  ``cache_signature`` alone
        cannot catch a fine-tuned clone (same architecture, new weights), so
        swap/onboard notify instead.
        """
        with self._lock:
            self._swap_listeners.append(listener)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(
        self,
        program: TensorProgram,
        device: Union[str, DeviceSpec],
        tier: str = DEFAULT_TIER,
    ) -> PendingPrediction:
        """Enqueue one query; returns a ticket resolved at the next flush.

        Cache hits resolve immediately; duplicate in-flight queries coalesce
        onto the same queue entry, so a batch full of repeats still costs one
        featurization and one predictor row.  The tier is folded into the
        cache key (alongside the model's ``cache_signature``), so a fast-tier
        answer can never be returned to an accurate-tier query or vice versa.
        """
        device_name = device if isinstance(device, str) else device.name
        tier = validate_tier(tier)
        with self._lock:
            model = self.model_for(device_name, tier=tier)
            key = program_cache_key(program, device_name, (tier, model.cache_signature))
            self.stats.queries += 1
            if tier == "fast":
                self.stats.fast_tier_queries += 1
            else:
                self.stats.accurate_tier_queries += 1

            ticket = PendingPrediction(self, key, device_name)
            cached = self.prediction_cache.get(key)
            if cached is not None:
                ticket._resolve(cached)
                return ticket

            entry = self._queue.get(key)
            if entry is not None:
                self.stats.coalesced += 1
                entry.tickets.append(ticket)
                return ticket

            self._queue[key] = _QueueEntry(
                program=program,
                device=device_name,
                model_id=id(model),
                tier=tier,
                tickets=[ticket],
            )
            if len(self._queue) >= self.max_batch_size:
                self.flush()
            return ticket

    # requires-lock: _lock
    def _predict_group(self, model: CostModel, queue, keys: List[CacheKey]) -> np.ndarray:
        """One vectorized backend call for every queued query of one model.

        Backends exposing the ``featurize_rows``/``predict_rows`` fast path
        go through the per-row feature cache; every other backend answers
        the group with one ``predict_programs`` call (featurizing
        internally).
        """
        if not hasattr(model, "featurize_rows"):
            self.stats.programs_featurized += len(keys)
            return model.predict_programs(
                [queue[key].program for key in keys],
                [queue[key].device for key in keys],
            )
        rows: List[object] = []
        missing: List[CacheKey] = []
        for key in keys:
            row = self.feature_cache.get(key)
            rows.append(row)  # placeholder None for misses, filled below
            if row is None:
                missing.append(key)
        if missing:
            featurized = model.featurize_rows(
                [queue[key].program for key in missing],
                [queue[key].device for key in missing],
            )
            self.stats.programs_featurized += len(missing)
            fresh = dict(zip(missing, featurized))
            for key, row in fresh.items():
                self.feature_cache.put(key, row)
            rows = [row if row is not None else fresh[key] for key, row in zip(keys, rows)]
        return model.predict_rows(rows, chunk_size=self.predict_chunk_size)

    def flush(self) -> int:
        """Run every queued query through its model in vectorized batches.

        Queries are grouped by owning model; each group is answered by a
        single backend call (mixed-device groups are featurized with one
        device per program).  Returns the number of distinct queue entries
        resolved.  A concurrent flush from another thread may resolve this
        thread's tickets first; both flushes still account every entry
        exactly once.
        """
        with self._lock:
            if not self._queue:
                return 0
            queue, self._queue = self._queue, OrderedDict()
            self.stats.flushes += 1

            groups: "OrderedDict[int, List[CacheKey]]" = OrderedDict()
            for key, entry in queue.items():
                groups.setdefault(entry.model_id, []).append(key)

            for keys in groups.values():
                head = queue[keys[0]]
                model = self.model_for(head.device, tier=head.tier)
                predictions = self._predict_group(model, queue, keys)
                self.stats.batches += 1
                self.stats.predictions_computed += len(keys)
                for key, value in zip(keys, predictions):
                    value = float(value)
                    self.prediction_cache.put(key, value)
                    for ticket in queue[key].tickets:
                        ticket._resolve(value)
            return len(queue)

    # ------------------------------------------------------------------
    # Synchronous convenience API
    # ------------------------------------------------------------------
    def predict(
        self,
        programs: Sequence[TensorProgram],
        device: Union[str, DeviceSpec],
        tier: str = DEFAULT_TIER,
    ) -> np.ndarray:
        """Latency (seconds) per program, in input order, via one batched pass."""
        tickets = [self.submit(program, device, tier=tier) for program in programs]
        self.flush()
        return np.asarray([ticket.result() for ticket in tickets], dtype=np.float64)

    def predict_program(
        self,
        program: TensorProgram,
        device: Union[str, DeviceSpec],
        tier: str = DEFAULT_TIER,
    ) -> float:
        """Latency (seconds) of one program (cache-accelerated)."""
        return float(self.predict([program], device, tier=tier)[0])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of distinct queries waiting for the next flush."""
        with self._lock:
            return len(self._queue)

    def describe_stats(self) -> Dict[str, object]:
        """All serving counters plus both cache summaries, as a plain dict."""
        with self._lock:
            return {
                **asdict(self.stats),
                "fast_devices": self.fast_devices,
                "feature_cache": self.feature_cache.stats(),
                "prediction_cache": self.prediction_cache.stats(),
            }

    def reset_stats(self) -> None:
        """Zero every counter (cache contents are kept)."""
        with self._lock:
            self.stats = ServingStats()
            self.feature_cache.reset_stats()
            self.prediction_cache.reset_stats()

    def __repr__(self) -> str:
        return (
            f"PredictionService(models={self.devices}, pending={self.pending}, "
            f"prediction_cache={self.prediction_cache!r})"
        )
