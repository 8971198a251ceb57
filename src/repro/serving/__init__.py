"""Prediction serving: batched, cached, registry-backed latency queries.

The serving layer is the "query many" half of the paper's train-once /
query-many workflow: :class:`ModelRegistry` persists trained cost models,
:class:`PredictionService` answers program-level latency queries by
micro-batching them into vectorized predictor calls behind an LRU
feature/prediction cache, and :class:`FleetService` layers the graph-level
tier on top — partition a model into kernels, batch the kernel queries of a
whole device fleet into one flush, and compose per-device end-to-end
estimates (see :mod:`repro.serving.fleet`).  Whole-model answers are served
by :class:`FleetService` alone, for one device or many.

On top of the in-process tiers sits the network tier:
:class:`ServingDaemon` wraps a fleet behind an async TCP request queue with
deadline-aware micro-batching, per-device shard workers, admission control
and graceful drain (see :mod:`repro.serving.daemon`), speaking the
line-delimited JSON protocol of :mod:`repro.serving.protocol`;
:class:`DaemonClient` is the matching Python client.
"""

from repro.serving.cache import (
    DeviceShardedCache,
    LRUCache,
    program_cache_key,
    schedule_fingerprint,
)
from repro.serving.client import DaemonClient, DaemonRequestError
from repro.serving.daemon import DaemonConfig, DaemonStats, ServingDaemon
from repro.serving.fleet import FleetPrediction, FleetService, FleetStats
from repro.serving.protocol import PROTOCOL_VERSION, MessageStream, ProtocolError
from repro.serving.registry import ModelRegistry, default_registry_root
from repro.serving.search import ModelTuning, SearchService, SearchServiceStats
from repro.serving.search_cache import SearchCache, SearchCacheStats
from repro.serving.service import (
    DEFAULT_TIER,
    TIERS,
    PendingPrediction,
    PredictionService,
    ServingStats,
    validate_tier,
)

__all__ = [
    "DEFAULT_TIER",
    "DaemonClient",
    "DaemonConfig",
    "DaemonRequestError",
    "DaemonStats",
    "DeviceShardedCache",
    "FleetPrediction",
    "FleetService",
    "FleetStats",
    "LRUCache",
    "MessageStream",
    "ModelRegistry",
    "ModelTuning",
    "PROTOCOL_VERSION",
    "PendingPrediction",
    "PredictionService",
    "ProtocolError",
    "SearchCache",
    "SearchCacheStats",
    "SearchService",
    "SearchServiceStats",
    "ServingDaemon",
    "ServingStats",
    "TIERS",
    "default_registry_root",
    "program_cache_key",
    "schedule_fingerprint",
    "validate_tier",
]
