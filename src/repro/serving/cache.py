"""LRU caching for the prediction-serving path.

The dominant cost of answering a latency query is ``featurize_programs``
(Compact-AST extraction + positional encoding), followed by the predictor
forward pass.  The serving layer therefore caches at two levels:

* a **feature cache** holding the compact
  :class:`~repro.features.pipeline.FeatureRow` of a program (its real-leaf
  vectors and device features, unpadded), so a repeated query skips
  featurization entirely, and
* a **prediction cache** holding the final latency in seconds, so a repeated
  query skips the predictor forward pass too.

Both are keyed by :func:`program_cache_key`.  The issue-level key is
``(workload_key, device, cache_signature)`` where the signature identifies
the serving backend's feature space; because two *different* schedules of
the same task share a workload key (see ``CDMPP.predict_latencies``), the key
additionally folds in a stable fingerprint of the schedule so distinct
kernels never alias in the cache.

Both cache classes are **thread-safe**: every mutation (lookup bookkeeping,
insert, the eviction loop, shard creation) happens under an internal lock,
so the caches can be shared by the concurrent shard workers of
:class:`repro.serving.daemon.ServingDaemon` without torn counters or a
half-applied eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterator, Tuple, Union

from repro.devices.spec import DeviceSpec
from repro.tir.program import TensorProgram
from repro.utils.rng import stable_hash

CacheKey = Tuple[str, int, str, Hashable]

_MISSING = object()


def schedule_fingerprint(program: TensorProgram) -> int:
    """A stable fingerprint of a program's schedule steps.

    Schedule steps are frozen dataclasses with deterministic ``repr``, so the
    fingerprint is reproducible across processes (unlike ``hash``, which is
    randomized for strings).
    """
    return stable_hash(tuple(repr(step) for step in program.schedule.steps), bits=48)


def program_cache_key(
    program: TensorProgram,
    device: Union[str, DeviceSpec],
    signature: Hashable,
) -> CacheKey:
    """Cache key of one (program, device) query for one feature space.

    ``signature`` is the serving model's feature-space tag — historically the
    Compact-AST padding width (an ``int``, still accepted), today any
    hashable :attr:`repro.backends.CostModel.cache_signature` — so queries
    answered by different backends (or differently-padded CDMPP models)
    never alias in the cache.
    """
    device_name = device if isinstance(device, str) else device.name
    return (
        program.task.workload_key,
        schedule_fingerprint(program),
        device_name,
        signature,
    )


class LRUCache:
    """A size-bounded least-recently-used cache with hit/miss accounting.

    ``get`` refreshes recency; ``put`` evicts the least recently used entry
    once ``capacity`` is exceeded.  ``hits``/``misses``/``evictions`` feed the
    serving statistics surfaced by :class:`repro.serving.PredictionService`.

    All operations are atomic under an internal lock, including the eviction
    loop inside :meth:`put`, so concurrent readers can never observe a cache
    above capacity or lose a counter increment.
    """

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._entries))

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or a miss and refreshing recency."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key`` without touching recency or the hit/miss counters."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        """Drop every entry (counters are kept; use :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never queried)."""
        with self._lock:  # one consistent (hits, misses) snapshot
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters as a plain dict (for logging / the CLI stats line)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LRUCache(size={len(self._entries)}/{self.capacity}, "
                f"hits={self.hits}, misses={self.misses})"
            )


class DeviceShardedCache:
    """Per-device LRU shards behind the one cache interface the service uses.

    Serving cache keys (:func:`program_cache_key`) carry the device name in
    their third position; this cache routes every ``get``/``put`` to a
    dedicated :class:`LRUCache` shard for that device.  The point is
    *isolation*: retraining or hot-swapping one device's model invalidates
    only that device's shard (:meth:`invalidate_device`), leaving every other
    device's warm predictions untouched — the property
    :class:`repro.serving.fleet.FleetService` relies on.

    Shards are created on demand, each with ``capacity_per_device`` entries,
    so total capacity grows with the fleet instead of devices competing for
    one LRU.

    Shard creation and the shard table are guarded by a lock (two threads
    racing to create the same device's shard must end up sharing one), and
    per-entry operations inherit each shard's own atomicity; a device-wide
    :meth:`invalidate_device` drops the whole shard in one locked step.
    """

    def __init__(self, capacity_per_device: int = 16384):
        if capacity_per_device <= 0:
            raise ValueError(
                f"cache capacity must be positive, got {capacity_per_device}"
            )
        self.capacity_per_device = int(capacity_per_device)
        self._lock = threading.RLock()
        self._shards: "OrderedDict[str, LRUCache]" = OrderedDict()  # guarded-by: _lock

    @staticmethod
    def device_of(key: CacheKey) -> str:
        """The device component of a serving cache key."""
        return key[2]

    def shard(self, device: Union[str, DeviceSpec]) -> LRUCache:
        """The (lazily created) shard serving one device."""
        name = device if isinstance(device, str) else device.name
        with self._lock:
            cache = self._shards.get(name)
            if cache is None:
                cache = self._shards[name] = LRUCache(self.capacity_per_device)
            return cache

    @property
    def devices(self) -> Tuple[str, ...]:
        """Names of the devices that currently have a shard."""
        with self._lock:
            return tuple(self._shards)

    def _shards_snapshot(self) -> Tuple[LRUCache, ...]:
        with self._lock:
            return tuple(self._shards.values())

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards_snapshot())

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            shard = self._shards.get(self.device_of(key))
        return shard is not None and key in shard

    def get(self, key: CacheKey, default: Any = None) -> Any:
        """Look up ``key`` in its device's shard (counts a hit or miss there)."""
        return self.shard(self.device_of(key)).get(key, default)

    def peek(self, key: CacheKey, default: Any = None) -> Any:
        """Look up ``key`` without touching recency or counters."""
        with self._lock:
            shard = self._shards.get(self.device_of(key))
        return default if shard is None else shard.peek(key, default)

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert ``key`` into its device's shard."""
        self.shard(self.device_of(key)).put(key, value)

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            shard = self._shards.get(self.device_of(key))
        return shard is not None and shard.invalidate(key)

    def invalidate_device(self, device: Union[str, DeviceSpec]) -> int:
        """Drop every entry of one device's shard; returns how many were dropped.

        Other devices' shards — including their recency order and counters —
        are untouched.  The drop is atomic: a concurrent ``put`` lands either
        entirely before or entirely after it, never in a half-cleared shard.
        """
        name = device if isinstance(device, str) else device.name
        with self._lock:
            shard = self._shards.get(name)
        if shard is None:
            return 0
        with shard._lock:  # count + clear as one step
            dropped = len(shard._entries)
            shard._entries.clear()
        return dropped

    def clear(self) -> None:
        """Drop every entry of every shard (counters are kept)."""
        for shard in self._shards_snapshot():
            shard.clear()

    def reset_stats(self) -> None:
        """Zero the counters of every shard."""
        for shard in self._shards_snapshot():
            shard.reset_stats()

    @property
    def hits(self) -> int:
        """Hits summed over all shards."""
        return sum(shard.hits for shard in self._shards_snapshot())

    @property
    def misses(self) -> int:
        """Misses summed over all shards."""
        return sum(shard.misses for shard in self._shards_snapshot())

    @property
    def evictions(self) -> int:
        """Evictions summed over all shards."""
        return sum(shard.evictions for shard in self._shards_snapshot())

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from any shard (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Aggregate counters plus a per-device breakdown."""
        with self._lock:
            shards = dict(self._shards)
        return {
            "size": len(self),
            "capacity": self.capacity_per_device * max(len(shards), 1),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "devices": {name: shard.stats() for name, shard in shards.items()},
        }

    def __repr__(self) -> str:
        return (
            f"DeviceShardedCache(devices={list(self.devices)}, size={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
