"""Persistent cache of schedule-search results, keyed by model signature.

Schedule search is the most expensive thing the serving stack does: one
:func:`repro.search.evolutionary_search` run scores hundreds of candidate
programs and measures dozens.  Its outcome only depends on (task, device,
cost model, search parameters), so the fleet tier caches results per
``(task_key, device, CostModel.cache_signature, params)`` and persists them
next to the checkpoints in the :class:`~repro.serving.registry.ModelRegistry`
(``<registry root>/search/*.json``) — a tuning survives process restarts.

``cache_signature`` alone cannot distinguish two *fitted states* of the same
architecture (a fine-tuned clone reports the same ``("cdmpp", max_leaves)``
as its parent), so entries are additionally tagged with the registry name
they were tuned against and the cache supports *active* invalidation:

- :meth:`invalidate_device` — a ``swap_model`` / ``onboard_device`` replaced
  what answers that device's queries; every tuning for the device is stale.
- :meth:`invalidate_model` — a checkpoint was re-registered or deleted;
  every tuning tagged with that registry name is stale, on any device.

Entries are JSON files written atomically (temp file + ``os.replace``), so a
concurrent reader never observes a torn entry.  Floats round-trip through
JSON bit-identically, which is what makes "cached re-tune returns the exact
same ``SearchResult``" an assertable contract rather than an approximation.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.devices.spec import DeviceSpec
from repro.search.ansor import SearchResult
from repro.utils.rng import stable_hash

PathLike = Union[str, Path]


def _device_name(device: Union[str, DeviceSpec]) -> str:
    return device.name if isinstance(device, DeviceSpec) else str(device)


def _signature_repr(signature: Sequence) -> str:
    return repr(tuple(signature))


def _params_repr(params: Dict) -> str:
    return repr(tuple(sorted((str(k), repr(v)) for k, v in params.items())))


@dataclass
class SearchCacheStats:
    """Counters for cache effectiveness and invalidation behaviour."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0


class SearchCache:
    """Thread-safe (task, device, signature, params) -> SearchResult cache.

    With a ``root`` directory the cache is disk-backed and shared across
    processes; without one it is purely in-memory (handy for tests and
    ad-hoc :class:`~repro.serving.search.SearchService` instances).
    """

    def __init__(self, root: Optional[PathLike] = None):
        self.root = Path(root) if root is not None else None
        self._lock = threading.RLock()
        # key -> entry payload (the same dict shape that lands on disk).
        self._entries: Dict[str, Dict] = {}  # guarded-by: _lock
        self._stats = SearchCacheStats()  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    @staticmethod
    def entry_key(
        task_key: str,
        device: Union[str, DeviceSpec],
        signature: Sequence,
        params: Dict,
    ) -> str:
        """Stable string key for one cached tuning."""
        return format(
            stable_hash(
                "search-cache",
                task_key,
                _device_name(device),
                _signature_repr(signature),
                _params_repr(params),
            ),
            "016x",
        )

    def _path_for(self, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    # Get / put
    # ------------------------------------------------------------------
    def get(
        self,
        task_key: str,
        device: Union[str, DeviceSpec],
        signature: Sequence,
        params: Dict,
    ) -> Optional[SearchResult]:
        """The cached result for this exact tuning, or ``None``."""
        key = self.entry_key(task_key, device, signature, params)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._read_disk(key)
                if entry is not None:
                    self._entries[key] = entry
            if entry is None:
                self._stats.misses += 1
                return None
            self._stats.hits += 1
            return SearchResult.from_dict(entry["result"])

    def put(
        self,
        task_key: str,
        device: Union[str, DeviceSpec],
        signature: Sequence,
        params: Dict,
        result: SearchResult,
        model_name: Optional[str] = None,
    ) -> None:
        """Record a finished tuning (overwrites any previous entry)."""
        key = self.entry_key(task_key, device, signature, params)
        entry = {
            "task_key": task_key,
            "device": _device_name(device),
            "signature": _signature_repr(signature),
            "params": _params_repr(params),
            "model_name": model_name,
            "result": result.to_dict(),
        }
        with self._lock:
            self._entries[key] = entry
            self._write_disk(key, entry)
            self._stats.puts += 1

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_device(self, device: Union[str, DeviceSpec]) -> int:
        """Drop every tuning for ``device``; returns how many were evicted."""
        name = _device_name(device)
        return self._evict(lambda entry: entry.get("device") == name)

    def invalidate_model(self, model_name: str) -> int:
        """Drop every tuning tagged with registry name ``model_name``."""
        return self._evict(lambda entry: entry.get("model_name") == model_name)

    def clear(self) -> int:
        """Drop everything; returns how many entries were evicted."""
        return self._evict(lambda entry: True)

    def _evict(self, predicate) -> int:
        with self._lock:
            self._load_all_disk()
            doomed = [key for key, entry in self._entries.items() if predicate(entry)]
            for key in doomed:
                del self._entries[key]
                path = self._path_for(key)
                if path is not None and path.exists():
                    path.unlink()
            self._stats.evictions += len(doomed)
            return len(doomed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            self._load_all_disk()
            return len(self._entries)

    def entries(self) -> List[Dict]:
        """Snapshot of all entry payloads (without the serialized results)."""
        with self._lock:
            self._load_all_disk()
            return [
                {k: v for k, v in entry.items() if k != "result"}
                for entry in self._entries.values()
            ]

    def describe_stats(self) -> Dict[str, int]:
        with self._lock:
            return asdict(self._stats)

    # ------------------------------------------------------------------
    # Disk backing
    # ------------------------------------------------------------------
    def _read_disk(self, key: str) -> Optional[Dict]:
        path = self._path_for(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def _write_disk(self, key: str, entry: Dict) -> None:
        path = self._path_for(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # requires-lock: _lock
    def _load_all_disk(self) -> None:
        """Pull any entries written by other processes into memory."""
        if self.root is None or not self.root.is_dir():
            return
        for path in self.root.glob("*.json"):
            key = path.stem
            if key in self._entries:
                continue
            entry = self._read_disk(key)
            if entry is not None:
                self._entries[key] = entry

    def __repr__(self) -> str:
        root = str(self.root) if self.root is not None else None
        return f"SearchCache(root={root!r}, entries={len(self)})"
