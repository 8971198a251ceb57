"""Per-layer metrics of a traced run.

Spans come from ``traced_daemon.py``; counts come from the daemon's
``stats`` op, taken just before and just after the timed phases, so the
warm-up and the untimed quality pass are left out.  A layer with no spans
in the window (search on serve-warm, say) reports 0.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import benchmath

US, MS = 1e6, 1e3

# Mean per timed request of each stage of its blocking path: generator
# lateness, send to the daemon's socket read (loopback, thread wake-up,
# GIL), read to dispatch (frame decode), dispatch to batch start (admission
# and queue), batch start to reply (featurize, infer, compose), and reply
# to the generator's receipt (encode, write, wake-up).
PATH_STAGES = (
    "path.late_ms",
    "path.wire_in_ms",
    "path.decode_ms",
    "path.queue_ms",
    "path.batch_ms",
    "path.reply_ms",
)

LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.registry_load_s": "s",
    "setup.daemon_start_s": "s",
    "protocol.encode_us": "us",
    "protocol.recv_us": "us",
    "protocol.response_bytes": "bytes",
    "protocol.stalled_response_share": "share",
    "daemon.requests_per_batch": "count",
    "daemon.batch_busy_ms": "ms",
    "daemon.queue_wait_ms": "ms",
    "daemon.rejected_overloaded": "count",
    "daemon.shed_deadline": "count",
    "daemon.internal_errors": "count",
    "fleet.partition_ms": "ms",
    "fleet.partition_cache_hit_share": "share",
    "fleet.compose_ms": "ms",
    "service.flush_ms": "ms",
    "service.rows_per_flush": "count",
    "cache.prediction_hit_share": "share",
    "cache.feature_hit_share": "share",
    "cache.evictions": "count",
    "backend.featurize_rows_us_per_row": "us",
    "backend.row_assembly_us_per_row": "us",
    "features.compact_ast_us": "us",
    "core.predict_us_per_row": "us",
    "core.rows_per_call": "count",
    "search.random_schedule_us": "us",
    "search.lower_us": "us",
    "search.score_ms_per_round": "ms",
    "search.measure_us": "us",
    "search.programs_scored": "count",
    "search.cache_hit_share": "share",
    **{name: "ms" for name in PATH_STAGES},
    "loadgen.late_ms_p99": "ms",
    "loadgen.late_ms_max": "ms",
    "share.featurize_predict": "share",
    "share.protocol": "share",
    "trace.accounted_share": "share",
    "trace.overhead_share": "share",
}

Span = Tuple[int, Any, str, float, float, int, Any]


class Layers:
    """Count, busy time and self time per span name within a time window."""

    def __init__(self, spans: List[Span], window: Tuple[float, float]):
        lo, hi = window
        self.spans = [s for s in spans if lo <= s[3] and s[4] <= hi]
        selfs = benchmath.self_times([(s[0], s[1], s[3], s[4]) for s in spans])
        self.count: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.self: Dict[str, float] = {}
        self.batch: Dict[str, float] = {}
        for span_id, _, name, start, end, _, size in self.spans:
            self.count[name] = self.count.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + (end - start)
            self.self[name] = self.self.get(name, 0.0) + selfs[span_id]
            if size is not None:
                self.batch[name] = self.batch.get(name, 0.0) + size

    def mean(self, name: str, scale: float) -> float:
        return scale * self.busy.get(name, 0.0) / self.count[name] if self.count.get(name) else 0.0

    def per_unit(self, name: str, unit_name: str, scale: float) -> float:
        units = self.batch.get(unit_name, 0.0)
        return scale * self.busy.get(name, 0.0) / units if units else 0.0

    def mean_batch(self, name: str) -> float:
        return self.batch.get(name, 0.0) / self.count[name] if self.count.get(name) else 0.0

    def table(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "count": self.count[name],
                "busy_ms": MS * self.busy[name],
                "self_ms": MS * self.self[name],
            }
            for name in sorted(self.count)
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _first_seen(samples: List[Tuple[float, float, Any]]) -> Dict[Any, float]:
    """Per key, the value of its first sample."""
    seen: Dict[Any, float] = {}
    for _, value, key in samples:
        seen.setdefault(key, value)
    return seen


def _shard_totals(stats: Dict[str, Any]) -> Dict[str, float]:
    totals: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for shard in stats["shards"].values():
        add("partitions", shard["partitions"])
        add("partition_cache_hits", shard["partition_cache_hits"])
        kernels = shard["kernel_service"]
        for cache in ("prediction_cache", "feature_cache"):
            for field in ("hits", "misses", "evictions"):
                add(f"{cache}.{field}", kernels[cache][field])
        search = shard.get("search")
        if search:
            add("programs_scored", search["programs_scored"])
            add("search.hits", search["search_cache"]["hits"])
            add("search.misses", search["search_cache"]["misses"])
    for field in ("rejected_overloaded", "shed_deadline", "internal_errors"):
        add(field, stats["daemon"][field])
    return totals


def layer_metrics(
    traced: Dict[str, Any],
    workload: str,
    untraced_records: List[Any],
    untraced_e2e: Dict[str, float],
    traced_e2e: Dict[str, float],
    stalled_share: Callable,
) -> Dict[str, float]:
    trace = traced["trace"]
    window = traced["window"]
    layers = Layers([tuple(s) for s in trace["spans"]], window)
    before, after = (_shard_totals(s) for s in traced["stats"])
    delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}
    samples = trace["samples"]
    waits = [v for t, v, _ in samples.get("daemon.queue_wait", []) if window[0] <= t <= window[1]]

    setup_spans = [s for s in trace["spans"] if s[2].startswith("setup.")]
    setup = Layers([tuple(s) for s in setup_spans], (float("-inf"), float("inf")))
    # load_shared calls load: count only the outermost registry span.
    loads = {s[0] for s in setup.spans if s[2] == "setup.registry_load"}
    records = traced["records"]
    timed = [r for r in records if r.phase in ("open", "tune")]
    late = benchmath.lateness([r.due for r in timed], [r.sent for r in timed]) or [0.0]

    batch_busy = layers.busy.get("daemon.batch", 0.0)
    scoring = sum(
        layers.self.get(name, 0.0)
        for name in ("backend.featurize_rows", "backend.row_assembly", "features.compact_ast", "core.predict")
    )
    protocol = layers.busy.get("protocol.send", 0.0) + layers.busy.get("protocol.recv", 0.0)
    # The blocking path of each timed request, split at the points the
    # generator and the traced daemon recorded; the stages add up to its
    # open-loop latency.
    timed_phase = "tune" if workload == "tune-cold" else "open"
    points = {
        name: _first_seen(samples.get(f"daemon.{name}", []))
        for name in ("read", "received", "reply_started")
    }
    batch_start: Dict[Any, float] = {}
    for t, _, key in samples.get("daemon.queue_wait", []):
        batch_start[key] = max(t, batch_start.get(key, t))  # the last device leg
    paths = []
    for r in records:
        key = r.request["id"]  # the id on the wire (run.py renumbers records)
        if r.ok and r.phase == timed_phase:
            paths.append(benchmath.path_stages([
                r.due, r.sent, points["read"].get(key), points["received"].get(key),
                batch_start.get(key), points["reply_started"].get(key), r.arrived,
            ]))
    path_ms = [MS * sum(column) / len(paths) for column in zip(*paths)]
    path_ms = path_ms or [0.0] * len(PATH_STAGES)
    untraced = [r.arrived - r.due for r in untraced_records if r.ok and r.phase == timed_phase]
    untraced_ms = MS * sum(untraced) / len(untraced) if untraced else 0.0

    metrics = {
        "setup.import_s": trace["import_s"],
        "setup.registry_load_s": sum(
            end - start
            for _, parent, name, start, end, _, _ in setup.spans
            if name == "setup.registry_load" and parent not in loads
        ),
        "setup.daemon_start_s": setup.busy.get("setup.daemon_start", 0.0),
        "protocol.encode_us": layers.mean("protocol.encode", US),
        "protocol.recv_us": layers.mean("protocol.recv", US),
        "protocol.response_bytes": layers.mean_batch("protocol.encode"),
        "protocol.stalled_response_share": stalled_share(records),
        "daemon.requests_per_batch": layers.mean_batch("daemon.batch"),
        "daemon.batch_busy_ms": layers.mean("daemon.batch", MS),
        "daemon.queue_wait_ms": MS * sum(waits) / len(waits) if waits else 0.0,
        "daemon.rejected_overloaded": delta.get("rejected_overloaded", 0.0),
        "daemon.shed_deadline": delta.get("shed_deadline", 0.0),
        "daemon.internal_errors": delta.get("internal_errors", 0.0),
        "fleet.partition_ms": layers.mean("fleet.partition", MS),
        "fleet.partition_cache_hit_share": _ratio(
            delta.get("partition_cache_hits", 0.0),
            delta.get("partition_cache_hits", 0.0) + delta.get("partitions", 0.0),
        ),
        "fleet.compose_ms": layers.mean("fleet.compose", MS),
        "service.flush_ms": layers.mean("service.flush", MS),
        "service.rows_per_flush": layers.mean_batch("service.flush"),
        "cache.prediction_hit_share": _ratio(
            delta.get("prediction_cache.hits", 0.0),
            delta.get("prediction_cache.hits", 0.0) + delta.get("prediction_cache.misses", 0.0),
        ),
        "cache.feature_hit_share": _ratio(
            delta.get("feature_cache.hits", 0.0),
            delta.get("feature_cache.hits", 0.0) + delta.get("feature_cache.misses", 0.0),
        ),
        "cache.evictions": delta.get("prediction_cache.evictions", 0.0)
        + delta.get("feature_cache.evictions", 0.0),
        "backend.featurize_rows_us_per_row": layers.per_unit(
            "backend.featurize_rows", "backend.featurize_rows", US
        ),
        "backend.row_assembly_us_per_row": layers.per_unit(
            "backend.row_assembly", "core.predict", US
        ),
        "features.compact_ast_us": layers.mean("features.compact_ast", US),
        "core.predict_us_per_row": layers.per_unit("core.predict", "core.predict", US),
        "core.rows_per_call": layers.mean_batch("core.predict"),
        "search.random_schedule_us": layers.mean("search.random_schedule", US),
        "search.lower_us": layers.mean("search.lower", US),
        "search.score_ms_per_round": layers.mean("search.score", MS),
        "search.measure_us": layers.mean("search.measure", US),
        "search.programs_scored": delta.get("programs_scored", 0.0),
        "search.cache_hit_share": _ratio(
            delta.get("search.hits", 0.0),
            delta.get("search.hits", 0.0) + delta.get("search.misses", 0.0),
        ),
        "loadgen.late_ms_p99": MS * benchmath.percentile(late, 99),
        "loadgen.late_ms_max": MS * max(late),
        "share.featurize_predict": _ratio(scoring, batch_busy),
        "share.protocol": _ratio(protocol, batch_busy + protocol),
        **dict(zip(PATH_STAGES, path_ms)),
        "trace.accounted_share": _ratio(sum(path_ms), untraced_ms),
        "trace.overhead_share": 1.0 - _ratio(
            traced_e2e["candidates_per_cpu_s"], untraced_e2e["candidates_per_cpu_s"]
        ),
    }
    traced["layer_table"] = layers.table()
    return metrics
