"""The ``cdmpp`` serving daemon: concurrent, deadline-aware latency serving.

:class:`repro.serving.PredictionService` and :class:`FleetService` are
synchronous, one caller at a time.  :class:`ServingDaemon` turns them into a
long-running concurrent system — the tier adaptive optimizers and TLP-style
tuners actually call from many processes at once:

* **async request queue** — clients speak the line-delimited JSON protocol of
  :mod:`repro.serving.protocol` over TCP; every connection gets a reader
  thread that validates requests and routes them onto bounded per-device
  queues, returning immediately to read the next pipelined request;
* **work-conserving, deadline-aware micro-batching** — each device shard
  worker sleeps only while its queue is empty; once it wakes it serves
  everything queued (up to ``max_batch_size``) through one
  :meth:`FleetService.predict_model_batch` flush.  Requests that arrive
  while a batch runs form the next batch, so batches grow with load and an
  idle shard answers at once.  Requests carrying a ``deadline_ms`` are
  served first (earliest deadline first); a request whose deadline expires
  while queued is **shed** with ``deadline_exceeded`` instead of being
  answered late;
* **concurrent per-device shard workers** — one worker thread per served
  device, each owning a single-device :class:`FleetService` over that
  device's model, so distinct models predict in parallel and one slow
  device cannot stall another's queue;
* **admission control / backpressure** — the total number of queued requests
  is bounded by ``queue_limit``; beyond it new work is rejected immediately
  with an ``overloaded`` error and a ``retry_after_ms`` hint (503-style)
  rather than queued into unbounded latency;
* **graceful drain** — SIGTERM/SIGINT (or :meth:`stop`) stop admission,
  answer everything already queued, then close; clients never see a
  half-written response.

Answers equal in-process serving to a relative 1e-9: a shard worker runs
the very same partition → batch → compose path as a direct
``FleetService.predict_model`` call on the same model, and the JSON wire
format round-trips doubles exactly.  They are not always bit-identical: a
kernel's prediction depends on which other queries share its predictor
batch (BLAS sums in a batch-dependent order), so some answers differ in
the last bits.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.devices.spec import DeviceSpec, get_device
from repro.errors import ReproError, ServingError
from repro.graph.zoo import resolve_model_name
from repro.replay.e2e import COMPOSE_MODES
from repro.serving.fleet import FleetPrediction, FleetService
from repro.serving.protocol import (
    E_BAD_REQUEST,
    E_DEADLINE,
    E_INTERNAL,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    OPS,
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    error_payload,
    ok_payload,
)
from repro.serving.service import DEFAULT_TIER, ModelLike, validate_tier
from repro.version import __version__

import socket


@dataclass
class DaemonConfig:
    """Tunables of one :class:`ServingDaemon`.

    Batching is work-conserving: a shard serves as soon as it is free, and
    the requests that queued meanwhile form its next batch.
    ``max_batch_size`` caps how much work one flush may take; the rest waits
    for the next one.  See ``docs/daemon.md``.
    """

    host: str = "127.0.0.1"
    #: Port to bind; 0 asks the OS for an ephemeral port (see ``address``).
    port: int = 0
    #: Most requests one shard flush may take; the rest form the next batch.
    max_batch_size: int = 32
    #: Total queued requests across all shards; beyond it -> ``overloaded``.
    queue_limit: int = 256
    #: Hint returned with ``overloaded`` rejections.
    retry_after_ms: float = 50.0
    #: Deadline applied to requests that do not carry ``deadline_ms`` (None = no deadline).
    default_deadline_ms: Optional[float] = None
    #: How long :meth:`ServingDaemon.stop` waits for workers to drain.
    drain_timeout_s: float = 30.0
    #: Defaults a request may override per call.
    seed: int = 0
    compose: str = "replay"
    #: Tier answering requests that do not carry a ``tier`` field:
    #: ``accurate`` (the full model) or ``fast`` (the distilled student).
    tier: str = DEFAULT_TIER

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ServingError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.queue_limit <= 0:
            raise ServingError(f"queue_limit must be positive, got {self.queue_limit}")
        if self.compose not in COMPOSE_MODES:
            raise ServingError(
                f"unknown composition mode {self.compose!r}; expected one of {COMPOSE_MODES}"
            )
        self.tier = validate_tier(self.tier)


@dataclass
class DaemonStats:
    """Lifetime counters of one :class:`ServingDaemon` (guarded by its lock)."""

    connections: int = 0
    requests: int = 0
    queries: int = 0
    model_queries: int = 0
    tune_queries: int = 0
    health_checks: int = 0
    stats_requests: int = 0
    responses: int = 0
    batches: int = 0
    rejected_overloaded: int = 0
    shed_deadline: int = 0
    rejected_shutting_down: int = 0
    bad_requests: int = 0
    internal_errors: int = 0
    fast_tier_requests: int = 0
    accurate_tier_requests: int = 0


class _Fanout:
    """Collects the per-device answers of one fanned-out request.

    Used by ``predict-model`` (results sorted fastest-first) and ``tune``
    (results in completion order, each a :class:`ModelTuning` dict).
    """

    def __init__(
        self,
        daemon: "ServingDaemon",
        stream: MessageStream,
        request_id: Any,
        op: str,
        network: str,
        batch_size: int,
        expected: int,
        tier: str = DEFAULT_TIER,
    ):
        self._daemon = daemon
        self._stream = stream
        self._request_id = request_id
        self._op = op
        self._network = network
        self._batch_size = batch_size
        self._tier = tier
        self._lock = threading.Lock()
        self._remaining = expected  # guarded-by: _lock
        self._results: List[Any] = []  # guarded-by: _lock
        self._errors: Dict[str, Dict[str, str]] = {}  # guarded-by: _lock

    def add(self, result: Any) -> None:
        with self._lock:
            self._results.append(result)
            self._remaining -= 1
            # Build the response while still holding the lock: a sibling leg
            # finishing between the decrement and the read would otherwise
            # see a half-assembled result list.
            payload = self._payload() if self._remaining == 0 else None
        if payload is not None:
            self._daemon._send(self._stream, payload)

    def add_error(self, device: str, code: str, message: str) -> None:
        with self._lock:
            self._errors[device] = {"code": code, "message": message}
            self._remaining -= 1
            payload = self._payload() if self._remaining == 0 else None
        if payload is not None:
            self._daemon._send(self._stream, payload)

    # requires-lock: _lock
    def _result_fields(self) -> List[Dict[str, Any]]:
        if self._op == "tune":
            return [tuning.to_dict() for tuning in self._results]
        results = sorted(self._results, key=lambda p: p.predicted_latency_s)
        return [prediction_fields(p) for p in results]

    # requires-lock: _lock
    def _payload(self) -> Dict[str, Any]:
        if not self._results:
            first = next(iter(self._errors.values()))
            return error_payload(
                first["code"], first["message"], self._request_id, devices=self._errors
            )
        return ok_payload(
            self._request_id,
            op=self._op,
            network=self._network,
            batch_size=self._batch_size,
            tier=self._tier,
            results=self._result_fields(),
            errors=self._errors,
        )


def prediction_fields(prediction: FleetPrediction) -> Dict[str, Any]:
    """The wire fields of one answer (a query, or one device of a fanout)."""
    return {
        "network": prediction.model,
        "device": prediction.device,
        "latency_s": prediction.predicted_latency_s,
        "serial_latency_s": prediction.serial_latency_s,
        "per_kernel_latency_s": dict(prediction.per_kernel_latency_s),
        "num_nodes": prediction.num_nodes,
        "num_unique_kernels": prediction.num_unique_kernels,
        "compose": prediction.compose,
    }


class _WorkItem:
    """One routed request (or one device leg of a fanout) awaiting a batch."""

    __slots__ = (
        "op",
        "request_id",
        "stream",
        "network",
        "device",
        "batch_size",
        "seed",
        "compose",
        "tier",
        "deadline",
        "enqueued_at",
        "collector",
        "params",
    )

    def __init__(
        self,
        op: str,
        request_id: Any,
        stream: MessageStream,
        network: str,
        device: str,
        batch_size: int,
        seed: Union[int, str, None],
        compose: str,
        deadline: Optional[float],
        collector: Optional[_Fanout] = None,
        params: Optional[Dict[str, Any]] = None,
        tier: str = DEFAULT_TIER,
    ):
        self.op = op
        self.request_id = request_id
        self.stream = stream
        self.network = network
        self.device = device
        self.batch_size = batch_size
        self.seed = seed
        self.compose = compose
        self.tier = tier
        self.deadline = deadline  # absolute time.monotonic() instant, or None
        self.enqueued_at = time.monotonic()
        self.collector = collector
        self.params = params  # op-specific extras (tune: search budget)


class _ShardWorker(threading.Thread):
    """One device's queue + batching loop, over its own FleetService."""

    def __init__(
        self,
        daemon: "ServingDaemon",
        spec: DeviceSpec,
        model: ModelLike,
        model_name: Optional[str] = None,
        fast_model: Optional[ModelLike] = None,
    ):
        super().__init__(name=f"cdmpp-shard-{spec.name}", daemon=True)
        self.daemon_ref = daemon
        self.spec = spec
        self.model_name = model_name
        self.fleet = FleetService(
            {spec.name: model},
            max_batch_size=max(512, daemon.config.max_batch_size * 64),
            gap_s=daemon.gap_s,
            fast_models={spec.name: fast_model} if fast_model is not None else None,
        )
        self._search: Optional["SearchService"] = None
        self._cond = threading.Condition()
        self._items: deque = deque()  # guarded-by: _cond
        self._stop_requested = False  # guarded-by: _cond
        self._drain = True  # guarded-by: _cond

    @property
    def search(self) -> "SearchService":
        """This shard's schedule-search tier (built on first ``tune``).

        With a registry attached to the daemon the search cache is the
        registry's persistent one, so tunings survive daemon restarts and a
        checkpoint re-save/delete evicts them; only the owning shard thread
        touches the service, so lazy construction is race-free.
        """
        if self._search is None:
            from repro.serving.search import SearchService

            names = {self.spec.name: self.model_name} if self.model_name else None
            self._search = SearchService(
                self.fleet, registry=self.daemon_ref.registry, model_names=names
            )
        return self._search

    @property
    def has_fast_tier(self) -> bool:
        """Whether this shard can answer ``tier="fast"`` requests."""
        return bool(self.fleet.fast_devices)

    # -- queue side (called from connection reader threads) -------------
    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._items)

    def enqueue(self, item: _WorkItem) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def request_stop(self, drain: bool = True) -> None:
        with self._cond:
            self._stop_requested = True
            self._drain = drain
            self._cond.notify_all()

    # -- batching loop ---------------------------------------------------
    # requires-lock: _cond
    def _take_batch(self) -> Tuple[List[_WorkItem], List[_WorkItem]]:
        """Split the queue into (batch to serve, expired items to shed).

        Deadline-bearing items sort first (earliest deadline first), so a
        request about to expire is served ahead of patient FIFO traffic;
        the expired ones are therefore a prefix of that order.
        """
        items = sorted(
            self._items,
            key=lambda i: (i.deadline is None, i.deadline or 0.0, i.enqueued_at),
        )
        now = time.monotonic()
        expired = sum(1 for i in items if i.deadline is not None and i.deadline <= now)
        limit = expired + self.daemon_ref.config.max_batch_size
        self._items = deque(items[limit:])
        return items[expired:limit], items[:expired]

    def run(self) -> None:
        while True:
            with self._cond:
                while not self._items and not self._stop_requested:
                    self._cond.wait()
                if not self._items:
                    return  # stopped and fully drained
                if self._stop_requested and not self._drain:
                    leftovers, self._items = list(self._items), deque()
                else:
                    batch, shed = self._take_batch()
                    leftovers = None
            if leftovers is not None:
                for item in leftovers:
                    self.daemon_ref._fail_item(
                        item, E_SHUTTING_DOWN, "daemon is shutting down", counted="shutdown"
                    )
                return
            for item in shed:
                self.daemon_ref._fail_item(
                    item,
                    E_DEADLINE,
                    f"deadline expired after {1e3 * (time.monotonic() - item.enqueued_at):.1f}ms in queue",
                    counted="deadline",
                )
            if batch:
                self._process(batch)

    def _process(self, batch: List[_WorkItem]) -> None:
        # Tune requests run one at a time (each is a whole search, already
        # internally batched: its tasks are scored in lock step);
        # query/predict-model items batch as before.
        tune_items = [item for item in batch if item.op == "tune"]
        batch = [item for item in batch if item.op != "tune"]
        for item in tune_items:
            try:
                tuning = self.search.tune_model(
                    item.network,
                    devices=[self.spec],
                    batch_size=item.batch_size,
                    seed=item.seed,
                    **(item.params or {}),
                )[0]
            except ReproError as error:
                self.daemon_ref._fail_item(item, E_INTERNAL, str(error), counted="internal")
                continue
            self.daemon_ref._complete_tune(item, tuning)

        # One predict_model_batch per (seed, compose, tier) group: all kernel
        # queries of the group are answered by a single batched flush.
        groups: Dict[tuple, List[_WorkItem]] = {}
        for item in batch:
            groups.setdefault((repr(item.seed), item.compose, item.tier), []).append(item)
        for items in groups.values():
            try:
                predictions = self.fleet.predict_model_batch(
                    [(item.network, self.spec, item.batch_size) for item in items],
                    seed=items[0].seed,
                    compose=items[0].compose,
                    tier=items[0].tier,
                )
            except ReproError as error:
                for item in items:
                    self.daemon_ref._fail_item(item, E_INTERNAL, str(error), counted="internal")
                continue
            self.daemon_ref._count_batch()
            for item, prediction in zip(items, predictions):
                self.daemon_ref._complete_item(item, prediction)


class ServingDaemon:
    """A long-running TCP daemon serving latency queries for a device fleet.

    ``models`` maps device names to fitted cost models (any backend the
    serving tier accepts); alternatively pass one model plus ``devices`` to
    serve the same cross-device model everywhere.  Each device gets its own
    shard worker and single-device :class:`FleetService`, so distinct models
    predict concurrently while every shard keeps the full batch-and-cache
    serving semantics.

    Lifecycle::

        daemon = ServingDaemon({"t4": model}, DaemonConfig(port=0))
        daemon.start()                  # binds, spawns workers + acceptor
        host, port = daemon.address     # ephemeral port resolved here
        ...
        daemon.stop()                   # drain: answer queued work, then close

    ``serve_forever()`` blocks until :meth:`request_shutdown` (which the
    SIGTERM/SIGINT handlers installed by :meth:`install_signal_handlers`
    call), then drains and returns — the CLI's ``cdmpp daemon`` loop.
    """

    def __init__(
        self,
        models: Union[ModelLike, Mapping[str, ModelLike]],
        config: Optional[DaemonConfig] = None,
        devices: Optional[Sequence[str]] = None,
        gap_s: float = 2e-6,
        registry=None,
        model_names: Optional[Mapping[str, str]] = None,
        fast_models: Optional[Mapping[str, ModelLike]] = None,
    ):
        self.config = config or DaemonConfig()
        self.gap_s = float(gap_s)
        # Attach a ModelRegistry to persist tune-op search results in its
        # search cache (from_registry wires this up automatically).
        self.registry = registry
        model_names = dict(model_names or {})
        if not isinstance(models, Mapping):
            if not devices:
                raise ServingError(
                    "a single model needs devices=: ServingDaemon(model, devices=['t4', ...])"
                )
            models = {get_device(name).name: models for name in devices}
        elif devices is not None:
            raise ServingError("pass either a {device: model} mapping or devices=, not both")
        if not models:
            raise ServingError("ServingDaemon needs at least one device")
        # Optional per-device distilled students backing the fast tier;
        # devices without one refuse tier="fast" requests.
        fast_models = {
            get_device(name).name: model for name, model in (fast_models or {}).items()
        }
        for name in fast_models:
            if name not in {get_device(d).name for d in models}:
                raise ServingError(
                    f"fast model given for device {name!r}, which this daemon does not serve"
                )
        self._shards: Dict[str, _ShardWorker] = {}
        for name, model in models.items():
            spec = get_device(name)
            self._shards[spec.name] = _ShardWorker(
                self,
                spec,
                model,
                model_name=model_names.get(spec.name),
                fast_model=fast_models.get(spec.name),
            )
        self._stats_lock = threading.Lock()
        self.stats = DaemonStats()  # guarded-by: _stats_lock
        self._admission_lock = threading.Lock()
        self._streams_lock = threading.Lock()
        self._streams: "set[MessageStream]" = set()  # guarded-by: _streams_lock
        self._lifecycle_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None  # guarded-by: _lifecycle_lock
        self._accept_thread: Optional[threading.Thread] = None  # guarded-by: _lifecycle_lock
        self._started_at: Optional[float] = None  # guarded-by: _lifecycle_lock
        # Lifecycle flags are Events, not booleans: the accept loop, dispatch
        # path and health checks read them without taking _lifecycle_lock.
        self._accepting = threading.Event()
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_event = threading.Event()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_registry(
        cls,
        registry,
        names: Union[str, Mapping[str, str]],
        devices: Optional[Sequence[str]] = None,
        config: Optional[DaemonConfig] = None,
        fast_names: Optional[Mapping[str, str]] = None,
        **kwargs,
    ) -> "ServingDaemon":
        """Build a daemon from registry checkpoints (mirrors FleetService).

        ``names`` is a ``{device: checkpoint}`` mapping, or one checkpoint
        name combined with ``devices``; same-checkpoint devices share one
        in-memory model via ``ModelRegistry.load_shared``.  ``fast_names``
        optionally maps devices to distilled checkpoints backing the fast
        tier.
        """
        load = getattr(registry, "load_shared", registry.load)
        if fast_names:
            kwargs["fast_models"] = {
                get_device(device).name: load(name) for device, name in fast_names.items()
            }
        if isinstance(names, Mapping):
            if devices is not None:
                raise ServingError("pass either a {device: name} mapping or devices=, not both")
            model_names = {get_device(d).name: name for d, name in names.items()}
            return cls(
                {device: load(name) for device, name in names.items()},
                config,
                registry=registry,
                model_names=model_names,
                **kwargs,
            )
        if not devices:
            raise ServingError("one checkpoint name needs devices= to know what to serve")
        model = load(names)
        return cls(
            {get_device(d).name: model for d in devices},
            config,
            registry=registry,
            model_names={get_device(d).name: names for d in devices},
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingDaemon":
        """Bind the socket, start shard workers and the accept loop."""
        with self._lifecycle_lock:
            if self._started.is_set():
                raise ServingError("daemon already started")
            self._listener = socket.create_server(
                (self.config.host, self.config.port), backlog=128
            )
            self._accepting.set()
            self._started.set()
            self._started_at = time.monotonic()
            for worker in self._shards.values():
                worker.start()
            # The listener is handed over, not read under _lifecycle_lock: a
            # stop() right after start() holds that lock while it joins this
            # thread.
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                args=(self._listener,),
                name="cdmpp-accept",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); the OS-assigned port when port=0 was asked."""
        with self._lifecycle_lock:
            listener = self._listener
        if listener is None:
            raise ServingError("daemon not started")
        return listener.getsockname()[:2]

    @property
    def running(self) -> bool:
        """Whether the daemon is accepting new work."""
        return (
            self._started.is_set()
            and self._accepting.is_set()
            and not self._stopped.is_set()
        )

    @property
    def pending(self) -> int:
        """Requests currently queued across every shard."""
        return sum(worker.pending for worker in self._shards.values())

    @property
    def devices(self) -> List[str]:
        """Sorted device names this daemon serves."""
        return sorted(self._shards)

    @property
    def fast_devices(self) -> List[str]:
        """Sorted device names with a fast-tier (distilled) model."""
        return sorted(name for name, shard in self._shards.items() if shard.has_fast_tier)

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum, frame) -> None:  # pragma: no cover - exercised via CLI test
        self.request_shutdown()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to drain and stop (signal-handler safe)."""
        self._shutdown_event.set()

    def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown`, then drain and stop."""
        self._shutdown_event.wait()
        self.stop(drain=True)

    def stop(self, drain: bool = True) -> None:
        """Stop the daemon.

        With ``drain=True`` (the SIGTERM path) admission stops first, every
        already-queued request is answered, and only then are connections
        closed.  With ``drain=False`` queued requests are failed with
        ``shutting_down``.  Idempotent.
        """
        with self._lifecycle_lock:
            if not self._started.is_set() or self._stopped.is_set():
                return
            self._accepting.clear()
            if self._listener is not None:
                # close() alone does not wake the accept thread blocked in
                # accept(); shutdown() does, so the join below is immediate.
                try:
                    self._listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    self._listener.close()
                except OSError:
                    pass
            for worker in self._shards.values():
                worker.request_stop(drain=drain)
            deadline = time.monotonic() + self.config.drain_timeout_s
            for worker in self._shards.values():
                worker.join(timeout=max(0.0, deadline - time.monotonic()))
            if self._accept_thread is not None:
                self._accept_thread.join(timeout=1.0)
            with self._streams_lock:
                streams = list(self._streams)
                self._streams.clear()
            for stream in streams:
                stream.close()
            self._stopped.set()
            self._shutdown_event.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        while self._accepting.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break  # listener closed by stop()
            # Answers are single small writes; without this, Nagle's algorithm
            # can hold one until the client's delayed ACK.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = MessageStream(conn)
            with self._streams_lock:
                self._streams.add(stream)
            with self._stats_lock:
                self.stats.connections += 1
            threading.Thread(
                target=self._client_loop, args=(stream,), name="cdmpp-conn", daemon=True
            ).start()

    def _client_loop(self, stream: MessageStream) -> None:
        try:
            while True:
                try:
                    message = stream.recv()
                except ProtocolError as error:
                    with self._stats_lock:
                        self.stats.bad_requests += 1
                    stream.send(error_payload(E_BAD_REQUEST, str(error)))
                    return
                if message is None:
                    return
                self._dispatch(message, stream)
        finally:
            with self._streams_lock:
                self._streams.discard(stream)
            stream.close()

    def _send(self, stream: MessageStream, payload: Dict[str, Any]) -> None:
        try:
            sent = stream.send(payload)
        except ValueError as error:  # NaN or Infinity: not standard JSON
            with self._stats_lock:
                self.stats.internal_errors += 1
            message = f"response is not encodable: {error}"
            sent = stream.send(error_payload(E_INTERNAL, message, payload.get("id")))
        if sent:
            with self._stats_lock:
                self.stats.responses += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, message: Dict[str, Any], stream: MessageStream) -> None:
        request_id = message.get("id")
        with self._stats_lock:
            self.stats.requests += 1
        op = message.get("op")
        if op not in OPS:
            with self._stats_lock:
                self.stats.bad_requests += 1
            self._send(
                stream,
                error_payload(
                    E_BAD_REQUEST, f"unknown op {op!r}; expected one of {OPS}", request_id
                ),
            )
            return
        if op == "health":
            with self._stats_lock:
                self.stats.health_checks += 1
            self._send(stream, self._health_payload(request_id))
            return
        if op == "stats":
            with self._stats_lock:
                self.stats.stats_requests += 1
            self._send(stream, self._stats_payload(request_id))
            return
        if not self._accepting.is_set():
            with self._stats_lock:
                self.stats.rejected_shutting_down += 1
            self._send(
                stream,
                error_payload(E_SHUTTING_DOWN, "daemon is shutting down", request_id),
            )
            return
        try:
            network, batch_size, seed, compose, tier, deadline = self._parse_query_common(
                message
            )
            params = self._parse_tune_params(message) if op == "tune" else None
            if op == "tune" and tier != "accurate":
                raise ServingError(
                    "tune requests are accurate-tier only (a search guided by the "
                    "distilled student would tune toward its approximation error)"
                )
            if op == "query":
                specs = [self._served_device(message.get("device"))]
            else:
                requested = message.get("devices")
                if requested is None:
                    specs = [self._shards[name].spec for name in self.devices]
                elif not isinstance(requested, (list, tuple)) or not requested:
                    raise ServingError("'devices' must be a non-empty list of device names")
                else:
                    specs, seen = [], set()
                    for name in requested:
                        spec = self._served_device(name)
                        if spec.name not in seen:
                            seen.add(spec.name)
                            specs.append(spec)
            if tier == "fast":
                unservable = [s.name for s in specs if not self._shards[s.name].has_fast_tier]
                if unservable:
                    raise ServingError(
                        f"no fast-tier model for device(s) {', '.join(unservable)} "
                        f"(fast devices: {', '.join(self.fast_devices) or 'none'}); "
                        "start the daemon with distilled checkpoints or query "
                        "tier='accurate'"
                    )
        except (ReproError, KeyError, TypeError, ValueError) as error:
            with self._stats_lock:
                self.stats.bad_requests += 1
            self._send(stream, error_payload(E_BAD_REQUEST, str(error), request_id))
            return

        # Admission control: the whole fanout is admitted or rejected as one.
        with self._admission_lock:
            if self.pending + len(specs) > self.config.queue_limit:
                admitted = False
            else:
                admitted = True
                collector = (
                    _Fanout(
                        self, stream, request_id, op, network, batch_size, len(specs), tier
                    )
                    if op in ("predict-model", "tune")
                    else None
                )
                for spec in specs:
                    item = _WorkItem(
                        op,
                        request_id,
                        stream,
                        network,
                        spec.name,
                        batch_size,
                        seed,
                        compose,
                        deadline,
                        collector,
                        params=params,
                        tier=tier,
                    )
                    self._shards[spec.name].enqueue(item)
        if not admitted:
            with self._stats_lock:
                self.stats.rejected_overloaded += 1
            self._send(
                stream,
                error_payload(
                    E_OVERLOADED,
                    f"daemon is saturated ({self.config.queue_limit} requests queued)",
                    request_id,
                    retry_after_ms=self.config.retry_after_ms,
                ),
            )
            return
        with self._stats_lock:
            if op == "query":
                self.stats.queries += 1
            elif op == "tune":
                self.stats.tune_queries += 1
            else:
                self.stats.model_queries += 1
            if tier == "fast":
                self.stats.fast_tier_requests += 1
            else:
                self.stats.accurate_tier_requests += 1

    def _parse_query_common(self, message: Dict[str, Any]):
        network = resolve_model_name(str(message["network"]))
        batch_size = int(message.get("batch_size", 1))
        if batch_size <= 0:
            raise ServingError(f"batch_size must be positive, got {batch_size}")
        seed = message.get("seed", self.config.seed)
        compose = message.get("compose", self.config.compose)
        if compose not in COMPOSE_MODES:
            raise ServingError(
                f"unknown composition mode {compose!r}; expected one of {COMPOSE_MODES}"
            )
        tier = validate_tier(message.get("tier", self.config.tier))
        deadline_ms = message.get("deadline_ms", self.config.default_deadline_ms)
        deadline = None
        if deadline_ms is not None:
            deadline = time.monotonic() + float(deadline_ms) / 1000.0
        return network, batch_size, seed, compose, tier, deadline

    def _parse_tune_params(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Search-budget fields of a ``tune`` request (omitted = defaults)."""
        from repro.serving import search as search_mod

        params = {
            "num_rounds": int(message.get("rounds", search_mod.DEFAULT_NUM_ROUNDS)),
            "population": int(message.get("population", search_mod.DEFAULT_POPULATION)),
            "measurements_per_round": int(
                message.get(
                    "measurements_per_round", search_mod.DEFAULT_MEASUREMENTS_PER_ROUND
                )
            ),
        }
        for field_name, value in params.items():
            if value <= 0:
                raise ServingError(f"{field_name} must be positive, got {value}")
        return params

    def _served_device(self, name: Any) -> DeviceSpec:
        if not name:
            raise ServingError(
                f"request needs a 'device'; this daemon serves: {', '.join(self.devices)}"
            )
        spec = get_device(str(name))
        if spec.name not in self._shards:
            raise ServingError(
                f"device {spec.name!r} is not served by this daemon "
                f"(devices: {', '.join(self.devices)})"
            )
        return spec

    # ------------------------------------------------------------------
    # Worker callbacks
    # ------------------------------------------------------------------
    def _complete_item(self, item: _WorkItem, prediction: FleetPrediction) -> None:
        if item.collector is not None:
            item.collector.add(prediction)
            return
        self._send(
            item.stream,
            ok_payload(
                item.request_id,
                op="query",
                batch_size=item.batch_size,
                tier=item.tier,
                **prediction_fields(prediction),
            ),
        )

    def _complete_tune(self, item: _WorkItem, tuning) -> None:
        if item.collector is not None:
            item.collector.add(tuning)
            return
        self._send(
            item.stream,
            ok_payload(
                item.request_id,
                op="tune",
                network=item.network,
                batch_size=item.batch_size,
                results=[tuning.to_dict()],
                errors={},
            ),
        )

    def _fail_item(self, item: _WorkItem, code: str, message: str, counted: str) -> None:
        with self._stats_lock:
            if counted == "deadline":
                self.stats.shed_deadline += 1
            elif counted == "shutdown":
                self.stats.rejected_shutting_down += 1
            elif counted == "internal":
                self.stats.internal_errors += 1
        if item.collector is not None:
            item.collector.add_error(item.device, code, message)
            return
        self._send(item.stream, error_payload(code, message, item.request_id))

    def _count_batch(self) -> None:
        with self._stats_lock:
            self.stats.batches += 1

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------
    def _uptime_s(self) -> float:
        with self._lifecycle_lock:
            started_at = self._started_at
        return (time.monotonic() - started_at) if started_at else 0.0

    def _health_payload(self, request_id: Any) -> Dict[str, Any]:
        return ok_payload(
            request_id,
            op="health",
            status="serving" if self._accepting.is_set() else "draining",
            protocol=PROTOCOL_VERSION,
            version=__version__,
            devices=self.devices,
            fast_devices=self.fast_devices,
            pending=self.pending,
            uptime_s=self._uptime_s(),
        )

    def _stats_payload(self, request_id: Any) -> Dict[str, Any]:
        with self._stats_lock:
            daemon: Dict[str, Any] = asdict(self.stats)
        daemon["pending"] = self.pending
        daemon["uptime_s"] = self._uptime_s()
        shards = {}
        for name, worker in self._shards.items():
            shard_stats = worker.fleet.describe_stats()
            if worker._search is not None:
                shard_stats["search"] = worker._search.describe_stats()
            shards[name] = shard_stats
        return ok_payload(request_id, op="stats", daemon=daemon, shards=shards)

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServingDaemon":
        return self.start() if not self._started.is_set() else self

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    def __repr__(self) -> str:
        stopped = self._stopped.is_set()
        state = "running" if self.running else ("stopped" if stopped else "new")
        addr = ""
        if self._started.is_set() and not stopped:
            try:
                host, port = self.address
                addr = f", address={host}:{port}"
            except (ServingError, OSError):
                pass
        return f"ServingDaemon(devices={self.devices}, state={state}{addr})"
