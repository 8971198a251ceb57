"""A thin Python client for the ``cdmpp`` serving daemon.

:class:`DaemonClient` speaks the line-delimited JSON protocol of
:mod:`repro.serving.protocol` over one TCP connection and exposes the
daemon's operations as methods.  Failures come back as
:class:`DaemonRequestError` carrying the wire error code, so callers can
distinguish backpressure (``overloaded`` — retry after
``error.retry_after_ms``) from a shed deadline (``deadline_exceeded``) or a
bad request.

The client tags every request with a monotonically increasing ``id`` and
matches responses by that id, buffering out-of-order arrivals — the daemon's
device shards answer independently, so pipelined responses may interleave.
A call that outlives ``timeout_s`` raises :class:`ServingError` naming its
request id; its late response is dropped on arrival, so the client stays
usable.  One client instance may be shared across threads (each call holds the
client lock for its full round-trip); for *concurrent* in-flight requests,
open one client per thread — connections are cheap.

Example::

    with DaemonClient("127.0.0.1", 7077) as client:
        result = client.query("bert_tiny", device="t4", deadline_ms=50)
        print(result["latency_s"])
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.errors import ServingError
from repro.serving.protocol import E_OVERLOADED, MessageStream


class DaemonRequestError(ServingError):
    """A request the daemon answered with an error payload.

    ``code`` is one of :data:`repro.serving.protocol.ERROR_CODES`;
    ``retry_after_ms`` is set for ``overloaded`` rejections.
    """

    def __init__(self, code: str, message: str, retry_after_ms: Optional[float] = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.retry_after_ms = retry_after_ms


class DaemonClient:
    """One TCP connection to a :class:`repro.serving.daemon.ServingDaemon`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7077, timeout_s: float = 60.0):
        sock = socket.create_connection((host, port), timeout=timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # requests are small writes
        self._stream = MessageStream(sock)
        self._lock = threading.Lock()
        self._next_id = 0  # guarded-by: _lock
        self._responses: Dict[Any, Dict[str, Any]] = {}  # guarded-by: _lock
        # Ids of timed-out calls; their late responses are dropped on arrival.
        self._abandoned: Set[Any] = set()  # guarded-by: _lock
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            request["id"] = request_id
            if not self._stream.send(request):
                raise ServingError("daemon connection is closed")
            while request_id not in self._responses:
                try:
                    response = self._stream.recv()
                except socket.timeout as error:
                    self._abandoned.add(request_id)
                    raise ServingError(
                        f"request {request_id} timed out after {self.timeout_s:g} s "
                        "waiting for the daemon"
                    ) from error
                if response is None:
                    raise ServingError("daemon closed the connection mid-request")
                response_id = response.get("id")
                if response_id in self._abandoned:
                    self._abandoned.discard(response_id)
                else:
                    self._responses[response_id] = response
            response = self._responses.pop(request_id)
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        raise DaemonRequestError(
            error.get("code", "internal"),
            error.get("message", "unknown daemon error"),
            retry_after_ms=response.get("retry_after_ms")
            if error.get("code") == E_OVERLOADED
            else None,
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def query(
        self,
        network: str,
        device: str,
        batch_size: int = 1,
        deadline_ms: Optional[float] = None,
        seed: Optional[int] = None,
        compose: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> Dict[str, Any]:
        """End-to-end latency of ``network`` on ``device``.

        Returns the response payload: ``latency_s``, ``serial_latency_s``,
        ``per_kernel_latency_s``, ``num_nodes``, ``num_unique_kernels``.
        ``tier`` selects ``"accurate"`` (the full model) or ``"fast"`` (the
        device's distilled student); None uses the daemon's default.
        """
        request: Dict[str, Any] = {
            "op": "query",
            "network": network,
            "device": device,
            "batch_size": batch_size,
        }
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        if seed is not None:
            request["seed"] = seed
        if compose is not None:
            request["compose"] = compose
        if tier is not None:
            request["tier"] = tier
        return self._call(request)

    def predict_model(
        self,
        network: str,
        devices: Optional[Sequence[str]] = None,
        batch_size: int = 1,
        deadline_ms: Optional[float] = None,
        seed: Optional[int] = None,
        compose: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Rank ``network`` across ``devices`` (default: all served devices).

        Returns per-device result dicts sorted fastest-first.  Devices that
        failed individually are reported under ``errors`` in the raw payload;
        use :meth:`predict_model_raw` to see them.
        """
        return self.predict_model_raw(
            network,
            devices=devices,
            batch_size=batch_size,
            deadline_ms=deadline_ms,
            seed=seed,
            compose=compose,
            tier=tier,
        )["results"]

    def predict_model_raw(
        self,
        network: str,
        devices: Optional[Sequence[str]] = None,
        batch_size: int = 1,
        deadline_ms: Optional[float] = None,
        seed: Optional[int] = None,
        compose: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Like :meth:`predict_model` but returns the full response payload."""
        request: Dict[str, Any] = {
            "op": "predict-model",
            "network": network,
            "batch_size": batch_size,
        }
        if devices is not None:
            request["devices"] = list(devices)
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        if seed is not None:
            request["seed"] = seed
        if compose is not None:
            request["compose"] = compose
        if tier is not None:
            request["tier"] = tier
        return self._call(request)

    def tune(
        self,
        network: str,
        devices: Optional[Sequence[str]] = None,
        batch_size: int = 1,
        rounds: Optional[int] = None,
        population: Optional[int] = None,
        measurements_per_round: Optional[int] = None,
        seed: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Schedule-search ``network`` on ``devices`` (default: all served).

        Returns one tuning dict per device: ``device``, ``tuned_latency_s``,
        per-task ``results`` and the ``cached_tasks``/``fresh_tasks`` split
        (a repeat tune of an unchanged model is fully cached and issues no
        new searches).  Use :meth:`tune_raw` to also see per-device errors.
        """
        return self.tune_raw(
            network,
            devices=devices,
            batch_size=batch_size,
            rounds=rounds,
            population=population,
            measurements_per_round=measurements_per_round,
            seed=seed,
            deadline_ms=deadline_ms,
        )["results"]

    def tune_raw(
        self,
        network: str,
        devices: Optional[Sequence[str]] = None,
        batch_size: int = 1,
        rounds: Optional[int] = None,
        population: Optional[int] = None,
        measurements_per_round: Optional[int] = None,
        seed: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Like :meth:`tune` but returns the full response payload."""
        request: Dict[str, Any] = {
            "op": "tune",
            "network": network,
            "batch_size": batch_size,
        }
        if devices is not None:
            request["devices"] = list(devices)
        if rounds is not None:
            request["rounds"] = rounds
        if population is not None:
            request["population"] = population
        if measurements_per_round is not None:
            request["measurements_per_round"] = measurements_per_round
        if seed is not None:
            request["seed"] = seed
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        return self._call(request)

    def stats(self) -> Dict[str, Any]:
        """Daemon counters plus per-shard serving statistics."""
        return self._call({"op": "stats"})

    def health(self) -> Dict[str, Any]:
        """Liveness probe: status, uptime, served devices, queue depth."""
        return self._call({"op": "health"})

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._stream.close()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"DaemonClient({self.host}:{self.port})"
