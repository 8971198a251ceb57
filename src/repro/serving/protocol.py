"""Wire protocol of the ``cdmpp daemon``: line-delimited JSON over TCP.

Every message — request or response — is one JSON object serialized on a
single line and terminated by ``\\n``.  The protocol is deliberately tiny and
language-agnostic: any client that can open a socket and speak JSON can query
the daemon (``printf '{"op": "health"}\\n' | nc host port`` works).

Requests
--------

``{"op": <op>, "id": <any>, ...}`` where ``op`` is one of:

* ``query`` — end-to-end latency of one network on one device::

      {"op": "query", "network": "bert_tiny", "device": "t4",
       "batch_size": 1, "deadline_ms": 50, "seed": 0, "tier": "accurate"}

* ``predict-model`` — one network ranked across several devices (default:
  every device the daemon serves)::

      {"op": "predict-model", "network": "resnet50", "devices": ["t4", "k80"],
       "tier": "fast"}

* ``tune`` — cost-model-guided schedule search for one network on one or
  more devices (default: every device the daemon serves), answered from the
  daemon's persistent search cache when the exact tuning is already known::

      {"op": "tune", "network": "bert_tiny", "devices": ["t4"],
       "rounds": 6, "population": 12, "measurements_per_round": 3, "seed": 0}

* ``stats`` — daemon + per-shard serving counters.
* ``health`` — liveness probe: status, uptime, served devices, queue depth.

``id`` is optional and echoed verbatim on the response so clients may
pipeline requests on one connection; responses are **not** guaranteed to
come back in request order (different device shards answer independently).

``tier`` (``query``/``predict-model`` only) selects the serving tier:
``"accurate"`` answers from the full model, ``"fast"`` from the device's
distilled student — a ``bad_request`` error if the daemon has no fast-tier
model for the device.  Omitted, it falls back to the daemon's configured
default (``accurate`` unless started otherwise).  Responses echo the tier
that answered.  ``tune`` is accurate-tier only.

Responses
---------

``{"ok": true, "id": ..., ...payload...}`` on success, or on failure::

    {"ok": false, "id": ..., "error": {"code": <code>, "message": <text>},
     "retry_after_ms": <number, only for "overloaded">}

Error codes (the HTTP analogy is documented, not wire-visible):

* ``bad_request`` — malformed JSON (``NaN`` and ``Infinity`` included: the
  wire carries standard JSON only) / unknown op / unknown network or device
  (HTTP 400).
* ``overloaded`` — admission control rejected the request because the
  daemon's bounded queue is full; retry after ``retry_after_ms`` (HTTP 503).
* ``deadline_exceeded`` — the request's deadline expired while it waited in
  the queue, so it was shed instead of answered late (HTTP 504).
* ``shutting_down`` — the daemon is draining after SIGTERM and accepts no
  new work (HTTP 503).
* ``internal`` — unexpected server-side failure, such as an answer that
  holds NaN or Infinity and so cannot be encoded (HTTP 500).
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, Optional

from repro.errors import ServingError

#: Protocol revision, reported by ``health``; bump on breaking wire changes.
PROTOCOL_VERSION = 1

OPS = ("query", "predict-model", "tune", "stats", "health")

E_BAD_REQUEST = "bad_request"
E_OVERLOADED = "overloaded"
E_DEADLINE = "deadline_exceeded"
E_SHUTTING_DOWN = "shutting_down"
E_INTERNAL = "internal"

ERROR_CODES = (E_BAD_REQUEST, E_OVERLOADED, E_DEADLINE, E_SHUTTING_DOWN, E_INTERNAL)

_MAX_LINE_BYTES = 1 << 20  # one message may not exceed 1 MiB


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize one message as a compact single-line JSON record.

    Raises ``ValueError`` on NaN or Infinity, which standard JSON cannot carry.
    """
    data = json.dumps(message, separators=(",", ":"), sort_keys=True, allow_nan=False)
    return data.encode() + b"\n"


def error_payload(
    code: str,
    message: str,
    request_id: Any = None,
    **extra: Any,
) -> Dict[str, Any]:
    """A failure response envelope (see the module docstring for codes)."""
    payload: Dict[str, Any] = {"ok": False, "error": {"code": code, "message": message}}
    if request_id is not None:
        payload["id"] = request_id
    payload.update(extra)
    return payload


def ok_payload(request_id: Any = None, **fields: Any) -> Dict[str, Any]:
    """A success response envelope."""
    payload: Dict[str, Any] = {"ok": True}
    if request_id is not None:
        payload["id"] = request_id
    payload.update(fields)
    return payload


class ProtocolError(ServingError):
    """A malformed or oversized wire message."""


def _reject_constant(name: str) -> Any:
    raise ProtocolError(f"invalid JSON on the wire: {name} is not a JSON number")


class MessageStream:
    """Framed JSON messages over one socket, safe for multi-threaded sends.

    The daemon answers one connection from several shard-worker threads, so
    :meth:`send` serializes writers with a lock.  :meth:`recv` is expected to
    be called from a single reader thread (per connection) and buffers
    partial lines internally.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._buffer = b""  # only touched by the single reader thread
        self._closed = False  # guarded-by: _send_lock

    def send(self, message: Dict[str, Any]) -> bool:
        """Send one message; returns False when the peer is gone.

        Raises ``ValueError``, having written nothing, on NaN or Infinity.
        """
        data = encode_message(message)
        with self._send_lock:
            if self._closed:
                return False
            try:
                self._sock.sendall(data)
                return True
            except OSError:
                self._closed = True
                return False

    def recv(self) -> Optional[Dict[str, Any]]:
        """Read one message; None on clean EOF or a broken connection.

        Raises :class:`ProtocolError` on non-JSON input (``NaN`` and
        ``Infinity`` included) or an oversized line (the connection should
        be dropped by the caller).  ``socket.timeout``
        propagates when the socket has a timeout and it elapses; a partial
        line stays buffered, so a later call resumes it.
        """
        line = b""
        while not line:  # skip blank keep-alive lines
            while b"\n" not in self._buffer:
                if len(self._buffer) > _MAX_LINE_BYTES:
                    raise ProtocolError(
                        f"wire message exceeds {_MAX_LINE_BYTES} bytes without a newline"
                    )
                try:
                    chunk = self._sock.recv(65536)
                except socket.timeout:
                    raise
                except OSError:
                    return None
                if not chunk:
                    if self._buffer.strip():
                        raise ProtocolError("connection closed mid-message")
                    return None
                self._buffer += chunk
            line, self._buffer = self._buffer.split(b"\n", 1)
            line = line.strip()
        try:
            message = json.loads(line, parse_constant=_reject_constant)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"invalid JSON on the wire: {error}") from error
        if not isinstance(message, dict):
            raise ProtocolError(
                f"wire messages must be JSON objects, got {type(message).__name__}"
            )
        return message

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        with self._send_lock:
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
