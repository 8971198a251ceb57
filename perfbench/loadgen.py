"""Load generator: one process, two threads, two pipelined connections.

The generator speaks :class:`repro.serving.protocol.MessageStream` directly,
because ``DaemonClient`` holds a lock for a whole round trip and so cannot
keep several requests in flight on one connection.  The calling thread
sends; one receiver thread reads responses from both connections.  Every
request is recorded with the time it was due, sent and answered, all on
``time.monotonic`` (the daemon's clock too, so traced spans line up).
"""

from __future__ import annotations

import queue
import selectors
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.serving.protocol import MessageStream

RESPONSE_TIMEOUT_S = 60.0


class _Stream(MessageStream):
    """A MessageStream that can tell whether a whole message is buffered.

    One receiver thread serves both connections through a selector; a
    socket that delivered two responses in one chunk is not readable again,
    so the second one must be taken from the buffer without waiting.
    """

    def has_buffered_message(self) -> bool:
        return b"\n" in self._buffer


@dataclass
class Record:
    """One request and what became of it."""

    index: int
    conn: int
    request: Dict[str, Any]
    due: float
    sent: float = 0.0
    arrived: Optional[float] = None
    response: Optional[Dict[str, Any]] = None
    phase: str = ""
    cpu_s: Optional[float] = None  # daemon CPU over the request, when it ran alone

    @property
    def ok(self) -> bool:
        return self.response is not None and bool(self.response.get("ok"))


@dataclass
class Generator:
    """Two connections to one daemon and the log of every request sent."""

    host: str
    port: int
    connections: int = 2

    def __post_init__(self) -> None:
        self._streams: List[_Stream] = []
        for _ in range(self.connections):
            sock = socket.create_connection((self.host, self.port), timeout=RESPONSE_TIMEOUT_S)
            self._streams.append(_Stream(sock))
        self._lock = threading.Lock()
        self.records: List[Record] = []  # guarded-by: _lock
        self._by_id: Dict[int, Record] = {}  # guarded-by: _lock
        self._outstanding = 0  # guarded-by: _lock
        self._idle = threading.Condition(self._lock)
        self._completions: "queue.Queue[Record]" = queue.Queue()
        self._closing = threading.Event()
        self._receiver = threading.Thread(target=self._receive_loop, name="loadgen-recv", daemon=True)
        self._receiver.start()

    # -- wire --------------------------------------------------------------
    def send(self, request: Dict[str, Any], conn: int, due: float, phase: str) -> Record:
        """Send one request on connection ``conn``; ``due`` is its schedule time."""
        with self._lock:
            record = Record(len(self.records), conn, dict(request), due, phase=phase)
            record.request["id"] = record.index
            self.records.append(record)
            self._by_id[record.index] = record
            self._outstanding += 1
        record.sent = time.monotonic()
        if not self._streams[conn].send(record.request):
            self._finish(record, None)
        return record

    def _finish(self, record: Record, response: Optional[Dict[str, Any]]) -> None:
        now = time.monotonic()
        with self._lock:
            if self._by_id.pop(record.index, None) is None:
                return  # already answered or abandoned
            record.arrived = now if response is not None else None
            record.response = response
            self._outstanding -= 1
            self._idle.notify_all()
        self._completions.put(record)

    def _receive_loop(self) -> None:
        selector = selectors.DefaultSelector()
        for stream in self._streams:
            selector.register(stream._sock, selectors.EVENT_READ, stream)
        try:
            while not self._closing.is_set():
                for key, _ in selector.select(timeout=0.2):
                    stream = key.data
                    while True:
                        message = stream.recv()
                        if message is None:
                            selector.unregister(key.fileobj)
                            break
                        with self._lock:
                            record = self._by_id.get(message.get("id"))
                        if record is not None:
                            self._finish(record, message)
                        if not stream.has_buffered_message():
                            break
                if not selector.get_map():
                    return
        finally:
            selector.close()

    def wait_idle(self, timeout_s: float = RESPONSE_TIMEOUT_S) -> bool:
        """Wait until every request sent has an answer; False on timeout."""
        deadline = time.monotonic() + timeout_s
        with self._lock:  # the lock under self._idle
            while self._outstanding:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def abandon_outstanding(self) -> None:
        """Count every unanswered request as failed."""
        with self._lock:
            pending = list(self._by_id.values())
        for record in pending:
            self._finish(record, None)

    def close(self) -> None:
        self._closing.set()
        for stream in self._streams:
            stream.close()
        self._receiver.join(timeout=5.0)

    def drain_completions(self) -> None:
        while True:
            try:
                self._completions.get_nowait()
            except queue.Empty:
                return

    # -- phases ------------------------------------------------------------
    def open_loop(
        self,
        requests: Iterator[Dict[str, Any]],
        due_times: Sequence[float],
        phase: str,
    ) -> List[Record]:
        """Send request ``i`` at ``due_times[i]`` whatever the daemon is doing."""
        sent: List[Record] = []
        for i, due in enumerate(due_times):
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent.append(self.send(next(requests), i % self.connections, due, phase))
        if not self.wait_idle():
            self.abandon_outstanding()
        return sent

    def closed_loop(
        self,
        lanes: Sequence[Callable[[], Optional[Dict[str, Any]]]],
        until: float,
        phase: str,
    ) -> List[Record]:
        """Keep one request in flight per lane until ``until``.

        Lane ``k`` sends on connection ``k % connections`` and draws its next
        request from ``lanes[k]``; a lane returning None retires.  After
        ``until`` no lane sends again.  Waits for every answer before
        returning.
        """
        self.drain_completions()
        sent: List[Record] = []
        lane_of: Dict[int, int] = {}

        def launch(lane: int) -> None:
            request = lanes[lane]()
            if request is not None:
                record = self.send(request, lane % self.connections, time.monotonic(), phase)
                lane_of[record.index] = lane
                sent.append(record)

        for lane in range(len(lanes)):
            launch(lane)
        in_flight = len(sent)
        while in_flight:
            try:
                record = self._completions.get(timeout=RESPONSE_TIMEOUT_S)
            except queue.Empty:
                self.abandon_outstanding()
                break
            if record.index not in lane_of:
                continue
            in_flight -= 1
            if record.response is not None and time.monotonic() < until:
                before = len(sent)
                launch(lane_of[record.index])
                in_flight += len(sent) - before
        return sent
