"""Run ``cdmpp daemon`` with a span recorder around each layer's functions.

Usage::

    python perfbench/traced_daemon.py TRACE.json daemon --devices t4,k80 ...

Everything after ``TRACE.json`` is passed to ``repro.cli.main``.  Each
wrapped call records a span ``(id, parent, name, start, end, thread,
batch)`` on ``time.monotonic``; the parent is the innermost wrapped call
still open on the same thread.  Spans stay in memory and are written to
``TRACE.json`` when the daemon has drained and stopped.  The program
itself is not changed: the wrappers are installed on the imported modules
before the daemon starts.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types
from pathlib import Path


class Tracer:
    """Thread-aware span recorder."""

    def __init__(self) -> None:
        self.spans: list = []
        self.samples: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, batch=None, before=None, after=None):
        """``fn`` recording a span per call.

        ``batch(args, kwargs, result)`` gives the span's batch size;
        ``before(args, kwargs)`` and ``after(args, kwargs)`` run at entry
        and exit (for samples taken there).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                if after is not None:
                    after(args, kwargs)
                size = batch(args, kwargs, result) if batch is not None else None
                self.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident(), size)
                )

        return traced

    def sample(self, name: str, value: float, key=None) -> None:
        self.samples.setdefault(name, []).append((time.monotonic(), value, key))


class _TimedSocket:
    """Socket proxy that remembers when ``recv`` last returned bytes."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.read_at = 0.0

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        self.read_at = time.monotonic()
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


def patch(owner, attr, wrapped, static=False) -> None:
    setattr(owner, attr, staticmethod(wrapped) if static else wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public boundary of every layer the benchmark reports on."""
    import json as json_module

    from repro.backends.cdmpp import CDMPPBackend
    from repro.core.trainer import Trainer
    from repro.devices.simulator import DeviceSimulator
    from repro.features import pipeline
    from repro.search import ansor
    from repro.serving import daemon, fleet, protocol, search, service
    from repro.serving.registry import ModelRegistry

    def first_len(args, kwargs, result):
        return len(args[1])

    def result_len(args, kwargs, result):
        return len(result) if result is not None else None

    def queue_waits(args, kwargs):
        now = time.monotonic()
        for item in args[1]:
            tracer.sample("daemon.queue_wait", now - item.enqueued_at, item.request_id)

    # Per request, the points of its blocking path inside the daemon: when
    # its bytes came off the socket, when dispatch began, and when its
    # response was handed to ``_send``.  Not when ``_send`` returned: the
    # generator, woken by the write, often records the answer first.
    original_init = protocol.MessageStream.__init__
    original_recv = protocol.MessageStream.recv

    def timed_init(self, sock):
        original_init(self, _TimedSocket(sock))

    def timed_recv(self):
        message = original_recv(self)
        if message is not None:
            tracer.sample("daemon.read", self._sock.read_at, message.get("id"))
        return message

    def received(args, kwargs):
        tracer.sample("daemon.received", time.monotonic(), args[1].get("id"))

    def reply_started(args, kwargs):
        tracer.sample("daemon.reply_started", time.monotonic(), args[2].get("id"))

    w = tracer.wrap
    # protocol: frame encode, frame decode, send (encode + sendall)
    patch(protocol, "encode_message", w("protocol.encode", protocol.encode_message, batch=result_len))
    protocol.json = types.SimpleNamespace(
        dumps=json_module.dumps,
        loads=w("protocol.recv", json_module.loads),
        JSONDecodeError=json_module.JSONDecodeError,
    )
    patch(protocol.MessageStream, "send", w("protocol.send", protocol.MessageStream.send))
    patch(protocol.MessageStream, "__init__", timed_init)
    patch(protocol.MessageStream, "recv", timed_recv)
    # daemon: request dispatch on the connection thread, one batch per
    # flush, every response written
    patch(
        daemon.ServingDaemon,
        "_dispatch",
        w("daemon.dispatch", daemon.ServingDaemon._dispatch, before=received),
    )
    patch(
        daemon.ServingDaemon,
        "_send",
        w("daemon.send", daemon.ServingDaemon._send, before=reply_started),
    )
    patch(
        daemon._ShardWorker,
        "_process",
        w("daemon.batch", daemon._ShardWorker._process, batch=first_len, before=queue_waits),
    )
    # fleet: partition, compose
    patch(fleet.FleetService, "_partition", w("fleet.partition", fleet.FleetService._partition))
    patch(fleet, "compose_latencies", w("fleet.compose", fleet.compose_latencies))
    # service: one flush answers every queued kernel query
    patch(
        service.PredictionService,
        "flush",
        w(
            "service.flush",
            service.PredictionService.flush,
            batch=lambda a, k, r: r,
        ),
    )
    # backend, features, core
    patch(CDMPPBackend, "featurize_rows", w("backend.featurize_rows", CDMPPBackend.featurize_rows, batch=first_len))
    patch(pipeline.FeatureSet, "subset", w("backend.row_assembly", pipeline.FeatureSet.subset))
    patch(
        pipeline.FeatureSet,
        "concatenate",
        w("backend.row_assembly", pipeline.FeatureSet.concatenate, batch=lambda a, k, r: len(a[0])),
        static=True,
    )
    patch(pipeline, "extract_compact_ast", w("features.compact_ast", pipeline.extract_compact_ast))
    patch(Trainer, "predict", w("core.predict", Trainer.predict, batch=first_len))
    # search: sample, lower, score (one batched predict per round), measure
    patch(ansor, "random_schedule", w("search.random_schedule", ansor.random_schedule))
    patch(ansor, "lower", w("search.lower", ansor.lower))
    patch(DeviceSimulator, "measure", w("search.measure", DeviceSimulator.measure))
    patch(
        service.PredictionService,
        "predict",
        w("search.score", service.PredictionService.predict, batch=first_len),
    )
    patch(search, "evolutionary_search", w("search.task", search.evolutionary_search))
    # setup
    patch(ModelRegistry, "load", w("setup.registry_load", ModelRegistry.load))
    patch(ModelRegistry, "load_shared", w("setup.registry_load", ModelRegistry.load_shared))
    patch(daemon.ServingDaemon, "start", w("setup.daemon_start", daemon.ServingDaemon.start))


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced_daemon.py TRACE.json daemon [daemon options]", file=sys.stderr)
        return 2
    out, cli_args = Path(argv[0]), argv[1:]
    started = time.monotonic()
    import repro.cli

    imported = time.monotonic()
    tracer = Tracer()
    install(tracer)
    code = repro.cli.main(cli_args)
    payload = {
        "import_s": imported - started,
        "spans": tracer.spans,
        "samples": tracer.samples,
    }
    out.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
