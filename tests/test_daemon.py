"""Tests for the async serving daemon (repro.serving.daemon/protocol/client).

Covers the full concurrency surface: startup/shutdown, deadline shedding,
admission-control backpressure, graceful drain (in-process and via SIGTERM
to the real CLI subprocess), mixed concurrent clients, the stats endpoint,
and — property-style — bit-identical agreement between answers served over
the wire and direct in-process ``FleetService`` calls.
"""

import dataclasses
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.errors import ServingError
from repro.serving import (
    DaemonClient,
    DaemonConfig,
    DaemonRequestError,
    FleetService,
    MessageStream,
    ServingDaemon,
)
from repro.serving.protocol import (
    E_BAD_REQUEST,
    E_DEADLINE,
    E_INTERNAL,
    E_OVERLOADED,
    encode_message,
)


@pytest.fixture(scope="module")
def fleet_models(trained_trainer):
    """Two devices served by one shared read-only model."""
    return {"t4": trained_trainer, "k80": trained_trainer}


@pytest.fixture()
def daemon(fleet_models):
    """A running daemon on an ephemeral port, stopped at teardown."""
    daemon = ServingDaemon(fleet_models, DaemonConfig(port=0))
    daemon.start()
    yield daemon
    daemon.stop()


def _connect(daemon: ServingDaemon) -> DaemonClient:
    host, port = daemon.address
    return DaemonClient(host, port)


def _raw_stream(daemon: ServingDaemon) -> MessageStream:
    return MessageStream(socket.create_connection(daemon.address, timeout=30))


def _query(request_id, device="t4", **fields):
    return {"op": "query", "id": request_id, "network": "bert_tiny", "device": device, **fields}


def _wait_for(condition, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


@contextmanager
def _gated_shard(daemon: ServingDaemon, device: str = "t4"):
    """Hold ``device``'s shard busy inside its flush until ``release`` is set.

    Yields ``(entered, release)``: ``entered`` is set once the worker is
    blocked inside a batch, so requests sent afterwards wait in the queue.
    """
    shard = daemon._shards[device]
    original = shard.fleet.predict_model_batch
    entered, release = threading.Event(), threading.Event()

    def gated(*args, **kwargs):
        entered.set()
        assert release.wait(30.0), "gate never released"
        return original(*args, **kwargs)

    shard.fleet.predict_model_batch = gated
    try:
        yield entered, release
    finally:
        release.set()
        del shard.fleet.predict_model_batch


def _stop_requested(daemon: ServingDaemon, device: str = "t4") -> bool:
    shard = daemon._shards[device]
    with shard._cond:
        return shard._stop_requested


class TestLifecycle:
    def test_startup_shutdown(self, fleet_models):
        daemon = ServingDaemon(fleet_models, DaemonConfig(port=0))
        assert not daemon.running
        daemon.start()
        try:
            assert daemon.running
            host, port = daemon.address
            assert host == "127.0.0.1" and port > 0
            assert daemon.devices == ["k80", "t4"]
        finally:
            daemon.stop()
        assert not daemon.running
        daemon.stop()  # idempotent

    def test_start_twice_rejected(self, daemon):
        with pytest.raises(ServingError):
            daemon.start()

    def test_context_manager(self, fleet_models):
        with ServingDaemon(fleet_models, DaemonConfig(port=0)) as daemon:
            with _connect(daemon) as client:
                assert client.health()["status"] == "serving"
        assert not daemon.running

    def test_health_reports_devices_and_uptime(self, daemon):
        with _connect(daemon) as client:
            health = client.health()
        assert health["devices"] == ["k80", "t4"]
        assert health["uptime_s"] >= 0.0
        assert health["pending"] == 0
        assert health["protocol"] == 1

    def test_single_model_needs_devices(self, trained_trainer):
        with pytest.raises(ServingError):
            ServingDaemon(trained_trainer)
        daemon = ServingDaemon(trained_trainer, devices=["t4"])
        assert daemon.devices == ["t4"]


class TestBitIdenticalToDirectPredict:
    """Wire answers must equal in-process FleetService answers exactly.

    The daemon runs the same partition -> batch -> compose code as a direct
    call, and JSON round-trips doubles exactly, so the comparison is ``==``,
    not approx.
    """

    @pytest.mark.parametrize("network,batch_size", [("bert_tiny", 1), ("bert_tiny", 4)])
    def test_query_matches_direct(self, daemon, fleet_models, network, batch_size):
        direct = FleetService(fleet_models).predict_model(
            network, device="t4", batch_size=batch_size, seed=0
        )
        with _connect(daemon) as client:
            served = client.query(network, device="t4", batch_size=batch_size, seed=0)
        assert served["latency_s"] == direct.predicted_latency_s
        assert served["serial_latency_s"] == direct.serial_latency_s
        assert served["per_kernel_latency_s"] == dict(direct.per_kernel_latency_s)
        assert served["num_nodes"] == direct.num_nodes
        assert served["num_unique_kernels"] == direct.num_unique_kernels

    def test_fanout_matches_direct_fleet(self, daemon, fleet_models):
        direct = FleetService(fleet_models).predict_model_fleet("bert_tiny", seed=0)
        with _connect(daemon) as client:
            served = client.predict_model("bert_tiny", seed=0)
        assert [r["device"] for r in served] == [p.device for p in direct]
        assert [r["latency_s"] for r in served] == [p.predicted_latency_s for p in direct]

    def test_compose_serial_matches_direct(self, daemon, fleet_models):
        direct = FleetService(fleet_models).predict_model(
            "bert_tiny", device="k80", batch_size=1, seed=0, compose="serial"
        )
        with _connect(daemon) as client:
            served = client.query("bert_tiny", device="k80", compose="serial", seed=0)
        assert served["latency_s"] == direct.predicted_latency_s


class TestBatching:
    """Work-conserving batching: serve at once, coalesce while busy."""

    def test_deadline_request_is_served_first(self, fleet_models):
        # One request per batch, so the answer order is the serving order.
        config = DaemonConfig(port=0, max_batch_size=1)
        with ServingDaemon(fleet_models, config) as daemon:
            stream = _raw_stream(daemon)
            try:
                with _gated_shard(daemon) as (entered, release):
                    stream.send(_query(0))
                    assert entered.wait(10.0)
                    for request_id in (1, 2, 3):
                        stream.send(_query(request_id))
                    stream.send(_query(4, deadline_ms=30_000.0))
                    _wait_for(lambda: daemon.pending == 4)
                    release.set()
                    order = [stream.recv()["id"] for _ in range(5)]
            finally:
                stream.close()
        assert order == [0, 4, 1, 2, 3]

    @pytest.mark.parametrize("max_batch_size,batches", [(32, 2), (2, 3)])
    def test_requests_queued_while_busy_form_the_next_batch(
        self, fleet_models, max_batch_size, batches
    ):
        config = DaemonConfig(port=0, max_batch_size=max_batch_size)
        with ServingDaemon(fleet_models, config) as daemon:
            stream = _raw_stream(daemon)
            try:
                with _gated_shard(daemon) as (entered, release):
                    stream.send(_query(0))
                    assert entered.wait(10.0)
                    for request_id in (1, 2, 3):
                        stream.send(_query(request_id))
                    _wait_for(lambda: daemon.pending == 3)
                    release.set()
                    responses = [stream.recv() for _ in range(4)]
                stream.send({"op": "stats", "id": "stats"})
                stats = stream.recv()
            finally:
                stream.close()
        assert all(response["ok"] for response in responses)
        assert sorted(response["id"] for response in responses) == [0, 1, 2, 3]
        assert stats["daemon"]["batches"] == batches


class TestDeadlines:
    def test_expired_deadline_is_shed(self, fleet_models):
        # The shard is busy while the request's deadline passes, so it has
        # expired by the time the worker takes it from the queue.
        with ServingDaemon(fleet_models, DaemonConfig(port=0)) as daemon:
            stream = _raw_stream(daemon)
            try:
                with _gated_shard(daemon) as (entered, release):
                    stream.send(_query(1))
                    assert entered.wait(10.0)
                    stream.send(_query(2, deadline_ms=20.0))
                    _wait_for(lambda: daemon.pending == 1)
                    time.sleep(0.05)
                    release.set()
                    responses = {}
                    for _ in range(2):
                        response = stream.recv()
                        responses[response["id"]] = response
                stream.send({"op": "stats", "id": "stats"})
                stats = stream.recv()
            finally:
                stream.close()
        assert responses[1]["ok"]
        assert not responses[2]["ok"]
        assert responses[2]["error"]["code"] == E_DEADLINE
        assert stats["daemon"]["shed_deadline"] == 1


class TestBackpressure:
    def test_overloaded_rejection_with_retry_hint(self, fleet_models):
        # queue_limit=1: while the shard is busy with request 1, request 2
        # fills the queue and requests 3 and 4 are rejected immediately.
        config = DaemonConfig(port=0, queue_limit=1, retry_after_ms=25.0)
        with ServingDaemon(fleet_models, config) as daemon:
            stream = _raw_stream(daemon)
            try:
                with _gated_shard(daemon) as (entered, release):
                    stream.send(_query(1))
                    assert entered.wait(10.0)
                    for request_id in (2, 3, 4):
                        stream.send(_query(request_id))
                    responses = {}
                    for _ in range(2):  # the rejections come back at once
                        response = stream.recv()
                        responses[response["id"]] = response
                    release.set()
                    for _ in range(2):
                        response = stream.recv()
                        responses[response["id"]] = response
            finally:
                stream.close()
        assert responses[1]["ok"] and responses[2]["ok"]
        for rejected_id in (3, 4):
            rejected = responses[rejected_id]
            assert not rejected["ok"]
            assert rejected["error"]["code"] == E_OVERLOADED
            assert rejected["retry_after_ms"] == 25.0

    def test_no_drops_below_admission_limit(self, fleet_models):
        config = DaemonConfig(port=0, queue_limit=256)
        with ServingDaemon(fleet_models, config) as daemon:
            stream = _raw_stream(daemon)
            try:
                total = 40
                for request_id in range(total):
                    stream.send(
                        {
                            "op": "query",
                            "id": request_id,
                            "network": "bert_tiny",
                            "device": "t4",
                        }
                    )
                answered = set()
                for _ in range(total):
                    response = stream.recv()
                    assert response["ok"], response
                    answered.add(response["id"])
            finally:
                stream.close()
        assert answered == set(range(total))


class TestGracefulDrain:
    @staticmethod
    def _stop_while_busy(fleet_models, drain: bool):
        """Stop the daemon while request 1 is in a batch and 2 is queued."""
        daemon = ServingDaemon(fleet_models, DaemonConfig(port=0)).start()
        stream = _raw_stream(daemon)
        try:
            with _gated_shard(daemon) as (entered, release):
                stream.send(_query(1))
                assert entered.wait(10.0)
                stream.send(_query(2))
                _wait_for(lambda: daemon.pending == 1)
                stopper = threading.Thread(target=daemon.stop, kwargs={"drain": drain})
                stopper.start()
                _wait_for(lambda: _stop_requested(daemon))
                release.set()
                stopper.join(timeout=30.0)
                assert not stopper.is_alive()
            responses = {}
            for _ in range(2):
                response = stream.recv()
                responses[response["id"]] = response
        finally:
            stream.close()
        assert not daemon.running
        return responses

    def test_stop_with_drain_answers_queued_work(self, fleet_models):
        responses = self._stop_while_busy(fleet_models, drain=True)
        for request_id in (1, 2):
            assert responses[request_id]["ok"]
            assert responses[request_id]["latency_s"] > 0.0

    def test_stop_without_drain_fails_queued_work(self, fleet_models):
        responses = self._stop_while_busy(fleet_models, drain=False)
        assert responses[1]["ok"]  # already in a batch: answered
        assert not responses[2]["ok"]
        assert responses[2]["error"]["code"] == "shutting_down"

    def test_serve_forever_returns_after_request_shutdown(self, fleet_models):
        daemon = ServingDaemon(fleet_models, DaemonConfig(port=0)).start()
        server = threading.Thread(target=daemon.serve_forever)
        server.start()
        daemon.request_shutdown()
        server.join(timeout=10)
        assert not server.is_alive()
        assert not daemon.running


class TestConcurrentClients:
    def test_mixed_query_and_fanout_clients(self, daemon, fleet_models):
        fleet = FleetService(fleet_models)
        expected_query = fleet.predict_model("bert_tiny", device="t4", seed=0)
        expected_fanout = fleet.predict_model_fleet("bert_tiny", seed=0)
        errors, results = [], []
        lock = threading.Lock()

        def worker(index: int) -> None:
            try:
                with _connect(daemon) as client:
                    for _ in range(3):
                        if index % 2 == 0:
                            served = client.query("bert_tiny", device="t4", seed=0)
                            assert served["latency_s"] == expected_query.predicted_latency_s
                        else:
                            served = client.predict_model("bert_tiny", seed=0)
                            assert [r["latency_s"] for r in served] == [
                                p.predicted_latency_s for p in expected_fanout
                            ]
                        with lock:
                            results.append(index)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 24

    def test_pipelined_requests_on_one_connection(self, daemon):
        stream = _raw_stream(daemon)
        try:
            for request_id in range(10):
                stream.send(
                    {
                        "op": "query",
                        "id": request_id,
                        "network": "bert_tiny",
                        "device": ["t4", "k80"][request_id % 2],
                    }
                )
            seen = set()
            for _ in range(10):
                response = stream.recv()
                assert response["ok"]
                seen.add(response["id"])
        finally:
            stream.close()
        assert seen == set(range(10))


class TestStatsEndpoint:
    def test_counters_reconcile(self, fleet_models):
        with ServingDaemon(fleet_models, DaemonConfig(port=0)) as daemon:
            with _connect(daemon) as client:
                client.health()
                for _ in range(3):
                    client.query("bert_tiny", device="t4")
                client.predict_model("bert_tiny")
                stats = client.stats()
        counters = stats["daemon"]
        assert counters["queries"] == 3
        assert counters["model_queries"] == 1
        assert counters["health_checks"] == 1
        assert counters["stats_requests"] == 1
        assert counters["requests"] == 6
        assert counters["connections"] == 1
        assert counters["batches"] >= 1
        assert counters["pending"] == 0
        # Per-shard serving stats come from the underlying FleetService.
        assert set(stats["shards"]) == {"t4", "k80"}
        assert stats["shards"]["t4"]["model_queries"] >= 4  # 3 queries + fanout leg


class TestProtocolErrors:
    def test_unknown_op_is_bad_request(self, daemon):
        stream = _raw_stream(daemon)
        try:
            stream.send({"op": "divine", "id": 1})
            response = stream.recv()
        finally:
            stream.close()
        assert not response["ok"]
        assert response["error"]["code"] == E_BAD_REQUEST
        assert response["id"] == 1

    def test_malformed_json_is_bad_request(self, daemon):
        sock = socket.create_connection(daemon.address, timeout=30)
        try:
            sock.sendall(b"this is not json\n")
            data = sock.recv(65536)
        finally:
            sock.close()
        response = json.loads(data.decode().splitlines()[0])
        assert not response["ok"]
        assert response["error"]["code"] == E_BAD_REQUEST

    def test_unknown_network_and_device(self, daemon):
        with _connect(daemon) as client:
            with pytest.raises(DaemonRequestError) as excinfo:
                client.query("skynet", device="t4")
            assert excinfo.value.code == E_BAD_REQUEST
            with pytest.raises(DaemonRequestError) as excinfo:
                client.query("bert_tiny", device="a100")  # real device, not served
            assert excinfo.value.code == E_BAD_REQUEST

    def test_non_object_message_rejected(self, daemon):
        sock = socket.create_connection(daemon.address, timeout=30)
        try:
            sock.sendall(encode_message({"op": "health"})[:-1] + b"\n")  # sanity: ok
            sock.sendall(b"[1, 2, 3]\n")
            stream = MessageStream(sock)
            first = stream.recv()
            second = stream.recv()
        finally:
            sock.close()
        assert first["ok"]
        assert second["error"]["code"] == E_BAD_REQUEST

    def test_blank_line_flood_before_request(self, daemon):
        # Blank keep-alive lines are skipped in a loop, not one recursion
        # per line (5,000 used to raise RecursionError).
        sock = socket.create_connection(daemon.address, timeout=30)
        try:
            sock.sendall(b"\n" * 10_000 + encode_message({"op": "health", "id": 7}))
            response = MessageStream(sock).recv()
        finally:
            sock.close()
        assert response["ok"] and response["id"] == 7

    def test_stream_skips_blank_lines_then_reads_eof(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\n \r\n" * 10_000 + encode_message({"op": "health"}) + b"\n\n")
            left.close()
            stream = MessageStream(right)
            assert stream.recv() == {"op": "health"}
            assert stream.recv() is None  # trailing blanks, then clean EOF
        finally:
            right.close()


class TestNonFiniteNumbers:
    """NaN and Infinity are not JSON: refused in both directions."""

    def test_encoder_refuses_nan_and_infinity(self):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                encode_message({"ok": True, "latency_s": value})

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_decoder_rejects_constants_as_bad_request(self, fleet_models, constant):
        with ServingDaemon(fleet_models, DaemonConfig(port=0)) as daemon:
            sock = socket.create_connection(daemon.address, timeout=30)
            try:
                sock.sendall(
                    b'{"op": "query", "id": 1, "network": "bert_tiny", "device": "t4", '
                    b'"deadline_ms": ' + constant.encode() + b"}\n"
                )
                stream = MessageStream(sock)
                response = stream.recv()
                assert stream.recv() is None  # the connection is dropped
            finally:
                sock.close()
            with _connect(daemon) as client:
                assert client.health()["status"] == "serving"
                stats = client.stats()
        assert not response["ok"]
        assert response["error"]["code"] == E_BAD_REQUEST
        assert constant.lstrip("-") in response["error"]["message"]
        counters = stats["daemon"]
        assert counters["bad_requests"] == 1
        assert counters["requests"] == 2  # health + stats; the bad line is no request
        assert counters["queries"] == 0 and counters["pending"] == 0

    def test_unencodable_answer_is_an_internal_error(self, fleet_models):
        with ServingDaemon(fleet_models, DaemonConfig(port=0)) as daemon:
            shard = daemon._shards["t4"]
            original = shard.fleet.predict_model_batch

            def nan_answers(*args, **kwargs):
                return [
                    dataclasses.replace(p, predicted_latency_s=float("nan"))
                    for p in original(*args, **kwargs)
                ]

            stream = _raw_stream(daemon)
            try:
                shard.fleet.predict_model_batch = nan_answers
                stream.send(_query(1))
                failed = stream.recv()
                del shard.fleet.predict_model_batch
                # The connection and the shard worker both survive.
                stream.send({"op": "health", "id": 2})
                health = stream.recv()
                stream.send(_query(3))
                answered = stream.recv()
                stream.send({"op": "stats", "id": 4})
                stats = stream.recv()
            finally:
                stream.close()
        assert not failed["ok"] and failed["id"] == 1
        assert failed["error"]["code"] == E_INTERNAL
        assert health["ok"] and health["status"] == "serving"
        assert answered["ok"] and answered["latency_s"] > 0.0
        counters = stats["daemon"]
        assert counters["internal_errors"] == 1
        assert counters["requests"] == 4
        assert counters["queries"] == 2 and counters["health_checks"] == 1
        assert counters["responses"] == 3  # everything before this stats answer
        assert counters["pending"] == 0


class TestClientTimeout:
    """A timed-out call says so, and its late answer never leaks."""

    def test_late_response_is_discarded_after_a_timeout(self):
        listener = socket.create_server(("127.0.0.1", 0))
        release = threading.Event()

        def serve_late() -> None:
            conn, _ = listener.accept()
            with conn:
                stream = MessageStream(conn)
                first = stream.recv()
                release.wait(10.0)  # answer only once the client gave up
                stream.send({"ok": True, "id": first["id"], "status": "late"})
                second = stream.recv()
                stream.send({"ok": True, "id": second["id"], "status": "ok"})

        server = threading.Thread(target=serve_late, daemon=True)
        server.start()
        try:
            client = DaemonClient(*listener.getsockname(), timeout_s=0.2)
            with client:
                with pytest.raises(ServingError, match=r"request 1 timed out after 0\.2 s"):
                    client.health()
                release.set()
                response = client.health()
                assert response["id"] == 2 and response["status"] == "ok"
                assert client._responses == {}
                assert client._abandoned == set()
        finally:
            release.set()
            server.join(timeout=10.0)
            listener.close()


class TestTcpNoDelay:
    """Small answers must not wait for the peer's delayed ACK (Nagle)."""

    @staticmethod
    def _nodelay(sock) -> bool:
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_client_and_accepted_sockets_set_nodelay(self, daemon):
        with _connect(daemon) as client:
            assert client.health()["ok"]
            assert self._nodelay(client._stream._sock)
            with daemon._streams_lock:
                accepted = [stream._sock for stream in daemon._streams]
            assert accepted and all(self._nodelay(sock) for sock in accepted)


class TestServingImports:
    """A served model never fits a transform, so it never imports scipy.stats."""

    SCRIPT = """
import sys
from repro.serving import DaemonClient, ModelRegistry, ServingDaemon

daemon = ServingDaemon.from_registry(ModelRegistry(sys.argv[1]), "t4-tiny", devices=["t4"])
with daemon:
    with DaemonClient(*daemon.address) as client:
        assert client.query("bert_tiny", device="t4")["latency_s"] > 0.0
        client.tune("bert_tiny", rounds=1, population=4, measurements_per_round=1)
print("scipy.stats" in sys.modules)
"""

    def test_query_and_tune_do_not_import_scipy_stats(self, trained_trainer, tmp_path):
        from repro.serving import ModelRegistry

        registry = tmp_path / "registry"
        ModelRegistry(registry).save("t4-tiny", trained_trainer, device="t4", scale="tiny")
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(registry)],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "False"


class TestDaemonCLI:
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        """Full lifecycle through the real CLI: train, serve, query, SIGTERM."""
        from repro.cli import main

        registry = str(tmp_path / "registry")
        assert main(["train", "t4", "--scale", "tiny", "--registry", registry]) == 0

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "daemon",
                "--devices",
                "t4",
                "--port",
                "0",
                "--registry",
                registry,
                "--scale",
                "tiny",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            port = None
            for _ in range(50):
                line = proc.stdout.readline()
                match = re.search(r"listening on [\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "daemon never printed its port"

            with DaemonClient("127.0.0.1", port) as client:
                result = client.query("bert_tiny", device="t4")
                assert result["latency_s"] > 0.0

            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "drained and stopped" in output
