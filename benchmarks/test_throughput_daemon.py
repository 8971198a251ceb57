"""Daemon load test: N concurrent clients vs sequential in-process serving.

The serving daemon exists so many tuner/optimizer processes can share one
warm, batched cost model instead of each paying library-mode setup and
per-query featurization on its own (TLP-style search loops are throughput
bound on exactly this).  This harness replays the same per-client workload
two ways:

* **sequential in-process** — the 16 client workloads run one after another,
  each through its own fresh ``FleetService`` (what 16 independent library
  callers cost today), and
* **concurrent daemon** — 16 threads, each with its own ``DaemonClient``
  connection, fire the same workloads at one ``ServingDaemon``; each device
  shard serves as soon as it is free, and the requests that queued while it
  was busy coalesce into its next batch.

Contracts asserted (the issue's acceptance criteria):

* daemon throughput >= 3x the sequential baseline,
* p99 latency <= 5x p50 (work-conserving batching adds no fixed wait),
* zero dropped requests below the admission limit,
* every wire answer bit-identical to a direct in-process prediction.

With ``CDMPP_WRITE_BENCH_RESULTS=1`` the results are also written to
``BENCH_daemon.json`` at the repository root, which tracks the daemon's
perf trajectory; a plain test run leaves that file untouched.
"""

import os
import threading
import time

import pytest

from benchmarks.common import print_table, run_once, write_results
from benchmarks.conftest import train_cdmpp
from repro.serving import DaemonClient, DaemonConfig, FleetService, ServingDaemon

NUM_CLIENTS = 16
REQUESTS_PER_CLIENT = 8
# Each request is one of these (network, batch_size) model-level queries.
WORKLOAD = [("bert_tiny", 1), ("bert_tiny", 4), ("mobilenet_v2", 1), ("vgg16", 1)]

RESULTS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "BENCH_daemon.json")


@pytest.fixture(scope="module")
def daemon_setup(device_splits):
    """A trained T4 model and the per-client request list."""
    splits = device_splits["t4"]
    trainer, _, _ = train_cdmpp(splits.train, splits.valid, epochs=8)
    requests = [WORKLOAD[i % len(WORKLOAD)] for i in range(REQUESTS_PER_CLIENT)]
    return trainer, requests


def _percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))]


def test_daemon_throughput_vs_sequential(benchmark, daemon_setup):
    trainer, requests = daemon_setup
    total_requests = NUM_CLIENTS * REQUESTS_PER_CLIENT

    # Reference answers: direct in-process serving, computed once.
    reference_service = FleetService({"t4": trainer})
    reference = {
        (network, batch): reference_service.predict_model(
            network, device="t4", batch_size=batch, seed=0
        ).predicted_latency_s
        for network, batch in WORKLOAD
    }

    def sequential_in_process():
        """16 library callers, one after another, each with a cold service."""
        start = time.perf_counter()
        answers = []
        for _ in range(NUM_CLIENTS):
            service = FleetService({"t4": trainer})
            for network, batch in requests:
                prediction = service.predict_model(
                    network, device="t4", batch_size=batch, seed=0
                )
                answers.append(((network, batch), prediction.predicted_latency_s))
        return time.perf_counter() - start, answers

    def concurrent_daemon():
        """16 concurrent clients against one shared daemon."""
        config = DaemonConfig(port=0, max_batch_size=64, queue_limit=256)
        with ServingDaemon({"t4": trainer}, config) as daemon:
            host, port = daemon.address
            # Warm up: one pass over the distinct queries, so the timed phase
            # measures the steady state the daemon is built for.
            with DaemonClient(host, port) as warm:
                for network, batch in WORKLOAD:
                    warm.query(network, device="t4", batch_size=batch, seed=0)

            answers, latencies, errors = [], [], []
            lock = threading.Lock()
            barrier = threading.Barrier(NUM_CLIENTS)

            def client_thread() -> None:
                try:
                    with DaemonClient(host, port) as client:
                        barrier.wait()
                        for network, batch in requests:
                            t0 = time.perf_counter()
                            served = client.query(
                                network, device="t4", batch_size=batch, seed=0
                            )
                            elapsed = time.perf_counter() - t0
                            with lock:
                                answers.append(((network, batch), served["latency_s"]))
                                latencies.append(elapsed)
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=client_thread) for _ in range(NUM_CLIENTS)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            stats = daemon._stats_payload(None)["daemon"]
        assert not errors, errors
        return elapsed, answers, latencies, stats

    (seq_s, seq_answers), (daemon_s, daemon_answers, latencies, stats) = run_once(
        benchmark, lambda: (sequential_in_process(), concurrent_daemon())
    )

    seq_qps = total_requests / seq_s
    daemon_qps = total_requests / daemon_s
    speedup = seq_s / daemon_s
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)

    rows = [
        {"mode": "sequential in-process (16 cold callers)", "seconds": seq_s,
         "queries_per_s": seq_qps, "speedup": 1.0},
        {"mode": f"daemon ({NUM_CLIENTS} concurrent clients)", "seconds": daemon_s,
         "queries_per_s": daemon_qps, "speedup": speedup},
    ]
    print_table(
        f"Daemon load test ({total_requests} model queries, T4)",
        rows,
        ["mode", "seconds", "queries_per_s", "speedup"],
    )
    print(f"latency p50={p50 * 1e3:.2f}ms p99={p99 * 1e3:.2f}ms "
          f"(p99/p50={p99 / p50:.2f}); batches={stats['batches']}, "
          f"rejected={stats['rejected_overloaded']}, shed={stats['shed_deadline']}")

    # Bit-identical to direct in-process predictions, on both paths.
    for key, value in seq_answers + daemon_answers:
        assert value == reference[key], (key, value, reference[key])
    assert len(daemon_answers) == total_requests  # zero drops below the limit
    assert stats["rejected_overloaded"] == 0
    assert stats["shed_deadline"] == 0

    # Headline contracts.
    assert speedup >= 3.0, f"daemon speedup {speedup:.1f}x below the 3x contract"
    assert p99 <= 5.0 * p50, f"p99 {p99 * 1e3:.2f}ms > 5x p50 {p50 * 1e3:.2f}ms"

    write_results(
        RESULTS_PATH,
        {
            "benchmark": "daemon_load_test",
            "clients": NUM_CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "total_requests": total_requests,
            "sequential_seconds": seq_s,
            "sequential_qps": seq_qps,
            "daemon_seconds": daemon_s,
            "daemon_qps": daemon_qps,
            "speedup": speedup,
            "latency_p50_ms": p50 * 1e3,
            "latency_p99_ms": p99 * 1e3,
            "batches": stats["batches"],
            "rejected_overloaded": stats["rejected_overloaded"],
            "shed_deadline": stats["shed_deadline"],
        },
    )
