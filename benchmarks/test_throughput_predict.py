"""Tiered prediction throughput: the serving tiers vs the old forward pipeline.

The tiered inference refactor moved every serving-facing prediction off the
autograd ``forward`` (Tensor graph, ``FeatureSet.subset`` copies per batch)
onto ``Module.infer`` over raw ndarrays, and added a distilled MLP student
as the ``fast`` serving tier.  This benchmark replays a tuner-shaped warm
query stream (every kernel queried several times across rounds) against the
pre-refactor pipeline — featurize + normalize + Tensor graph forward under
``no_grad`` per round — and asserts the refactor's contracts:

* the accurate tier answers the warm batched stream at least 2x faster than
  the old forward pipeline, bit-identically to it,
* the fast tier answers the same stream cold (empty caches) at least 5x
  faster, and its student loses at most 10 MAPE points to the teacher on
  held-out data,
* an accurate-tier daemon round-trip answers bit-identically to the
  in-process fleet (wire fidelity on top of infer fidelity).

With ``CDMPP_WRITE_BENCH_RESULTS=1`` the results are also written to
``BENCH_predict.json`` at the repository root, which tracks the tiered
path's perf trajectory; a plain test run leaves that file untouched.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.common import BENCH_SEED, print_table, run_once, write_results
from benchmarks.conftest import train_cdmpp
from repro.backends import DistilledBackend
from repro.features.pipeline import featurize_programs, featurize_records
from repro.nn import no_grad
from repro.serving import (
    DaemonClient,
    DaemonConfig,
    FleetService,
    PredictionService,
    ServingDaemon,
    program_cache_key,
)

QUERY_ROUNDS = 8  # each distinct kernel is queried this many times
UNIQUE_PROGRAMS = 48
BATCH_SIZE = 256

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_predict.json"
)


@pytest.fixture(scope="module")
def tier_setup(device_splits):
    """A trained T4 teacher, its student, a query stream and held-out features."""
    splits = device_splits["t4"]
    trainer, _, train_fs = train_cdmpp(splits.train, splits.valid, epochs=8)
    test_fs = featurize_records(splits.test, max_leaves=trainer.max_leaves)
    student = DistilledBackend.distill_from(
        trainer, train_fs, distill_epochs=60, seed=BENCH_SEED
    )

    programs, seen = [], set()
    for record in splits.test + splits.valid + splits.train:
        key = program_cache_key(record.program, "t4", 0)
        if key not in seen:
            seen.add(key)
            programs.append(record.program)
        if len(programs) == UNIQUE_PROGRAMS:
            break
    queries = [program for _ in range(QUERY_ROUNDS) for program in programs]
    return trainer, student, test_fs, programs, queries


def old_forward_predict(trainer, programs):
    """The pre-refactor prediction pipeline, kept as the timing baseline.

    Featurizes every query and builds the full Tensor graph per batch
    (``tensors_from`` on a ``FeatureSet.subset`` copy, autograd ``forward``
    under ``no_grad``) the way the serving stack predicted before the infer
    path and the tiered cache existed.
    """
    features = featurize_programs(
        programs, ["t4"] * len(programs), max_leaves=trainer.max_leaves
    )
    trainer.predictor.eval()
    normalized = trainer.normalize_features(features)
    outputs = []
    with no_grad():
        for start in range(0, len(normalized), BATCH_SIZE):
            indices = np.arange(start, min(start + BATCH_SIZE, len(normalized)))
            x, mask, leaf_counts, dev = trainer.predictor.tensors_from(normalized, indices)
            outputs.append(trainer.predictor(x, mask, leaf_counts, dev).data)
    transformed = np.concatenate(outputs, axis=0)
    return np.maximum(
        trainer.transform.inverse_transform(np.asarray(transformed, dtype=np.float64)), 1e-12
    )


def test_tiered_predict_throughput(benchmark, tier_setup):
    trainer, student, test_fs, programs, queries = tier_setup

    def old_forward():
        start = time.perf_counter()
        values = old_forward_predict(trainer, queries)
        return time.perf_counter() - start, values

    def accurate_warm():
        service = PredictionService(trainer)
        service.predict(programs, "t4")  # steady state: caches populated
        start = time.perf_counter()
        values = service.predict(queries, "t4", tier="accurate")
        return time.perf_counter() - start, values

    def fast_cold():
        service = PredictionService(trainer, fast_models={"t4": student})
        start = time.perf_counter()
        values = service.predict(queries, "t4", tier="fast")
        return time.perf_counter() - start, values

    (old_s, old_values), (accurate_s, accurate_values), (fast_s, fast_values) = run_once(
        benchmark, lambda: (old_forward(), accurate_warm(), fast_cold())
    )

    rows = [
        {"tier": "old forward (autograd)", "seconds": old_s,
         "queries_per_s": len(queries) / old_s, "speedup": 1.0},
        {"tier": "accurate (warm cache)", "seconds": accurate_s,
         "queries_per_s": len(queries) / accurate_s, "speedup": old_s / accurate_s},
        {"tier": "fast (cold, distilled)", "seconds": fast_s,
         "queries_per_s": len(queries) / fast_s, "speedup": old_s / fast_s},
    ]
    print_table(
        f"Tiered serving throughput ({len(queries)} queries = "
        f"{len(programs)} kernels x {QUERY_ROUNDS} rounds, T4)",
        rows,
        ["tier", "seconds", "queries_per_s", "speedup"],
    )

    # Refactor equivalence: the accurate tier answers the whole stream as the
    # pre-refactor forward pipeline does.  Not np.array_equal: the service
    # dedups repeats, so its BLAS calls see different batch shapes than the
    # baseline's (bit-exactness at matching shapes is asserted per-module in
    # tests/test_nn_infer.py, and on the wire below).
    np.testing.assert_allclose(accurate_values, old_values, rtol=1e-9)
    assert len(fast_values) == len(old_values)

    # Accuracy contract: the student may lose at most 10 MAPE points to its
    # teacher on held-out data (mape is a fraction, so 10 points is 0.10).
    teacher_mape = trainer.evaluate(test_fs)["mape"]
    student_mape = student.evaluate_features(test_fs)["mape"]
    assert student_mape <= teacher_mape + 0.10, (
        f"student MAPE {student_mape:.3f} vs teacher {teacher_mape:.3f}"
    )

    # Throughput contracts.
    accurate_speedup = old_s / accurate_s
    fast_speedup = old_s / fast_s
    assert accurate_speedup >= 2.0, (
        f"accurate-tier speedup {accurate_speedup:.1f}x below the 2x contract"
    )
    assert fast_speedup >= 5.0, (
        f"fast-tier speedup {fast_speedup:.1f}x below the 5x contract"
    )

    # Wire fidelity: an accurate-tier daemon round-trip answers bit-identically
    # to the in-process fleet serving the same checkpoint.
    fleet = FleetService({"t4": trainer})
    reference = fleet.predict_model("bert_tiny", device="t4", batch_size=1, seed=0)
    with ServingDaemon({"t4": trainer}, DaemonConfig(port=0)) as daemon:
        host, port = daemon.address
        with DaemonClient(host, port) as client:
            wire = client.query("bert_tiny", device="t4", seed=0, tier="accurate")
    assert wire["tier"] == "accurate"
    assert wire["latency_s"] == reference.predicted_latency_s

    results = {
        "benchmark": "tiered_predict_throughput",
        "unique_programs": len(programs),
        "query_rounds": QUERY_ROUNDS,
        "total_queries": len(queries),
        "old_forward_seconds": old_s,
        "accurate_warm_seconds": accurate_s,
        "fast_cold_seconds": fast_s,
        "accurate_speedup": accurate_speedup,
        "fast_speedup": fast_speedup,
        "teacher_mape": teacher_mape,
        "student_mape": student_mape,
    }
    write_results(RESULTS_PATH, results)
