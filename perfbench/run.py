#!/usr/bin/env python3
"""Benchmark of the ``cdmpp daemon``: serving and tuning over the wire.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``serve-warm``  -- query/predict-model over a small repeated pool;
* ``tune-cold``   -- tune ops under fresh seeds, one in flight.

Each run trains the two tiny checkpoints once per source tree (cached under
``.perfbench/``), spawns the real daemon several times on fresh registry
copies (``setup_s`` is the median daemon CPU time from spawn to healthy),
drives the last one with the workload, checks every answer against
in-process ``FleetService``/``SearchService`` on the same checkpoints, and
prints one JSON line: ``--trace 0`` gives the end-to-end metrics;
``--trace 1`` gives the per-layer metrics of a second half-length pass on
a daemon launched through ``traced_daemon.py``.  The exit code is 0 only
when every answer matched.

CPU-bound work is counted on the daemon's CPU clock, not the wall clock:
the host lends its cores to other tenants, and the time it withholds them
(steal) swung from 0 to over a third of busy time within minutes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

# One BLAS thread everywhere: in the daemon, where BLAS worker threads
# busy-wait on cores the load generator needs (on a 2-core host the p90 of
# an early cold-heavy mix swung 92-232 ms over five runs with the default,
# 110-120 ms with one thread),
# and in this process, so in-process reference answers use the same
# arithmetic.  Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import benchmath  # noqa: E402
import workloads as wl  # noqa: E402
from layers import LAYER_UNITS, layer_metrics  # noqa: E402

WORKLOADS = ("serve-warm", "tune-cold")
SCALE = "tiny"
CHECKPOINT_SEED = 0
SETUP_SPAWNS = 3
RUN_TIMEOUT_S = 170
MS = 1e3
# A served latency may differ from the in-process one in its last bits: the
# daemon batches a kernel with whatever requests shared its flush, and the
# batch shape changes the BLAS summation order.  Anything beyond float64
# rounding noise is a wrong answer.
ANSWER_REL_TOL = 1e-9
WARM_BURST = 400  # pool requests sent at full concurrency before timing


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer: that is a failed op)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# Environment capture
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Content hash of ``src/``: identifies the program when there is no git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_ticks() -> List[int]:
    """The host-wide ``cpu`` line of ``/proc/stat``: user, nice, system, idle, iowait, irq, softirq, steal."""
    return [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the busy CPU time between two samples that the host gave to other tenants."""
    delta = [b - a for a, b in zip(before, after)]
    busy = sum(delta) - delta[3] - delta[4]
    return delta[7] / busy if busy else 0.0


def capture_env() -> Dict[str, Any]:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version")}
    except TypeError:  # numpy < 1.26 has no mode="dicts"
        blas = {"name": "unknown"}
    threads = {
        key: os.environ.get(key)
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_digest": source_digest(),
    }


# ----------------------------------------------------------------------
# Checkpoints and daemons
# ----------------------------------------------------------------------
def prepare_checkpoints(digest: str) -> Path:
    """Train the tiny checkpoints once per source tree (deterministic, untimed)."""
    target = WORK / "checkpoints" / digest
    names = [f"{device}-{SCALE}.npz" for device in wl.DEVICES]
    if all((target / name).exists() for name in names):
        return target
    staging = target.with_name(f"{digest}.staging{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    for device in wl.DEVICES:
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "train", device, "--scale", SCALE,
             "--seed", str(CHECKPOINT_SEED), "--registry", str(staging)],
            env=_child_env(),
            stdout=sys.stderr,
            check=True,
            timeout=120,
        )
    try:
        staging.rename(target)
    except OSError:  # another run finished first: use its copy
        shutil.rmtree(staging, ignore_errors=True)
    return target


def fresh_registry(checkpoints: Path, run_dir: Path, label: str) -> Path:
    """A private registry copy, so no search cache carries over."""
    registry = run_dir / f"registry-{label}"
    shutil.copytree(checkpoints, registry)
    return registry


class Daemon:
    """One ``cdmpp daemon`` child process on an OS-assigned port."""

    def __init__(self, registry: Path, log: Path, trace_out: Optional[Path] = None):
        if trace_out is None:
            launcher = ["-m", "repro.cli"]
        else:
            launcher = [str(HERE / "traced_daemon.py"), str(trace_out)]
        command = [
            sys.executable, *launcher, "daemon", "--devices", ",".join(wl.DEVICES),
            "--scale", SCALE, "--port", "0", "--registry", str(registry),
        ]
        self.registry = registry
        self._log = open(log, "w")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=_child_env(), text=True
        )
        try:
            self.port = None
            for line in self.proc.stdout:
                if "listening on" in line:
                    self.port = int(line.rsplit(":", 1)[1].split()[0])
                    break
            if self.port is None:
                raise BenchError(f"daemon exited before listening; see {log}")
            self._health()
        except BaseException:
            self.stop()
            raise
        # Set-up counted on both clocks; setup_s reports the CPU one.
        self.setup_s = time.monotonic() - started
        self.setup_cpu_s = self.cpu_s()

    def _health(self) -> None:
        from repro.serving.protocol import MessageStream

        stream = MessageStream(socket.create_connection(("127.0.0.1", self.port), timeout=30))
        try:
            stream.send({"op": "health"})
            response = stream.recv()
        finally:
            stream.close()
        if not response or not response.get("ok"):
            raise BenchError(f"daemon health probe failed: {response}")

    def cpu_s(self) -> float:
        """CPU seconds the daemon has run, all threads, to the nanosecond.

        ``(~pid << 3) | 2`` is the process CPU clock of ``pid``, the id
        ``clock_getcpuclockid(3)`` returns.  Time the host withheld the CPU
        (steal) is not on this clock.
        """
        return time.clock_gettime((~self.proc.pid << 3) | 2)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.registry, ignore_errors=True)  # 2.4 MB per daemon
        return self.proc.returncode


# ----------------------------------------------------------------------
# Workload phases
# ----------------------------------------------------------------------
def _stats(gen) -> Dict[str, Any]:
    record = gen.send({"op": "stats"}, 0, time.monotonic(), "control")
    if not gen.wait_idle():
        raise BenchError("stats probe unanswered")
    return record.response


def _drain(items: List[Dict[str, Any]]):
    it = iter(items)
    return lambda: next(it, None)


def run_serve(gen, daemon: "Daemon", seed: int, seconds: float) -> Dict[str, Any]:
    # Untimed: every pool entry once, then a burst at full concurrency; the
    # first seconds at capacity otherwise ran up to a third slower.
    gen.closed_loop([_drain(wl.warm_requests(seed))] * 4, float("inf"), "warm")
    burst = list(itertools.islice(wl.serve_stream(seed), WARM_BURST))
    gen.closed_loop([_drain(burst)] * wl.CAPACITY_IN_FLIGHT, float("inf"), "warm")
    stream = wl.serve_stream(seed)
    rate = wl.OPEN_LOOP_RPS
    open_s = seconds * wl.OPEN_LOOP_SHARE
    before = _stats(gen)
    start = time.monotonic() + 0.05
    gaps = wl.open_loop_gaps(seed, rate, int(rate * open_s * 2) + 16)
    due = [t for t in benchmath.open_loop_schedule(start, gaps) if t < start + open_s]
    gen.open_loop(stream, due, "open")
    cpu = daemon.cpu_s()
    cap_start = time.monotonic()
    cap_until = cap_start + seconds - open_s
    lanes = [lambda: next(stream)] * wl.CAPACITY_IN_FLIGHT
    gen.closed_loop(lanes, cap_until, "capacity")
    capacity_cpu_s = daemon.cpu_s() - cpu
    after = _stats(gen)
    window = (start, time.monotonic())
    quality = wl.quality_requests(seed) + wl.reference_tunes(seed)
    gen.closed_loop([_drain(quality)] * 2, float("inf"), "quality")
    return {"window": window, "capacity_cpu_s": capacity_cpu_s, "stats": (before, after)}


def run_tune(gen, daemon: "Daemon", seed: int, seconds: float) -> Dict[str, Any]:
    # One op in flight in the whole daemon, so its CPU time over an op is
    # that op's.  Ops alternate between the devices.
    streams = [wl.tune_stream(seed, device) for device in wl.DEVICES]
    rotation = wl.TUNED_ROTATIONS * len(wl.TUNE_NETWORKS) * len(streams)
    before = _stats(gen)
    start = time.monotonic()
    for k in itertools.count():
        if k >= rotation and time.monotonic() >= start + seconds:
            break
        cpu = daemon.cpu_s()
        record = gen.send(next(streams[k % len(streams)]), k % gen.connections, time.monotonic(), "tune")
        if not gen.wait_idle():
            gen.abandon_outstanding()
        record.cpu_s = daemon.cpu_s() - cpu
    after = _stats(gen)
    window = (start, time.monotonic())
    gen.closed_loop([_drain(wl.quality_requests(seed))] * 2, float("inf"), "quality")
    return {"window": window, "stats": (before, after)}


def drive(daemon: Daemon, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    from loadgen import Generator

    gen = Generator("127.0.0.1", daemon.port)
    # A full collection in this process (which holds the whole repro import
    # and every record) stalls the sender; nothing here builds cycles.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        run_phases = run_tune if workload == "tune-cold" else run_serve
        phases = run_phases(gen, daemon, seed, seconds)
        phases["peak_rss_mb"] = daemon.peak_rss_mb()
    finally:
        gc.enable()
        gen.close()
    phases["records"] = gen.records
    return phases


# ----------------------------------------------------------------------
# Correctness: every answer against the in-process services
# ----------------------------------------------------------------------
def _canonical(payload: Any) -> Any:
    return json.loads(json.dumps(payload))


def verify(records, checkpoints: Path) -> Dict[str, Any]:
    """Recompute every served answer in process; a mismatch is a failed op.

    Returns the failed record indices and, per distinct served
    (network, batch, device, seed), the served whole-model latency.
    """
    from repro.serving import FleetService, ModelRegistry, SearchService
    from repro.serving.search_cache import SearchCache

    registry = ModelRegistry(checkpoints)
    fleet = FleetService({d: registry.load(f"{d}-{SCALE}") for d in wl.DEVICES})
    search = SearchService(fleet, cache=SearchCache())
    served: Dict[tuple, float] = {}
    failed: List[int] = []
    reasons: List[str] = []

    def fail(record, why: str) -> None:
        failed.append(record.index)
        reasons.append(f"{record.phase} #{record.index} {record.request.get('op')}: {why}")

    pending: Dict[tuple, List[tuple]] = {}
    for record in records:
        if not record.ok:
            fail(record, f"no answer or error: {record.response}")
            continue
        request, response = record.request, record.response
        op = request["op"]
        if op in ("query", "predict-model"):
            net, batch, seed = request["network"], request["batch_size"], request["seed"]
            if op == "query":
                answers = [(request["device"], response.get("latency_s"))]
            else:
                answers = [(r["device"], r["latency_s"]) for r in response.get("results", [])]
                if sorted(d for d, _ in answers) != sorted(wl.DEVICES) or response.get("errors"):
                    fail(record, f"devices missing: {response.get('errors')}")
                    continue
            for device, latency in answers:
                pending.setdefault((net, batch, device, seed), []).append((record, latency))
        elif op == "tune":
            reference = search.tune_model(
                request["network"],
                devices=request["devices"],
                num_rounds=request["rounds"],
                population=request["population"],
                measurements_per_round=request["measurements_per_round"],
                seed=request["seed"],
                use_cache=False,
            )
            expected = _canonical([tuning.to_dict() for tuning in reference])
            if response.get("results") != expected or response.get("errors"):
                fail(record, "tuning differs from the in-process SearchService")
    exact = answers = 0
    by_seed: Dict[Any, List[tuple]] = {}
    for key in pending:
        by_seed.setdefault(key[3], []).append(key)
    for seed, keys in by_seed.items():
        predictions = fleet.predict_model_batch(
            [(net, device, batch) for net, batch, device, _ in keys], seed=seed
        )
        for key, prediction in zip(keys, predictions):
            expected = prediction.predicted_latency_s
            served[key] = expected
            for record, latency in pending[key]:
                exact += latency == expected
                if not math.isclose(latency, expected, rel_tol=ANSWER_REL_TOL, abs_tol=0.0):
                    fail(record, f"{key}: served {latency!r}, in process {expected!r}")
                answers += 1
    return {
        "failed": sorted(set(failed)),
        "reasons": reasons,
        "served": served,
        "bit_identical_share": exact / answers if answers else 1.0,
    }


def e2e_accuracy(served: Dict[tuple, float], seeds: List[int]) -> Dict[str, float]:
    """Error of the served whole-model latencies of ``seeds`` against the simulator.

    ``e2e_smape`` is the mean symmetric absolute % error, ``2|p - m| / (p +
    m)``.  Each answer's term is below 200% and rises with its error, so
    one wild extrapolation (tiny-scale checkpoints give one answer 4.8e21
    times the measurement) cannot swamp the mean, and unlike an error
    capped at 100% a better but still wrong answer lowers it.  ``off_2x``
    counts the answers more than a factor of two away, for the run log.
    """
    from repro.graph.zoo import build_model
    from repro.replay.e2e import measure_end_to_end

    errors, off_2x = [], 0
    for (net, batch, device, seed), predicted in sorted(served.items(), key=repr):
        if seed not in seeds:
            continue
        graph = build_model(net, batch_size=batch)
        measured = measure_end_to_end(graph, device, seed=seed).iteration_time_s
        errors.append(2.0 * abs(predicted - measured) / (predicted + measured))
        off_2x += not 0.5 <= predicted / measured <= 2.0
    return {"e2e_smape": 100.0 * statistics.fmean(errors), "off_2x": off_2x, "answers": len(errors)}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ms(seconds: float) -> float:
    return seconds * MS if seconds != benchmath.INF else 1e12  # a failure sits at this rank


def _kernels_answered(record) -> int:
    response = record.response
    if record.request["op"] == "query":
        return response["num_unique_kernels"]
    return sum(r["num_unique_kernels"] for r in response["results"])


def end_to_end(phases: Dict[str, Any], workload: str) -> Dict[str, float]:
    """The end-to-end metrics of one drive; see README.md for their definitions.

    Work per second is counted on the daemon's CPU clock: the host lends
    its cores to other tenants, and the steal (a third of busy time in some
    runs) stretches wall time, not CPU time.
    """
    records = phases["records"]
    if workload == "tune-cold":
        ops = [r for r in records if r.phase == "tune"]
        ok = [r for r in ops if r.ok]
        cpu_s = sum(r.cpu_s for r in ops)
        latencies = benchmath.latencies_with_failures(r.cpu_s if r.ok else None for r in ops)
        work = sum(
            task["num_scored"]
            for r in ok
            for tuning in r.response["results"]
            for task in tuning["results"].values()
        )
        tunes = [
            r for r in ops
            if r.request["seed"] % 10_000 < wl.TUNED_ROTATIONS * len(wl.TUNE_NETWORKS)
        ]
    else:
        opened = sorted((r for r in records if r.phase == "open"), key=lambda r: r.due)
        latencies = benchmath.latencies_with_failures(
            benchmath.open_loop_latency(r.due, r.arrived) if r.ok else None for r in opened
        )
        ok = [r for r in records if r.phase == "capacity" and r.ok]
        cpu_s = phases["capacity_cpu_s"]
        work = sum(_kernels_answered(r) for r in ok)
        tunes = [r for r in records if r.phase == "quality" and r.request["op"] == "tune"]
    return {
        "latency_p50_ms": _ms(benchmath.chunked_percentile(latencies, 50)),
        "latency_p75_ms": _ms(benchmath.chunked_percentile(latencies, 75)),
        "requests_per_cpu_s": len(ok) / cpu_s,
        "candidates_per_cpu_s": work / cpu_s,
        "tuned_latency_ms": MS * sum(
            tuning["tuned_latency_s"] for r in tunes if r.ok for tuning in r.response["results"]
        ),
        "peak_rss_mb": phases["peak_rss_mb"],
    }


E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "requests_per_cpu_s": "1/cpu_s",
    "e2e_smape": "%",
    "candidates_per_cpu_s": "1/cpu_s",
    "tuned_latency_ms": "ms",
    "peak_rss_mb": "MB",
}


def phase_counts(records, failed: List[int]) -> Dict[str, Dict[str, int]]:
    bad = set(failed)
    counts: Dict[str, Dict[str, int]] = {}
    for record in records:
        entry = counts.setdefault(record.phase, {"attempted": 0, "succeeded": 0, "failed": 0})
        entry["attempted"] += 1
        entry["failed" if record.index in bad else "succeeded"] += 1
    return counts


def latency_histogram(records) -> Dict[str, int]:
    """Open-loop (or tune) latencies in log2 buckets of 1 ms, for the run log."""
    histogram: Dict[str, int] = {}
    for record in records:
        if record.phase not in ("open", "tune"):
            continue
        if not record.ok:
            bucket = "failed"
        else:
            ms = (record.arrived - record.due) * MS
            upper = 1
            while upper < ms:
                upper *= 2
            bucket = f"<={upper}ms"
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return dict(sorted(histogram.items(), key=lambda kv: (kv[0] == "failed", len(kv[0]), kv[0])))


def stalled_share(records) -> float:
    """Share of open-loop responses let through by the generator's next send."""
    sends: Dict[int, list] = {}
    arrivals: Dict[int, list] = {}
    for record in records:
        if record.phase != "open":
            continue
        sends.setdefault(record.conn, []).append((record.sent, record.index))
        if record.ok:
            arrivals.setdefault(record.conn, []).append((record.arrived, record.index))
    total = sum(len(a) for a in arrivals.values())
    stalled = sum(
        benchmath.stalled_responses(sends[conn], arrivals[conn]) for conn in arrivals
    )
    return stalled / total if total else 0.0


# ----------------------------------------------------------------------
def run(args) -> int:
    sys.path.insert(0, str(SRC))
    env = capture_env()
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    env["load_before"] = load_before
    env["busy_at_start"] = load_before[0] > 0.75 * env["nproc"]
    checkpoints = prepare_checkpoints(env["source_digest"])
    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    stages = {"start": time.monotonic()}
    setup_times = []
    for spawn in range(SETUP_SPAWNS - 1):
        probe = Daemon(fresh_registry(checkpoints, run_dir, f"setup{spawn}"), run_dir / f"setup{spawn}.log")
        setup_times.append((probe.setup_s, probe.setup_cpu_s))
        probe.stop()
    daemon = Daemon(fresh_registry(checkpoints, run_dir, "main"), run_dir / "daemon.log")
    setup_times.append((daemon.setup_s, daemon.setup_cpu_s))
    # A traced run measures the workload twice, untraced then traced, for
    # half the seconds each: the difference is the tracing overhead.
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        phases = drive(daemon, args.workload, args.seed, seconds)
    finally:
        exit_code = daemon.stop()
    stages["driven"] = time.monotonic()
    records = list(phases["records"])
    traced = None
    if args.trace:
        trace_file = run_dir / "trace.json"
        tdaemon = Daemon(fresh_registry(checkpoints, run_dir, "traced"), run_dir / "traced.log", trace_file)
        try:
            traced = drive(tdaemon, args.workload, args.seed, seconds)
        finally:
            tdaemon.stop()
        traced["trace"] = json.loads(trace_file.read_text())
        offset = len(records)
        for record in traced["records"]:
            record.index += offset
        records += traced["records"]

    stages["traced"] = time.monotonic()
    checked = verify(records, checkpoints)
    stages["verified"] = time.monotonic()
    failed = checked["failed"]
    if exit_code != 0:
        failed.append(-1)  # the daemon did not drain cleanly
    metrics = end_to_end(phases, args.workload)
    metrics["setup_s"] = statistics.median(cpu for _, cpu in setup_times)
    accuracy = e2e_accuracy(checked["served"], wl.quality_seeds(args.seed))
    metrics["e2e_smape"] = accuracy.pop("e2e_smape")
    env["load_after"] = os.getloadavg()
    env["steal_share"] = steal_share(ticks_before, cpu_ticks())
    stages["measured_accuracy"] = time.monotonic()

    if args.trace:
        traced_e2e = end_to_end(traced, args.workload)
        reported = layer_metrics(
            traced, args.workload, phases["records"], metrics, traced_e2e, stalled_share
        )
        units = LAYER_UNITS
    else:
        reported, units = metrics, E2E_UNITS
    log = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_wall_cpu_s": setup_times,
        "stage_end_s": {k: round(v - stages["start"], 2) for k, v in stages.items()},
        "phases": phase_counts(records, failed),
        "failures": checked["reasons"][:20],
        "bit_identical_share": checked["bit_identical_share"],
        "accuracy": accuracy,
        "latency_histogram": latency_histogram(phases["records"]),
        "stalled_response_share": stalled_share(phases["records"]),
        "end_to_end": metrics,
        "per_layer": reported if args.trace else None,
        "layer_table": traced.get("layer_table") if traced else None,
    }
    (run_dir / "run.json").write_text(json.dumps(log, indent=1, default=str))
    (run_dir / "records.json").write_text(json.dumps([
        [r.phase, r.conn, r.request.get("op"), r.due, r.sent, r.arrived, r.ok, r.cpu_s]
        for r in records
    ]))
    print(json.dumps(log, default=str), file=sys.stderr)
    if env["busy_at_start"]:
        print(f"warning: load average {load_before[0]:.2f} at start on {env['nproc']} cores", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in reported.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").exists():
        print(f"error: no program source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S}s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        return run(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
