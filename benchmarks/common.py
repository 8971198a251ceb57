"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table or figure of the paper: it prints the
same rows/series the paper reports (on the synthetic substrate) and asserts
the qualitative shape (who wins, rough factors, trend directions).  Absolute
numbers differ from the paper because the ground truth comes from the
analytical device simulator rather than real hardware.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Sequence

# The scale knobs of the benchmark suite.  They are deliberately small enough
# that the whole suite runs in a few minutes on a laptop CPU; raise them for
# a closer (slower) reproduction.
BENCH_SEED = 7
BENCH_EPOCHS = 22
BENCH_FINETUNE_EPOCHS = 3
BENCH_SCHEDULES_PER_TASK = 6
BENCH_ZOO_MODELS = ("bert_tiny", "mobilenet_v2", "vgg16")
BENCH_SYNTHETIC_MODELS = 6


#: Set to ``1`` to let a benchmark rewrite its tracked ``BENCH_*.json``
#: results file; a plain test run leaves the committed numbers alone.
WRITE_RESULTS_ENV = "CDMPP_WRITE_BENCH_RESULTS"


def write_results(path: str, results: Dict[str, object]) -> None:
    """Write ``results`` to ``path`` as JSON, only when the opt-in is set."""
    if os.environ.get(WRITE_RESULTS_ENV) != "1":
        print(f"not writing {path} ({WRITE_RESULTS_ENV}=1 to record)")
        return
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def print_table(title: str, rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> None:
    """Print a small aligned table for one experiment."""
    print(f"\n=== {title} ===")
    widths = {col: max(len(col), *(len(_fmt(row.get(col))) for row in rows)) for col in columns}
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e5):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def run_once(benchmark, fn: Callable[[], object]) -> object:
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are full training pipelines, so timing them repeatedly
    would make the suite impractically slow; pedantic mode with a single
    round records the wall time while keeping the ``--benchmark-only``
    workflow intact.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
