"""Distribution statistics for Figs. 2 and 5 of the paper."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ReproError
from repro.profiler.records import MeasureRecord
from repro.tir.ast import ast_summary
from repro.tir.program import TensorProgram


def ast_node_distribution(programs: Sequence[TensorProgram]) -> Dict[str, np.ndarray]:
    """Node-count and leaf-count distributions over a set of programs (Fig. 2)."""
    if not programs:
        raise ReproError("no programs given")
    nodes, leaves, depths = [], [], []
    for program in programs:
        summary = ast_summary(program)
        nodes.append(summary["num_nodes"])
        leaves.append(summary["num_leaves"])
        depths.append(summary["depth"])
    return {
        "num_nodes": np.asarray(nodes),
        "num_leaves": np.asarray(leaves),
        "depth": np.asarray(depths),
    }


def latency_distribution(records: Sequence[MeasureRecord]) -> np.ndarray:
    """Latency labels in seconds for a set of records (Fig. 5 input)."""
    if not records:
        raise ReproError("no records given")
    return np.asarray([record.latency_s for record in records])


def skewness(values: np.ndarray) -> float:
    """Sample skewness (large positive values = long right tail)."""
    from scipy import stats as sstats

    return float(sstats.skew(np.asarray(values, dtype=np.float64)))


def normality_score(values: np.ndarray) -> float:
    """How close a distribution is to Gaussian, in [0, 1] (1 = very normal).

    Uses the absolute skewness and excess kurtosis: the score decays as
    either grows.  This is the quantity the Fig. 5 benchmark compares across
    normalization methods (Box-Cox should score highest).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 8:
        raise ReproError("need at least 8 samples for a normality score")
    from scipy import stats as sstats

    skew = abs(float(sstats.skew(values)))
    kurt = abs(float(sstats.kurtosis(values)))
    return float(1.0 / (1.0 + skew + 0.25 * kurt))


def histogram(values: np.ndarray, bins: int = 30) -> Dict[str, List[float]]:
    """A plain histogram (counts + bin edges) used by the example scripts."""
    counts, edges = np.histogram(np.asarray(values, dtype=np.float64), bins=bins)
    return {"counts": counts.tolist(), "edges": edges.tolist()}
