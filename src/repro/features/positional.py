"""Pre-order-based positional encoding (Section 4.2 of the paper).

The encoding of the ξ-th leaf uses its pre-order index ``V[ξ]`` (from the
ordering vector) rather than its index in the leaf sequence, so the position
of the computation inside the original AST -- including how deep under which
loops it sits relative to its siblings -- is what gets encoded:

    position(ξ, 2δ)     = sin(V[ξ] / Θ^(2δ / N_entry))
    position(ξ, 2δ + 1) = cos(V[ξ] / Θ^(2δ / N_entry))
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import FeatureError

DEFAULT_THETA = 10_000.0


def positional_encoding(
    ordering_vector: np.ndarray,
    dim: int,
    theta: float = DEFAULT_THETA,
) -> np.ndarray:
    """Compute the positional encoding matrix ``[num_leaves, dim]``.

    Args:
        ordering_vector: Pre-order index of each leaf (the ordering vector of
            the Compact AST).
        dim: Output dimension, normally ``COMPUTATION_VECTOR_LENGTH`` so the
            encoding can be added to the computation vectors.
        theta: The frequency base Θ (10000 in the paper, following the
            Transformer convention).
    """
    if dim <= 0:
        raise FeatureError("positional encoding dimension must be positive")
    positions = np.asarray(ordering_vector, dtype=np.float64).reshape(-1, 1)  # [L, 1]
    half = (dim + 1) // 2
    deltas = np.arange(half, dtype=np.float64)  # δ = 0 .. ceil(dim/2)-1
    frequencies = positions / (theta ** (2.0 * deltas / dim))  # [L, half]

    encoding = np.zeros((positions.shape[0], dim), dtype=np.float64)
    encoding[:, 0::2] = np.sin(frequencies[:, : encoding[:, 0::2].shape[1]])
    encoding[:, 1::2] = np.cos(frequencies[:, : encoding[:, 1::2].shape[1]])
    return encoding


# (dim, theta) -> read-only encoding rows for positions 0..n-1, regrown to
# the next power of two when a program has a deeper leaf.  Process-wide like
# any pure cache; a race only builds an equal table twice.
_TABLES: Dict[Tuple[int, float], np.ndarray] = {}
# Positions past this are encoded directly (a table row per AST node would
# otherwise grow with the largest program ever seen).
_MAX_TABLE_ROWS = 4096


def _encoding_rows(ordering_vector: np.ndarray, dim: int, theta: float) -> np.ndarray:
    """``positional_encoding(ordering_vector, dim, theta)``, read from a table.

    Pre-order positions are small non-negative integers, so their rows are
    computed once and indexed; each row is the very row
    :func:`positional_encoding` computes for that position.  Any other
    ordering vector is encoded directly.
    """
    positions = np.asarray(ordering_vector, dtype=np.float64).reshape(-1)
    index = positions.astype(np.int64)
    if (
        not positions.size
        or index.min() < 0
        or index.max() >= _MAX_TABLE_ROWS
        or not np.array_equal(index, positions)
    ):
        return positional_encoding(positions, dim, theta=theta)
    table = _TABLES.get((dim, theta))
    needed = int(index.max()) + 1
    if table is None or table.shape[0] < needed:
        size = max(64, 1 << (needed - 1).bit_length())
        table = positional_encoding(np.arange(size, dtype=np.float64), dim, theta=theta)
        table.flags.writeable = False
        _TABLES[(dim, theta)] = table
    return table[index]


def add_positional_encoding(
    computation_vectors: np.ndarray,
    ordering_vector: np.ndarray,
    theta: float = DEFAULT_THETA,
) -> np.ndarray:
    """Add the positional encoding to the computation vectors (Fig. 1(d))."""
    if computation_vectors.ndim != 2:
        raise FeatureError("computation_vectors must be 2-D")
    return computation_vectors + _encoding_rows(
        ordering_vector, computation_vectors.shape[1], float(theta)
    )
