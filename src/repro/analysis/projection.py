"""Low-dimensional projections of latent representations (Figs. 8, 11, 16).

The paper uses t-SNE to visualise how CMD regularisation pulls the latent
representations of different domains together.  A small exact t-SNE (O(N^2),
fine for a few thousand points) and PCA are implemented here; the benchmarks
quantify the "figures" via CMD distances and cluster overlap rather than by
eye-balling scatter plots.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.utils.rng import new_rng


def pca_project(x: np.ndarray, dim: int = 2) -> np.ndarray:
    """Project rows of ``x`` onto their top ``dim`` principal components."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ReproError(f"PCA expects a [N>=2, D] matrix, got shape {x.shape}")
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:dim].T


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x**2, axis=1)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)


def _joint_probabilities(distances: np.ndarray, perplexity: float) -> np.ndarray:
    n = distances.shape[0]
    probabilities = np.zeros((n, n))
    target_entropy = np.log(perplexity)
    for i in range(n):
        beta_low, beta_high, beta = 1e-20, 1e20, 1.0
        row = np.delete(distances[i], i)
        for _ in range(50):
            exp_row = np.exp(-row * beta)
            total = exp_row.sum()
            if total <= 0:
                beta /= 2
                continue
            p = exp_row / total
            entropy = -np.sum(p * np.log(np.maximum(p, 1e-12)))
            if abs(entropy - target_entropy) < 1e-4:
                break
            if entropy > target_entropy:
                beta_low = beta
                beta = beta * 2 if beta_high >= 1e19 else (beta + beta_high) / 2
            else:
                beta_high = beta
                beta = beta / 2 if beta_low <= 1e-19 else (beta + beta_low) / 2
        exp_row = np.exp(-row * beta)
        p = exp_row / max(exp_row.sum(), 1e-12)
        probabilities[i, np.arange(n) != i] = p
    joint = (probabilities + probabilities.T) / (2.0 * n)
    return np.maximum(joint, 1e-12)


def tsne_project(
    x: np.ndarray,
    dim: int = 2,
    perplexity: float = 20.0,
    iterations: int = 250,
    learning_rate: float = 100.0,
    seed: int | str | None = 0,
) -> np.ndarray:
    """Exact t-SNE projection of ``x`` to ``dim`` dimensions."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 5:
        raise ReproError(f"t-SNE expects a [N>=5, D] matrix, got shape {x.shape}")
    n = x.shape[0]
    perplexity = min(perplexity, (n - 1) / 3.0)
    rng = new_rng(seed)

    p = _joint_probabilities(_pairwise_sq_dists(x), perplexity)
    p_early = p * 4.0  # early exaggeration
    y = rng.normal(scale=1e-2, size=(n, dim))
    velocity = np.zeros_like(y)

    for iteration in range(iterations):
        current_p = p_early if iteration < 50 else p
        dist = _pairwise_sq_dists(y)
        q_numerator = 1.0 / (1.0 + dist)
        np.fill_diagonal(q_numerator, 0.0)
        q = np.maximum(q_numerator / q_numerator.sum(), 1e-12)

        pq = (current_p - q) * q_numerator
        grad = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)
        momentum = 0.5 if iteration < 100 else 0.8
        velocity = momentum * velocity - learning_rate * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y


def domain_overlap(
    projection: np.ndarray, labels: np.ndarray, k: int = 5
) -> float:
    """Fraction of k-nearest neighbours belonging to a *different* domain.

    Higher overlap means the domains are better mixed in the latent space --
    the quantitative proxy for "the clusters merge after CMD regularisation"
    in Figs. 8/11/16.
    """
    projection = np.asarray(projection, dtype=np.float64)
    labels = np.asarray(labels)
    if projection.shape[0] != labels.shape[0]:
        raise ReproError("projection and labels must have the same length")
    n = projection.shape[0]
    if n <= k:
        raise ReproError("need more points than neighbours")
    distances = _pairwise_sq_dists(projection)
    np.fill_diagonal(distances, np.inf)
    neighbour_idx = np.argsort(distances, axis=1)[:, :k]
    different = labels[neighbour_idx] != labels[:, None]
    return float(different.mean())
