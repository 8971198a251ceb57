"""Task sampling strategies for cross-device fine-tuning (Algorithm 1).

When adapting the cost model to a new device, profiling every task is too
expensive.  The clustering-based strategy clusters all tensor-program
features into κ clusters, sorts the clusters by size and, for each cluster,
picks the not-yet-selected task whose features lie closest (on average) to
the cluster center -- yielding κ representative tasks to profile on the
target device.  Random sampling is the baseline of Fig. 13.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

import numpy as np

from repro.core.kmeans import KMeans
from repro.errors import TrainingError
from repro.utils.rng import new_rng


def select_tasks_kmeans(
    features_by_task: Mapping[str, np.ndarray],
    num_tasks: int,
    seed: int | str | None = 0,
) -> List[str]:
    """Algorithm 1: clustering-based task selection.

    Args:
        features_by_task: Maps each task key to the feature (or latent)
            matrix ``X_tau`` of its tensor programs, shape ``[n_tau, D]``.
        num_tasks: κ, the number of tasks to select (also the number of
            clusters).
        seed: Seed of the KMeans initialisation.

    Returns:
        The selected task keys, one per cluster, ordered by decreasing
        cluster size (the order they were picked in).
    """
    if not features_by_task:
        raise TrainingError("no tasks to select from")
    task_keys = list(features_by_task)
    kappa = min(int(num_tasks), len(task_keys))
    if kappa <= 0:
        raise TrainingError("num_tasks must be positive")

    # Line 1: cluster all tensor-program features.
    all_features = np.concatenate(
        [np.atleast_2d(features_by_task[key]) for key in task_keys], axis=0
    )
    kmeans = KMeans(kappa, seed=seed)
    result = kmeans.fit(all_features)
    kappa = kmeans.num_clusters  # may have been clamped

    # Line 2: sort clusters by size (descending).
    sizes = np.bincount(result.labels, minlength=kappa)
    cluster_order = list(np.argsort(-sizes))

    # Line 6: Ψ[e, τ] = mean distance of task τ's features to center e.
    psi = np.zeros((kappa, len(task_keys)))
    for column, key in enumerate(task_keys):
        features = np.atleast_2d(features_by_task[key])
        distances = np.linalg.norm(
            features[:, None, :] - result.centers[None, :, :], axis=2
        )  # [n_tau, kappa]
        psi[:, column] = distances.mean(axis=0)

    # Lines 4-14: pick the closest unselected task for each cluster.
    selected: List[str] = []
    remaining = set(range(len(task_keys)))
    for cluster in cluster_order:
        order = np.argsort(psi[cluster])
        for column in order:
            if column in remaining:
                selected.append(task_keys[column])
                remaining.discard(column)
                break
        if len(selected) >= num_tasks:
            break
    return selected


def select_tasks_random(
    task_keys: Sequence[str],
    num_tasks: int,
    seed: int | str | None = 0,
) -> List[str]:
    """Uniform random task selection (the Fig. 13 baseline)."""
    task_keys = list(task_keys)
    if not task_keys:
        raise TrainingError("no tasks to select from")
    rng = new_rng(seed)
    count = min(int(num_tasks), len(task_keys))
    if count <= 0:
        raise TrainingError("num_tasks must be positive")
    indices = rng.choice(len(task_keys), size=count, replace=False)
    return [task_keys[i] for i in sorted(indices)]
