"""Regression trees and gradient boosting, implemented from scratch.

This is the substrate of the XGBoost baseline: depth-limited CART regression
trees fitted to (negative gradients of) a squared-error objective, combined
by gradient boosting with shrinkage.  The implementation uses exact greedy
splits over quantile-reduced thresholds, which is plenty for the dataset
sizes of the synthetic substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import TrainingError


@dataclass
class _TreeNode:
    """One node of a regression tree (leaf when ``feature`` is None)."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class RegressionTree:
    """A CART regression tree with squared-error splits."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 8,
        min_samples_leaf: int = 4,
        max_thresholds: int = 32,
    ):
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_thresholds = int(max_thresholds)
        self.root: Optional[_TreeNode] = None

    # ------------------------------------------------------------------
    def _best_split(self, x: np.ndarray, y: np.ndarray):
        """Vectorised exact split search using sorted prefix sums per feature.

        For each feature the samples are sorted once; every split point's SSE
        reduction is then computed from cumulative sums, so the scan over
        thresholds is a single vectorised expression.
        """
        best_gain, best_feature, best_threshold = 1e-12, None, 0.0
        n, d = x.shape
        y_sum, y_sq_sum = float(y.sum()), float((y**2).sum())
        parent_sse = y_sq_sum - y_sum**2 / n
        min_leaf = self.min_samples_leaf
        for feature in range(d):
            column = x[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_x = column[order]
            sorted_y = y[order]
            # Candidate split positions: boundaries between distinct values
            # that leave at least min_leaf samples on each side.
            cum_sum = np.cumsum(sorted_y)
            cum_sq = np.cumsum(sorted_y**2)
            counts = np.arange(1, n + 1, dtype=np.float64)
            valid = (counts[:-1] >= min_leaf) & (counts[:-1] <= n - min_leaf)
            valid &= sorted_x[:-1] < sorted_x[1:]
            if not np.any(valid):
                continue
            left_sse = cum_sq[:-1] - cum_sum[:-1] ** 2 / counts[:-1]
            right_counts = n - counts[:-1]
            right_sum = y_sum - cum_sum[:-1]
            right_sq = y_sq_sum - cum_sq[:-1]
            right_sse = right_sq - right_sum**2 / np.maximum(right_counts, 1.0)
            gains = np.where(valid, parent_sse - (left_sse + right_sse), -np.inf)
            position = int(np.argmax(gains))
            if gains[position] > best_gain:
                best_gain = float(gains[position])
                best_feature = feature
                best_threshold = float((sorted_x[position] + sorted_x[position + 1]) / 2.0)
        return best_feature, best_threshold

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(value=float(y.mean()))
        if depth >= self.max_depth or y.size < self.min_samples_split or np.allclose(y, y[0]):
            return node
        feature, threshold = self._best_split(x, y)
        if feature is None:
            return node
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        """Fit the tree to features ``x`` and targets ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if x.shape[0] != y.shape[0] or x.shape[0] == 0:
            raise TrainingError(f"invalid tree training data shapes {x.shape} / {y.shape}")
        self.root = self._build(x, y, depth=0)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for ``x``."""
        if self.root is None:
            raise TrainingError("RegressionTree.predict called before fit")
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[0], dtype=np.float64)
        for index, row in enumerate(x):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[index] = node.value
        return out


class GradientBoostedTrees:
    """Gradient boosting with squared-error loss and shrinkage."""

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        subsample: float = 0.9,
        min_samples_leaf: int = 4,
        seed: int = 0,
    ):
        if n_estimators <= 0:
            raise TrainingError("n_estimators must be positive")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.subsample = float(subsample)
        self.min_samples_leaf = int(min_samples_leaf)
        self._rng = np.random.default_rng(seed)
        self.base_prediction = 0.0
        self.trees: List[RegressionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        """Fit the ensemble."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        self.base_prediction = float(y.mean())
        current = np.full_like(y, self.base_prediction)
        self.trees = []
        n = x.shape[0]
        for _ in range(self.n_estimators):
            residual = y - current
            if self.subsample < 1.0:
                size = max(int(self.subsample * n), 1)
                idx = self._rng.choice(n, size=size, replace=False)
            else:
                idx = np.arange(n)
            tree = RegressionTree(max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf)
            tree.fit(x[idx], residual[idx])
            update = tree.predict(x)
            current = current + self.learning_rate * update
            self.trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict with the full ensemble."""
        if not self.trees:
            raise TrainingError("GradientBoostedTrees.predict called before fit")
        x = np.asarray(x, dtype=np.float64)
        out = np.full(x.shape[0], self.base_prediction, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(x)
        return out
