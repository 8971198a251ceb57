"""The Tiramisu baseline: a recursive LSTM over the raw (irregular) AST.

Tiramisu's cost model embeds each computation node, then recursively folds
children into their parent loop node with an LSTM, finally regressing from
the root embedding.  Because the recursion follows the AST structure, only
programs with identical AST shapes can share a batch; with the irregular ASTs
of a Tenset-like dataset this forces tiny effective batches and slow
training -- exactly the weakness the paper highlights, which the training
throughput comparison (Fig. 6) reproduces.

The model is trained with a MAPE objective on the latency in milliseconds
(Tiramisu's default is relative-speedup MAPE; absolute-latency MAPE is the
closest equivalent for this dataset).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import BaselineCostModel
from repro.features.compact_ast import extract_compact_ast
from repro.nn.layers import Linear
from repro.nn.lstm import LSTM
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, concatenate, no_grad
from repro.profiler.records import MeasureRecord
from repro.tir.ast import ASTNode, build_ast
from repro.utils.rng import new_rng


class _RecursiveASTModel(Module):
    """Recursive LSTM aggregation over AST nodes."""

    def __init__(self, leaf_dim: int, hidden: int = 32, rng=None):
        super().__init__()
        self.leaf_embed = Linear(leaf_dim, hidden, rng=rng)
        self.loop_embed = Linear(2, hidden, rng=rng)
        self.child_lstm = LSTM(hidden, hidden, rng=rng)
        self.combine = Linear(2 * hidden, hidden, rng=rng)
        self.regressor = Linear(hidden, 1, rng=rng)
        self.hidden = hidden

    def embed_node(self, node: ASTNode, leaf_vectors: List[np.ndarray], cursor: List[int]) -> Tensor:
        """Recursively embed one AST node (depth-first, leaves consume vectors)."""
        if node.is_leaf:
            vector = leaf_vectors[cursor[0]]
            cursor[0] += 1
            return self.leaf_embed(Tensor(vector.reshape(1, -1))).tanh()
        loop_features = Tensor(np.asarray([[np.log1p(node.extent), float(len(node.children))]]))
        own = self.loop_embed(loop_features).tanh()
        if not node.children:
            return own
        child_embeddings = [self.embed_node(child, leaf_vectors, cursor) for child in node.children]
        folded, _ = self.child_lstm(child_embeddings)
        return self.combine(concatenate([own, folded], axis=-1)).tanh()

    def forward(self, root: ASTNode, leaf_vectors: List[np.ndarray]) -> Tensor:  # noqa: D102
        cursor = [0]
        embedding = self.embed_node(root, leaf_vectors, cursor)
        return self.regressor(embedding).reshape(-1)


class TiramisuCostModel(BaselineCostModel):
    """Recursive-LSTM latency predictor in the style of Tiramisu."""

    name = "tiramisu"

    def __init__(self, hidden: int = 32, epochs: int = 3, learning_rate: float = 1e-3,
                 max_train_samples: int = 400, seed: int = 0):
        super().__init__()
        self.hidden = int(hidden)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.max_train_samples = int(max_train_samples)
        self._rng = new_rng(("tiramisu", seed))
        self.model: Optional[_RecursiveASTModel] = None
        self._scale = 1e3  # model latencies in milliseconds

    # ------------------------------------------------------------------
    def _prepare(self, record: MeasureRecord) -> Tuple[ASTNode, List[np.ndarray]]:
        compact = extract_compact_ast(record.program)
        root = build_ast(record.program)
        vectors = [compact.computation_vectors[i] for i in range(compact.num_leaves)]
        return root, vectors

    def _fit(self, records: Sequence[MeasureRecord]) -> None:
        leaf_dim = extract_compact_ast(records[0].program).computation_vectors.shape[1]
        self.model = _RecursiveASTModel(leaf_dim, hidden=self.hidden, rng=self._rng)
        optimizer = Adam(self.model.parameters(), lr=self.learning_rate)

        # Sub-sample the training set: the per-sample recursion is the whole
        # point of the throughput comparison, and it is genuinely slow.
        records = list(records)
        if len(records) > self.max_train_samples:
            idx = self._rng.choice(len(records), size=self.max_train_samples, replace=False)
            records = [records[i] for i in idx]
        prepared = [self._prepare(record) for record in records]
        targets = [record.latency_s * self._scale for record in records]

        for _ in range(self.epochs):
            order = self._rng.permutation(len(prepared))
            for index in order:
                root, vectors = prepared[index]
                target = targets[index]
                optimizer.zero_grad()
                pred = self.model(root, vectors)
                # MAPE objective, Tiramisu's default.
                loss = ((pred - target).abs() / (abs(target) + 1e-9)).mean()
                loss.backward()
                optimizer.clip_grad_norm(5.0)
                optimizer.step()
                self._samples_processed += 1

    def _predict(self, records: Sequence[MeasureRecord]) -> np.ndarray:
        assert self.model is not None
        out = np.empty(len(records), dtype=np.float64)
        with no_grad():
            for index, record in enumerate(records):
                root, vectors = self._prepare(record)
                out[index] = float(self.model(root, vectors).item()) / self._scale
        return out
