"""The CDMPP predictor model (Fig. 4 of the paper).

Architecture:

* an input projection from computation vectors (with positional encoding
  already added) to the model dimension;
* a Transformer encoder over the leaf sequence (padding masked);
* one *leaf-count-specific* linear embedding layer per possible leaf count:
  the encoder outputs of a Compact AST with ``L`` leaves are flattened and
  projected by the ``L``-th layer, giving a fixed-size device-independent
  embedding ``z_x`` without padding-induced sparsity;
* a small MLP embedding the device-dependent features into ``z_v``;
* a regression decoder applied to ``z = z_x ++ z_v``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PredictorConfig
from repro.errors import FeatureError, ModelError
from repro.features.pipeline import FeatureSet
from repro.nn.layers import Linear
from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concatenate
from repro.nn.transformer import TransformerEncoder
from repro.utils.rng import new_rng


class CDMPPPredictor(Module):
    """Cross-device / cross-model latency predictor."""

    def __init__(self, config: Optional[PredictorConfig] = None, seed: int | str | None = 0):
        super().__init__()
        self.config = config = config if config is not None else PredictorConfig()
        rng = new_rng(("cdmpp-predictor", seed))

        self.input_proj = Linear(config.feature_dim, config.d_model, rng=rng)
        self.encoder = TransformerEncoder(
            dim=config.d_model,
            num_heads=config.num_heads,
            num_layers=config.num_encoder_layers,
            dropout=config.dropout,
            rng=rng,
        )
        # One embedding layer per leaf count 1..max_leaves (Sec. 5.1).
        self.leaf_embeddings = [
            Linear(config.d_model * count, config.embedding_dim, rng=rng)
            for count in range(1, config.max_leaves + 1)
        ]
        if config.use_device_features:
            self.device_mlp = MLP(
                config.device_feature_dim,
                list(config.device_hidden),
                config.device_embedding_dim,
                activation="relu",
                rng=rng,
            )
            decoder_in = config.embedding_dim + config.device_embedding_dim
        else:
            self.device_mlp = None
            decoder_in = config.embedding_dim
        self.decoder = MLP(
            decoder_in,
            list(config.decoder_hidden),
            1,
            activation="relu",
            dropout=config.dropout,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _leaf_groups(self, leaf_counts: np.ndarray) -> Dict[int, np.ndarray]:
        groups: Dict[int, np.ndarray] = {}
        for count in np.unique(leaf_counts):
            groups[int(count)] = np.flatnonzero(leaf_counts == count)
        return groups

    def encode(
        self,
        x: Tensor,
        mask: Tensor,
        leaf_counts: np.ndarray,
        device_features: Optional[Tensor] = None,
    ) -> Tensor:
        """Compute the latent representation ``z`` (Eq. 2's ``h(x)``)."""
        if x.ndim != 3:
            raise ModelError(f"expected [batch, leaves, features] input, got shape {x.shape}")
        batch, max_leaves, _ = x.shape

        hidden = self.input_proj(x)
        hidden = self.encoder(hidden, mask=mask)

        # Leaf-count-specific embedding layers.
        groups = self._leaf_groups(np.asarray(leaf_counts))
        outputs: List[Tensor] = []
        orders: List[np.ndarray] = []
        for count, indices in sorted(groups.items()):
            if count <= 0:
                raise FeatureError("encountered a sample with zero leaves")
            if count > self.config.max_leaves:
                raise FeatureError(
                    f"Compact AST has {count} leaves but the predictor supports at most "
                    f"{self.config.max_leaves}; increase PredictorConfig.max_leaves"
                )
            sub = hidden[indices][:, :count, :]
            flat = sub.reshape(len(indices), count * self.config.d_model)
            outputs.append(self.leaf_embeddings[count - 1](flat))
            orders.append(indices)
        stacked = concatenate(outputs, axis=0)
        # Restore the original batch order.
        original_positions = np.concatenate(orders)
        permutation = np.argsort(original_positions)
        z_x = stacked[permutation]

        if self.device_mlp is not None:
            if device_features is None:
                raise ModelError("predictor configured with device features but none were given")
            z_v = self.device_mlp(device_features)
            return concatenate([z_x, z_v], axis=-1)
        return z_x

    def infer_encode(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        leaf_counts: np.ndarray,
        device_features: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Autograd-free :meth:`encode` over raw ndarrays (same math, no graph).

        The encoder runs only on the first ``min(L, 8 * ceil(max leaf count
        / 8))`` of the ``L`` padded positions; :meth:`encode` (training)
        keeps every position.  The dropped positions are padding that no
        row reads, so the answers stay bit-identical, but only because the
        width is a multiple of 8: NumPy's pairwise sum, which gives the
        softmax denominator, accumulates in 8 lanes, and trailing zero
        weights leave each lane's partial sum unchanged only when every
        lane sees the same real positions.  At width 6, 66 of 248 resnet50
        candidates differed from width 16 in the last bits.
        """
        if x.ndim != 3:
            raise ModelError(f"expected [batch, leaves, features] input, got shape {x.shape}")
        leaf_counts = np.asarray(leaf_counts)
        if leaf_counts.size:
            width = min(x.shape[1], -(-max(int(leaf_counts.max()), 1) // 8) * 8)
            x, mask = x[:, :width], mask[:, :width]

        hidden = self.input_proj.infer(x)
        hidden = self.encoder.infer(hidden, mask=mask)

        groups = self._leaf_groups(leaf_counts)
        outputs: List[np.ndarray] = []
        orders: List[np.ndarray] = []
        for count, indices in sorted(groups.items()):
            if count <= 0:
                raise FeatureError("encountered a sample with zero leaves")
            if count > self.config.max_leaves:
                raise FeatureError(
                    f"Compact AST has {count} leaves but the predictor supports at most "
                    f"{self.config.max_leaves}; increase PredictorConfig.max_leaves"
                )
            sub = hidden[indices][:, :count, :]
            flat = sub.reshape(len(indices), count * self.config.d_model)
            outputs.append(self.leaf_embeddings[count - 1].infer(flat))
            orders.append(indices)
        stacked = np.concatenate(outputs, axis=0)
        permutation = np.argsort(np.concatenate(orders))
        z_x = stacked[permutation]

        if self.device_mlp is not None:
            if device_features is None:
                raise ModelError("predictor configured with device features but none were given")
            z_v = self.device_mlp.infer(device_features)
            return np.concatenate([z_x, z_v], axis=-1)
        return z_x

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def forward(
        self,
        x: Tensor,
        mask: Tensor,
        leaf_counts: np.ndarray,
        device_features: Optional[Tensor] = None,
    ) -> Tensor:
        """Predict the (transformed) latency of each sample; shape ``[batch]``."""
        latent = self.encode(x, mask, leaf_counts, device_features)
        return self.decoder(latent).reshape(-1)

    def infer(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        leaf_counts: np.ndarray,
        device_features: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Autograd-free :meth:`forward`; bit-identical to it for float64 inputs."""
        latent = self.infer_encode(x, mask, leaf_counts, device_features)
        return self.decoder.infer(latent).reshape(-1)

    # ------------------------------------------------------------------
    # FeatureSet conveniences
    # ------------------------------------------------------------------
    @staticmethod
    def tensors_from(features: FeatureSet, indices: Optional[np.ndarray] = None) -> Tuple:
        """Build input tensors (x, mask, leaf_counts, device_features) from a FeatureSet."""
        if indices is None:
            subset = features
        else:
            subset = features.subset(list(np.asarray(indices)))
        return (
            Tensor(subset.x),
            Tensor(subset.mask),
            subset.leaf_counts,
            Tensor(subset.device_features),
        )

    @property
    def latent_dim(self) -> int:
        """Width of the latent representation ``z`` produced by :meth:`encode`."""
        if self.device_mlp is not None:
            return self.config.embedding_dim + self.config.device_embedding_dim
        return self.config.embedding_dim

    def predict_transformed(
        self, features: FeatureSet, batch_size: int = 256, dtype=None
    ) -> np.ndarray:
        """Predict in the transformed label space, batching to bound memory.

        Runs the autograd-free :meth:`infer` path (no ``Tensor`` graph, no
        ``FeatureSet.subset`` copies) — bit-identical to the old
        forward-under-``no_grad`` for the default float64; ``dtype=np.float32``
        trades the last digits for speed.
        """
        if len(features) == 0:
            return np.zeros(0, dtype=np.float64)
        outputs = []
        for start in range(0, len(features), batch_size):
            stop = min(start + batch_size, len(features))
            x = features.x[start:stop]
            mask = features.mask[start:stop]
            dev = features.device_features[start:stop]
            if dtype is not None:
                x, mask, dev = x.astype(dtype), mask.astype(dtype), dev.astype(dtype)
            outputs.append(self.infer(x, mask, features.leaf_counts[start:stop], dev))
        return np.concatenate(outputs, axis=0)

    def encode_features(
        self, features: FeatureSet, batch_size: int = 256, dtype=None
    ) -> np.ndarray:
        """Latent representations of all samples (for CMD analysis / sampling)."""
        if len(features) == 0:
            return np.zeros((0, self.latent_dim), dtype=np.float64)
        outputs = []
        for start in range(0, len(features), batch_size):
            stop = min(start + batch_size, len(features))
            x = features.x[start:stop]
            mask = features.mask[start:stop]
            dev = features.device_features[start:stop]
            if dtype is not None:
                x, mask, dev = x.astype(dtype), mask.astype(dtype), dev.astype(dtype)
            outputs.append(self.infer_encode(x, mask, features.leaf_counts[start:stop], dev))
        return np.concatenate(outputs, axis=0)
