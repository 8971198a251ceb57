"""Configuration dataclasses for the predictor and its training."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError
from repro.features.compact_ast import COMPUTATION_VECTOR_LENGTH
from repro.features.device_features import DEVICE_FEATURE_DIM


@dataclass(frozen=True)
class PredictorConfig:
    """Architecture of the CDMPP predictor (Fig. 4 / Appendix B).

    The paper's auto-tuned configuration uses 11 transformer layers and
    ~1000-wide linear layers (13.8M parameters); the defaults here are scaled
    down so the NumPy implementation trains in seconds, but every structural
    element (transformer encoder, per-leaf-count embedding layers, device
    MLP, MLP decoder) is preserved and the auto-tuner can scale them up.
    """

    feature_dim: int = COMPUTATION_VECTOR_LENGTH
    device_feature_dim: int = DEVICE_FEATURE_DIM
    d_model: int = 64
    num_heads: int = 4
    num_encoder_layers: int = 2
    embedding_dim: int = 64
    device_embedding_dim: int = 16
    decoder_hidden: Tuple[int, ...] = (64, 64)
    device_hidden: Tuple[int, ...] = (32,)
    max_leaves: int = 16
    dropout: float = 0.0
    use_device_features: bool = True

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by num_heads ({self.num_heads})"
            )
        if self.max_leaves <= 0:
            raise ConfigError("max_leaves must be positive")
        if self.num_encoder_layers <= 0:
            raise ConfigError("num_encoder_layers must be positive")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of predictor pre-training / fine-tuning."""

    batch_size: int = 128
    epochs: int = 60
    learning_rate: float = 3e-3
    weight_decay: float = 1e-4
    optimizer: str = "adam"
    scheduler: str = "cosine"
    lambda_mape: float = 0.1
    grad_clip: float = 5.0
    label_transform: str = "box-cox"
    cmd_alpha: float = 1.0
    cmd_moments: int = 5
    early_stopping_patience: int = 0
    seed: int = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ConfigError("batch_size and epochs must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.scheduler not in ("cyclic", "step", "cosine", "none"):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if self.label_transform not in ("box-cox", "yeo-johnson", "quantile", "none"):
            raise ConfigError(f"unknown label transform {self.label_transform!r}")
