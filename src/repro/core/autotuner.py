"""Hyper-parameter and architecture search (the paper's Optuna-based auto-tuner).

The paper searches transformer depth, decoder width, learning rate, weight
decay, optimizer, scheduler, batch size and the CMD coefficient α with Optuna
and keeps the best of ~1000 trials.  Offline we implement a random-search
auto-tuner with successive halving (cheap trials first, the survivors get
more epochs), which covers the same search space with a bounded budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PredictorConfig, TrainingConfig
from repro.core.trainer import Trainer
from repro.errors import ConfigError
from repro.features.pipeline import FeatureSet
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class SearchSpace:
    """Candidate values for each searched variable (Appendix B)."""

    num_encoder_layers: Tuple[int, ...] = (1, 2, 3)
    d_model: Tuple[int, ...] = (32, 64, 96)
    decoder_width: Tuple[int, ...] = (32, 64, 128)
    learning_rate: Tuple[float, ...] = (3e-4, 1e-3, 3e-3)
    weight_decay: Tuple[float, ...] = (0.0, 1e-4, 1.3e-3)
    optimizer: Tuple[str, ...] = ("adam", "sgd")
    scheduler: Tuple[str, ...] = ("cyclic", "step", "cosine")
    batch_size: Tuple[int, ...] = (64, 128, 256)
    lambda_mape: Tuple[float, ...] = (1e-3, 1e-2, 0.1, 0.3)
    cmd_alpha: Tuple[float, ...] = (0.1, 0.5, 1.0, 2.0)

    def sample(self, rng: np.random.Generator) -> Dict[str, object]:
        """Draw one random configuration."""
        return {
            "num_encoder_layers": int(rng.choice(self.num_encoder_layers)),
            "d_model": int(rng.choice(self.d_model)),
            "decoder_width": int(rng.choice(self.decoder_width)),
            "learning_rate": float(rng.choice(self.learning_rate)),
            "weight_decay": float(rng.choice(self.weight_decay)),
            "optimizer": str(rng.choice(self.optimizer)),
            "scheduler": str(rng.choice(self.scheduler)),
            "batch_size": int(rng.choice(self.batch_size)),
            "lambda_mape": float(rng.choice(self.lambda_mape)),
            "cmd_alpha": float(rng.choice(self.cmd_alpha)),
        }


@dataclass
class Trial:
    """One evaluated configuration."""

    params: Dict[str, object]
    valid_mape: float
    epochs: int


@dataclass
class AutoTuneResult:
    """Search outcome: the best configuration and the full trial history."""

    best_params: Dict[str, object]
    best_valid_mape: float
    trials: List[Trial] = field(default_factory=list)

    def best_configs(self, base_predictor: PredictorConfig, base_training: TrainingConfig):
        """Materialise the winning (PredictorConfig, TrainingConfig) pair."""
        return configs_from_params(self.best_params, base_predictor, base_training)


def configs_from_params(
    params: Dict[str, object],
    base_predictor: Optional[PredictorConfig] = None,
    base_training: Optional[TrainingConfig] = None,
) -> Tuple[PredictorConfig, TrainingConfig]:
    """Apply a sampled parameter dict onto base configurations."""
    base_predictor = base_predictor if base_predictor is not None else PredictorConfig()
    base_training = base_training if base_training is not None else TrainingConfig()
    width = int(params.get("decoder_width", base_predictor.decoder_hidden[0]))
    predictor = replace(
        base_predictor,
        num_encoder_layers=int(params.get("num_encoder_layers", base_predictor.num_encoder_layers)),
        d_model=int(params.get("d_model", base_predictor.d_model)),
        embedding_dim=int(params.get("d_model", base_predictor.d_model)),
        decoder_hidden=(width, width),
    )
    training = replace(
        base_training,
        learning_rate=float(params.get("learning_rate", base_training.learning_rate)),
        weight_decay=float(params.get("weight_decay", base_training.weight_decay)),
        optimizer=str(params.get("optimizer", base_training.optimizer)),
        scheduler=str(params.get("scheduler", base_training.scheduler)),
        batch_size=int(params.get("batch_size", base_training.batch_size)),
        lambda_mape=float(params.get("lambda_mape", base_training.lambda_mape)),
        cmd_alpha=float(params.get("cmd_alpha", base_training.cmd_alpha)),
    )
    return predictor, training


class AutoTuner:
    """Random search with successive halving over the CDMPP search space."""

    def __init__(
        self,
        search_space: Optional[SearchSpace] = None,
        num_trials: int = 8,
        initial_epochs: int = 3,
        final_epochs: int = 10,
        survivor_fraction: float = 0.5,
        seed: int | str | None = 0,
    ):
        if num_trials <= 0:
            raise ConfigError("num_trials must be positive")
        if not 0 < survivor_fraction <= 1:
            raise ConfigError("survivor_fraction must be in (0, 1]")
        self.search_space = search_space if search_space is not None else SearchSpace()
        self.num_trials = int(num_trials)
        self.initial_epochs = int(initial_epochs)
        self.final_epochs = int(final_epochs)
        self.survivor_fraction = float(survivor_fraction)
        self._rng = new_rng(seed)

    def _run_trial(
        self,
        params: Dict[str, object],
        train: FeatureSet,
        valid: FeatureSet,
        epochs: int,
        base_predictor: PredictorConfig,
        base_training: TrainingConfig,
    ) -> float:
        predictor_cfg, training_cfg = configs_from_params(params, base_predictor, base_training)
        training_cfg = replace(training_cfg, epochs=epochs, verbose=False)
        trainer = Trainer(predictor_config=predictor_cfg, config=training_cfg)
        trainer.fit(train, valid)
        return trainer.evaluate(valid)["mape"]

    def search(
        self,
        train: FeatureSet,
        valid: FeatureSet,
        base_predictor: Optional[PredictorConfig] = None,
        base_training: Optional[TrainingConfig] = None,
    ) -> AutoTuneResult:
        """Run the search and return the best configuration found."""
        base_predictor = base_predictor if base_predictor is not None else PredictorConfig()
        base_training = base_training if base_training is not None else TrainingConfig()
        candidates = [self.search_space.sample(self._rng) for _ in range(self.num_trials)]
        trials: List[Trial] = []

        # Round 1: cheap evaluation of every candidate.
        scored: List[Tuple[float, Dict[str, object]]] = []
        for params in candidates:
            mape = self._run_trial(params, train, valid, self.initial_epochs, base_predictor, base_training)
            trials.append(Trial(params=params, valid_mape=mape, epochs=self.initial_epochs))
            scored.append((mape, params))

        # Round 2: the best fraction gets the full epoch budget.
        scored.sort(key=lambda item: item[0])
        survivors = scored[: max(1, math.ceil(len(scored) * self.survivor_fraction))]
        best_mape, best_params = survivors[0]
        for mape, params in survivors:
            full = self._run_trial(params, train, valid, self.final_epochs, base_predictor, base_training)
            trials.append(Trial(params=params, valid_mape=full, epochs=self.final_epochs))
            if full < best_mape:
                best_mape, best_params = full, params

        return AutoTuneResult(best_params=best_params, best_valid_mape=best_mape, trials=trials)
