"""Predictor pre-training (Section 5.2) and evaluation.

The trainer owns the label transform (Box-Cox by default), the optimizer,
the learning-rate scheduler and the training loop with the hybrid MSE+MAPE
objective; it reports MAPE/RMSE/threshold-accuracy in the *original* label
space and records training throughput (samples/second), which the paper uses
to compare training efficiency across cost models.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import PredictorConfig, TrainingConfig
from repro.core.losses import hybrid_loss
from repro.core.metrics import error_report
from repro.core.predictor import CDMPPPredictor
from repro.core.transforms import LabelTransform, make_transform
from repro.errors import TrainingError
from repro.features.pipeline import FeatureSet
from repro.nn.optim import make_optimizer
from repro.nn.schedulers import LRScheduler, make_scheduler
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    history: List[Dict[str, float]] = field(default_factory=list)
    best_epoch: int = 0
    best_valid_mape: float = float("inf")
    throughput_samples_per_s: float = 0.0
    train_seconds: float = 0.0

    @property
    def final_train_loss(self) -> float:
        """Training loss of the last epoch."""
        return self.history[-1]["train_loss"] if self.history else float("nan")


class Trainer:
    """Pre-trains and evaluates a :class:`CDMPPPredictor`."""

    def __init__(
        self,
        predictor: Optional[CDMPPPredictor] = None,
        predictor_config: Optional[PredictorConfig] = None,
        config: Optional[TrainingConfig] = None,
    ):
        # Constructed per instance: a `config=TrainingConfig()` default would
        # be evaluated once at def time and shared by every default trainer.
        self.config = config if config is not None else TrainingConfig()
        config = self.config
        self.predictor = predictor or CDMPPPredictor(
            predictor_config or PredictorConfig(), seed=config.seed
        )
        # Eval mode except inside a training loop (which restores it at its
        # end), so predict and latent need no per-call walk over submodules.
        self.predictor.eval()
        self.transform: LabelTransform = make_transform(config.label_transform)
        self._rng = new_rng(config.seed)
        self._fitted = False
        # Per-feature standardisation statistics, fitted on the training set
        # (over real leaves only) so the transformer sees well-scaled inputs.
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self._dev_mean: Optional[np.ndarray] = None
        self._dev_std: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_optimizer(self):
        optimizer = make_optimizer(
            self.config.optimizer,
            self.predictor.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        scheduler: Optional[LRScheduler] = None
        if self.config.scheduler != "none":
            scheduler = make_scheduler(self.config.scheduler, optimizer)
        return optimizer, scheduler

    def _batches(self, num_samples: int) -> List[np.ndarray]:
        order = self._rng.permutation(num_samples)
        return [
            order[start : start + self.config.batch_size]
            for start in range(0, num_samples, self.config.batch_size)
        ]

    def _fit_normalizer(self, features: FeatureSet) -> None:
        """Fit per-feature standardisation statistics on real (unmasked) leaves.

        Features that are constant across the training set (e.g. the taxonomy
        one-hots when all source devices are GPUs) keep a unit scale: dividing
        by their near-zero standard deviation would turn a small cross-domain
        difference into an enormous input and destroy zero-shot transfer.
        """
        real = features.mask.astype(bool)
        leaves = features.x[real]  # [num_real_leaves, F]
        x_std = leaves.std(axis=0)
        self._x_mean = leaves.mean(axis=0)
        self._x_std = np.where(x_std < 1e-8, 1.0, x_std)
        dev_std = features.device_features.std(axis=0)
        self._dev_mean = features.device_features.mean(axis=0)
        self._dev_std = np.where(dev_std < 1e-8, 1.0, dev_std)

    def _normalize(self, features: FeatureSet) -> FeatureSet:
        """Apply the fitted feature standardisation to a feature set."""
        if self._x_mean is None:
            raise TrainingError("feature normaliser used before fit()")
        x = (features.x - self._x_mean) / self._x_std
        x = x * features.mask[:, :, None]  # keep padding at exactly zero
        # Clip device features: unseen devices can sit far outside the
        # training range, and bounded extrapolation keeps zero-shot
        # cross-device predictions finite (fine-tuning then corrects them).
        dev = np.clip((features.device_features - self._dev_mean) / self._dev_std, -12.0, 12.0)
        return FeatureSet(
            x=x,
            mask=features.mask,
            leaf_counts=features.leaf_counts,
            device_features=dev,
            y=features.y,
            task_keys=features.task_keys,
            models=features.models,
            op_types=features.op_types,
            devices=features.devices,
        )

    def train_step(self, features: FeatureSet, indices: np.ndarray, optimizer, labels: np.ndarray) -> float:
        """One optimisation step on the given batch; returns the batch loss."""
        x, mask, counts, dev = self.predictor.tensors_from(features, indices)
        target = Tensor(labels[indices])
        optimizer.zero_grad()
        pred = self.predictor(x, mask, counts, dev)
        loss = hybrid_loss(pred, target, lambda_mape=self.config.lambda_mape)
        loss.backward()
        if self.config.grad_clip > 0:
            optimizer.clip_grad_norm(self.config.grad_clip)
        optimizer.step()
        return float(loss.item())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def fit(
        self,
        train: FeatureSet,
        valid: Optional[FeatureSet] = None,
        epochs: Optional[int] = None,
    ) -> TrainingResult:
        """Pre-train the predictor on ``train`` (validating on ``valid``)."""
        if len(train) == 0:
            raise TrainingError("training feature set is empty")
        epochs = epochs or self.config.epochs

        labels = self.transform.fit_transform(train.y)
        self._fit_normalizer(train)
        self._fitted = True
        train = self._normalize(train)
        optimizer, scheduler = self._make_optimizer()

        result = TrainingResult()
        best_state = self.predictor.state_dict()
        samples_seen = 0
        start_time = time.perf_counter()
        patience = self.config.early_stopping_patience
        epochs_without_improvement = 0

        for epoch in range(epochs):
            self.predictor.train()
            epoch_losses = []
            for batch in self._batches(len(train)):
                epoch_losses.append(self.train_step(train, batch, optimizer, labels))
                samples_seen += len(batch)
                if scheduler is not None:
                    scheduler.step()
            entry: Dict[str, float] = {
                "epoch": float(epoch),
                "train_loss": float(np.mean(epoch_losses)),
                "lr": float(optimizer.lr),
            }
            if valid is not None and len(valid) > 0:
                valid_metrics = self.evaluate(valid)
                entry["valid_mape"] = valid_metrics["mape"]
                entry["valid_rmse"] = valid_metrics["rmse"]
                if valid_metrics["mape"] < result.best_valid_mape:
                    result.best_valid_mape = valid_metrics["mape"]
                    result.best_epoch = epoch
                    best_state = self.predictor.state_dict()
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
            result.history.append(entry)
            if self.config.verbose:
                print(f"[trainer] epoch {epoch}: " + ", ".join(f"{k}={v:.4g}" for k, v in entry.items()))
            if patience and epochs_without_improvement >= patience:
                break

        elapsed = time.perf_counter() - start_time
        result.train_seconds = elapsed
        result.throughput_samples_per_s = samples_seen / max(elapsed, 1e-9)
        if valid is not None and len(valid) > 0 and result.best_valid_mape < float("inf"):
            self.predictor.load_state_dict(best_state)
        self.predictor.eval()
        return result

    def clone(self) -> "Trainer":
        """A detached deep copy of this fitted trainer.

        The clone owns its own predictor parameters (copied via
        ``state_dict``), feature-normalisation statistics and fitted label
        transform, so training the clone — the fine-tuning path — can never
        touch this trainer's weights.  A fleet serving this trainer through
        ``ModelRegistry.load_shared`` therefore keeps answering queries from
        the original weights while the clone adapts.  The clone's training
        RNG restarts from ``config.seed``.
        """
        if not self._fitted:
            raise TrainingError("Trainer.clone requires a fitted trainer (call fit() first)")
        twin = Trainer(
            predictor_config=self.predictor.config,  # frozen dataclass, safe to share
            config=self.config,
        )
        twin.predictor.load_state_dict(self.predictor.state_dict())
        twin.transform = copy.deepcopy(self.transform)
        twin._x_mean = None if self._x_mean is None else np.array(self._x_mean, copy=True)
        twin._x_std = None if self._x_std is None else np.array(self._x_std, copy=True)
        twin._dev_mean = None if self._dev_mean is None else np.array(self._dev_mean, copy=True)
        twin._dev_std = None if self._dev_std is None else np.array(self._dev_std, copy=True)
        twin._fitted = True
        return twin

    def normalize_features(self, features: FeatureSet) -> FeatureSet:
        """Apply the training-set feature standardisation to ``features``."""
        if not self._fitted:
            raise TrainingError("Trainer.normalize_features called before fit()")
        return self._normalize(features)

    @property
    def max_leaves(self) -> int:
        """Padded Compact-AST width the predictor was built for."""
        return self.predictor.config.max_leaves

    def predict(
        self, features: FeatureSet, batch_size: Optional[int] = None, dtype=None
    ) -> np.ndarray:
        """Predict latencies in seconds through the autograd-free infer path.

        ``batch_size`` optionally micro-batches the forward pass so very large
        query batches (the serving path) run in bounded memory; the result is
        identical to the single-shot call because the predictor has no
        cross-sample interactions.  ``dtype=np.float32`` runs the predictor in
        single precision (the default float64 stays bit-identical to the
        autograd forward).
        """
        if not self._fitted:
            raise TrainingError("Trainer.predict called before fit()")
        if batch_size is not None and batch_size <= 0:
            raise TrainingError(f"predict batch_size must be positive, got {batch_size}")
        normalized = self._normalize(features)
        transformed = self.predictor.predict_transformed(
            normalized, batch_size=min(batch_size or 256, 256), dtype=dtype
        )
        return np.maximum(
            self.transform.inverse_transform(np.asarray(transformed, dtype=np.float64)), 1e-12
        )

    def distill(self, features: FeatureSet, **kwargs):
        """Distill this fitted teacher into a fast-tier student MLP.

        Trains a small student on *this trainer's* predictions over
        ``features`` (normally the training FeatureSet) and returns
        ``(DistilledModel, stats)``; see :func:`repro.core.distill.distill`
        for the keyword options.  The student backs the serving stack's
        ``fast`` tier.
        """
        from repro.core.distill import distill as _distill

        return _distill(self, features, **kwargs)

    def evaluate(self, features: FeatureSet) -> Dict[str, float]:
        """MAPE/RMSE/threshold-accuracy of predictions in the original space."""
        if len(features) == 0:
            raise TrainingError("cannot evaluate an empty feature set")
        predictions = self.predict(features)
        return error_report(predictions, features.y)

    def latent(self, features: FeatureSet) -> np.ndarray:
        """Latent representations (used by CMD analysis and task sampling)."""
        if not self._fitted:
            raise TrainingError("Trainer.latent called before fit()")
        return self.predictor.encode_features(self._normalize(features))
