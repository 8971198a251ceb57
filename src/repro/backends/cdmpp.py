"""The CDMPP backend: the paper's transformer predictor behind ``CostModel``.

``CDMPPBackend`` owns featurization (records/programs -> Compact-AST
:class:`~repro.features.pipeline.FeatureSet`) and delegates training and
inference to the existing :class:`repro.core.trainer.Trainer`, so the
facade-level entry points (``CDMPP``, ``Trainer``) keep working unchanged
while every protocol consumer — the registry, the serving stack, the CLI's
``compare`` — sees the same surface as the baselines.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.backends.base import CostModel, DeviceLike, TrainStats, per_program_devices
from repro.core.config import PredictorConfig, TrainingConfig
from repro.core.trainer import Trainer, TrainingResult
from repro.errors import TrainingError
from repro.features.pipeline import (
    FeatureRow,
    FeatureSet,
    featurize_programs,
    featurize_records,
    featurize_rows,
    stack_rows,
)
from repro.profiler.records import MeasureRecord
from repro.tir.program import TensorProgram


class CDMPPBackend(CostModel):
    """The CDMPP cost model as a protocol backend."""

    backend = "cdmpp"

    def __init__(
        self,
        predictor_config: Optional[PredictorConfig] = None,
        training_config: Optional[TrainingConfig] = None,
        trainer: Optional[Trainer] = None,
    ):
        super().__init__()
        if trainer is not None:
            self.trainer = trainer
        else:
            self.trainer = Trainer(
                predictor_config=predictor_config or PredictorConfig(),
                config=training_config or TrainingConfig(),
            )
        #: Full epoch-by-epoch outcome of the last fit (protocol consumers
        #: use :attr:`train_stats`; the ``CDMPP`` facade returns this).
        self.last_training_result: Optional[TrainingResult] = None

    # -- properties -----------------------------------------------------
    @property
    def predictor_config(self) -> PredictorConfig:
        """Architecture of the wrapped predictor."""
        return self.trainer.predictor.config

    @property
    def max_leaves(self) -> int:
        """Padded Compact-AST width the predictor was built for."""
        return self.predictor_config.max_leaves

    @property
    def fitted(self) -> bool:
        return bool(getattr(self.trainer, "_fitted", False))

    @property
    def cache_signature(self) -> Hashable:
        # Padding width changes the featurization, so it is part of the key.
        return ("cdmpp", self.max_leaves)

    def wraps(self, obj) -> bool:
        if obj is self or obj is self.trainer:
            return True
        return getattr(obj, "trainer", None) is self.trainer  # the CDMPP facade

    def clone(self) -> "CDMPPBackend":
        """A detached copy of this fitted backend (see :meth:`Trainer.clone`).

        Fine-tuning the clone can never mutate this backend's weights, which
        is what keeps a served (possibly ``load_shared``) checkpoint intact
        while a new device is onboarded from it.
        """
        twin = CDMPPBackend(trainer=self.trainer.clone())
        twin._train_stats = self._train_stats
        twin.last_training_result = self.last_training_result
        return twin

    # -- training -------------------------------------------------------
    def fit(
        self,
        records: Sequence[MeasureRecord],
        valid: Optional[Sequence[MeasureRecord]] = None,
        epochs: Optional[int] = None,
    ) -> TrainStats:
        records = list(records)
        if not records:
            raise TrainingError("cdmpp: cannot fit on an empty record list")
        train_fs = featurize_records(records, max_leaves=self.max_leaves)
        valid_fs = (
            featurize_records(list(valid), max_leaves=train_fs.max_leaves) if valid else None
        )
        return self.fit_features(train_fs, valid_fs, epochs=epochs)

    def fit_features(
        self,
        train: FeatureSet,
        valid: Optional[FeatureSet] = None,
        epochs: Optional[int] = None,
    ) -> TrainStats:
        """Train directly from already-featurized data."""
        result = self.trainer.fit(train, valid, epochs=epochs)
        self.last_training_result = result
        self._train_stats = TrainStats(
            train_seconds=result.train_seconds,
            throughput_samples_per_s=result.throughput_samples_per_s,
            samples_processed=int(round(result.throughput_samples_per_s * result.train_seconds)),
            best_valid_mape=result.best_valid_mape,
            extra={"epochs": float(len(result.history))},
        )
        return self._train_stats

    # -- inference ------------------------------------------------------
    def predict_programs(
        self, programs: Sequence[TensorProgram], device: DeviceLike
    ) -> np.ndarray:
        programs = list(programs)
        if not programs:
            return np.zeros(0, dtype=np.float64)
        devices = per_program_devices(programs, device)
        features = featurize_programs(programs, devices, max_leaves=self.max_leaves)
        return self.trainer.predict(features)

    def predict_records(self, records: Sequence[MeasureRecord]) -> np.ndarray:
        records = list(records)
        if not records:
            return np.zeros(0, dtype=np.float64)
        features = featurize_records(records, max_leaves=self.max_leaves)
        return self.trainer.predict(features)

    # -- serving fast path ---------------------------------------------
    # The serving layer caches per-program feature rows; backends that
    # expose featurize_rows/predict_rows get that cache for free.
    def featurize_rows(
        self, programs: Sequence[TensorProgram], devices: Sequence[str]
    ) -> List[FeatureRow]:
        """One unpadded :class:`FeatureRow` per (program, device) query."""
        return featurize_rows(programs, devices, max_leaves=self.max_leaves)

    def predict_rows(
        self, rows: Sequence[FeatureRow], chunk_size: Optional[int] = None
    ) -> np.ndarray:
        """Predict a batch of cached feature rows in one vectorized call."""
        return self.trainer.predict(stack_rows(rows, self.max_leaves), batch_size=chunk_size)

    # -- evaluation over features (facade passthrough) ------------------
    def evaluate_features(self, features: FeatureSet) -> Dict[str, float]:
        """Evaluate prediction error on an already-featurized split."""
        return self.trainer.evaluate(features)

    # -- persistence ----------------------------------------------------
    def save(self, path, extra_meta: Optional[Dict] = None):
        from repro.core.persistence import save_trainer

        return save_trainer(self.trainer, path, extra_meta=extra_meta)

    @classmethod
    def load(cls, path) -> "CDMPPBackend":
        """Restore from a checkpoint written by :meth:`save` (or ``save_trainer``)."""
        from repro.core.persistence import load_trainer

        return cls(trainer=load_trainer(path))
