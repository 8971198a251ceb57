"""Common interface of all baseline cost models."""

from __future__ import annotations

import time
from typing import Dict, Sequence

import numpy as np

from repro.core.metrics import error_report
from repro.errors import TrainingError
from repro.profiler.records import MeasureRecord


class BaselineCostModel:
    """A latency predictor trained on measured records.

    Subclasses implement :meth:`_fit` and :meth:`_predict`; the base class
    tracks training throughput (samples/second) so the Fig. 6 efficiency
    comparison treats every method identically.
    """

    name = "baseline"

    def __init__(self) -> None:
        self._fitted = False
        self.train_seconds = 0.0
        self.throughput_samples_per_s = 0.0
        # Number of training samples *consumed* (records x passes over them);
        # subclasses set this in _fit so throughput is comparable to the
        # CDMPP trainer, which counts samples seen across epochs.
        self._samples_processed: int = 0

    # -- subclass hooks -------------------------------------------------
    def _fit(self, records: Sequence[MeasureRecord]) -> None:
        raise NotImplementedError

    def _predict(self, records: Sequence[MeasureRecord]) -> np.ndarray:
        raise NotImplementedError

    # -- public API -------------------------------------------------------
    def fit(self, records: Sequence[MeasureRecord]) -> "BaselineCostModel":
        """Train on measured records."""
        records = list(records)
        if not records:
            raise TrainingError(f"{self.name}: cannot fit on an empty record list")
        start = time.perf_counter()
        self._samples_processed = 0
        self._fit(records)
        self.train_seconds = time.perf_counter() - start
        processed = self._samples_processed or len(records)
        self.throughput_samples_per_s = processed / max(self.train_seconds, 1e-9)
        self._fitted = True
        return self

    def predict(self, records: Sequence[MeasureRecord]) -> np.ndarray:
        """Predicted latency in seconds for each record's program."""
        if not self._fitted:
            raise TrainingError(f"{self.name}: predict called before fit")
        records = list(records)
        if not records:
            return np.zeros(0)
        return np.maximum(self._predict(records), 1e-12)

    def evaluate(self, records: Sequence[MeasureRecord]) -> Dict[str, float]:
        """MAPE / RMSE / threshold accuracy against the records' measured latency."""
        records = list(records)
        predictions = self.predict(records)
        targets = np.asarray([record.latency_s for record in records])
        return error_report(predictions, targets)
