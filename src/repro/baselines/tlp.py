"""The TLP baseline: schedule-primitive features with per-device heads.

TLP avoids feature engineering on the tensor program itself and instead
embeds the *schedule primitive sequence*; a shared backbone feeds one
prediction head per device, and the model is trained to rank/score the
*relative* cost of candidates of the same task.  Because it never sees
absolute magnitudes, converting its scores to absolute latency requires a
per-dataset calibration constant -- which is why the paper reports large
errors for TLP on absolute-time prediction while it remains useful for
ranking.  This implementation reproduces exactly that behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines.base import BaselineCostModel
from repro.baselines.features import schedule_primitive_features
from repro.errors import TrainingError
from repro.nn.layers import Linear
from repro.nn.losses import mse_loss
from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.profiler.records import MeasureRecord
from repro.utils.rng import new_rng


class _TLPNetwork(Module):
    """Shared backbone + one linear head per device."""

    def __init__(self, in_features: int, hidden: int, devices: Sequence[str], rng=None):
        super().__init__()
        self.backbone = MLP(in_features, [hidden, hidden], hidden, activation="relu", rng=rng)
        self.heads = {device: Linear(hidden, 1, rng=rng) for device in devices}
        # Expose head parameters for the optimizer (dict values are not
        # discovered automatically by Module's attribute scan).
        self.head_modules = list(self.heads.values())

    def forward(self, x: Tensor, device: str) -> Tensor:  # noqa: D102
        hidden = self.backbone(x)
        head = self.heads.get(device)
        if head is None:
            # Unseen device: average the existing heads (TLP's cross-device
            # transfer would fine-tune a new head; without target data the
            # average is the neutral choice).
            outputs = [h(hidden) for h in self.heads.values()]
            total = outputs[0]
            for other in outputs[1:]:
                total = total + other
            return total * (1.0 / len(outputs))
        return head(hidden)


class TLPCostModel(BaselineCostModel):
    """Schedule-primitive-based relative-cost predictor (TLP)."""

    name = "tlp"

    def __init__(self, hidden: int = 32, epochs: int = 60, learning_rate: float = 3e-3, seed: int = 0):
        super().__init__()
        self.hidden = int(hidden)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self._rng = new_rng(("tlp", seed))
        self.model: Optional[_TLPNetwork] = None
        self._calibration_s = 1e-4  # global score -> seconds conversion

    # ------------------------------------------------------------------
    def _relative_targets(self, records: Sequence[MeasureRecord]) -> np.ndarray:
        """Per-task relative cost: latency divided by the task's best latency."""
        best: Dict[str, float] = {}
        for record in records:
            best[record.task_key] = min(best.get(record.task_key, np.inf), record.latency_s)
        return np.asarray([record.latency_s / best[record.task_key] for record in records])

    def _fit(self, records: Sequence[MeasureRecord]) -> None:
        devices = sorted({record.device for record in records})
        features = np.stack([schedule_primitive_features(r) for r in records])
        targets = np.log(self._relative_targets(records))
        self.model = _TLPNetwork(features.shape[1], self.hidden, devices, rng=self._rng)
        params = self.model.backbone.parameters()
        for head in self.model.head_modules:
            params.extend(head.parameters())
        optimizer = Adam(params, lr=self.learning_rate)

        by_device: Dict[str, np.ndarray] = {
            device: np.flatnonzero(np.asarray([r.device == device for r in records]))
            for device in devices
        }
        for _ in range(self.epochs):
            for device, indices in by_device.items():
                if indices.size == 0:
                    continue
                batch = self._rng.choice(indices, size=min(indices.size, 128), replace=False)
                optimizer.zero_grad()
                pred = self.model(Tensor(features[batch]), device).reshape(-1)
                loss = mse_loss(pred, Tensor(targets[batch]))
                loss.backward()
                optimizer.step()
                self._samples_processed += len(batch)

        # A single global calibration constant from score space to seconds --
        # the best an absolute-time consumer of TLP can do without re-labeling.
        self._calibration_s = float(np.mean([record.latency_s for record in records]))

    def _predict(self, records: Sequence[MeasureRecord]) -> np.ndarray:
        if self.model is None:
            raise TrainingError("TLP predict called before fit")
        features = np.stack([schedule_primitive_features(r) for r in records])
        out = np.empty(len(records), dtype=np.float64)
        with no_grad():
            for index, record in enumerate(records):
                score = float(self.model(Tensor(features[index].reshape(1, -1)), record.device).item())
                out[index] = np.exp(score) * self._calibration_s
        return out

    def predict_relative(self, records: Sequence[MeasureRecord]) -> np.ndarray:
        """Relative cost scores (what TLP is actually designed to produce)."""
        if self.model is None:
            raise TrainingError("TLP predict called before fit")
        features = np.stack([schedule_primitive_features(r) for r in records])
        out = np.empty(len(records), dtype=np.float64)
        with no_grad():
            for index, record in enumerate(records):
                out[index] = np.exp(
                    float(self.model(Tensor(features[index].reshape(1, -1)), record.device).item())
                )
        return out
