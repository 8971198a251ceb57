"""The high-level CDMPP facade.

``CDMPP`` wires the whole system together the way the paper's command-line
tool does: pre-train on a dataset of measured records, optionally fine-tune
to a new device, then answer latency queries at the tensor-program level or
at the whole-model level (through the replayer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.core.config import PredictorConfig, TrainingConfig
from repro.core.finetune import CrossDeviceResult, cross_device_adaptation
from repro.core.trainer import Trainer, TrainingResult
from repro.devices.spec import DeviceSpec, get_device
from repro.errors import TrainingError
from repro.features.pipeline import FeatureSet
from repro.graph.model import ModelGraph
from repro.profiler.records import MeasureRecord
from repro.tir.program import TensorProgram


@dataclass
class EndToEndPrediction:
    """Result of a whole-model latency query."""

    model: str
    device: str
    predicted_latency_s: float
    per_program_latency_s: Dict[str, float]
    num_nodes: int


class CDMPP:
    """Pre-train, fine-tune and query the CDMPP cost model.

    The facade is a thin shim over :class:`repro.backends.CDMPPBackend`
    (exposed as :attr:`backend`), which implements the backend-agnostic
    :class:`repro.backends.CostModel` protocol the serving stack consumes.
    """

    def __init__(
        self,
        predictor_config: Optional[PredictorConfig] = None,
        training_config: Optional[TrainingConfig] = None,
    ):
        from repro.backends.cdmpp import CDMPPBackend

        self.predictor_config = predictor_config or PredictorConfig()
        self.training_config = training_config or TrainingConfig()
        self.backend = CDMPPBackend(
            predictor_config=self.predictor_config, training_config=self.training_config
        )

    @property
    def trainer(self) -> Trainer:
        """The underlying trainer (owned by :attr:`backend`)."""
        return self.backend.trainer

    # ------------------------------------------------------------------
    # Construction from existing / persisted trainers
    # ------------------------------------------------------------------
    @classmethod
    def from_trainer(cls, trainer: Trainer) -> "CDMPP":
        """Wrap an already-fitted :class:`Trainer` in the query facade."""
        from repro.backends.cdmpp import CDMPPBackend

        cdmpp = cls.__new__(cls)
        cdmpp.predictor_config = trainer.predictor.config
        cdmpp.training_config = trainer.config
        cdmpp.backend = CDMPPBackend(trainer=trainer)
        return cdmpp

    @classmethod
    def load(cls, path) -> "CDMPP":
        """Load a facade around a checkpoint written by :meth:`save`."""
        from repro.core.persistence import load_trainer

        return cls.from_trainer(load_trainer(path))

    def save(self, path, extra_meta: Optional[Dict] = None):
        """Persist the trained cost model to ``path`` (.npz)."""
        from repro.core.persistence import save_trainer

        return save_trainer(self.trainer, path, extra_meta=extra_meta)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def pretrain(
        self,
        train_records: Sequence[MeasureRecord],
        valid_records: Sequence[MeasureRecord] = (),
        epochs: Optional[int] = None,
    ) -> TrainingResult:
        """Pre-train the predictor on measured records."""
        if not train_records:
            raise TrainingError("pretrain needs at least one training record")
        self.backend.fit(list(train_records), list(valid_records) or None, epochs=epochs)
        return self.backend.last_training_result

    def pretrain_features(
        self, train: FeatureSet, valid: Optional[FeatureSet] = None, epochs: Optional[int] = None
    ) -> TrainingResult:
        """Pre-train directly from already-featurized data."""
        self.backend.fit_features(train, valid, epochs=epochs)
        return self.backend.last_training_result

    def finetune_to_device(
        self,
        source_train: FeatureSet,
        target_records: Sequence[MeasureRecord],
        target_test: FeatureSet,
        num_tasks: int = 10,
        strategy: str = "kmeans",
        epochs: int = 5,
    ) -> CrossDeviceResult:
        """Adapt a pre-trained model to a new device (Sec. 5.3 + Algorithm 1).

        Fine-tuning trains a detached clone; this facade then adopts the
        adapted clone as its serving model.  A trainer handed in through
        :meth:`from_trainer` (possibly shared with a fleet via
        ``ModelRegistry.load_shared``) keeps its pre-trained weights
        bit-identical.
        """
        result = cross_device_adaptation(
            self.trainer,
            source_train=source_train,
            target_records=target_records,
            target_test=target_test,
            num_tasks=num_tasks,
            strategy=strategy,
            epochs=epochs,
        )
        if result.adapted_trainer is not None:
            self.backend.trainer = result.adapted_trainer
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def predict_latencies(
        self, programs: Sequence[TensorProgram], device: Union[str, DeviceSpec]
    ) -> np.ndarray:
        """Predicted latency (seconds) per program, in input order.

        Unlike :meth:`predict_programs` this never collapses programs: two
        different schedules of the same task (which share a ``workload_key``)
        each get their own prediction.
        """
        return self.backend.predict_programs(list(programs), device)

    def predict_programs(
        self, programs: Sequence[TensorProgram], device: Union[str, DeviceSpec]
    ) -> Dict[str, float]:
        """Predicted latency (seconds) per *workload key* for a batch of programs.

        The mapping is keyed by ``task.workload_key``, so programs sharing a
        workload key are explicitly de-duplicated: only the first occurrence
        of each key is featurized and predicted (the replayer feeds one
        program per unique workload, where this is exact).  Use
        :meth:`predict_latencies` when distinct schedules of the same task
        must each be scored.
        """
        programs = list(programs)
        if not programs:
            return {}
        unique: Dict[str, TensorProgram] = {}
        for program in programs:
            unique.setdefault(program.task.workload_key, program)
        predictions = self.predict_latencies(list(unique.values()), device)
        return {key: float(value) for key, value in zip(unique.keys(), predictions)}

    def predict_program(self, program: TensorProgram, device: Union[str, DeviceSpec]) -> float:
        """Predicted latency (seconds) of a single tensor program."""
        return float(self.predict_latencies([program], device)[0])

    def predict_model(
        self,
        model: Union[str, ModelGraph],
        device: Union[str, DeviceSpec],
        batch_size: int = 1,
        seed: int | str | None = 0,
        compose: str = "replay",
    ) -> EndToEndPrediction:
        """Predict the end-to-end latency of a DNN model on a device.

        The model is dissected into a TIR data-flow graph, the predictor is
        queried once per unique tensor program, and the replayer simulates
        the execution order (Algorithm 2) to produce the iteration time.
        ``compose`` picks the composition mode (``"replay"`` critical-path
        simulation, ``"serial"`` serial sum — see
        :func:`repro.replay.compose_latencies`).  Served whole-model answers
        (batched and cached across queries and devices) come from
        :class:`repro.serving.FleetService` instead.
        """
        from repro.graph.zoo import build_model
        from repro.replay.e2e import predict_end_to_end

        device_spec = get_device(device) if isinstance(device, str) else device
        graph = model if isinstance(model, ModelGraph) else build_model(model, batch_size=batch_size)
        outcome = predict_end_to_end(
            graph,
            device_spec,
            cost_fn=lambda programs: self.predict_programs(programs, device_spec),
            seed=seed,
            compose=compose,
        )
        return EndToEndPrediction(
            model=graph.name,
            device=device_spec.name,
            predicted_latency_s=outcome.iteration_time_s,
            per_program_latency_s=dict(outcome.durations),
            num_nodes=len(graph),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def evaluate(self, features: FeatureSet) -> Dict[str, float]:
        """Evaluate prediction error on a featurized split."""
        return self.trainer.evaluate(features)

    def latent(self, features: FeatureSet) -> np.ndarray:
        """Latent representations of featurized samples."""
        return self.trainer.latent(features)
