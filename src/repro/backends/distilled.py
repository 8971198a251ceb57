"""The distilled fast-tier backend: a student MLP behind ``CostModel``.

``DistilledBackend`` wraps a :class:`~repro.core.distill.DistilledModel` —
a small MLP trained on CDMPP teacher outputs (see :func:`repro.core.distill.
distill`) — as a first-class backend: constructible through
``make_backend("distilled")``, savable/loadable through the registry, and
served by the fast tier of :class:`repro.serving.PredictionService`.  Its
``cache_signature`` folds in the teacher's weight fingerprint, so cached
fast-tier predictions can never outlive the teacher they approximate.

``fit(records)`` trains a fresh CDMPP teacher and distills it (this keeps
``compare --backends all`` meaningful); :meth:`distill_from` skips the
teacher training when a fitted teacher already exists — the path the CLI's
``--tier fast`` and the serving daemon use.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.backends.base import CostModel, DeviceLike, TrainStats, per_program_devices
from repro.baselines.registry import baseline_capabilities
from repro.core.config import PredictorConfig, TrainingConfig
from repro.core.distill import DistilledModel, distill
from repro.core.metrics import error_report
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


def _trainer_of(teacher):
    """The underlying fitted ``Trainer`` of a teacher-like object."""
    from repro.core.trainer import Trainer

    if isinstance(teacher, Trainer):
        return teacher
    inner = getattr(teacher, "trainer", None)
    if inner is not None:
        return inner
    raise TrainingError(
        f"cannot distill from {type(teacher).__name__}: expected a Trainer, "
        "a CDMPPBackend or the CDMPP facade"
    )


class DistilledBackend(CostModel):
    """A distilled student of the CDMPP predictor as a protocol backend."""

    backend = "distilled"

    def __init__(
        self,
        predictor_config: Optional[PredictorConfig] = None,
        training_config: Optional[TrainingConfig] = None,
        student_hidden: Sequence[int] = (128, 128),
        distill_epochs: int = 200,
        distill_batch_size: int = 256,
        learning_rate: float = 3e-3,
        weight_decay: float = 1e-5,
        seed: int = 0,
        model: Optional[DistilledModel] = None,
    ):
        super().__init__()
        #: Teacher architecture/training used when :meth:`fit` has to train
        #: its own teacher (``distill_from`` ignores these).
        self.predictor_config = predictor_config
        self.training_config = training_config
        self.student_hidden = tuple(int(h) for h in student_hidden)
        self.distill_epochs = int(distill_epochs)
        self.distill_batch_size = int(distill_batch_size)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.seed = int(seed)
        self.model = model
        #: Stats dict of the last distillation (wall time, final loss,
        #: student/teacher agreement MAPE on the distillation set).
        self.distill_stats: Optional[Dict[str, float]] = None

    # -- properties -----------------------------------------------------
    @property
    def fitted(self) -> bool:
        return self.model is not None

    @property
    def max_leaves(self) -> int:
        """Padded Compact-AST width the student featurizes to."""
        if self.model is not None:
            return self.model.max_leaves
        config = self.predictor_config or PredictorConfig()
        return config.max_leaves

    @property
    def capabilities(self) -> Dict[str, bool]:
        # The student inherits the teacher's Table 1 row: it answers the same
        # queries, only cheaper and less precisely.
        return baseline_capabilities("cdmpp")

    @property
    def cache_signature(self) -> Hashable:
        if self.model is None:
            return ("distilled", "unfitted")
        # The teacher fingerprint (not just the config) is part of the key: a
        # student of retrained weights answers differently for the same input.
        return (
            "distilled",
            self.model.teacher_lineage.get("fingerprint", "unknown"),
            self.model.max_leaves,
        )

    def clone(self) -> "DistilledBackend":
        """A detached copy owning its own student weights."""
        if self.model is None:
            raise TrainingError("DistilledBackend.clone requires a fitted backend")
        twin = DistilledBackend(
            predictor_config=self.predictor_config,
            training_config=self.training_config,
            student_hidden=self.student_hidden,
            distill_epochs=self.distill_epochs,
            distill_batch_size=self.distill_batch_size,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            seed=self.seed,
            model=copy.deepcopy(self.model),
        )
        twin.distill_stats = dict(self.distill_stats or {})
        return twin

    # -- training -------------------------------------------------------
    def fit(
        self,
        records: Sequence[MeasureRecord],
        valid: Optional[Sequence[MeasureRecord]] = None,
        epochs: Optional[int] = None,
    ) -> TrainStats:
        """Train a CDMPP teacher on ``records``, then distill it.

        ``epochs`` bounds the *teacher* epochs (the protocol meaning); the
        student always runs ``distill_epochs``.
        """
        from repro.backends.cdmpp import CDMPPBackend

        records = list(records)
        if not records:
            raise TrainingError("distilled: cannot fit on an empty record list")
        start = time.perf_counter()
        teacher = CDMPPBackend(
            predictor_config=self.predictor_config,
            training_config=self.training_config,
        )
        teacher_stats = teacher.fit(records, valid, epochs=epochs)
        train_fs = featurize_records(records, max_leaves=teacher.max_leaves)
        self._distill(teacher.trainer, train_fs)

        elapsed = time.perf_counter() - start
        best_valid_mape = float("inf")
        if valid:
            valid_fs = featurize_records(list(valid), max_leaves=train_fs.max_leaves)
            best_valid_mape = self.evaluate_features(valid_fs)["mape"]
        samples = len(records) * (self.distill_epochs + int(teacher_stats.extra.get("epochs", 0)))
        self._train_stats = TrainStats(
            train_seconds=elapsed,
            throughput_samples_per_s=samples / max(elapsed, 1e-9),
            samples_processed=samples,
            best_valid_mape=best_valid_mape,
            extra={
                "teacher_train_seconds": teacher_stats.train_seconds,
                "teacher_best_valid_mape": teacher_stats.best_valid_mape,
                **{k: float(v) for k, v in (self.distill_stats or {}).items()},
            },
        )
        return self._train_stats

    def _distill(self, trainer, features: FeatureSet) -> None:
        self.model, self.distill_stats = distill(
            trainer,
            features,
            hidden=self.student_hidden,
            epochs=self.distill_epochs,
            batch_size=self.distill_batch_size,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            seed=self.seed,
        )

    @classmethod
    def distill_from(cls, teacher, features: FeatureSet, **kwargs) -> "DistilledBackend":
        """Distill an already-fitted teacher over its training ``features``.

        ``teacher`` may be a ``Trainer``, a ``CDMPPBackend`` or the ``CDMPP``
        facade; ``kwargs`` are constructor options (``student_hidden``,
        ``distill_epochs``, ...).  This is the cheap path: no teacher
        training happens.
        """
        backend = cls(**kwargs)
        backend._distill(_trainer_of(teacher), features)
        return backend

    # -- inference ------------------------------------------------------
    def _require_fitted(self) -> DistilledModel:
        if self.model is None:
            raise TrainingError("distilled backend used before fit()/distill_from()")
        return self.model

    def predict_programs(
        self, programs: Sequence[TensorProgram], device: DeviceLike
    ) -> np.ndarray:
        model = self._require_fitted()
        programs = list(programs)
        if not programs:
            return np.zeros(0, dtype=np.float64)
        devices = per_program_devices(programs, device)
        features = featurize_programs(programs, devices, max_leaves=model.max_leaves)
        return model.predict(features)

    def predict_records(self, records: Sequence[MeasureRecord]) -> np.ndarray:
        model = self._require_fitted()
        records = list(records)
        if not records:
            return np.zeros(0, dtype=np.float64)
        return model.predict(featurize_records(records, max_leaves=model.max_leaves))

    # -- serving fast path ---------------------------------------------
    def featurize_rows(
        self, programs: Sequence[TensorProgram], devices: Sequence[str]
    ) -> List[FeatureRow]:
        """One unpadded :class:`FeatureRow` per (program, device) query."""
        model = self._require_fitted()
        return featurize_rows(programs, devices, max_leaves=model.max_leaves)

    def predict_rows(
        self, rows: Sequence[FeatureRow], chunk_size: Optional[int] = None
    ) -> np.ndarray:
        """Predict a batch of cached feature rows in one vectorized call."""
        model = self._require_fitted()
        return model.predict(stack_rows(rows, model.max_leaves))

    # -- evaluation -----------------------------------------------------
    def evaluate_features(self, features: FeatureSet) -> Dict[str, float]:
        """Student prediction error against measured labels."""
        model = self._require_fitted()
        return error_report(model.predict(features), features.y)

    # -- persistence ----------------------------------------------------
    def save(self, path, extra_meta: Optional[Dict] = None):
        """Write the student (weights + representation stats) to ``path``.

        The archive mirrors the trainer checkpoint layout (``param::`` arrays
        plus a ``meta_json`` blob tagged ``backend: "distilled"``) so
        :func:`repro.backends.load_backend` and ``read_meta`` work on it.
        """
        import json
        from pathlib import Path

        model = self._require_fitted()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays: Dict[str, np.ndarray] = {}
        for name, param in model.student.named_parameters():
            arrays["param::" + name] = param.data
        arrays["rep_mean"] = model.rep_mean
        arrays["rep_std"] = model.rep_std
        meta = {
            "backend": "distilled",
            "student": {
                "in_features": model.rep_dim,
                "hidden": list(self.student_hidden),
                "activation": "relu",
            },
            "max_leaves": model.max_leaves,
            "feature_dim": model.feature_dim,
            "device_feature_dim": model.device_feature_dim,
            "teacher": dict(model.teacher_lineage),
            "distill_stats": dict(self.distill_stats or {}),
            "extra": dict(extra_meta or {}),
        }
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        return path

    @classmethod
    def load(cls, path) -> "DistilledBackend":
        """Restore a backend from a checkpoint written by :meth:`save`."""
        import json
        from pathlib import Path

        from repro.nn.mlp import MLP
        from repro.utils.rng import new_rng

        path = Path(path)
        if not path.exists():
            raise TrainingError(f"no saved model at {path}")
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(bytes(archive["meta_json"].tobytes()).decode("utf-8"))
            if meta.get("backend") != "distilled":
                raise TrainingError(
                    f"checkpoint {path} was written by backend "
                    f"{meta.get('backend')!r}, not 'distilled'"
                )
            student_meta = meta["student"]
            student = MLP(
                int(student_meta["in_features"]),
                [int(h) for h in student_meta["hidden"]],
                1,
                activation=str(student_meta["activation"]),
                rng=new_rng(("distilled-load", 0)),
            )
            student.load_state_dict(
                {
                    name[len("param::"):]: archive[name]
                    for name in archive.files
                    if name.startswith("param::")
                }
            )
            student.eval()
            model = DistilledModel(
                student=student,
                rep_mean=archive["rep_mean"],
                rep_std=archive["rep_std"],
                max_leaves=int(meta["max_leaves"]),
                feature_dim=int(meta["feature_dim"]),
                device_feature_dim=int(meta["device_feature_dim"]),
                teacher_lineage=dict(meta["teacher"]),
            )
        backend = cls(student_hidden=tuple(student_meta["hidden"]), model=model)
        backend.distill_stats = {
            k: float(v) for k, v in meta.get("distill_stats", {}).items()
        }
        return backend
