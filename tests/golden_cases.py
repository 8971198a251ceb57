"""Golden cases for the cold scoring path, and the script that records them.

The cold path (Compact-AST featurization, the serving feature cache, and
whole-model tuning) must give bit-identical answers whenever it is only made
faster.  This module builds the same inputs every time and computes:

* the ``featurize_programs`` arrays of seeded random schedules of every zoo
  network's unique tasks, for a GPU and a CPU taxonomy;
* the ``PredictionService`` answers for those programs: a cold pass, a
  reversed pass answered from the warm feature cache, and a fast-tier pass
  from a distilled student;
* ``SearchService.tune_model`` results for resnet50 at two seeds;
* whole-model answers of every zoo network on three devices and both
  composition modes, from each whole-model entry point.

The checkpoints the answers come from are recorded next to them, so the
golden test never depends on training being reproducible.  Record (from a
trusted commit, with its ``src`` on ``PYTHONPATH``)::

    PYTHONPATH=src python tests/golden_cases.py tests/data
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "data"
FEATURES_FILE = "golden_features.npz"
ANSWERS_FILE = "golden_answers.json"
TEACHER_FILE = "golden_teacher.npz"
STUDENT_FILE = "golden_student.npz"

#: One device per taxonomy; schedules are sampled for the device's taxonomy.
DEVICES = {"gpu": "t4", "cpu": "e5-2673"}
SCHEDULES_PER_TASK = 2
TUNE_SEEDS = (0, 1)
TUNE_BUDGET = {"num_rounds": 1, "population": 8, "measurements_per_round": 2}
FEATURE_ARRAYS = ("x", "mask", "leaf_counts", "device_features")
#: Whole-model cases: a GPU, a CPU and a multi-engine accelerator.
MODEL_DEVICES = ("t4", "e5-2673", "hl100")
MODEL_COMPOSE = ("replay", "serial")


def platform_tag() -> Dict[str, str]:
    """What the answers' last bits may depend on (BLAS summation order)."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def unique_tasks(network: str):
    """A zoo network's unique tasks in first-occurrence topological order."""
    from repro.graph.zoo import build_model

    graph = build_model(network, batch_size=1)
    tasks = {}
    for name in graph.topo_order():
        task = graph.node(name).task
        tasks.setdefault(task.workload_key, task)
    return list(tasks.values())


def case_programs() -> Dict[Tuple[str, str], list]:
    """Seeded random schedules of every zoo network, per taxonomy."""
    from repro.graph.zoo import list_models
    from repro.tir.lower import lower
    from repro.tir.schedule import random_schedule
    from repro.utils.rng import new_rng

    cases = {}
    for network in list_models():
        tasks = unique_tasks(network)
        for taxonomy in DEVICES:
            rng = new_rng(("golden", network, taxonomy))
            cases[(network, taxonomy)] = [
                lower(task, random_schedule(task, rng, target_kind=taxonomy))
                for task in tasks
                for _ in range(SCHEDULES_PER_TASK)
            ]
    return cases


def case_name(network: str, taxonomy: str) -> str:
    return f"{network}/{taxonomy}"


def feature_arrays(cases) -> Dict[str, np.ndarray]:
    """``featurize_programs`` output per case, flattened into named arrays."""
    from repro.features.pipeline import featurize_programs

    arrays = {}
    for (network, taxonomy), programs in cases.items():
        features = featurize_programs(programs, DEVICES[taxonomy])
        for field in FEATURE_ARRAYS:
            arrays[f"{case_name(network, taxonomy)}/{field}"] = getattr(features, field)
    return arrays


def served_answers(cases, teacher, student) -> Dict[str, List[float]]:
    """Prediction-service answers: cold, from the warm feature cache, fast tier."""
    from repro.serving import PredictionService

    cold = PredictionService(teacher, fast_models=student)
    # Shares the feature cache but not the prediction cache, so every answer
    # of the second pass is predicted from a cached feature row.
    warm = PredictionService(teacher, feature_cache=cold.feature_cache)
    answers = {}
    for (network, taxonomy), programs in cases.items():
        name, device = case_name(network, taxonomy), DEVICES[taxonomy]
        answers[f"{name}/cold"] = cold.predict(programs, device).tolist()
        answers[f"{name}/warm"] = warm.predict(programs[::-1], device).tolist()
        answers[f"{name}/fast"] = cold.predict(programs, device, tier="fast").tolist()
    return answers


def tune_answers(teacher) -> Dict[str, dict]:
    """``tune_model`` results for resnet50 on both taxonomies, per seed."""
    from repro.serving import PredictionService
    from repro.serving.search import SearchService

    answers = {}
    for seed in TUNE_SEEDS:
        search = SearchService(PredictionService(teacher))
        tunings = search.tune_model(
            "resnet50", devices=list(DEVICES.values()), seed=seed, **TUNE_BUDGET
        )
        answers[str(seed)] = [
            {**tuning.to_dict(), "order": list(tuning.results)} for tuning in tunings
        ]
    return answers


def _model_answer(latency_s: float, per_kernel_s: Dict[str, float], **extra) -> dict:
    return {"latency_s": latency_s, **extra, "per_kernel_s": per_kernel_s}


def model_answers(teacher) -> Dict[str, dict]:
    """Whole-model answers per network, device and composition mode.

    ``fleet`` is one ``FleetService.predict_model_batch`` over all three
    devices, ``facade`` is ``CDMPP.predict_model`` and ``query`` is what
    ``cdmpp query`` serves: a fresh one-device ``FleetService`` answering a
    built model graph.  The ``query`` answers were recorded from
    ``PredictionService.predict_model``, the separate whole-model path that
    ``cdmpp query`` used before it was removed.
    """
    from repro.core.api import CDMPP
    from repro.graph.zoo import build_model, list_models
    from repro.serving import FleetService

    facade = CDMPP.from_trainer(teacher.trainer)
    answers = {}
    for network in list_models():
        for compose in MODEL_COMPOSE:
            fleet = FleetService({device: teacher for device in MODEL_DEVICES})
            batch = fleet.predict_model_batch(
                [(network, device, 1) for device in MODEL_DEVICES], compose=compose
            )
            for device, prediction in zip(MODEL_DEVICES, batch):
                name = f"{network}/{device}/{compose}"
                answers[f"{name}/fleet"] = _model_answer(
                    prediction.predicted_latency_s,
                    prediction.per_kernel_latency_s,
                    serial_latency_s=prediction.serial_latency_s,
                )
                e2e = facade.predict_model(network, device, compose=compose)
                answers[f"{name}/facade"] = _model_answer(
                    e2e.predicted_latency_s, e2e.per_program_latency_s
                )
                query = FleetService({device: teacher}).predict_model(
                    build_model(network, batch_size=1), device, compose=compose
                )
                answers[f"{name}/query"] = _model_answer(
                    query.predicted_latency_s, query.per_kernel_latency_s
                )
    return answers


def load_models(directory: Path = GOLDEN_DIR):
    """The recorded teacher and student backends."""
    from repro.backends.cdmpp import CDMPPBackend
    from repro.backends.distilled import DistilledBackend

    return (
        CDMPPBackend.load(directory / TEACHER_FILE),
        DistilledBackend.load(directory / STUDENT_FILE),
    )


def train_models(directory: Path) -> None:
    """Train and save a small teacher and its distilled student."""
    from repro.backends.cdmpp import CDMPPBackend
    from repro.backends.distilled import DistilledBackend
    from repro.core.config import PredictorConfig, TrainingConfig
    from repro.dataset.tenset import DatasetConfig, generate_dataset
    from repro.features.pipeline import featurize_records

    dataset = generate_dataset(
        DatasetConfig(
            devices=("t4", "e5-2673"),
            zoo_models=("bert_tiny",),
            num_synthetic_models=2,
            schedules_per_task=3,
            seed=0,
        )
    )
    records = [record for device in ("t4", "e5-2673") for record in dataset.records(device)]
    teacher = CDMPPBackend(
        predictor_config=PredictorConfig(
            d_model=16,
            num_heads=2,
            num_encoder_layers=1,
            embedding_dim=16,
            device_embedding_dim=8,
            decoder_hidden=(16,),
            device_hidden=(8,),
        ),
        training_config=TrainingConfig(epochs=4, batch_size=64, seed=0),
    )
    teacher.fit(records)
    student = DistilledBackend.distill_from(
        teacher,
        featurize_records(records, max_leaves=teacher.max_leaves),
        student_hidden=(16,),
        distill_epochs=20,
    )
    teacher.save(directory / TEACHER_FILE)
    student.save(directory / STUDENT_FILE)


def record(directory: Path) -> None:
    """Train the models, then write every golden array and answer."""
    directory.mkdir(parents=True, exist_ok=True)
    train_models(directory)
    teacher, student = load_models(directory)
    cases = case_programs()
    np.savez_compressed(directory / FEATURES_FILE, **feature_arrays(cases))
    payload = {
        "platform": platform_tag(),
        "served": served_answers(cases, teacher, student),
        "tuned": tune_answers(teacher),
        "models": model_answers(teacher),
    }
    (directory / ANSWERS_FILE).write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR)
