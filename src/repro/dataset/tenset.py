"""Generation of the Tenset-like multi-device dataset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.dataset.synthetic import synthetic_model_tasks
from repro.devices.spec import DeviceSpec, get_device
from repro.graph.partition import tasks_by_model
from repro.graph.zoo import list_models
from repro.profiler.profiler import Profiler
from repro.profiler.records import MeasureRecord
from repro.tir.task import Task
from repro.utils.rng import new_rng, spawn_rng


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs controlling the size and composition of the synthetic dataset.

    The defaults are the "small" scale used by the test suite; benchmark
    drivers scale them up or down via :mod:`repro.core.scale`.
    """

    devices: Tuple[str, ...] = ("t4", "k80", "epyc-7452")
    zoo_models: Tuple[str, ...] = ("resnet50", "mobilenet_v2", "bert_tiny")
    num_synthetic_models: int = 4
    schedules_per_task: int = 6
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.schedules_per_task <= 0:
            raise DatasetError("schedules_per_task must be positive")
        unknown = set(self.zoo_models) - set(list_models())
        if unknown:
            raise DatasetError(f"unknown zoo models in config: {sorted(unknown)}")


class TensetDataset:
    """A collection of measured records grouped by device.

    The same tasks (and the same sampled schedules) are measured on every
    device, mirroring Tenset's protocol and enabling cross-device learning
    where source and target devices share tensor programs.
    """

    def __init__(self, records_by_device: Mapping[str, Sequence[MeasureRecord]],
                 tasks_by_model_name: Mapping[str, Sequence[Task]]):
        self._records: Dict[str, List[MeasureRecord]] = {
            device: list(records) for device, records in records_by_device.items()
        }
        self._tasks_by_model: Dict[str, List[Task]] = {
            model: list(tasks) for model, tasks in tasks_by_model_name.items()
        }
        for device, records in self._records.items():
            if not records:
                raise DatasetError(f"device {device!r} has no records")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def devices(self) -> List[str]:
        """Devices present in the dataset."""
        return list(self._records)

    @property
    def models(self) -> List[str]:
        """Model (domain) names present in the dataset."""
        return list(self._tasks_by_model)

    def records(self, device: str) -> List[MeasureRecord]:
        """All records measured on ``device``."""
        try:
            return list(self._records[device])
        except KeyError as exc:
            raise DatasetError(
                f"device {device!r} not in dataset (has {self.devices})"
            ) from exc

    def all_records(self) -> List[MeasureRecord]:
        """All records across devices."""
        result: List[MeasureRecord] = []
        for records in self._records.values():
            result.extend(records)
        return result

    def records_by_model(self, device: str) -> Dict[str, List[MeasureRecord]]:
        """Records on ``device`` grouped by source model."""
        grouped: Dict[str, List[MeasureRecord]] = {}
        for record in self.records(device):
            grouped.setdefault(record.model or "unknown", []).append(record)
        return grouped

    def tasks_of_model(self, model: str) -> List[Task]:
        """Unique tasks contributed by ``model``."""
        try:
            return list(self._tasks_by_model[model])
        except KeyError as exc:
            raise DatasetError(f"model {model!r} not in dataset (has {self.models})") from exc

    def tasks(self) -> List[Task]:
        """All unique tasks in the dataset."""
        seen: Dict[str, Task] = {}
        for tasks in self._tasks_by_model.values():
            for task in tasks:
                seen.setdefault(task.workload_key, task)
        return list(seen.values())

    def num_records(self, device: Optional[str] = None) -> int:
        """Number of records on one device or in total."""
        if device is not None:
            return len(self._records.get(device, []))
        return sum(len(records) for records in self._records.values())

    def latencies(self, device: str) -> np.ndarray:
        """Latency labels (seconds) of all records on ``device``."""
        return np.asarray([record.latency_s for record in self.records(device)], dtype=np.float64)

    def summary(self) -> Dict[str, object]:
        """Compact dataset statistics (used by the Table 2 benchmark)."""
        return {
            "devices": {device: len(records) for device, records in self._records.items()},
            "models": {model: len(tasks) for model, tasks in self._tasks_by_model.items()},
            "num_tasks": len(self.tasks()),
            "num_records": self.num_records(),
        }

    def __repr__(self) -> str:
        return (
            f"TensetDataset(devices={len(self._records)}, models={len(self._tasks_by_model)}, "
            f"records={self.num_records()})"
        )


def _collect_tasks(config: DatasetConfig) -> Dict[str, List[Task]]:
    by_model: Dict[str, List[Task]] = {}
    if config.zoo_models:
        by_model.update(tasks_by_model(list(config.zoo_models), batch_size=config.batch_size))
    if config.num_synthetic_models > 0:
        synthetic = synthetic_model_tasks(config.num_synthetic_models, seed=config.seed)
        # Deduplicate synthetic tasks within each pseudo-model.
        for model, tasks in synthetic.items():
            unique: Dict[str, Task] = {}
            for task in tasks:
                unique.setdefault(task.workload_key, task)
            by_model[model] = list(unique.values())
    if not by_model:
        raise DatasetError("dataset config selects no models at all")
    return by_model


def generate_dataset(config: Optional[DatasetConfig] = None) -> TensetDataset:
    """Generate the synthetic Tenset-like dataset described by ``config``.

    For every task the same ``schedules_per_task`` random schedules are
    measured on every configured device (schedules are sampled per device
    taxonomy so GPU-style and CPU-style annotations both appear).
    """
    if config is None:
        config = DatasetConfig()
    rng = new_rng(config.seed)
    tasks_by_model_name = _collect_tasks(config)

    records_by_device: Dict[str, List[MeasureRecord]] = {}
    for device_name in config.devices:
        device: DeviceSpec = get_device(device_name)
        profiler = Profiler(device, seed=config.seed)
        device_records: List[MeasureRecord] = []
        for model, tasks in tasks_by_model_name.items():
            for task in tasks:
                # The schedule RNG depends only on the task (not the device),
                # so every device measures the same set of tensor programs.
                task_rng = spawn_rng(new_rng(config.seed), "schedules", task.workload_key)
                device_records.extend(
                    profiler.profile_task(task, num_schedules=config.schedules_per_task, rng=task_rng)
                )
        records_by_device[device.name] = device_records
    return TensetDataset(records_by_device, tasks_by_model_name)
