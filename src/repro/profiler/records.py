"""Measurement records: one (tensor program, device, latency) observation.

This is the unit the Tenset-like dataset is made of.  A record keeps a
reference to the lowered program so feature extraction can run lazily, plus
light-weight metadata used for grouping (task key, operator type, source DNN
model, device name).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import DatasetError
from repro.tir.program import TensorProgram


@dataclass
class MeasureRecord:
    """One profiled measurement of a tensor program on a device."""

    program: TensorProgram
    device: str
    latency_s: float
    schedule_index: int = 0

    def __post_init__(self) -> None:
        if self.latency_s <= 0:
            raise DatasetError(
                f"measurement of {self.task_key} on {self.device} has non-positive "
                f"latency {self.latency_s}"
            )

    @property
    def task_key(self) -> str:
        """Workload key of the underlying task."""
        return self.program.task.workload_key

    @property
    def op_type(self) -> str:
        """Operator family of the underlying task."""
        return self.program.task.op_type

    @property
    def model(self) -> Optional[str]:
        """Source DNN model of the task (domain label), if any."""
        return self.program.task.model

    @property
    def latency_ms(self) -> float:
        """Latency in milliseconds."""
        return self.latency_s * 1e3

    @property
    def latency_us(self) -> float:
        """Latency in microseconds."""
        return self.latency_s * 1e6

    def summary(self) -> Dict[str, object]:
        """Compact dict view used for serialization and debugging."""
        return {
            "task": self.task_key,
            "op_type": self.op_type,
            "model": self.model,
            "device": self.device,
            "latency_us": self.latency_us,
            "num_leaves": self.program.num_leaves,
            "flops": self.program.stats.total_flops,
        }

    def __repr__(self) -> str:
        return (
            f"MeasureRecord({self.op_type} on {self.device}: {self.latency_us:.2f} us, "
            f"model={self.model})"
        )
