"""The profiler: runs tensor programs on a simulated device.

On real hardware profiling a task means compiling and timing each candidate
schedule.  Here ``Profiler.measure`` queries the device simulator instead;
``Profiler.profile_task`` mirrors the Tenset collection loop (sample N random
schedules per task and measure each one).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.devices.simulator import DeviceSimulator
from repro.devices.spec import DeviceSpec, get_device
from repro.profiler.records import MeasureRecord
from repro.tir.lower import lower
from repro.tir.program import TensorProgram
from repro.tir.schedule import Schedule, random_schedule
from repro.tir.task import Task
from repro.utils.rng import new_rng, spawn_rng, stable_hash


class Profiler:
    """Measures tensor programs on one (simulated) device."""

    def __init__(
        self,
        device: Union[str, DeviceSpec],
        seed: int | str | None = 0,
        repeats: int = 1,
    ):
        self.device = get_device(device) if isinstance(device, str) else device
        self.repeats = max(int(repeats), 1)
        # A caller-supplied Generator must not become the profiler's own
        # stream (schedule sampling would silently advance the caller's RNG),
        # nor reach the simulator, which hashes repr(seed) — for a Generator
        # that embeds a memory address and would break determinism.  One
        # parent draw keys an independent child seed for both.
        if isinstance(seed, np.random.Generator):
            seed = stable_hash(int(seed.integers(0, 2**31 - 1)), "profiler", self.device.name)
        self._simulator = DeviceSimulator(self.device, seed=seed)
        self._rng = new_rng(seed)

    def measure(self, program: TensorProgram, schedule_index: int = 0) -> MeasureRecord:
        """Measure one program, averaging ``repeats`` simulated runs."""
        latencies = [self._simulator.measure(program) for _ in range(self.repeats)]
        return MeasureRecord(
            program=program,
            device=self.device.name,
            latency_s=float(np.mean(latencies)),
            schedule_index=schedule_index,
        )

    def measure_schedule(self, task: Task, schedule: Schedule, schedule_index: int = 0) -> MeasureRecord:
        """Lower ``task`` with ``schedule`` and measure the result."""
        return self.measure(lower(task, schedule), schedule_index=schedule_index)

    def profile_task(
        self,
        task: Task,
        num_schedules: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> List[MeasureRecord]:
        """Sample ``num_schedules`` random schedules for ``task`` and measure each.

        This is the Tenset collection loop: the same task yields many records
        whose latencies differ only because of the schedule.
        """
        rng = rng if rng is not None else spawn_rng(self._rng, "profile", task.workload_key)
        records = []
        for index in range(num_schedules):
            schedule = random_schedule(task, rng, target_kind=self.device.taxonomy)
            records.append(self.measure_schedule(task, schedule, schedule_index=index))
        return records

    def profile_tasks(
        self,
        tasks: Sequence[Task],
        num_schedules: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> List[MeasureRecord]:
        """Profile a collection of tasks."""
        rng = rng if rng is not None else self._rng
        records: List[MeasureRecord] = []
        for task in tasks:
            task_rng = spawn_rng(rng, "task", task.workload_key)
            records.extend(self.profile_task(task, num_schedules=num_schedules, rng=task_rng))
        return records
