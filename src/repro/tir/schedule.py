"""Schedule primitives and random schedule sampling (Ansor-style).

A :class:`Schedule` is an ordered list of primitive steps applied to a task's
iteration space during lowering: loop splitting (tiling), fusion, reordering,
annotation (parallel/vectorize/unroll) and cache-stage insertion.  The
schedule is what makes two programs of the same task differ in latency, so
the dataset samples many random schedules per task, exactly like Tenset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ScheduleError
from repro.tir.task import Task

ANNOTATIONS = ("parallel", "vectorize", "unroll")
_TILE_FACTORS = (2, 3, 4, 8, 16, 32)


@dataclass(frozen=True)
class SplitStep:
    """Split loop ``loop`` into an outer loop and ``len(factors)`` inner loops."""

    loop: str
    factors: Tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(int(f) for f in self.factors)
        if not factors or any(f <= 0 for f in factors):
            raise ScheduleError(f"invalid split factors {self.factors} for loop {self.loop!r}")
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class FuseStep:
    """Fuse consecutive loops of the same kind into a single loop."""

    loops: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.loops) < 2:
            raise ScheduleError("fuse requires at least two loops")
        object.__setattr__(self, "loops", tuple(self.loops))


@dataclass(frozen=True)
class ReorderStep:
    """Reorder loops; loops not mentioned keep their relative order at the end."""

    order: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))


@dataclass(frozen=True)
class AnnotateStep:
    """Annotate a loop with parallel / vectorize / unroll."""

    loop: str
    annotation: str

    def __post_init__(self) -> None:
        if self.annotation not in ANNOTATIONS:
            raise ScheduleError(f"unknown annotation {self.annotation!r}")


@dataclass(frozen=True)
class CacheStep:
    """Stage an input buffer into faster memory (adds a copy statement/leaf)."""

    buffer: str
    scope: str = "shared"

    def __post_init__(self) -> None:
        if self.scope not in ("shared", "local"):
            raise ScheduleError(f"cache scope must be shared/local, got {self.scope!r}")


ScheduleStep = object  # union of the dataclasses above; kept loose for simplicity


@dataclass
class Schedule:
    """An ordered list of schedule steps."""

    steps: List[ScheduleStep] = field(default_factory=list)

    def add(self, step: ScheduleStep) -> "Schedule":
        """Append a step and return ``self`` (fluent style)."""
        self.steps.append(step)
        return self

    def split(self, loop: str, factors: Sequence[int]) -> "Schedule":
        """Append a :class:`SplitStep`."""
        return self.add(SplitStep(loop, tuple(factors)))

    def fuse(self, loops: Sequence[str]) -> "Schedule":
        """Append a :class:`FuseStep`."""
        return self.add(FuseStep(tuple(loops)))

    def reorder(self, order: Sequence[str]) -> "Schedule":
        """Append a :class:`ReorderStep`."""
        return self.add(ReorderStep(tuple(order)))

    def annotate(self, loop: str, annotation: str) -> "Schedule":
        """Append an :class:`AnnotateStep`."""
        return self.add(AnnotateStep(loop, annotation))

    def cache(self, buffer: str, scope: str = "shared") -> "Schedule":
        """Append a :class:`CacheStep`."""
        return self.add(CacheStep(buffer, scope))

    # ------------------------------------------------------------------
    # Introspection used by baselines (TLP consumes schedule primitives only)
    # ------------------------------------------------------------------
    def primitive_counts(self) -> Dict[str, int]:
        """Count steps by primitive type."""
        counts = {"split": 0, "fuse": 0, "reorder": 0, "annotate": 0, "cache": 0}
        for step in self.steps:
            if isinstance(step, SplitStep):
                counts["split"] += 1
            elif isinstance(step, FuseStep):
                counts["fuse"] += 1
            elif isinstance(step, ReorderStep):
                counts["reorder"] += 1
            elif isinstance(step, AnnotateStep):
                counts["annotate"] += 1
            elif isinstance(step, CacheStep):
                counts["cache"] += 1
        return counts

    def annotation_counts(self) -> Dict[str, int]:
        """Count annotation steps by annotation kind."""
        counts = {name: 0 for name in ANNOTATIONS}
        for step in self.steps:
            if isinstance(step, AnnotateStep):
                counts[step.annotation] += 1
        return counts

    def split_factor_stats(self) -> Tuple[float, float]:
        """Return (mean, max) of all split factors (0, 0 when no splits)."""
        factors = [f for step in self.steps if isinstance(step, SplitStep) for f in step.factors]
        if not factors:
            return 0.0, 0.0
        return float(np.mean(factors)), float(np.max(factors))

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"Schedule({len(self.steps)} steps)"


# ----------------------------------------------------------------------
# JSON-friendly (de)serialization, used to persist search results
# ----------------------------------------------------------------------
_STEP_KINDS = {
    "split": SplitStep,
    "fuse": FuseStep,
    "reorder": ReorderStep,
    "annotate": AnnotateStep,
    "cache": CacheStep,
}


def step_to_dict(step: ScheduleStep) -> Dict:
    """One schedule step as a plain JSON-serializable dict."""
    if isinstance(step, SplitStep):
        return {"kind": "split", "loop": step.loop, "factors": list(step.factors)}
    if isinstance(step, FuseStep):
        return {"kind": "fuse", "loops": list(step.loops)}
    if isinstance(step, ReorderStep):
        return {"kind": "reorder", "order": list(step.order)}
    if isinstance(step, AnnotateStep):
        return {"kind": "annotate", "loop": step.loop, "annotation": step.annotation}
    if isinstance(step, CacheStep):
        return {"kind": "cache", "buffer": step.buffer, "scope": step.scope}
    raise ScheduleError(f"cannot serialize unknown schedule step {step!r}")


def step_from_dict(payload: Dict) -> ScheduleStep:
    """Rebuild one schedule step from :func:`step_to_dict` output."""
    kind = payload.get("kind")
    if kind == "split":
        return SplitStep(payload["loop"], tuple(payload["factors"]))
    if kind == "fuse":
        return FuseStep(tuple(payload["loops"]))
    if kind == "reorder":
        return ReorderStep(tuple(payload["order"]))
    if kind == "annotate":
        return AnnotateStep(payload["loop"], payload["annotation"])
    if kind == "cache":
        return CacheStep(payload["buffer"], payload.get("scope", "shared"))
    raise ScheduleError(
        f"cannot deserialize schedule step of kind {kind!r} "
        f"(expected one of {sorted(_STEP_KINDS)})"
    )


def schedule_to_dict(schedule: Schedule) -> Dict:
    """A schedule as a JSON-serializable dict (see :func:`schedule_from_dict`).

    The round-trip is exact: rebuilding yields a schedule that compares equal
    step by step (the steps are frozen dataclasses with value equality), so a
    persisted search result replays to the *same* lowered program.
    """
    return {"steps": [step_to_dict(step) for step in schedule.steps]}


def schedule_from_dict(payload: Dict) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output."""
    steps = payload.get("steps")
    if not isinstance(steps, list):
        raise ScheduleError("schedule payload needs a 'steps' list")
    return Schedule([step_from_dict(step) for step in steps])


def _sample_factors(rng: np.random.Generator, extent: int, max_levels: int = 2) -> Tuple[int, ...]:
    """Sample tiling factors that are plausible for a loop of size ``extent``."""
    levels = int(rng.integers(1, max_levels + 1))
    factors: List[int] = []
    remaining = max(extent, 1)
    for _ in range(levels):
        candidates = [f for f in _TILE_FACTORS if f <= max(remaining, 2)]
        if not candidates:
            break
        factor = int(rng.choice(candidates))
        factors.append(factor)
        remaining = max(remaining // factor, 1)
    return tuple(factors) if factors else (2,)


def random_schedule(
    task: Task,
    rng: np.random.Generator,
    target_kind: str = "gpu",
    max_tiled_loops: int = 3,
) -> Schedule:
    """Sample a random but plausible schedule for ``task``.

    The sampling space mirrors Ansor's sketch+annotation search space at a
    coarse granularity: multi-level tiling of the largest spatial loops,
    optional reduction splitting, parallel/vectorize/unroll annotations whose
    placement depends on the target kind, and optional cache stages.
    """
    schedule = Schedule()
    spatial = sorted(task.spatial_vars, key=lambda iv: -iv.extent)
    reduce_axes = sorted(task.reduce_vars, key=lambda iv: -iv.extent)

    # Multi-level tiling of the largest spatial loops.
    tiled: List[str] = []
    num_tiled = int(rng.integers(1, max(2, min(max_tiled_loops, len(spatial)) + 1))) if spatial else 0
    for iv in spatial[:num_tiled]:
        if iv.extent < 2:
            continue
        schedule.split(iv.name, _sample_factors(rng, iv.extent))
        tiled.append(iv.name)

    # Optionally split the largest reduction loop (reduction tiling).
    if reduce_axes and reduce_axes[0].extent >= 4 and rng.random() < 0.6:
        schedule.split(reduce_axes[0].name, _sample_factors(rng, reduce_axes[0].extent, max_levels=1))

    # Optionally fuse the two outermost spatial loops (common for parallelism).
    if len(spatial) >= 2 and not tiled and rng.random() < 0.3:
        schedule.fuse((spatial[0].name, spatial[1].name))

    # Annotations: placement differs by device kind, matching common practice.
    if spatial:
        outer = f"{tiled[0]}.0" if tiled else spatial[0].name
        inner = f"{tiled[-1]}.1" if tiled else spatial[-1].name
        if target_kind in ("gpu", "accel"):
            schedule.annotate(outer, "parallel")
            if rng.random() < 0.8:
                schedule.annotate(inner, "vectorize")
            if rng.random() < 0.4:
                schedule.annotate(inner, "unroll")
        else:  # cpu
            if rng.random() < 0.9:
                schedule.annotate(outer, "parallel")
            if rng.random() < 0.7:
                schedule.annotate(inner, "vectorize")
            if rng.random() < 0.5:
                schedule.annotate(inner, "unroll")

    # Cache stages for the inputs of the anchor statement.
    for read in task.body.reads:
        if read.buffer.scope != "global":
            continue
        if rng.random() < (0.4 if target_kind == "gpu" else 0.15):
            scope = "shared" if target_kind == "gpu" else "local"
            schedule.cache(read.buffer.name, scope)

    # Occasionally reorder the spatial loops.
    if len(spatial) >= 2 and rng.random() < 0.25:
        names = [iv.name for iv in spatial]
        perm = list(rng.permutation(len(names)))
        schedule.reorder(tuple(names[i] for i in perm))

    return schedule
