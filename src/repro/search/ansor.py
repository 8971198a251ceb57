"""Ansor-style schedule search driven by a cost model (Section 7.5, Fig. 14b).

Each search round samples a population of candidate schedules, asks the cost
model to score them, keeps the most promising candidates and measures only
those on the (simulated) device -- exactly the role a cost model plays inside
Ansor's auto-tuner.  A better cost model prunes the space more effectively
and therefore finds faster schedules within the same measurement budget.

The scorer contract is deliberately batched: ``score_fn`` receives the whole
round's candidate list at once, so a serving-backed scorer (see
:mod:`repro.serving.search`) can answer each round with one vectorized
predict instead of one model call per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.devices.simulator import DeviceSimulator
from repro.devices.spec import DeviceSpec, get_device
from repro.errors import SearchError
from repro.graph.model import ModelGraph
from repro.tir.lower import lower
from repro.tir.program import TensorProgram
from repro.tir.schedule import Schedule, random_schedule, schedule_from_dict, schedule_to_dict
from repro.tir.task import Task
from repro.utils.rng import derive_rng, spawn_rng

# A cost model for search: maps a list of candidate programs to scores where
# LOWER means predicted-faster.  Must return one finite score per candidate.
ScoreFn = Callable[[List[TensorProgram]], np.ndarray]


@dataclass
class SearchResult:
    """Outcome of a schedule search for one task."""

    task_key: str
    best_latency_s: float
    best_schedule: Optional[Schedule]
    best_latency_per_round: List[float] = field(default_factory=list)
    num_measurements: int = 0
    num_scored: int = 0
    scoring_batches: int = 0

    def to_dict(self) -> Dict:
        """A JSON-serializable dict; the exact inverse of :meth:`from_dict`.

        Floats survive a JSON round-trip bit-identically (``json`` emits
        ``repr``-based shortest decimals), so a persisted result replays to
        the same ``SearchResult`` the search produced.
        """
        return {
            "task_key": self.task_key,
            "best_latency_s": self.best_latency_s,
            "best_schedule": (
                schedule_to_dict(self.best_schedule) if self.best_schedule is not None else None
            ),
            "best_latency_per_round": list(self.best_latency_per_round),
            "num_measurements": self.num_measurements,
            "num_scored": self.num_scored,
            "scoring_batches": self.scoring_batches,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SearchResult":
        """Rebuild a result from :meth:`to_dict` output."""
        schedule = payload.get("best_schedule")
        return cls(
            task_key=payload["task_key"],
            best_latency_s=float(payload["best_latency_s"]),
            best_schedule=schedule_from_dict(schedule) if schedule is not None else None,
            best_latency_per_round=[float(v) for v in payload.get("best_latency_per_round", [])],
            num_measurements=int(payload.get("num_measurements", 0)),
            num_scored=int(payload.get("num_scored", 0)),
            scoring_batches=int(payload.get("scoring_batches", 0)),
        )


def _validate_scores(scores: object, num_candidates: int) -> np.ndarray:
    """Check a scorer's output against the ScoreFn contract.

    The contract: a 1-D array with exactly one finite float per candidate.
    NaN/inf scores would silently poison ``argsort`` (NaN sorts last on some
    paths, first on others), so they are rejected loudly instead.
    """
    try:
        array = np.asarray(scores, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SearchError(f"score function returned non-numeric scores: {exc}") from exc
    if array.ndim != 1:
        raise SearchError(
            f"score function must return a 1-D array of scores, got shape {array.shape}"
        )
    if array.shape[0] != num_candidates:
        raise SearchError(
            "score function returned the wrong number of scores: "
            f"expected {num_candidates}, got {array.shape[0]}"
        )
    if not np.all(np.isfinite(array)):
        bad = int(np.count_nonzero(~np.isfinite(array)))
        raise SearchError(
            f"score function returned {bad} non-finite score(s) (NaN/inf) "
            f"out of {num_candidates}; every candidate needs a finite score"
        )
    return array


def _search_rng(seed: Union[int, str, tuple, np.random.Generator, None]) -> np.random.Generator:
    """Seed handling for the search loop.

    Hashable seeds (int/str/tuple/None) keep the historical byte-identical
    stream.  A ``Generator`` seed used to be aliased directly -- consuming
    the caller's stream and (worse) hashing the generator's ``repr``, which
    embeds a memory address, inside ``DeviceSimulator`` -- so a Generator now
    derives an independent child stream instead.
    """
    return derive_rng(seed, "evolutionary-search")


def evolutionary_search(
    task: Task,
    device: Union[str, DeviceSpec],
    score_fn: ScoreFn,
    num_rounds: int = 10,
    population: int = 16,
    measurements_per_round: int = 4,
    seed: Union[int, str, tuple, np.random.Generator, None] = 0,
) -> SearchResult:
    """Search for a fast schedule of ``task`` on ``device``.

    Per round: sample ``population`` random candidate schedules, score them
    with ``score_fn`` in ONE batched call, measure the
    ``measurements_per_round`` best-scored candidates on the simulated device
    and keep the best latency seen so far (the quantity Fig. 14b plots
    against the number of rounds).
    """
    if num_rounds <= 0 or population <= 0:
        raise SearchError("num_rounds and population must be positive")
    device = get_device(device) if isinstance(device, str) else device
    rng = _search_rng(seed)
    # With a Generator seed the simulator must not hash the generator's repr
    # (it embeds a memory address); draw a plain int seed from the stream.
    sim_seed = int(rng.integers(0, 2**31 - 1)) if isinstance(seed, np.random.Generator) else seed
    simulator = DeviceSimulator(device, seed=sim_seed)

    best_latency = float("inf")
    best_schedule: Optional[Schedule] = None
    history: List[float] = []
    measurements = 0
    scored = 0
    scoring_batches = 0

    for round_index in range(num_rounds):
        round_rng = spawn_rng(rng, "round", round_index)
        candidates: List[Tuple[Schedule, TensorProgram]] = []
        for _ in range(population):
            schedule = random_schedule(task, round_rng, target_kind=device.taxonomy)
            candidates.append((schedule, lower(task, schedule)))
        scores = _validate_scores(
            score_fn([program for _, program in candidates]), len(candidates)
        )
        scored += len(candidates)
        scoring_batches += 1
        chosen = np.argsort(scores)[: max(measurements_per_round, 1)]
        for index in chosen:
            schedule, program = candidates[int(index)]
            latency = simulator.measure(program)
            measurements += 1
            if latency < best_latency:
                best_latency = latency
                best_schedule = schedule
        history.append(best_latency)

    return SearchResult(
        task_key=task.workload_key,
        best_latency_s=best_latency,
        best_schedule=best_schedule,
        best_latency_per_round=history,
        num_measurements=measurements,
        num_scored=scored,
        scoring_batches=scoring_batches,
    )


def search_model_schedules(
    model: ModelGraph,
    device: Union[str, DeviceSpec],
    score_fn: ScoreFn,
    num_rounds: int = 10,
    population: int = 16,
    measurements_per_round: int = 4,
    seed: Union[int, str, None] = 0,
) -> Dict[str, SearchResult]:
    """Run the schedule search for every unique task of a model.

    Returns results keyed by workload key; the sum of best latencies is the
    tuned model latency Fig. 14b tracks.
    """
    results: Dict[str, SearchResult] = {}
    for key, task in model.unique_tasks().items():
        results[key] = evolutionary_search(
            task,
            device,
            score_fn,
            num_rounds=num_rounds,
            population=population,
            measurements_per_round=measurements_per_round,
            seed=(seed, key),
        )
    return results
