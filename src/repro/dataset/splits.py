"""Dataset splitting: train/valid/test plus hold-out models.

The paper uses an 8:1:1 random split for pre-training and a hold-out set of
three networks (ResNet-50, MobileNet-V2, BERT-tiny) for cross-model
evaluation; cross-device experiments pre-train on the source devices'
training split and evaluate on the target device's test split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import DatasetError
from repro.profiler.records import MeasureRecord
from repro.utils.rng import new_rng


@dataclass
class DatasetSplits:
    """Train / validation / test / hold-out record lists for one device."""

    train: List[MeasureRecord]
    valid: List[MeasureRecord]
    test: List[MeasureRecord]
    holdout: List[MeasureRecord] = field(default_factory=list)
    holdout_models: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.train:
            raise DatasetError("training split is empty")
        if not self.test:
            raise DatasetError("test split is empty")

    @property
    def sizes(self) -> Dict[str, int]:
        """Number of records per split."""
        return {
            "train": len(self.train),
            "valid": len(self.valid),
            "test": len(self.test),
            "holdout": len(self.holdout),
        }

    def holdout_by_model(self) -> Dict[str, List[MeasureRecord]]:
        """Hold-out records grouped by source model."""
        grouped: Dict[str, List[MeasureRecord]] = {}
        for record in self.holdout:
            grouped.setdefault(record.model or "unknown", []).append(record)
        return grouped


def split_dataset(
    records: Sequence[MeasureRecord],
    ratios: Tuple[float, float, float] = (0.8, 0.1, 0.1),
    holdout_models: Sequence[str] = (),
    seed: int | str | None = 0,
    group_by_task: bool = False,
) -> DatasetSplits:
    """Split records into train/valid/test, excluding hold-out models first.

    The default is the paper's protocol: a record-level random 8:1:1 split
    (generalization to unseen *models* is evaluated separately through the
    hold-out networks).  With ``group_by_task=True`` all schedules of the
    same task land in the same split instead, which measures the harder
    generalization to entirely unseen tensor programs.
    """
    if abs(sum(ratios) - 1.0) > 1e-6:
        raise DatasetError(f"split ratios must sum to 1, got {ratios}")
    rng = new_rng(seed)
    holdout_set = set(holdout_models)

    holdout = [r for r in records if (r.model or "unknown") in holdout_set]
    remaining = [r for r in records if (r.model or "unknown") not in holdout_set]
    if not remaining:
        raise DatasetError("no records left after removing hold-out models")

    if group_by_task:
        task_keys = sorted({r.task_key for r in remaining})
        permuted = [task_keys[i] for i in rng.permutation(len(task_keys))]
        n_train = max(1, int(round(ratios[0] * len(permuted))))
        n_valid = max(1, int(round(ratios[1] * len(permuted)))) if len(permuted) > 2 else 0
        train_keys = set(permuted[:n_train])
        valid_keys = set(permuted[n_train : n_train + n_valid])
        test_keys = set(permuted[n_train + n_valid :]) or {permuted[-1]}
        train = [r for r in remaining if r.task_key in train_keys]
        valid = [r for r in remaining if r.task_key in valid_keys]
        test = [r for r in remaining if r.task_key in test_keys]
    else:
        indices = rng.permutation(len(remaining))
        n_train = max(1, int(round(ratios[0] * len(remaining))))
        n_valid = int(round(ratios[1] * len(remaining)))
        train = [remaining[i] for i in indices[:n_train]]
        valid = [remaining[i] for i in indices[n_train : n_train + n_valid]]
        test = [remaining[i] for i in indices[n_train + n_valid :]]

    if not test:
        # Tiny datasets can end up with an empty test split; borrow from train.
        test = train[-max(1, len(train) // 10) :]

    return DatasetSplits(
        train=train,
        valid=valid,
        test=test,
        holdout=holdout,
        holdout_models=tuple(holdout_models),
    )
