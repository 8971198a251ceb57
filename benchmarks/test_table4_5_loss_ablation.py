"""Tables 4 and 5: loss-function ablation (MSE, MAPE, MSPE, MSE+MAPE).

The paper reports both MAPE (Table 4) and RMSE (Table 5) when training with
each objective; the hybrid MSE+MAPE objective is best (or tied) on both
metrics, pure-relative objectives (MAPE/MSPE) inflate RMSE, and pure MSE
inflates MAPE.
"""

import numpy as np
import pytest

from benchmarks.common import print_table, run_once
from benchmarks.conftest import BENCH_PREDICTOR, bench_training_config
from repro.core.trainer import Trainer
from repro.features.pipeline import featurize_records
from repro.nn.losses import mse_loss
from repro.nn.tensor import Tensor

DEVICES = ("t4",)

# Objective name -> loss callable in the transformed label space.
OBJECTIVES = {
    "mse": lambda pred, target: mse_loss(pred, target),
    "mape": lambda pred, target: ((pred - target).abs() / (target.abs() + 0.25)).mean(),
    "mspe": lambda pred, target: (((pred - target) / (target.abs() + 0.25)) ** 2.0).mean(),
    "mse+mape": None,  # the trainer's built-in hybrid objective
}


class _CustomLossTrainer(Trainer):
    """A Trainer whose batch loss is replaced by one of the ablation objectives."""

    def __init__(self, loss_fn, **kwargs):
        super().__init__(**kwargs)
        self._loss_fn = loss_fn

    def train_step(self, features, indices, optimizer, labels):  # noqa: D102
        if self._loss_fn is None:
            return super().train_step(features, indices, optimizer, labels)
        x, mask, counts, dev = self.predictor.tensors_from(features, indices)
        target = Tensor(labels[indices])
        optimizer.zero_grad()
        loss = self._loss_fn(self.predictor(x, mask, counts, dev), target)
        loss.backward()
        if self.config.grad_clip > 0:
            optimizer.clip_grad_norm(self.config.grad_clip)
        optimizer.step()
        return float(loss.item())


@pytest.fixture(scope="module")
def loss_ablation_results(device_splits):
    rows = []
    for device in DEVICES:
        splits = device_splits[device]
        train_fs = featurize_records(splits.train, max_leaves=BENCH_PREDICTOR.max_leaves)
        valid_fs = featurize_records(splits.valid, max_leaves=BENCH_PREDICTOR.max_leaves)
        test_fs = featurize_records(splits.test, max_leaves=BENCH_PREDICTOR.max_leaves)
        for name, loss_fn in OBJECTIVES.items():
            trainer = _CustomLossTrainer(
                loss_fn,
                predictor_config=BENCH_PREDICTOR,
                config=bench_training_config(),
            )
            trainer.fit(train_fs, valid_fs)
            metrics = trainer.evaluate(test_fs)
            rows.append(
                {
                    "device": device,
                    "objective": name,
                    "mape": metrics["mape"],
                    "rmse_ms": metrics["rmse"] * 1e3,
                }
            )
    return rows


def test_tables4_5_loss_function_ablation(benchmark, loss_ablation_results):
    rows = run_once(benchmark, lambda: loss_ablation_results)
    print_table("Tables 4-5: loss-function ablation (T4)", rows,
                ["device", "objective", "mape", "rmse_ms"])
    by_objective = {row["objective"]: row for row in rows}
    hybrid = by_objective["mse+mape"]
    # The paper's conclusion is that the hybrid objective wins on both MAPE
    # (Table 4) and RMSE (Table 5).  At laptop scale (one seed, a few hundred
    # training programs) RMSE is dominated by a handful of large-latency
    # samples and is too noisy to rank objectives reliably, so the asserted
    # shape is: every objective trains a usable model and the hybrid objective
    # stays within 35% of the best MAPE.  The raw numbers (including RMSE)
    # are recorded in EXPERIMENTS.md.
    best_mape = min(row["mape"] for row in rows)
    assert hybrid["mape"] <= best_mape * 1.35
    assert all(row["mape"] < 1.5 for row in rows)
    assert all(np.isfinite(row["rmse_ms"]) for row in rows)
