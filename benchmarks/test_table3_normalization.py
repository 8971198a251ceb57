"""Table 3: prediction error under different label-normalization methods.

The paper trains the cost model with Box-Cox, Yeo-Johnson, Quantile and raw
labels on three devices; Box-Cox gives the lowest error and raw labels the
highest (the model collapses toward the mean of the skewed distribution).
"""

import pytest

from benchmarks.common import print_table, run_once
from benchmarks.conftest import BENCH_PREDICTOR, bench_training_config
from repro.core.trainer import Trainer
from repro.features.pipeline import featurize_records

DEVICES = ("t4", "k80")
METHODS = ("box-cox", "yeo-johnson", "quantile", "none")


@pytest.fixture(scope="module")
def table3_results(device_splits):
    rows = []
    for device in DEVICES:
        splits = device_splits[device]
        train_fs = featurize_records(splits.train, max_leaves=BENCH_PREDICTOR.max_leaves)
        valid_fs = featurize_records(splits.valid, max_leaves=BENCH_PREDICTOR.max_leaves)
        test_fs = featurize_records(splits.test, max_leaves=BENCH_PREDICTOR.max_leaves)
        row = {"device": device}
        for method in METHODS:
            trainer = Trainer(
                predictor_config=BENCH_PREDICTOR,
                config=bench_training_config(label_transform=method),
            )
            trainer.fit(train_fs, valid_fs)
            row[method] = trainer.evaluate(test_fs)["mape"]
        rows.append(row)
    return rows


def test_table3_normalization_ablation(benchmark, table3_results):
    rows = run_once(benchmark, lambda: table3_results)
    print_table("Table 3: MAPE by label normalization", rows, ["device", *METHODS])
    for row in rows:
        power_best = min(row["box-cox"], row["yeo-johnson"], row["quantile"])
        # Power/quantile normalization beats training on the raw labels.
        assert power_best < row["none"]
        # Box-Cox is the best or within 25% of the best normalization.
        assert row["box-cox"] <= power_best * 1.25
        # Raw labels produce a clearly degraded model on this skewed data.
        assert row["none"] > 0.3
