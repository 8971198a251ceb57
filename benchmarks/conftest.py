"""Session fixtures shared by the benchmark harness.

The expensive artefacts -- the multi-device synthetic dataset and the
pre-trained predictors -- are built once and reused by every table/figure
benchmark so the whole suite stays in the minutes range.
"""

from __future__ import annotations

import pytest

from benchmarks.common import (
    BENCH_EPOCHS,
    BENCH_SCHEDULES_PER_TASK,
    BENCH_SEED,
    BENCH_SYNTHETIC_MODELS,
    BENCH_ZOO_MODELS,
)
from repro.core.config import PredictorConfig, TrainingConfig
from repro.core.trainer import Trainer
from repro.dataset.splits import split_dataset
from repro.dataset.tenset import DatasetConfig, generate_dataset
from repro.features.pipeline import featurize_records

BENCH_DEVICES = ("t4", "k80", "v100", "epyc-7452", "graviton2", "hl100")

# The architecture used by every learned CDMPP instance in the benchmarks.
BENCH_PREDICTOR = PredictorConfig(
    d_model=48,
    num_heads=4,
    num_encoder_layers=2,
    embedding_dim=48,
    decoder_hidden=(64, 64),
    device_hidden=(32,),
    max_leaves=16,
)


def bench_training_config(**overrides) -> TrainingConfig:
    """The training configuration used across benchmarks."""
    defaults = dict(epochs=BENCH_EPOCHS, batch_size=128, learning_rate=3e-3,
                    scheduler="cosine", lambda_mape=0.1, seed=BENCH_SEED)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@pytest.fixture(scope="session")
def bench_dataset():
    """The multi-device Tenset-like dataset used by every experiment."""
    config = DatasetConfig(
        devices=BENCH_DEVICES,
        zoo_models=BENCH_ZOO_MODELS,
        num_synthetic_models=BENCH_SYNTHETIC_MODELS,
        schedules_per_task=BENCH_SCHEDULES_PER_TASK,
        seed=BENCH_SEED,
    )
    return generate_dataset(config)


@pytest.fixture(scope="session")
def device_splits(bench_dataset):
    """Record splits (8:1:1) per device."""
    return {
        device: split_dataset(bench_dataset.records(device), seed=BENCH_SEED)
        for device in bench_dataset.devices
    }


def train_cdmpp(records_train, records_valid, epochs: int = BENCH_EPOCHS, **overrides):
    """Train a CDMPP predictor on record lists and return (trainer, result, features)."""
    train_fs = featurize_records(records_train, max_leaves=BENCH_PREDICTOR.max_leaves)
    valid_fs = (
        featurize_records(records_valid, max_leaves=BENCH_PREDICTOR.max_leaves)
        if records_valid
        else None
    )
    trainer = Trainer(
        predictor_config=BENCH_PREDICTOR,
        config=bench_training_config(epochs=epochs, **overrides),
    )
    result = trainer.fit(train_fs, valid_fs)
    return trainer, result, train_fs


@pytest.fixture(scope="session")
def t4_cdmpp(device_splits):
    """A CDMPP predictor pre-trained on the T4 training split."""
    splits = device_splits["t4"]
    trainer, result, train_fs = train_cdmpp(splits.train, splits.valid)
    return {"trainer": trainer, "result": result, "train_features": train_fs, "splits": splits}


@pytest.fixture(scope="session")
def gpu_source_cdmpp(device_splits):
    """A CDMPP predictor pre-trained on K80+V100 (the cross-device source pool)."""
    train = device_splits["k80"].train + device_splits["v100"].train
    valid = device_splits["k80"].valid + device_splits["v100"].valid
    trainer, result, train_fs = train_cdmpp(train, valid)
    return {"trainer": trainer, "result": result, "train_features": train_fs}
