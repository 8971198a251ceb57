"""Shared pytest fixtures.

Expensive artefacts (the synthetic dataset, a trained predictor) are built
once per session at the ``tiny`` scale so the full suite stays fast while the
integration-style tests still exercise the real training path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scale import get_scale
from repro.core.trainer import Trainer
from repro.dataset.splits import split_dataset
from repro.dataset.tenset import DatasetConfig, generate_dataset
from repro.features.pipeline import featurize_records
from repro.ops import conv2d, dense
from repro.tir.lower import lower
from repro.tir.schedule import random_schedule


@pytest.fixture(scope="session")
def rng():
    """A deterministic NumPy generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def dense_task():
    """A small fused dense+ReLU task."""
    return dense(8, 64, 32, activation="relu", model="fixture")


@pytest.fixture(scope="session")
def conv_task():
    """A small fused conv2d task."""
    return conv2d(1, 8, 16, 14, 14, kernel=3, stride=1, padding=1, model="fixture")


@pytest.fixture(scope="session")
def dense_program(dense_task):
    """A lowered program of the dense task with a random GPU-style schedule."""
    return lower(dense_task, random_schedule(dense_task, np.random.default_rng(7), "gpu"))


@pytest.fixture(scope="session")
def tiny_dataset():
    """A tiny two-GPU + one-CPU dataset shared across tests."""
    config = DatasetConfig(
        devices=("t4", "k80", "epyc-7452"),
        zoo_models=("bert_tiny",),
        num_synthetic_models=4,
        schedules_per_task=6,
        seed=0,
    )
    return generate_dataset(config)


@pytest.fixture(scope="session")
def t4_splits(tiny_dataset):
    """Train/valid/test splits of the T4 records."""
    return split_dataset(tiny_dataset.records("t4"), seed=0)


@pytest.fixture(scope="session")
def t4_features(t4_splits):
    """Featurized T4 splits (train, valid, test) with a shared padding width."""
    train = featurize_records(t4_splits.train)
    valid = featurize_records(t4_splits.valid, max_leaves=train.max_leaves)
    test = featurize_records(t4_splits.test, max_leaves=train.max_leaves)
    return train, valid, test


def trainer_fingerprint(trainer: Trainer) -> int:
    """A cheap digest of a trainer's weights, to detect in-place mutation.

    Session-scoped trainers are shared by many tests; any test that trains
    or fine-tunes one *in place* silently changes what every later test
    sees (and makes outcomes depend on execution order).  Tests that need a
    trained model they may modify must use ``trainer.clone()``.
    """
    digest = 0
    for name, value in sorted(trainer.predictor.state_dict().items()):
        digest ^= hash((name, value.tobytes()))
    return digest


@pytest.fixture(scope="session")
def trained_trainer(t4_features):
    """A predictor trained for a handful of epochs on the tiny T4 dataset.

    Shared and read-only: an autouse guard fails the session if any test
    mutates it in place (fine-tune a ``trainer.clone()`` instead).
    """
    train, valid, _ = t4_features
    scale = get_scale("tiny")
    trainer = Trainer(
        predictor_config=scale.predictor_config(),
        config=scale.training_config(epochs=30, seed=0),
    )
    trainer.fit(train, valid)
    return trainer


@pytest.fixture(autouse=True)
def _session_trainer_is_immutable(request):
    """Fail any test that mutates the shared ``trained_trainer`` in place."""
    if "trained_trainer" not in request.fixturenames:
        yield
        return
    trainer = request.getfixturevalue("trained_trainer")
    before = trainer_fingerprint(trainer)
    yield
    assert trainer_fingerprint(trainer) == before, (
        f"{request.node.nodeid} mutated the session-scoped trained_trainer "
        "in place; later tests would silently see different weights "
        "depending on execution order. Fine-tune trainer.clone() instead."
    )
