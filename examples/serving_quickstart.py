#!/usr/bin/env python
"""Quickstart for the serving layer: registry + batched, cached queries.

Trains a tiny cost model on the first run and registers it; every later run
loads the checkpoint and goes straight to serving.  A one-device
FleetService then answers a tuner-shaped stream of repeated program queries
and a few whole-model queries, and prints what the caches and batcher did.

Run with:  PYTHONPATH=src python examples/serving_quickstart.py [--registry DIR]
"""

from __future__ import annotations

import argparse
import time

from repro.core.scale import get_scale
from repro.core.trainer import Trainer
from repro.dataset.splits import split_dataset
from repro.dataset.tenset import DatasetConfig, generate_dataset
from repro.features.pipeline import featurize_records
from repro.serving import FleetService, ModelRegistry

DEVICE = "t4"
MODEL_NAME = f"{DEVICE}-tiny"
NETWORKS = ("bert_tiny", "mobilenet_v2")
ROUNDS = 5


def train_or_load(registry: ModelRegistry) -> Trainer:
    if registry.exists(MODEL_NAME):
        print(f"[1/3] loading {MODEL_NAME!r} from {registry.root}")
        return registry.load(MODEL_NAME)
    print(f"[1/3] training a tiny-scale cost model for {DEVICE} (first run only) ...")
    scale = get_scale("tiny")
    dataset = generate_dataset(DatasetConfig(devices=(DEVICE,), seed=0, **scale.dataset_kwargs()))
    splits = split_dataset(dataset.records(DEVICE), seed=0)
    trainer = Trainer(predictor_config=scale.predictor_config(), config=scale.training_config())
    max_leaves = scale.predictor_config().max_leaves
    trainer.fit(
        featurize_records(splits.train, max_leaves=max_leaves),
        featurize_records(splits.valid, max_leaves=max_leaves),
    )
    path = registry.save(MODEL_NAME, trainer, device=DEVICE, scale="tiny")
    print(f"      registered at {path}")
    return trainer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--registry", default=None, help="registry dir (default: ~/.cache/cdmpp/models)")
    args = parser.parse_args()

    registry = ModelRegistry(args.registry)
    trainer = train_or_load(registry)
    fleet = FleetService({DEVICE: trainer})

    # A tuner-shaped workload: the same kernels queried over several rounds.
    scale = get_scale("tiny")
    dataset = generate_dataset(DatasetConfig(devices=(DEVICE,), seed=1, **scale.dataset_kwargs()))
    programs = [record.program for record in dataset.records(DEVICE)[:32]]

    print(f"[2/3] serving {ROUNDS} rounds of {len(programs)} kernel queries ...")
    start = time.perf_counter()
    for round_index in range(ROUNDS):
        latencies = fleet.predict_programs(programs, DEVICE)
    elapsed = time.perf_counter() - start
    total = ROUNDS * len(programs)
    print(f"      {total} queries in {elapsed * 1e3:.1f} ms "
          f"({total / elapsed:,.0f} queries/s); fastest kernel {latencies.min() * 1e6:.1f} us")

    print("[3/3] whole-model queries through the same cached fleet ...")
    for network in NETWORKS:
        prediction = fleet.predict_model(network, DEVICE, seed=0)
        print(f"      {network:14s} -> {prediction.predicted_latency_s * 1e3:8.3f} ms "
              f"({prediction.num_nodes} ops)")

    stats = fleet.describe_stats()["kernel_service"]
    print(f"\nservice stats: {stats['queries']} queries, {stats['batches']} predictor batches, "
          f"{stats['programs_featurized']} programs featurized once")
    print(f"prediction cache: {stats['prediction_cache']['hits']} hits / "
          f"{stats['prediction_cache']['misses']} misses "
          f"(hit rate {stats['prediction_cache']['hit_rate'] * 100:.0f}%)")


if __name__ == "__main__":
    main()
