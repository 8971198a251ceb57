#!/usr/bin/env python
"""Quickstart for the daemon tier: concurrent serving over TCP.

Trains one tiny cost model per device on the first run and registers both;
every later run loads the checkpoints and goes straight to serving.  A
ServingDaemon then serves the two-device fleet on an ephemeral local port
while several concurrent clients query it — requests that queue while a
device shard is busy coalesce into its next batch — and every wire answer
is checked bit-identical against a direct in-process FleetService call.  Finally the
daemon drains gracefully and the run prints what the batcher did.

Run with:  PYTHONPATH=src python examples/daemon_quickstart.py [--registry DIR]
"""

from __future__ import annotations

import argparse
import threading
import time

from repro.core.scale import get_scale
from repro.core.trainer import Trainer
from repro.dataset.splits import split_dataset
from repro.dataset.tenset import DatasetConfig, generate_dataset
from repro.features.pipeline import featurize_records
from repro.serving import (
    DaemonClient,
    DaemonConfig,
    FleetService,
    ModelRegistry,
    ServingDaemon,
)

DEVICES = ("t4", "k80")
NETWORKS = ("bert_tiny", "mobilenet_v2", "resnet50")
NUM_CLIENTS = 4


def train_or_load(registry: ModelRegistry, device: str) -> str:
    """Ensure a '<device>-tiny' checkpoint exists; returns its registry name."""
    name = f"{device}-tiny"
    if registry.exists(name):
        print(f"[1/4] loading {name!r} from {registry.root}")
        return name
    print(f"[1/4] training a tiny-scale cost model for {device} (first run only) ...")
    scale = get_scale("tiny")
    dataset = generate_dataset(DatasetConfig(devices=(device,), seed=0, **scale.dataset_kwargs()))
    splits = split_dataset(dataset.records(device), seed=0)
    trainer = Trainer(predictor_config=scale.predictor_config(), config=scale.training_config())
    max_leaves = scale.predictor_config().max_leaves
    trainer.fit(
        featurize_records(splits.train, max_leaves=max_leaves),
        featurize_records(splits.valid, max_leaves=max_leaves),
    )
    path = registry.save(name, trainer, device=device, scale="tiny")
    print(f"      registered at {path}")
    return name


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--registry", default=None, help="registry dir (default: ~/.cache/cdmpp/models)")
    args = parser.parse_args()

    registry = ModelRegistry(args.registry)
    names = {device: train_or_load(registry, device) for device in DEVICES}

    # Reference answers from the in-process tier the daemon wraps.
    fleet = FleetService.from_registry(registry, names)
    reference = {
        (network, device): fleet.predict_model(network, device=device, seed=0).predicted_latency_s
        for network in NETWORKS
        for device in DEVICES
    }

    daemon = ServingDaemon.from_registry(registry, names, config=DaemonConfig(port=0))
    with daemon:
        host, port = daemon.address
        print(f"[2/4] daemon serving {', '.join(daemon.devices)} on {host}:{port}")

        answers, errors = [], []
        lock = threading.Lock()

        def client_thread(client_id: int) -> None:
            try:
                with DaemonClient(host, port) as client:
                    for network in NETWORKS:
                        device = DEVICES[client_id % len(DEVICES)]
                        served = client.query(network, device=device, seed=0, deadline_ms=5000)
                        with lock:
                            answers.append(((network, device), served["latency_s"]))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        print(f"[3/4] {NUM_CLIENTS} concurrent clients querying {len(NETWORKS)} networks each ...")
        start = time.perf_counter()
        threads = [threading.Thread(target=client_thread, args=(i,)) for i in range(NUM_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        assert not errors, errors
        for key, latency_s in answers:
            assert latency_s == reference[key], (key, latency_s, reference[key])
        print(f"      {len(answers)} wire answers in {elapsed * 1e3:.1f} ms — "
              f"all bit-identical to in-process FleetService calls")

        with DaemonClient(host, port) as client:
            stats = client.stats()["daemon"]
        print(f"      {stats['queries']} queries coalesced into {stats['batches']} "
              f"batch(es); rejected={stats['rejected_overloaded']}, "
              f"shed={stats['shed_deadline']}")
    print("[4/4] daemon drained and stopped")


if __name__ == "__main__":
    main()
