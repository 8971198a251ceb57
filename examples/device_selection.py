#!/usr/bin/env python
"""Device selection: estimate a model's latency on a fleet of devices.

One of the motivating applications in the paper's introduction: before
renting or buying hardware, estimate how fast a given DNN would run on each
candidate device and pick the one that meets the latency budget at the lowest
cost.  This example trains one cross-device CDMPP cost model on two source
GPUs and then ranks every device in the registry for a chosen network --
without "profiling" the network on any of the other devices.

Run with:  python examples/device_selection.py [--network resnet50]
"""

from __future__ import annotations

import argparse

from repro.core.scale import get_scale
from repro.core.trainer import Trainer
from repro.dataset.splits import split_dataset
from repro.dataset.tenset import DatasetConfig, generate_dataset
from repro.devices.spec import list_devices
from repro.features.pipeline import featurize_programs, featurize_records
from repro.graph.zoo import build_model
from repro.replay.e2e import measure_end_to_end, predict_end_to_end

# Rough on-demand hourly prices (USD) used to illustrate cost-aware selection.
HOURLY_PRICE = {
    "k80": 0.45, "p100": 1.46, "t4": 0.53, "v100": 2.48, "a100": 3.67,
    "hl100": 1.20, "e5-2673": 0.10, "epyc-7452": 0.23, "graviton2": 0.15,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--network", default="mobilenet_v2", help="network to place")
    parser.add_argument("--scale", default="tiny", help="experiment scale")
    args = parser.parse_args()
    scale = get_scale(args.scale)

    # Train one cross-device cost model on two source GPUs.  The device
    # features let the same model produce estimates for unseen devices.
    source_devices = ("t4", "k80")
    print(f"[1/3] training a cross-device cost model on {source_devices} ...")
    dataset = generate_dataset(
        DatasetConfig(devices=source_devices, seed=0, **scale.dataset_kwargs())
    )
    records = [r for device in source_devices for r in dataset.records(device)]
    splits = split_dataset(records, seed=0)
    trainer = Trainer(predictor_config=scale.predictor_config(),
                      config=scale.training_config())
    trainer.fit(featurize_records(splits.train), featurize_records(splits.valid))

    # Predict the end-to-end latency of the network on every device.
    print(f"[2/3] ranking devices for {args.network} ...")
    model = build_model(args.network)
    rows = []
    for device in list_devices():
        def cost_fn(programs, device=device):
            features = featurize_programs(programs, device,
                                          max_leaves=trainer.predictor.config.max_leaves)
            return dict(zip(features.task_keys, trainer.predict(features)))

        predicted = predict_end_to_end(model, device, cost_fn, seed=0).iteration_time_s
        simulated = measure_end_to_end(model, device, seed=0).iteration_time_s
        price = HOURLY_PRICE[device.name]
        rows.append((device.name, device.taxonomy, predicted, simulated, price,
                     predicted * price / 3600.0))

    print(f"[3/3] results for {args.network} (sorted by predicted latency):")
    print(f"  {'device':12s} {'type':6s} {'predicted':>12s} {'simulated':>12s} "
          f"{'$/hour':>8s} {'$/1k runs':>10s}")
    for name, taxonomy, predicted, simulated, price, cost in sorted(rows, key=lambda r: r[2]):
        print(f"  {name:12s} {taxonomy:6s} {predicted * 1e3:9.3f} ms {simulated * 1e3:9.3f} ms "
              f"{price:8.2f} {cost * 1e3 * 1000:10.4f}")

    best_latency = min(rows, key=lambda r: r[2])
    best_value = min(rows, key=lambda r: r[5])
    print(f"\n  fastest device:        {best_latency[0]}")
    print(f"  cheapest per 1k runs:  {best_value[0]}")


if __name__ == "__main__":
    main()
