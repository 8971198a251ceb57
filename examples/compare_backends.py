#!/usr/bin/env python
"""Compare every runnable cost-model backend on one device, Table-1 style.

The library-level analogue of ``cdmpp compare``: generate one dataset, train
each backend on the same train/valid split through the common
:class:`repro.backends.CostModel` protocol, then report each backend's
Table 1 capabilities, test accuracy and training throughput — the axes the
paper compares CDMPP against TLP, Habitat and AutoTVM's XGBoost on (Table 1,
Fig. 6).  Finally, the two best backends serve the same whole-model query
through one ``FleetService`` each, showing that serving is backend-agnostic
too.

Run with:  PYTHONPATH=src python examples/compare_backends.py [--device t4]
"""

from __future__ import annotations

import argparse

from repro.backends import available_backends, make_backend
from repro.core.scale import get_scale
from repro.dataset.splits import split_dataset
from repro.dataset.tenset import DatasetConfig, generate_dataset
from repro.errors import ReproError
from repro.serving import FleetService

NETWORK = "bert_tiny"


def build_backend(name: str, device: str, scale, seed: int):
    if name == "cdmpp":
        return make_backend(
            "cdmpp",
            predictor_config=scale.predictor_config(),
            training_config=scale.training_config(seed=seed),
        )
    kwargs = {"seed": seed}
    if name == "habitat":
        kwargs["target_device"] = device
    return make_backend(name, **kwargs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--device", default="t4", help="target device (default: t4)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    args = parser.parse_args()

    scale = get_scale("tiny")
    print(f"[1/3] generating a tiny-scale dataset for {args.device} ...")
    dataset = generate_dataset(
        DatasetConfig(devices=(args.device,), seed=args.seed, **scale.dataset_kwargs())
    )
    splits = split_dataset(dataset.records(args.device), seed=args.seed)
    print(f"      {len(splits.train)} train / {len(splits.valid)} valid / "
          f"{len(splits.test)} test records")

    print(f"[2/3] training {len(available_backends())} backends on the same split ...")
    fitted = {}
    for name in available_backends():
        try:
            model = build_backend(name, args.device, scale, args.seed)
            stats = model.fit(splits.train, valid=splits.valid)
            metrics = model.evaluate(splits.test)
        except ReproError as error:
            print(f"      {name:9s} skipped ({error})")
            continue
        fitted[name] = (model, metrics, stats)
        caps = model.capabilities
        flags = "".join("y" if caps[key] else "." for key in
                        ("absolute_time", "model_level", "op_level", "cross_device"))
        print(f"      {name:9s} caps[abs/model/op/xdev]={flags}  "
              f"MAPE {metrics['mape'] * 100:6.1f}%  "
              f"{stats.train_seconds:6.2f}s  {stats.throughput_samples_per_s:8,.0f} samples/s")

    print(f"[3/3] serving {NETWORK!r} through the two most accurate model-level backends ...")
    model_level = {name: entry for name, entry in fitted.items()
                   if entry[0].capabilities["model_level"]}
    best = sorted(model_level, key=lambda name: model_level[name][1]["mape"])[:2]
    for name in best:
        fleet = FleetService({args.device: fitted[name][0]})
        prediction = fleet.predict_model(NETWORK, args.device, seed=args.seed)
        print(f"      {name:9s} -> {prediction.predicted_latency_s * 1e3:8.3f} ms "
              f"({prediction.num_nodes} ops)")


if __name__ == "__main__":
    main()
