"""Command-line interface to the CDMPP reproduction.

Subcommands follow the train-once / query-many workflow of the paper:

* ``cdmpp train <device>`` — train a cost model and register the checkpoint.
  ``--backend`` picks the predictor (``cdmpp`` by default, or any runnable
  baseline: ``xgboost``, ``tlp``, ``habitat``, ``tiramisu``).
* ``cdmpp query <network> <batch_size> <device>`` — answer an end-to-end
  latency query, loading a registered checkpoint when one exists (training
  and registering one otherwise, so only the *first* query pays for
  training).  ``--backend`` serves the query from a baseline checkpoint.
* ``cdmpp predict-model <network> --devices a,b`` — end-to-end latency of
  one model on several devices at once, from registered checkpoints only
  (never retrains), ranked fastest-first through one
  :class:`repro.serving.FleetService`.
* ``cdmpp tune <network> --devices a,b`` — cost-model-guided schedule
  search for one network per device, each round's candidate population
  scored in one batched predictor call of the registered checkpoint; a
  re-tune of an unchanged model is a pure cache hit (the tunings persist in
  the registry next to the checkpoints).
* ``cdmpp compare <device>`` — train several backends side by side on one
  dataset and print a Table-1-style capability + accuracy + training
  throughput report.
* ``cdmpp onboard <device> --parent <name>`` — grow the fleet: select κ
  tasks on the parent checkpoint's latents (Algorithm 1), profile only those
  on the new device, fine-tune a detached clone with the CMD-regularized
  objective (Eq. 7) and register the adapted checkpoint with lineage
  metadata.  The parent checkpoint is never modified.
* ``cdmpp fleet --devices a,b`` — answer a stream of queries from a file or
  stdin through one cached, batched :class:`repro.serving.FleetService`:
  each line names a network and optionally a batch size and a device
  (default: fan out to every device and rank).  ``--devices t4
  --train-missing`` serves one device, training its checkpoint if needed.
* ``cdmpp daemon --devices a,b`` / ``cdmpp client`` — the same fleet behind a
  TCP daemon, and the line client that queries it (same request lines, same
  ranked output as ``cdmpp fleet``).
* ``cdmpp list`` — show available networks, devices, scales and checkpoints.

The original positional form ``cdmpp <network> <batch_size> <device>`` is an
alias of ``cdmpp query <network> <batch_size> <device> --retrain --no-save``:
it trains from scratch and never reads or writes the registry.

``docs/cli.md`` is generated from this argparse tree by
``tools/gen_cli_docs.py`` (via :func:`render_cli_docs`); regenerate it after
changing any parser here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, TextIO, Tuple

from repro.adaptation import STRATEGIES as ONBOARD_STRATEGIES
from repro.adaptation import OnboardingPipeline
from repro.backends import (
    CostModel,
    DistilledBackend,
    available_backends,
    load_backend,
    make_backend,
    resolve_backend_name,
)
from repro.core.scale import ExperimentScale, available_scales, get_scale
from repro.dataset.splits import split_dataset
from repro.dataset.tenset import DatasetConfig, generate_dataset
from repro.devices.spec import DeviceSpec, all_device_names, get_device
from repro.errors import ReproError
from repro.graph.zoo import build_model, list_models, resolve_model_name
from repro.replay.e2e import COMPOSE_MODES, measure_end_to_end
from repro.features.pipeline import featurize_records
from repro.serving import (
    DEFAULT_TIER,
    TIERS,
    DaemonClient,
    DaemonConfig,
    DaemonRequestError,
    FleetService,
    ModelRegistry,
    SearchService,
    ServingDaemon,
)
from repro.serving.daemon import prediction_fields

SUBCOMMANDS = (
    "train",
    "query",
    "predict-model",
    "tune",
    "compare",
    "onboard",
    "fleet",
    "daemon",
    "client",
    "list",
)


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
def _add_scale_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=list(available_scales()),
        help="experiment scale used when a cost model has to be trained",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")


# Kept literal (not interpolated from default_registry_root()) so --help and
# the generated docs/cli.md do not depend on $CDMPP_REGISTRY or $HOME.
_REGISTRY_HELP = "model registry directory (default: $CDMPP_REGISTRY or ~/.cache/cdmpp/models)"


def _add_checkpoint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--registry", default=None, help=_REGISTRY_HELP)
    parser.add_argument("--checkpoint", default=None, help="explicit checkpoint path (.npz)")


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        choices=list(available_backends()),
        help="cost-model backend (default: cdmpp, or whatever backend wrote "
        "an explicit --checkpoint; baselines register checkpoints as "
        "'<device>-<scale>-<backend>')",
    )


def _add_tier(parser: argparse.ArgumentParser, default: Optional[str] = DEFAULT_TIER) -> None:
    help_text = (
        "serving tier: 'accurate' answers from the full cost model, 'fast' "
        "from its distilled student"
    )
    if default is None:
        help_text += " (default: the daemon's configured tier)"
    parser.add_argument("--tier", choices=list(TIERS), default=default, help=help_text)


def _add_compose(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--compose",
        default="replay",
        choices=list(COMPOSE_MODES),
        help="how per-kernel latencies become an end-to-end number: "
        "'replay' simulates the execution order (Algorithm 2), "
        "'serial' sums every kernel back to back",
    )


def _sub(sub, name: str, help_text: str, epilog: str) -> argparse.ArgumentParser:
    """Add one subparser with a worked-example epilog (kept verbatim)."""
    return sub.add_parser(
        name,
        help=help_text,
        description=help_text[0].upper() + help_text[1:] + ".",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )


def build_cli_parser() -> argparse.ArgumentParser:
    """The subcommand parser (``cdmpp train|query|predict-model|fleet|...|list``)."""
    parser = argparse.ArgumentParser(
        prog="cdmpp",
        description=(
            "Train, persist and query the CDMPP cost model. "
            "The legacy form `cdmpp <network> <batch_size> <device>` is an alias of "
            "`cdmpp query <network> <batch_size> <device> --retrain --no-save`."
        ),
        epilog="See docs/cli.md for the full reference of every subcommand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = _sub(
        sub,
        "train",
        "train a cost model and register the checkpoint",
        "example:\n  cdmpp train t4 --scale tiny\n"
        "  cdmpp train t4 --scale tiny --backend xgboost\n\n"
        "Registers the checkpoint as '<device>-<scale>' for the cdmpp backend\n"
        "and '<device>-<scale>-<backend>' for baselines (override with --name)\n"
        "so `cdmpp query`, `cdmpp fleet`, `cdmpp daemon` and\n"
        "`cdmpp predict-model` can load it instead of retraining.",
    )
    train.add_argument("device", help=f"target device, one of: {', '.join(all_device_names())}")
    _add_scale_seed(train)
    _add_backend(train)
    train.add_argument("--registry", default=None, help=_REGISTRY_HELP)
    train.add_argument(
        "--name",
        default=None,
        help="registry name of the checkpoint (default: <device>-<scale>[-<backend>])",
    )

    query = _sub(
        sub,
        "query",
        "predict the end-to-end latency of one network",
        "example:\n  cdmpp query resnet 1 t4 --scale tiny\n"
        "  cdmpp query resnet 1 t4 --backend xgboost\n\n"
        "Loads the '<device>-<scale>[-<backend>]' checkpoint when it exists;\n"
        "otherwise trains one and registers it, so only the first query pays\n"
        "for training. Unique network-name prefixes are accepted.",
    )
    query.add_argument("network", help=f"network name, one of: {', '.join(list_models())}")
    query.add_argument("batch_size", type=int, help="batch size of the query")
    query.add_argument("device", help=f"device name, one of: {', '.join(all_device_names())}")
    _add_scale_seed(query)
    _add_backend(query)
    _add_checkpoint_options(query)
    _add_tier(query)
    query.add_argument(
        "--retrain", action="store_true", help="ignore existing checkpoints and train from scratch"
    )
    query.add_argument(
        "--no-save", action="store_true", help="do not register a freshly trained model"
    )

    predict_model = _sub(
        sub,
        "predict-model",
        "predict one network's end-to-end latency on several devices, ranked",
        "example:\n  cdmpp train t4 --scale tiny && cdmpp train k80 --scale tiny\n"
        "  cdmpp predict-model bert_tiny --devices t4,k80 --scale tiny\n\n"
        "Serves exclusively from registered '<device>-<scale>' checkpoints\n"
        "(or one --checkpoint shared by every device) and NEVER retrains;\n"
        "train the missing devices first. All per-kernel queries of all\n"
        "devices are answered in one batched predictor pass.",
    )
    predict_model.add_argument(
        "network", help=f"network name, one of: {', '.join(list_models())}"
    )
    predict_model.add_argument(
        "--devices",
        required=True,
        help="comma-separated device names to rank, e.g. 't4,k80'",
    )
    predict_model.add_argument("--batch-size", type=int, default=1, help="batch size of the query")
    _add_scale_seed(predict_model)
    _add_backend(predict_model)
    _add_checkpoint_options(predict_model)
    _add_tier(predict_model)
    _add_compose(predict_model)

    tune = _sub(
        sub,
        "tune",
        "cost-model-guided schedule search for one network on several devices",
        "example:\n  cdmpp train t4 --scale tiny\n"
        "  cdmpp tune bert_tiny --devices t4 --scale tiny\n\n"
        "Partitions the network into its unique tasks and runs evolutionary\n"
        "schedule search on each, scoring every round's candidate population\n"
        "through ONE batched predictor call of the registered checkpoint\n"
        "(never retrains; train the devices first). Finished tunings are\n"
        "cached in the registry next to the checkpoints, keyed on the cost\n"
        "model's signature and the search budget: re-tuning an unchanged\n"
        "model is a pure cache hit ('cached') returning bit-identical\n"
        "results with zero new predicts, while retraining or onboarding a\n"
        "device invalidates its entries and forces a fresh search ('fresh').",
    )
    tune.add_argument("network", help=f"network name, one of: {', '.join(list_models())}")
    tune.add_argument(
        "--devices",
        required=True,
        help="comma-separated device names to tune for, e.g. 't4,k80'",
    )
    tune.add_argument("--batch-size", type=int, default=1, help="batch size of the tuned network")
    tune.add_argument(
        "--rounds", type=int, default=None, help="evolutionary search rounds per task (default: 6)"
    )
    tune.add_argument(
        "--population",
        type=int,
        default=None,
        help="candidate schedules scored per round (default: 12)",
    )
    tune.add_argument(
        "--measurements-per-round",
        type=int,
        default=None,
        help="top candidates measured per round (default: 3)",
    )
    _add_scale_seed(tune)
    _add_backend(tune)
    _add_checkpoint_options(tune)
    tune.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore cached tunings and search from scratch "
        "(fresh results still replace the cached entries)",
    )

    compare = _sub(
        sub,
        "compare",
        "train and evaluate several backends side by side (Table 1 style)",
        "example:\n  cdmpp compare t4 --scale tiny --backends cdmpp,xgboost,tlp\n\n"
        "Generates one dataset for the device, trains every requested backend\n"
        "on the same train/valid split and reports each backend's Table-1\n"
        "capabilities, test MAPE/RMSE and training throughput. Backends that\n"
        "cannot run on the device (e.g. habitat on a CPU) are reported as\n"
        "failed instead of aborting the comparison.",
    )
    compare.add_argument("device", help=f"target device, one of: {', '.join(all_device_names())}")
    compare.add_argument(
        "--backends",
        default="all",
        help="comma-separated backend names to compare, or 'all' "
        f"(available: {', '.join(available_backends())})",
    )
    _add_scale_seed(compare)
    compare.add_argument(
        "--register",
        action="store_true",
        help="also register each trained backend's checkpoint "
        "('<device>-<scale>[-<backend>]')",
    )
    compare.add_argument("--registry", default=None, help=_REGISTRY_HELP)

    onboard = _sub(
        sub,
        "onboard",
        "adapt a registered checkpoint to a new device (clone + fine-tune)",
        "example:\n  cdmpp train t4 --scale tiny\n"
        "  cdmpp onboard k80 --parent t4-tiny\n\n"
        "Runs the Algorithm-1 onboarding pipeline: select kappa representative\n"
        "tasks on the parent model's latents, profile only those on the new\n"
        "device (--budget caps the measurements), CMD-regularize-finetune a\n"
        "detached clone (the parent checkpoint is never modified) and register\n"
        "the adapted model with lineage metadata as '<device>-<scale>'.\n"
        "Prints a zero-shot vs adapted report in the style of `cdmpp compare`.",
    )
    onboard.add_argument("device", help=f"new device to onboard, one of: {', '.join(all_device_names())}")
    onboard.add_argument(
        "--parent",
        required=True,
        help="registry name of the pre-trained cdmpp checkpoint to adapt from "
        "(e.g. 't4-tiny')",
    )
    onboard.add_argument("--registry", default=None, help=_REGISTRY_HELP)
    onboard.add_argument(
        "--source-device",
        default=None,
        help="device the parent was trained on (default: read from the parent "
        "checkpoint's metadata)",
    )
    onboard.add_argument(
        "--scale",
        default=None,
        choices=list(available_scales()),
        help="experiment scale of the profiling/evaluation data "
        "(default: the parent checkpoint's recorded scale)",
    )
    onboard.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed (default: the parent checkpoint's recorded seed)",
    )
    onboard.add_argument(
        "--num-tasks", type=int, default=8, help="kappa, tasks to profile on the new device"
    )
    onboard.add_argument(
        "--strategy",
        default="kmeans",
        choices=list(ONBOARD_STRATEGIES),
        help="task-selection strategy: 'kmeans' (Algorithm 1) or 'random'",
    )
    onboard.add_argument(
        "--schedules-per-task", type=int, default=4, help="schedules measured per selected task"
    )
    onboard.add_argument(
        "--budget",
        type=int,
        default=None,
        help="hard cap on profiled measurements (default: num-tasks x schedules-per-task)",
    )
    onboard.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="fine-tuning epochs (default: the scale's finetune_epochs)",
    )
    onboard.add_argument(
        "--alpha", type=float, default=None, help="CMD coefficient of Eq. 7 (default: cmd_alpha)"
    )
    onboard.add_argument(
        "--name",
        default=None,
        help="registry name of the adapted checkpoint (default: '<device>-<scale>')",
    )
    onboard.add_argument(
        "--no-register", action="store_true", help="report only; do not register the adapted model"
    )

    fleet = _sub(
        sub,
        "fleet",
        "serve `network [batch_size] [device]` queries across a device fleet",
        "example:\n  printf 'bert_tiny\\nresnet50 1 t4\\n' | "
        "cdmpp fleet --devices t4,k80 --scale tiny\n"
        "  printf 'bert_tiny 1\\nvgg16 8\\n' | cdmpp fleet --devices t4 --train-missing\n\n"
        "Each request line is `network [batch_size] [device]`; without a\n"
        "device the query fans out to every fleet device and prints a ranked\n"
        "answer. Serves from registered checkpoints; devices without one are\n"
        "an error unless --train-missing is given.",
    )
    fleet.add_argument(
        "--devices",
        required=True,
        help="comma-separated device names the fleet serves, e.g. 't4,k80'",
    )
    _add_scale_seed(fleet)
    _add_checkpoint_options(fleet)
    _add_compose(fleet)
    fleet.add_argument(
        "--requests",
        default="-",
        help="file with one `network [batch_size] [device]` query per line ('-' reads stdin)",
    )
    fleet.add_argument(
        "--train-missing",
        action="store_true",
        help="train and register a checkpoint for fleet devices that have none "
        "(default: missing checkpoints are an error)",
    )

    daemon = _sub(
        sub,
        "daemon",
        "run a long-lived TCP serving daemon with deadline-aware batching",
        "example:\n  cdmpp daemon --devices t4,k80 --port 7077 --scale tiny --train-missing\n\n"
        "Serves the fleet over line-delimited JSON on TCP (see docs/daemon.md\n"
        "for the wire protocol). Each device shard serves as soon as it is\n"
        "free: the queries that queued while it was busy form its next batch,\n"
        "up to --max-batch-size. Requests carrying a deadline_ms are served\n"
        "first (earliest deadline first) and are shed with 'deadline_exceeded'\n"
        "once expired; beyond --queue-limit queued requests new work is\n"
        "rejected with 'overloaded' + retry_after_ms. SIGTERM/SIGINT drain\n"
        "queued work before exiting.",
    )
    daemon.add_argument(
        "--devices",
        required=True,
        help="comma-separated device names the daemon serves, e.g. 't4,k80'",
    )
    daemon.add_argument("--host", default="127.0.0.1", help="interface to bind")
    daemon.add_argument(
        "--port", type=int, default=7077, help="TCP port to listen on (0 = OS-assigned)"
    )
    daemon.add_argument(
        "--max-batch-size",
        type=int,
        default=32,
        help="most queued requests one device shard batch may take",
    )
    daemon.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="total queued requests before new work is rejected as 'overloaded'",
    )
    daemon.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline applied to requests that carry none (default: no deadline)",
    )
    _add_scale_seed(daemon)
    _add_checkpoint_options(daemon)
    _add_tier(daemon)
    _add_compose(daemon)
    daemon.add_argument(
        "--train-missing",
        action="store_true",
        help="train and register a checkpoint for devices that have none "
        "(default: missing checkpoints are an error)",
    )

    client = _sub(
        sub,
        "client",
        "query a running `cdmpp daemon` over TCP",
        "example:\n  printf 'bert_tiny\\nresnet50 1 t4\\n' | cdmpp client --port 7077\n"
        "  cdmpp client --port 7077 --health\n\n"
        "Each request line is `network [batch_size] [device]`; without a\n"
        "device the query fans out to every daemon device and prints a ranked\n"
        "answer (the same format as `cdmpp fleet`). --health and --stats are\n"
        "one-shot probes that print the daemon's JSON response.",
    )
    client.add_argument("--host", default="127.0.0.1", help="daemon host")
    client.add_argument("--port", type=int, default=7077, help="daemon port")
    client.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline; expired requests are shed by the daemon",
    )
    client.add_argument(
        "--timeout-s", type=float, default=60.0, help="socket timeout for each round-trip"
    )
    _add_tier(client, default=None)
    client.add_argument(
        "--requests",
        default="-",
        help="file with one `network [batch_size] [device]` query per line ('-' reads stdin)",
    )
    client.add_argument(
        "--health", action="store_true", help="print the daemon's health payload and exit"
    )
    client.add_argument(
        "--stats", action="store_true", help="print the daemon's stats payload and exit"
    )

    list_cmd = _sub(
        sub,
        "list",
        "show networks, devices, scales and registered checkpoints",
        "example:\n  cdmpp list --registry /tmp/cdmpp-models",
    )
    list_cmd.add_argument("--registry", default=None, help=_REGISTRY_HELP)
    return parser


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _registry_name(device_name: str, scale_name: str, backend: str) -> str:
    """Default registry name: '<device>-<scale>' plus a suffix for baselines."""
    if backend == "cdmpp":
        return f"{device_name}-{scale_name}"
    return f"{device_name}-{scale_name}-{backend}"


def _backend_phrase(backend: str) -> str:
    """Log-message qualifier: empty for the default cdmpp backend."""
    return "" if backend == "cdmpp" else f"{backend} "


def _make_backend_for(backend: str, device_name: str, scale: ExperimentScale, seed: int) -> CostModel:
    """An unfitted backend configured for one device at one scale."""
    if backend in ("cdmpp", "distilled"):
        kwargs = {} if backend == "cdmpp" else {"seed": seed}
        return make_backend(
            backend,
            predictor_config=scale.predictor_config(),
            training_config=scale.training_config(seed=seed),
            **kwargs,
        )
    kwargs = {"seed": seed}
    if backend == "habitat":
        kwargs["target_device"] = device_name
    return make_backend(backend, **kwargs)


def _train_model(device_name: str, scale_name: str, seed: int, backend: str = "cdmpp") -> CostModel:
    """Train a fresh cost model of any backend for one device at one scale."""
    scale = get_scale(scale_name)
    dataset = generate_dataset(
        DatasetConfig(devices=(device_name,), seed=seed, **scale.dataset_kwargs())
    )
    splits = split_dataset(dataset.records(device_name), seed=seed)
    model = _make_backend_for(backend, device_name, scale, seed)
    model.fit(splits.train, splits.valid)
    return model


def _resolve_model(args):
    """Load a cost model from --checkpoint / the registry, else train one.

    Returns ``(model, source, registry, registry_name)`` where ``source``
    is ``"checkpoint"``, ``"registry"`` or ``"trained"``.  ``model`` is
    whatever the checkpoint's backend tag dictates (a :class:`Trainer` for
    cdmpp checkpoints, a :class:`CostModel` backend otherwise).
    """
    registry = ModelRegistry(args.registry)
    requested = getattr(args, "backend", None)
    backend = resolve_backend_name(requested or "cdmpp")
    name = _registry_name(args.device, args.scale, backend)
    if getattr(args, "checkpoint", None):
        if requested is not None:
            from repro.backends import backend_of_checkpoint

            tag = resolve_backend_name(backend_of_checkpoint(args.checkpoint))
            if tag != backend:
                raise ReproError(
                    f"checkpoint {args.checkpoint} was written by backend {tag!r}, "
                    f"but --backend {backend} was requested; drop --backend to "
                    "serve the checkpoint as-is"
                )
        print(f"[cdmpp] loading checkpoint {args.checkpoint} ...")
        return load_backend(args.checkpoint), "checkpoint", registry, name
    if not getattr(args, "retrain", False) and registry.exists(name):
        tag = resolve_backend_name(registry.backend_of(name))
        if tag != backend:
            raise ReproError(
                f"registry entry {name!r} was written by backend {tag!r}, not "
                f"{backend!r}; delete it or register under another name"
            )
        print(
            f"[cdmpp] loading pre-trained {_backend_phrase(backend)}model {name!r} "
            f"from {registry.root} ..."
        )
        return registry.load(name), "registry", registry, name
    print(
        f"[cdmpp] training a {args.scale}-scale {_backend_phrase(backend)}cost model "
        f"on device {args.device} ..."
    )
    model = _train_model(args.device, args.scale, args.seed, backend)
    return model, "trained", registry, name


def _distill_training_features(device_name: str, scale_name: str, seed: int, max_leaves: int):
    """Regenerate the deterministic training FeatureSet a teacher was fit on.

    Dataset generation is seeded, so this reproduces exactly what
    ``cdmpp train <device> --scale <scale> --seed <seed>`` featurized —
    the right distillation set for that checkpoint's student.
    """
    scale = get_scale(scale_name)
    dataset = generate_dataset(
        DatasetConfig(devices=(device_name,), seed=seed, **scale.dataset_kwargs())
    )
    splits = split_dataset(dataset.records(device_name), seed=seed)
    return featurize_records(splits.train, max_leaves=max_leaves)


def _resolve_fast_model(args, device: DeviceSpec):
    """Load the device's distilled student, distilling/training one if absent.

    Mirrors :func:`_resolve_model` for the fast tier: an explicit distilled
    ``--checkpoint`` wins, then the registered
    '<device>-<scale>-distilled' entry; otherwise a student is distilled
    from the device's registered cdmpp teacher (cheap — no teacher
    training), or trained teacher-and-all as a last resort.  Returns
    ``(model, source, registry, name)``.
    """
    registry = ModelRegistry(args.registry)
    name = _registry_name(device.name, args.scale, "distilled")
    requested = resolve_backend_name(getattr(args, "backend", None) or "cdmpp")
    if requested not in ("cdmpp", "distilled"):
        raise ReproError(
            f"--tier fast serves a student distilled from a cdmpp teacher; it "
            f"cannot combine with --backend {requested}"
        )
    if getattr(args, "checkpoint", None):
        from repro.backends import backend_of_checkpoint

        tag = resolve_backend_name(backend_of_checkpoint(args.checkpoint))
        if tag != "distilled":
            raise ReproError(
                f"--tier fast needs a distilled checkpoint, but {args.checkpoint} "
                f"was written by backend {tag!r}; drop --tier fast to serve it "
                "as the accurate tier"
            )
        print(f"[cdmpp] loading distilled checkpoint {args.checkpoint} ...")
        return load_backend(args.checkpoint), "checkpoint", registry, name
    if not getattr(args, "retrain", False) and registry.exists(name):
        print(f"[cdmpp] loading distilled student {name!r} from {registry.root} ...")
        return registry.load(name), "registry", registry, name
    teacher_name = _registry_name(device.name, args.scale, "cdmpp")
    if not getattr(args, "retrain", False) and registry.exists(teacher_name):
        teacher = registry.load(teacher_name)
        print(
            f"[cdmpp] distilling a fast-tier student from registered teacher "
            f"{teacher_name!r} ..."
        )
        features = _distill_training_features(
            device.name, args.scale, args.seed, teacher.predictor.config.max_leaves
        )
        model = DistilledBackend.distill_from(teacher, features, seed=args.seed)
        return model, "trained", registry, name
    print(
        f"[cdmpp] training a {args.scale}-scale distilled cost model "
        f"on device {device.name} ..."
    )
    model = _train_model(device.name, args.scale, args.seed, "distilled")
    return model, "trained", registry, name


def _parse_device_list(arg: str) -> List[DeviceSpec]:
    """Parse a --devices value ('t4,k80') into device specs (raises ReproError)."""
    names = [token.strip() for token in arg.split(",") if token.strip()]
    if not names:
        raise ReproError("--devices needs at least one device name (e.g. 't4,k80')")
    specs, seen = [], set()
    for name in names:
        spec = get_device(name)
        if spec.name not in seen:
            seen.add(spec.name)
            specs.append(spec)
    return specs


def _fleet_models(args, specs: List[DeviceSpec], train_missing: bool) -> dict:
    """Resolve a ``{device: model}`` mapping for a fleet of devices.

    With --checkpoint, one explicitly loaded model serves every device.
    Otherwise each device is served by its '<device>-<scale>[-<backend>]'
    registry entry; missing entries either abort (the default — serving
    never retrains) or are trained and registered when ``train_missing`` is
    set.  Devices sharing a checkpoint share one in-memory model (via
    ``ModelRegistry.load_shared``), so their kernel queries batch together.
    Used by both ``cdmpp fleet`` (in-process) and ``cdmpp daemon`` (TCP).
    """
    if getattr(args, "checkpoint", None):
        print(f"[cdmpp] loading checkpoint {args.checkpoint} for {len(specs)} device(s) ...")
        model = load_backend(args.checkpoint)
        return {spec.name: model for spec in specs}

    backend = resolve_backend_name(getattr(args, "backend", None) or "cdmpp")
    registry = ModelRegistry(args.registry)
    names = {spec.name: _registry_name(spec.name, args.scale, backend) for spec in specs}
    missing = [device for device, name in names.items() if not registry.exists(name)]
    if missing and not train_missing:
        backend_flag = "" if backend == "cdmpp" else f" --backend {backend}"
        hint = " && ".join(
            f"cdmpp train {device} --scale {args.scale}{backend_flag}" for device in missing
        )
        raise ReproError(
            f"no registered checkpoint for device(s) {', '.join(missing)} in {registry.root} "
            f"(expected {', '.join(names[d] for d in missing)}); train them first: {hint}"
        )
    for device in missing:
        print(
            f"[cdmpp] training a {args.scale}-scale {_backend_phrase(backend)}cost model "
            f"on device {device} ..."
        )
        model = _train_model(device, args.scale, args.seed, backend)
        registry.save(names[device], model, device=device, scale=args.scale, seed=args.seed)
    print(
        f"[cdmpp] fleet of {len(specs)} device(s) from {registry.root}: "
        + ", ".join(f"{device}<-{name}" for device, name in names.items())
    )
    load = getattr(registry, "load_shared", registry.load)
    return {device: load(name) for device, name in names.items()}


def _fleet_fast_models(args, specs: List[DeviceSpec], required: bool) -> Optional[dict]:
    """Registered '<device>-<scale>-distilled' students for a fleet's fast tier.

    Serving never distills on demand (the same serve-only rule as
    :func:`_fleet_models`): when ``required``, devices without a registered
    student abort with the command that creates one; otherwise whatever
    students exist are loaded and the rest of the fleet stays accurate-only.
    Returns None when no device has a student.
    """
    if getattr(args, "checkpoint", None):
        from repro.backends import backend_of_checkpoint

        tag = resolve_backend_name(backend_of_checkpoint(args.checkpoint))
        if tag != "distilled":
            if required:
                raise ReproError(
                    f"--tier fast needs a distilled checkpoint, but {args.checkpoint} "
                    f"was written by backend {tag!r}"
                )
            return None
        model = load_backend(args.checkpoint)
        return {spec.name: model for spec in specs}
    registry = ModelRegistry(args.registry)
    names = {spec.name: _registry_name(spec.name, args.scale, "distilled") for spec in specs}
    missing = [device for device, name in names.items() if not registry.exists(name)]
    if missing and required:
        hint = " && ".join(
            f"cdmpp query bert_tiny 1 {device} --scale {args.scale} --tier fast"
            for device in missing
        )
        raise ReproError(
            f"no distilled fast-tier checkpoint for device(s) {', '.join(missing)} in "
            f"{registry.root} (expected {', '.join(names[d] for d in missing)}); "
            f"distill them first, e.g.: {hint}"
        )
    names = {device: name for device, name in names.items() if device not in missing}
    if not names:
        return None
    print(
        f"[cdmpp] fast tier from {registry.root}: "
        + ", ".join(f"{device}<-{name}" for device, name in names.items())
    )
    load = getattr(registry, "load_shared", registry.load)
    return {device: load(name) for device, name in names.items()}


def _build_fleet(
    args, specs: List[DeviceSpec], train_missing: bool, tier: str = DEFAULT_TIER
) -> FleetService:
    """A FleetService over registered checkpoints (see :func:`_fleet_models`)."""
    fast_models = _fleet_fast_models(args, specs, required=True) if tier == "fast" else None
    return FleetService(_fleet_models(args, specs, train_missing), fast_models=fast_models)


def _parse_request_line(line: str) -> Tuple[str, int, Optional[str]]:
    """Split a `network [batch_size] [device]` line; device None (or 'all'/'*') fans out."""
    parts = line.split()
    batch_size, device = 1, None
    for token in parts[1:]:
        if token.isdigit():
            batch_size = int(token)
        else:
            device = token
    return parts[0], batch_size, None if device in ("all", "*") else device


def _print_ranking(results: List[dict]) -> None:
    """Ranked per-device answers, as wire fields (see ``prediction_fields``)."""
    fastest = results[0]["latency_s"] if results else 0.0
    for rank, result in enumerate(results, start=1):
        relative = result["latency_s"] / fastest if fastest > 0 else 1.0
        print(
            f"[cdmpp]   {rank}. {result['device']:12s} "
            f"{result['latency_s'] * 1e3:9.3f} ms  "
            f"({relative:4.2f}x, serial {result['serial_latency_s'] * 1e3:.3f} ms, "
            f"{result['num_nodes']} ops / {result['num_unique_kernels']} kernels)"
        )


def _answer_requests(args, stream: Optional[TextIO], answer, errors) -> Optional[int]:
    """Answer every request line of --requests ('-' = stdin) and print its ranking.

    ``answer(network, batch_size, device)`` returns ranked wire-field
    results; a line raising one of ``errors`` is reported and skipped.  Blank
    lines and '#' comments are ignored.  Returns the number of answered
    lines, or None after printing an error when the file cannot be read.
    """
    opened = None
    if stream is None and args.requests == "-":
        stream = sys.stdin
    elif stream is None:
        try:
            stream = opened = open(args.requests, "r")
        except OSError as error:
            print(f"error: cannot read requests file: {error}", file=sys.stderr)
            return None
    answered = 0
    try:
        for line in stream:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            network, batch_size, device = _parse_request_line(line)
            try:
                results = answer(network, batch_size, device)
            except errors as error:
                print(f"error: bad query {line!r}: {error}", file=sys.stderr)
                continue
            answered += 1
            print(f"[cdmpp] {results[0]['network'] if results else network} batch={batch_size}:")
            _print_ranking(results)
    finally:
        if opened is not None:
            opened.close()
    return answered


def _print_query_report(prediction, ground_truth, batch_size: int, device, tier: str) -> None:
    error = abs(prediction.predicted_latency_s - ground_truth.iteration_time_s) / max(
        ground_truth.iteration_time_s, 1e-12
    )
    tier_phrase = "distilled student" if tier == "fast" else "full cost model"
    print(f"[cdmpp] network:             {prediction.model} (batch={batch_size}, {prediction.num_nodes} ops)")
    print(f"[cdmpp] device:              {device.name} ({device.taxonomy})")
    print(f"[cdmpp] serving tier:        tier={tier} ({tier_phrase})")
    print(f"[cdmpp] predicted latency:   {prediction.predicted_latency_s * 1e3:.3f} ms")
    print(f"[cdmpp] simulated reference: {ground_truth.iteration_time_s * 1e3:.3f} ms")
    print(f"[cdmpp] relative error:      {error * 100:.1f}%")


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_train(args) -> int:
    try:
        device = get_device(args.device)
        backend = resolve_backend_name(args.backend or "cdmpp")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    registry = ModelRegistry(args.registry)
    name = args.name or _registry_name(device.name, args.scale, backend)
    print(
        f"[cdmpp] training a {args.scale}-scale {_backend_phrase(backend)}cost model "
        f"on device {device.name} ..."
    )
    model = _train_model(device.name, args.scale, args.seed, backend)
    path = registry.save(name, model, device=device.name, scale=args.scale, seed=args.seed)
    print(f"[cdmpp] registered {name!r} at {path} ({path.stat().st_size / 1024:.0f} KiB)")
    backend_flag = "" if backend == "cdmpp" else f" --backend {backend}"
    print(
        f"[cdmpp] answer queries with: cdmpp query <network> <batch> {device.name} "
        f"--scale {args.scale}{backend_flag}"
    )
    return 0


def _cmd_query(args) -> int:
    try:
        device = get_device(args.device)
        model = build_model(args.network, batch_size=args.batch_size)
    except Exception as error:  # argparse-style error reporting
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.tier == "fast":
        cost_model, source, registry, name = _resolve_fast_model(args, device)
    else:
        cost_model, source, registry, name = _resolve_model(args)
    if source == "trained" and not args.no_save:
        path = registry.save(name, cost_model, device=device.name, scale=args.scale, seed=args.seed)
        print(f"[cdmpp] registered {name!r} at {path}; later queries skip training")

    # With --tier fast the student also fills the accurate slot, so the fleet
    # constructs; this query never touches that table.
    fast_models = {device.name: cost_model} if args.tier == "fast" else None
    fleet = FleetService({device.name: cost_model}, fast_models=fast_models)
    prediction = fleet.predict_model(
        model, device, batch_size=args.batch_size, seed=args.seed, tier=args.tier
    )
    ground_truth = measure_end_to_end(model, device, seed=args.seed)
    _print_query_report(prediction, ground_truth, args.batch_size, device, args.tier)
    return 0


def _align_table(table: List[List[str]]) -> List[str]:
    """Left-align a list of rows (first row = header) into text lines."""
    widths = [max(len(line[col]) for line in table) for col in range(len(table[0]))]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table
    ]


def _format_compare_table(rows: List[dict]) -> List[str]:
    """Render the Table-1-style comparison rows as aligned text lines."""
    header = ["backend", "abs", "model", "op", "xdev", "MAPE%", "RMSE(ms)", "train_s", "samples/s"]
    table = [header]
    for row in rows:
        if row.get("error"):
            table.append([row["backend"], "-", "-", "-", "-", "failed", "-", "-", "-"])
            continue
        caps = row["capabilities"]
        table.append([
            row["backend"],
            "yes" if caps["absolute_time"] else "no",
            "yes" if caps["model_level"] else "no",
            "yes" if caps["op_level"] else "no",
            "yes" if caps["cross_device"] else "no",
            f"{row['mape'] * 100:.1f}",
            f"{row['rmse'] * 1e3:.4f}",
            f"{row['train_seconds']:.2f}",
            f"{row['throughput']:.0f}",
        ])
    return _align_table(table)


def _cmd_compare(args) -> int:
    try:
        device = get_device(args.device)
        if args.backends.strip().lower() in ("all", "*"):
            backends = list(available_backends())
        else:
            tokens = [token.strip() for token in args.backends.split(",") if token.strip()]
            if not tokens:
                raise ReproError("--backends needs at least one backend name (or 'all')")
            backends = []
            for token in tokens:
                name = resolve_backend_name(token)
                if name not in backends:
                    backends.append(name)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    scale = get_scale(args.scale)
    print(f"[cdmpp] generating a {args.scale}-scale dataset for device {device.name} ...")
    dataset = generate_dataset(
        DatasetConfig(devices=(device.name,), seed=args.seed, **scale.dataset_kwargs())
    )
    splits = split_dataset(dataset.records(device.name), seed=args.seed)
    print(
        f"[cdmpp] comparing {len(backends)} backend(s) on {device.name}: "
        f"{len(splits.train)} train / {len(splits.valid)} valid / {len(splits.test)} test records"
    )

    registry = ModelRegistry(args.registry) if args.register else None
    rows: List[dict] = []
    for backend in backends:
        try:
            model = _make_backend_for(backend, device.name, scale, args.seed)
            stats = model.fit(splits.train, splits.valid)
            metrics = model.evaluate(splits.test)
        except ReproError as error:
            print(f"[cdmpp] {backend}: failed ({error})")
            rows.append({"backend": backend, "error": str(error)})
            continue
        rows.append({
            "backend": backend,
            "capabilities": model.capabilities,
            "mape": metrics["mape"],
            "rmse": metrics["rmse"],
            "train_seconds": stats.train_seconds,
            "throughput": stats.throughput_samples_per_s,
        })
        print(
            f"[cdmpp] {backend}: MAPE {metrics['mape'] * 100:.1f}% in "
            f"{stats.train_seconds:.2f}s ({stats.throughput_samples_per_s:.0f} samples/s)"
        )
        if registry is not None:
            name = _registry_name(device.name, args.scale, backend)
            registry.save(name, model, device=device.name, scale=args.scale, seed=args.seed)
            print(f"[cdmpp] registered {name!r} in {registry.root}")

    print(f"[cdmpp] Table-1-style comparison on {device.name} ({args.scale} scale):")
    for line in _format_compare_table(rows):
        print(f"[cdmpp]   {line}")
    trained = [row for row in rows if not row.get("error")]
    if trained:
        best = min(trained, key=lambda row: row["mape"])
        print(f"[cdmpp] best test MAPE: {best['backend']} ({best['mape'] * 100:.1f}%)")
    return 0 if trained else 2


def _format_onboard_table(rows: List[dict]) -> List[str]:
    """Render the zero-shot vs adapted report as aligned text lines."""
    table = [["stage", "MAPE%", "RMSE(ms)", "10%-acc", "20%-acc"]]
    for row in rows:
        metrics = row["metrics"]
        table.append([
            row["stage"],
            f"{metrics['mape'] * 100:.1f}",
            f"{metrics['rmse'] * 1e3:.4f}",
            f"{metrics['10%accuracy'] * 100:.0f}",
            f"{metrics['20%accuracy'] * 100:.0f}",
        ])
    return _align_table(table)


def _cmd_onboard(args) -> int:
    from repro.features.pipeline import featurize_records

    registry = ModelRegistry(args.registry)
    try:
        device = get_device(args.device)
        if not registry.exists(args.parent):
            available = ", ".join(registry.list()) or "<registry is empty>"
            raise ReproError(
                f"no parent checkpoint {args.parent!r} in {registry.root} "
                f"(available: {available}); train one first: cdmpp train <device>"
            )
        if resolve_backend_name(registry.backend_of(args.parent)) != "cdmpp":
            raise ReproError(
                f"parent checkpoint {args.parent!r} was written by backend "
                f"{registry.backend_of(args.parent)!r}; onboarding fine-tunes in the "
                "cdmpp latent space and needs a cdmpp parent"
            )
        extra = registry.describe(args.parent).get("extra", {})
        source_device = args.source_device or extra.get("device")
        if not source_device:
            raise ReproError(
                f"parent checkpoint {args.parent!r} records no source device; "
                "pass --source-device"
            )
        source_device = get_device(source_device).name
        if source_device == device.name:
            raise ReproError(
                f"parent {args.parent!r} was already trained on {device.name}; "
                "onboard a *different* device or just serve the parent"
            )
        scale_name = args.scale or extra.get("scale") or "tiny"
        scale = get_scale(scale_name)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else int(extra.get("seed", 0))
    epochs = args.epochs if args.epochs is not None else scale.finetune_epochs
    parent = registry.load(args.parent)

    print(
        f"[cdmpp] regenerating the {scale_name}-scale dataset for "
        f"{source_device} (source) + {device.name} (target) ..."
    )
    dataset = generate_dataset(
        DatasetConfig(devices=(source_device, device.name), seed=seed, **scale.dataset_kwargs())
    )
    source_splits = split_dataset(dataset.records(source_device), seed=seed)
    target_splits = split_dataset(dataset.records(device.name), seed=seed)
    source_train = featurize_records(source_splits.train, max_leaves=parent.max_leaves)
    target_test = featurize_records(target_splits.test, max_leaves=parent.max_leaves)

    budget = args.budget if args.budget is not None else args.num_tasks * args.schedules_per_task
    print(
        f"[cdmpp] onboarding {device.name} from parent {args.parent!r} "
        f"(kappa={args.num_tasks}, strategy={args.strategy}, budget={budget})"
    )
    pipeline = OnboardingPipeline(parent, source_train, parent_name=args.parent, seed=seed)
    name = args.name or _registry_name(device.name, scale_name, "cdmpp")
    result = pipeline.onboard(
        device,
        dataset.tasks(),
        num_tasks=args.num_tasks,
        strategy=args.strategy,
        schedules_per_task=args.schedules_per_task,
        max_measurements=budget,
        epochs=epochs,
        alpha=args.alpha,
        target_test=target_test,
        registry=None if args.no_register else registry,
        register_as=None if args.no_register else name,
        annotations={"scale": scale_name, "seed": seed},
    )

    print(
        f"[cdmpp] profiled {result.profiled_records} record(s) across "
        f"{len(result.selected_tasks)} task(s) in {result.profiling_seconds:.2f}s; "
        f"fine-tuned {len(result.finetune.history)} epoch(s)"
    )
    print(
        f"[cdmpp] zero-shot vs adapted on {device.name} "
        f"(test split, {len(target_test)} records):"
    )
    rows = [
        {"stage": "zero-shot", "metrics": result.zero_shot},
        {"stage": "adapted", "metrics": result.adapted},
    ]
    for line in _format_onboard_table(rows):
        print(f"[cdmpp]   {line}")
    print(f"[cdmpp] latent CMD source<->target: {result.cmd_before:.4f} -> {result.cmd_after:.4f}")
    if result.registered_as:
        lineage = result.lineage
        print(
            f"[cdmpp] registered {result.registered_as!r} at {result.checkpoint_path} "
            f"(lineage: parent={lineage['parent']}, kappa={lineage['kappa']}, "
            f"alpha={lineage['alpha']}, strategy={lineage['strategy']}, "
            f"epochs={lineage['epochs']})"
        )
        print(
            f"[cdmpp] serve the grown fleet with: cdmpp fleet --devices "
            f"{source_device},{device.name} --scale {scale_name}"
        )
    if result.mape_improvement <= 0:
        print(
            "[cdmpp] warning: adaptation did not improve MAPE on the test split; "
            "consider more tasks (--num-tasks), a larger --budget or more --epochs"
        )
    return 0


def _cmd_predict_model(args) -> int:
    try:
        specs = _parse_device_list(args.devices)
        network = resolve_model_name(args.network)
        fleet = _build_fleet(args, specs, train_missing=False, tier=args.tier)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    results = fleet.predict_model_fleet(
        network,
        devices=[spec.name for spec in specs],
        batch_size=args.batch_size,
        seed=args.seed,
        compose=args.compose,
        tier=args.tier,
    )
    print(
        f"[cdmpp] {network} (batch={args.batch_size}): end-to-end latency on "
        f"{len(results)} device(s), compose={args.compose}, tier={args.tier}"
    )
    _print_ranking([prediction_fields(prediction) for prediction in results])
    stats = fleet.describe_stats()["kernel_service"]
    print(
        f"[cdmpp] {stats['queries']} kernel queries answered in {stats['batches']} "
        f"batched predictor call(s)"
    )
    return 0


def _cmd_tune(args) -> int:
    try:
        specs = _parse_device_list(args.devices)
        network = resolve_model_name(args.network)
        fleet = _build_fleet(args, specs, train_missing=False)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if getattr(args, "checkpoint", None):
        # One explicit checkpoint serves every device; there is no registry
        # name to tie cache entries to, so tunings stay in-memory.
        search = SearchService(fleet)
    else:
        backend = resolve_backend_name(args.backend or "cdmpp")
        registry = ModelRegistry(args.registry)
        names = {spec.name: _registry_name(spec.name, args.scale, backend) for spec in specs}
        search = SearchService(fleet, registry=registry, model_names=names)

    budget = {}
    if args.rounds is not None:
        budget["num_rounds"] = args.rounds
    if args.population is not None:
        budget["population"] = args.population
    if args.measurements_per_round is not None:
        budget["measurements_per_round"] = args.measurements_per_round
    tunings = search.tune_model(
        network,
        devices=specs,
        batch_size=args.batch_size,
        seed=args.seed,
        use_cache=not args.no_cache,
        **budget,
    )

    print(f"[cdmpp] {network} (batch={args.batch_size}): tuned on {len(tunings)} device(s)")
    for tuning in tunings:
        total = len(tuning.results)
        print(
            f"[cdmpp]   {tuning.device:12s} {total} task(s): "
            f"{len(tuning.cached_tasks)} cached, {len(tuning.fresh_tasks)} fresh  "
            f"tuned latency {tuning.tuned_latency_s * 1e3:9.3f} ms"
        )
        worst = max(tuning.results.values(), key=lambda result: result.best_latency_s, default=None)
        if worst is not None:
            print(
                f"[cdmpp]     slowest task {worst.task_key}: "
                f"{worst.best_latency_s * 1e6:.2f} us after {worst.num_measurements} measurement(s)"
            )
    stats = search.describe_stats()
    kernel = fleet.describe_stats()["kernel_service"]
    print(
        f"[cdmpp] {stats['tasks_tuned']} task tunings: {stats['cache_hits']} cached, "
        f"{stats['searches_run']} searched ({stats['programs_scored']} candidates scored "
        f"in {kernel['batches']} batched predictor calls)"
    )
    return 0


def _cmd_fleet(args, stream: Optional[TextIO] = None) -> int:
    try:
        specs = _parse_device_list(args.devices)
        fleet = _build_fleet(args, specs, train_missing=args.train_missing)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def answer(network: str, batch_size: int, device: Optional[str]) -> List[dict]:
        results = fleet.predict_model_fleet(
            network,
            devices=None if device is None else [device],
            batch_size=batch_size,
            seed=args.seed,
            compose=args.compose,
        )
        return [prediction_fields(prediction) for prediction in results]

    print(
        f"[cdmpp] fleet serving {', '.join(spec.name for spec in specs)}; "
        "one `network [batch_size] [device]` query per line"
    )
    answered = _answer_requests(args, stream, answer, (ReproError, ValueError))
    if answered is None:
        return 2
    stats = fleet.describe_stats()
    kernel = stats["kernel_service"]
    cache = kernel["prediction_cache"]
    print(
        f"[cdmpp] served {answered} model queries ({stats['model_queries']} device answers): "
        f"{kernel['queries']} kernel lookups, {kernel['predictions_computed']} predictor rows "
        f"in {kernel['batches']} batches, cache hit rate {cache['hit_rate'] * 100:.0f}%, "
        f"{stats['partitions']} partitions ({stats['partition_cache_hits']} reused)"
    )
    return 0


def _cmd_daemon(args) -> int:
    try:
        specs = _parse_device_list(args.devices)
        models = _fleet_models(args, specs, train_missing=args.train_missing)
        config = DaemonConfig(
            host=args.host,
            port=args.port,
            max_batch_size=args.max_batch_size,
            queue_limit=args.queue_limit,
            default_deadline_ms=args.default_deadline_ms,
            seed=args.seed,
            compose=args.compose,
            tier=args.tier,
        )
        # Registry-backed daemons persist tune-op search results in the
        # registry's search cache (and tie them to checkpoint names for
        # eviction); an explicit --checkpoint has no registry identity.
        registry = model_names = None
        if not getattr(args, "checkpoint", None):
            backend = resolve_backend_name(getattr(args, "backend", None) or "cdmpp")
            registry = ModelRegistry(args.registry)
            model_names = {
                spec.name: _registry_name(spec.name, args.scale, backend) for spec in specs
            }
        # Registered distilled students join as the fast tier; they are
        # mandatory only when the daemon's *default* tier is fast (clients
        # asking tier=fast for a student-less device get bad_request).
        fast_models = _fleet_fast_models(args, specs, required=args.tier == "fast")
        daemon = ServingDaemon(
            models,
            config,
            registry=registry,
            model_names=model_names,
            fast_models=fast_models,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    daemon.install_signal_handlers()
    try:
        daemon.start()
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    host, port = daemon.address
    # flush=True so a parent process piping stdout sees the (possibly
    # OS-assigned) port before the daemon blocks in serve_forever().
    print(
        f"[cdmpp] daemon serving {', '.join(daemon.devices)} listening on {host}:{port}",
        flush=True,
    )
    print(
        f"[cdmpp] query with: cdmpp client --host {host} --port {port}  "
        "(SIGTERM drains queued work and exits)",
        flush=True,
    )
    daemon.serve_forever()
    print("[cdmpp] daemon drained and stopped")
    return 0


def _cmd_client(args, stream: Optional[TextIO] = None) -> int:
    try:
        client = DaemonClient(args.host, args.port, timeout_s=args.timeout_s)
    except OSError as error:
        print(
            f"error: cannot connect to daemon at {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2

    def answer(network: str, batch_size: int, device: Optional[str]) -> List[dict]:
        options = dict(batch_size=batch_size, deadline_ms=args.deadline_ms, tier=args.tier)
        if device is None:
            return client.predict_model(network, **options)
        return [client.query(network, device=device, **options)]

    try:
        if args.health or args.stats:
            payload = client.health() if args.health else client.stats()
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        answered = _answer_requests(args, stream, answer, DaemonRequestError)
        if answered is None:
            return 2
        print(f"[cdmpp] {answered} queries answered by {args.host}:{args.port}")
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()


def _cmd_list(args) -> int:
    registry = ModelRegistry(args.registry)
    print("networks:  " + ", ".join(list_models()))
    print("devices:   " + ", ".join(all_device_names()))
    print("scales:    " + ", ".join(available_scales()))
    checkpoints = registry.list()
    print(f"registry:  {registry.root}")
    print("models:    " + (", ".join(checkpoints) if checkpoints else "<none registered>"))
    return 0


# ----------------------------------------------------------------------
# CLI reference rendering (docs/cli.md)
# ----------------------------------------------------------------------
def _iter_cli_parsers() -> List[Tuple[str, argparse.ArgumentParser]]:
    """Every documented parser: one per subcommand."""
    parser = build_cli_parser()
    parsers: List[Tuple[str, argparse.ArgumentParser]] = []
    for action in parser._actions:  # noqa: SLF001 - argparse has no public walk API
        if isinstance(action, argparse._SubParsersAction):
            for name, sub_parser in action.choices.items():
                parsers.append((f"cdmpp {name}", sub_parser))
    return parsers


def _render_parser_section(title: str, parser: argparse.ArgumentParser) -> List[str]:
    lines = [f"## `{title}`", ""]
    if parser.description:
        lines += [parser.description.strip(), ""]
    lines += ["```text", parser.format_usage().strip(), "```", ""]
    rows = []
    for action in parser._actions:  # noqa: SLF001
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        if action.option_strings:
            name = ", ".join(f"`{option}`" for option in action.option_strings)
            if action.choices:
                name += " " + "\\|".join(str(choice) for choice in action.choices)
        else:
            name = f"`{action.metavar or action.dest}`"
        default = ""
        if not (action.default is None or action.default is False or action.default is argparse.SUPPRESS):
            default = f"`{action.default}`"
        help_text = (action.help or "").replace("|", "\\|")
        rows.append(f"| {name} | {default} | {help_text} |")
    if rows:
        lines += ["| argument | default | description |", "|---|---|---|", *rows, ""]
    if parser.epilog:
        lines += ["```text", parser.epilog.strip(), "```", ""]
    return lines


def render_cli_docs() -> str:
    """Render ``docs/cli.md`` from the live argparse tree.

    Regenerated by ``tools/gen_cli_docs.py``; a width of 96 columns is pinned
    so usage strings do not depend on the invoking terminal.
    """
    previous_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "96"
    try:
        root = build_cli_parser()
        lines = [
            "# `cdmpp` command-line reference",
            "",
            "<!-- Generated from the argparse tree by tools/gen_cli_docs.py;",
            "     do not edit by hand. Regenerate with:",
            "     PYTHONPATH=src python tools/gen_cli_docs.py -->",
            "",
            (root.description or "").strip(),
            "",
            "```text",
            root.format_usage().strip(),
            "```",
            "",
            "Checkpoints live in a model registry directory: `--registry`, else",
            "`$CDMPP_REGISTRY`, else `~/.cache/cdmpp/models`. Training commands",
            "register checkpoints as `<device>-<scale>`; serving commands load",
            "them by that name.",
            "",
        ]
        for title, parser in _iter_cli_parsers():
            lines.extend(_render_parser_section(title, parser))
        return "\n".join(lines).rstrip() + "\n"
    finally:
        if previous_columns is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = previous_columns


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``cdmpp`` command."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        build_cli_parser().print_help()
        return 0 if argv else 2
    if argv[0] not in SUBCOMMANDS:
        # The legacy form: a query that trains fresh and never touches the registry.
        argv = ["query", *argv, "--retrain", "--no-save"]
    args = build_cli_parser().parse_args(argv)
    handler = {
        "train": _cmd_train,
        "query": _cmd_query,
        "predict-model": _cmd_predict_model,
        "tune": _cmd_tune,
        "compare": _cmd_compare,
        "onboard": _cmd_onboard,
        "fleet": _cmd_fleet,
        "daemon": _cmd_daemon,
        "client": _cmd_client,
        "list": _cmd_list,
    }[args.command]
    try:
        return handler(args)
    except ReproError as error:  # e.g. a missing --checkpoint path
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
