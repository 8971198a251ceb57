"""Fig. 11: latent representations before vs after cross-device fine-tuning.

Target device: EPYC.  The quantitative proxies for the t-SNE plots are the
CMD distance between source and target latents and the mixing (domain
overlap) of their 2-D projection.
"""

import numpy as np
import pytest

from benchmarks.common import BENCH_FINETUNE_EPOCHS, print_table, run_once
from benchmarks.conftest import BENCH_PREDICTOR
from repro.analysis.projection import domain_overlap, pca_project
from repro.core.cmd import cmd_distance
from repro.core.finetune import FineTuner
from repro.features.pipeline import featurize_records


@pytest.fixture(scope="module")
def fig11_results(gpu_source_cdmpp, device_splits):
    trainer = gpu_source_cdmpp["trainer"]
    source_fs = gpu_source_cdmpp["train_features"]
    target_records = device_splits["epyc-7452"].train
    target_fs = featurize_records(target_records, max_leaves=BENCH_PREDICTOR.max_leaves)

    def snapshot(model):
        source_latent = model.latent(source_fs)
        target_latent = model.latent(target_fs)
        projection = pca_project(np.vstack([source_latent, target_latent]), dim=2)
        labels = np.array([0] * len(source_latent) + [1] * len(target_latent))
        return {
            "cmd": cmd_distance(source_latent, target_latent),
            "overlap": domain_overlap(projection, labels, k=5),
        }

    before = snapshot(trainer)
    # Fine-tuning clones the shared fixture's trainer, so no state backup /
    # restore is needed to keep it reusable.
    finetuner = FineTuner(trainer)
    finetuner.finetune(source_fs, target_fs, epochs=BENCH_FINETUNE_EPOCHS, alpha=2.0)
    after = snapshot(finetuner.trainer)
    return {"before": before, "after": after}


def test_fig11_finetuning_reduces_device_shift(benchmark, fig11_results):
    result = run_once(benchmark, lambda: fig11_results)
    rows = [
        {"stage": "before fine-tuning", **result["before"]},
        {"stage": "after fine-tuning", **result["after"]},
    ]
    print_table("Fig. 11: latent shift GPU sources vs EPYC target", rows, ["stage", "cmd", "overlap"])
    # Fine-tuning reduces the distribution shift between source GPUs and the
    # CPU target in the latent space.
    assert result["after"]["cmd"] < result["before"]["cmd"]
    assert result["after"]["overlap"] >= result["before"]["overlap"] * 0.8
