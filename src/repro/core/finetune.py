"""CMD-regularized fine-tuning (Section 5.3) and the cross-device pipeline.

Fine-tuning minimises Eq. 7: the hybrid supervised loss on labeled data plus
``α × CMD(z_s, z_t)`` between latent representations of the source domain and
the target domain.  For cross-device adaptation the labeled target data comes
from profiling the κ tasks chosen by the KMeans-based sampling strategy
(Algorithm 1) on the target device.

Fine-tuning is **non-destructive**: :class:`FineTuner` clones the pre-trained
trainer (see :meth:`repro.core.trainer.Trainer.clone`) and optimises the
clone, so the pre-trained model — which a serving fleet may share in memory
via ``ModelRegistry.load_shared`` — keeps its weights bit-identical.  The
adapted model is :attr:`FineTuner.trainer` /
:attr:`CrossDeviceResult.adapted_trainer`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.cmd import cmd_distance_tensor
from repro.core.losses import hybrid_loss
from repro.core.sampling import select_tasks_kmeans, select_tasks_random
from repro.core.trainer import Trainer, TrainingResult
from repro.errors import FeatureError, TrainingError
from repro.features.pipeline import FeatureSet, featurize_records
from repro.nn.optim import make_optimizer
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng


def featurize_for_predictor(records: Sequence, max_leaves: int) -> FeatureSet:
    """Featurize records padded to the *predictor's* Compact-AST width.

    Cross-device data must be padded to the width the predictor was built
    for, not to the widest program that happened to appear in the source
    training set: a target-device program may be wider than any source
    program while still fitting the predictor.  Raises a clear
    :class:`TrainingError` only when a program genuinely exceeds the
    predictor's capacity.
    """
    try:
        return featurize_records(list(records), max_leaves=int(max_leaves))
    except FeatureError as error:
        raise TrainingError(
            f"a target-device program exceeds the predictor's Compact-AST capacity "
            f"(PredictorConfig.max_leaves={max_leaves}): {error}; re-train with a "
            "larger max_leaves to onboard this workload"
        ) from error


class FineTuner:
    """Fine-tunes a pre-trained predictor with the CMD-regularized objective.

    By default the pre-trained trainer is **cloned** and only the clone is
    optimised (``clone=False`` restores the legacy in-place behaviour for
    callers that explicitly own their trainer).  After :meth:`finetune`,
    :attr:`trainer` is the adapted model and :attr:`source_trainer` the
    untouched pre-trained one.
    """

    def __init__(self, trainer: Trainer, clone: bool = True):
        if not getattr(trainer, "_fitted", False):
            raise TrainingError("FineTuner requires a pre-trained Trainer (call fit() first)")
        self.source_trainer = trainer
        self.trainer = trainer.clone() if clone else trainer
        self.config = trainer.config
        self._rng = new_rng(("finetune", trainer.config.seed))

    # ------------------------------------------------------------------
    def _labels(self, features: FeatureSet) -> np.ndarray:
        return self.trainer.transform.transform(features.y)

    def finetune(
        self,
        source: FeatureSet,
        target: FeatureSet,
        target_labeled: Optional[FeatureSet] = None,
        epochs: int = 5,
        alpha: Optional[float] = None,
        learning_rate: Optional[float] = None,
        valid: Optional[FeatureSet] = None,
        patience: Optional[int] = None,
    ) -> TrainingResult:
        """Run CMD-regularized fine-tuning on the (cloned) trainer.

        Args:
            source: Labeled source-domain data (a subset of S_train).
            target: Target-domain samples; only their *input features* are
                used, for the CMD term.
            target_labeled: Optionally, labeled target-domain samples (the
                profiled representative tasks) added to the supervised term.
            epochs: Number of fine-tuning epochs.
            alpha: CMD coefficient (defaults to ``TrainingConfig.cmd_alpha``).
            learning_rate: Overrides the pre-training learning rate (commonly
                reduced for fine-tuning).
            valid: Optional labeled validation set (*not* normalized by the
                caller), evaluated after every epoch.  The best epoch's
                weights are restored at the end, and
                ``best_epoch``/``best_valid_mape`` are populated in the
                result.  The zero-shot weights count as the epoch ``-1``
                baseline: a fine-tune that never beats zero-shot on the
                validation split is rolled back entirely, so adaptation can
                only help.
            patience: With ``valid``, stop after this many epochs without a
                validation-MAPE improvement (``None`` disables early
                stopping).
        """
        if len(source) == 0 or len(target) == 0:
            raise TrainingError("fine-tuning needs non-empty source and target sets")
        alpha = self.config.cmd_alpha if alpha is None else float(alpha)
        predictor = self.trainer.predictor
        has_valid = valid is not None and len(valid) > 0

        # Inputs use the same feature standardisation as pre-training
        # (labels are untouched by normalisation).
        source = self.trainer.normalize_features(source)
        target = self.trainer.normalize_features(target)
        if target_labeled is not None:
            target_labeled = self.trainer.normalize_features(target_labeled)

        lr = learning_rate if learning_rate is not None else self.config.learning_rate * 0.3
        optimizer = make_optimizer(
            self.config.optimizer, predictor.parameters(), lr=lr, weight_decay=self.config.weight_decay
        )

        source_labels = self._labels(source)
        target_labels = self._labels(target_labeled) if target_labeled is not None else None

        result = TrainingResult()
        best_state = None
        if has_valid:
            # The zero-shot model is the baseline to beat (epoch -1): if no
            # epoch improves on it, the fine-tune is rolled back below.
            best_state = predictor.state_dict()
            result.best_valid_mape = self.trainer.evaluate(valid)["mape"]
            result.best_epoch = -1
        epochs_without_improvement = 0
        start = time.perf_counter()
        samples = 0
        batch_size = self.config.batch_size

        for epoch in range(epochs):
            predictor.train()
            order = self._rng.permutation(len(source))
            epoch_losses = []
            for batch_start in range(0, len(order), batch_size):
                batch = order[batch_start : batch_start + batch_size]
                target_batch = self._rng.choice(
                    len(target), size=min(len(target), max(len(batch), 8)), replace=False
                )

                optimizer.zero_grad()
                x, mask, counts, dev = predictor.tensors_from(source, batch)
                latent_source = predictor.encode(x, mask, counts, dev)
                pred_source = predictor.decoder(latent_source).reshape(-1)
                loss = hybrid_loss(
                    pred_source, Tensor(source_labels[batch]), lambda_mape=self.config.lambda_mape
                )

                tx, tmask, tcounts, tdev = predictor.tensors_from(target, target_batch)
                latent_target = predictor.encode(tx, tmask, tcounts, tdev)
                if alpha > 0:
                    loss = loss + cmd_distance_tensor(
                        latent_source, latent_target, num_moments=self.config.cmd_moments
                    ) * alpha

                if target_labeled is not None and len(target_labeled) > 0:
                    lab_batch = self._rng.choice(
                        len(target_labeled),
                        size=min(len(target_labeled), batch_size),
                        replace=False,
                    )
                    lx, lmask, lcounts, ldev = predictor.tensors_from(target_labeled, lab_batch)
                    pred_target = predictor(lx, lmask, lcounts, ldev)
                    loss = loss + hybrid_loss(
                        pred_target,
                        Tensor(target_labels[lab_batch]),
                        lambda_mape=self.config.lambda_mape,
                    )

                loss.backward()
                if self.config.grad_clip > 0:
                    optimizer.clip_grad_norm(self.config.grad_clip)
                optimizer.step()
                epoch_losses.append(float(loss.item()))
                samples += len(batch)
            entry: Dict[str, float] = {
                "epoch": float(epoch),
                "train_loss": float(np.mean(epoch_losses)),
            }
            if has_valid:
                valid_mape = self.trainer.evaluate(valid)["mape"]
                entry["valid_mape"] = valid_mape
                if valid_mape < result.best_valid_mape:
                    result.best_valid_mape = valid_mape
                    result.best_epoch = epoch
                    best_state = predictor.state_dict()
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
            result.history.append(entry)
            if has_valid and patience and epochs_without_improvement >= patience:
                break

        result.train_seconds = time.perf_counter() - start
        result.throughput_samples_per_s = samples / max(result.train_seconds, 1e-9)
        if best_state is not None and result.best_valid_mape < float("inf"):
            predictor.load_state_dict(best_state)
        predictor.eval()
        return result

    def latent_cmd(self, source: FeatureSet, target: FeatureSet) -> float:
        """CMD between source and target latents of the *adapted* model (Fig. 8/11/16)."""
        from repro.core.cmd import cmd_distance

        return cmd_distance(self.trainer.latent(source), self.trainer.latent(target))


# ---------------------------------------------------------------------------
# Cross-device adaptation pipeline (Section 5.3 + Algorithm 1)
# ---------------------------------------------------------------------------
@dataclass
class CrossDeviceResult:
    """Outcome of one cross-device adaptation experiment.

    ``adapted_trainer`` is a detached clone carrying the fine-tuned weights;
    the trainer passed to :func:`cross_device_adaptation` is left untouched.
    """

    target_device: str
    selected_tasks: List[str]
    metrics_before: Dict[str, float]
    metrics_after: Dict[str, float]
    cmd_before: float
    cmd_after: float
    finetune_result: TrainingResult = field(default_factory=TrainingResult)
    adapted_trainer: Optional[Trainer] = None


def cross_device_adaptation(
    trainer: Trainer,
    source_train: FeatureSet,
    target_records: Sequence,
    target_test: FeatureSet,
    num_tasks: int = 10,
    strategy: str = "kmeans",
    epochs: int = 5,
    alpha: Optional[float] = None,
    seed: int | str | None = 0,
) -> CrossDeviceResult:
    """Adapt a pre-trained predictor to a new device.

    The pre-trained ``trainer`` is only read (zero-shot evaluation, latent
    extraction); fine-tuning happens on a detached clone returned as
    ``CrossDeviceResult.adapted_trainer``.

    Args:
        trainer: A pre-trained :class:`Trainer` (on the source devices).
        source_train: The source-device training features used for the
            supervised term during fine-tuning.
        target_records: All measured records available on the target device
            (the experiment harness samples the labeled subset from these;
            in a real deployment only the selected tasks would be profiled).
        target_test: Featurized target-device test split for evaluation.
        num_tasks: κ, how many tasks to profile on the target device.
        strategy: ``"kmeans"`` (Algorithm 1) or ``"random"`` (baseline).
        epochs: Fine-tuning epochs.
        alpha: CMD coefficient override.
        seed: Seed for sampling.
    """
    target_records = list(target_records)
    if not target_records:
        raise TrainingError("cross_device_adaptation needs target-device records")
    # Pad to the predictor's width: a target program may be wider than every
    # source program yet still fit the predictor (PredictorConfig.max_leaves).
    target_all = featurize_for_predictor(target_records, trainer.max_leaves)

    metrics_before = trainer.evaluate(target_test)
    finetuner = FineTuner(trainer)
    cmd_before = finetuner.latent_cmd(source_train, target_all)

    # Group device-independent features by task and select representatives.
    by_task = target_all.by_task()
    latents = trainer.latent(target_all)
    features_by_task = {key: latents[idx] for key, idx in by_task.items()}
    if strategy == "kmeans":
        selected = select_tasks_kmeans(features_by_task, num_tasks, seed=seed)
    elif strategy == "random":
        selected = select_tasks_random(list(features_by_task), num_tasks, seed=seed)
    else:
        raise TrainingError(f"unknown sampling strategy {strategy!r}")

    selected_set = set(selected)
    labeled_indices = [i for i, key in enumerate(target_all.task_keys) if key in selected_set]
    target_labeled = target_all.subset(labeled_indices)

    finetune_result = finetuner.finetune(
        source=source_train,
        target=target_all,
        target_labeled=target_labeled,
        epochs=epochs,
        alpha=alpha,
    )
    metrics_after = finetuner.trainer.evaluate(target_test)
    cmd_after = finetuner.latent_cmd(source_train, target_all)

    return CrossDeviceResult(
        target_device=target_test.devices[0] if target_test.devices else "unknown",
        selected_tasks=list(selected),
        metrics_before=metrics_before,
        metrics_after=metrics_after,
        cmd_before=cmd_before,
        cmd_after=cmd_after,
        finetune_result=finetune_result,
        adapted_trainer=finetuner.trainer,
    )
