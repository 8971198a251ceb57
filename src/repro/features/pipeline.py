"""Batch featurization: measurement records -> padded arrays for the predictor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FeatureError
from repro.devices.spec import DeviceSpec
from repro.features.compact_ast import COMPUTATION_VECTOR_LENGTH, extract_compact_ast
from repro.features.device_features import device_feature_vector
from repro.features.positional import add_positional_encoding
from repro.profiler.records import MeasureRecord
from repro.tir.program import TensorProgram


@dataclass
class FeatureSet:
    """Featurized dataset ready for training or inference.

    Attributes:
        x: ``[N, max_leaves, F]`` padded computation vectors (with positional
            encoding already added unless disabled).
        mask: ``[N, max_leaves]`` 1.0 for real leaves, 0.0 for padding.
        leaf_counts: ``[N]`` number of real leaves per sample.
        device_features: ``[N, D]`` device-dependent features.
        y: ``[N]`` latency labels in seconds (zeros when featurizing programs
            without measurements).
        task_keys: workload key per sample.
        models: source model (domain label) per sample.
        op_types: operator family per sample.
        devices: device name per sample.
    """

    x: np.ndarray
    mask: np.ndarray
    leaf_counts: np.ndarray
    device_features: np.ndarray
    y: np.ndarray
    task_keys: List[str]
    models: List[str]
    op_types: List[str]
    devices: List[str]

    def __len__(self) -> int:
        return int(self.x.shape[0])

    @property
    def max_leaves(self) -> int:
        """Padded sequence length."""
        return int(self.x.shape[1])

    @property
    def feature_dim(self) -> int:
        """Width of one computation vector."""
        return int(self.x.shape[2])

    def subset(self, indices: Sequence[int]) -> "FeatureSet":
        """A new FeatureSet restricted to ``indices`` (order preserved)."""
        indices = list(indices)
        return FeatureSet(
            x=self.x[indices],
            mask=self.mask[indices],
            leaf_counts=self.leaf_counts[indices],
            device_features=self.device_features[indices],
            y=self.y[indices],
            task_keys=[self.task_keys[i] for i in indices],
            models=[self.models[i] for i in indices],
            op_types=[self.op_types[i] for i in indices],
            devices=[self.devices[i] for i in indices],
        )

    def by_model(self) -> Dict[str, List[int]]:
        """Sample indices grouped by source model."""
        groups: Dict[str, List[int]] = {}
        for index, model in enumerate(self.models):
            groups.setdefault(model, []).append(index)
        return groups

    def by_task(self) -> Dict[str, List[int]]:
        """Sample indices grouped by workload key."""
        groups: Dict[str, List[int]] = {}
        for index, key in enumerate(self.task_keys):
            groups.setdefault(key, []).append(index)
        return groups

    @staticmethod
    def concatenate(parts: Sequence["FeatureSet"]) -> "FeatureSet":
        """Concatenate feature sets (re-padding to the widest sequence length)."""
        if not parts:
            raise FeatureError("cannot concatenate zero feature sets")
        max_leaves = max(part.max_leaves for part in parts)
        feature_dim = parts[0].feature_dim
        padded_x, padded_mask = [], []
        for part in parts:
            if part.feature_dim != feature_dim:
                raise FeatureError("feature dimension mismatch between feature sets")
            pad = max_leaves - part.max_leaves
            padded_x.append(np.pad(part.x, ((0, 0), (0, pad), (0, 0))))
            padded_mask.append(np.pad(part.mask, ((0, 0), (0, pad))))
        return FeatureSet(
            x=np.concatenate(padded_x, axis=0),
            mask=np.concatenate(padded_mask, axis=0),
            leaf_counts=np.concatenate([p.leaf_counts for p in parts]),
            device_features=np.concatenate([p.device_features for p in parts]),
            y=np.concatenate([p.y for p in parts]),
            task_keys=[k for p in parts for k in p.task_keys],
            models=[m for p in parts for m in p.models],
            op_types=[o for p in parts for o in p.op_types],
            devices=[d for p in parts for d in p.devices],
        )


@dataclass(frozen=True)
class FeatureRow:
    """One featurized (program, device) query, unpadded.

    The serving feature cache holds these: the real-leaf computation vectors
    (positional encoding added) and the device features, both read-only.
    :func:`stack_rows` pads a batch of them into a :class:`FeatureSet`.
    """

    vectors: np.ndarray  # [num_leaves, F]
    device_features: np.ndarray  # [D]


def _leaf_vectors(program: TensorProgram, use_positional_encoding: bool = True) -> np.ndarray:
    ast = extract_compact_ast(program)
    if use_positional_encoding:
        return add_positional_encoding(ast.computation_vectors, ast.ordering_vector)
    return ast.computation_vectors


def _pad(
    leaf_vectors: Sequence[np.ndarray], max_leaves: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, mask, leaf_counts)`` of unpadded leaf-vector blocks."""
    leaf_counts = np.asarray([block.shape[0] for block in leaf_vectors], dtype=np.int64)
    pad_to = int(max_leaves or leaf_counts.max())
    if leaf_counts.max() > pad_to:
        raise FeatureError(
            f"max_leaves={pad_to} is smaller than the largest Compact AST ({leaf_counts.max()})"
        )
    num = len(leaf_vectors)
    x = np.zeros((num, pad_to, COMPUTATION_VECTOR_LENGTH), dtype=np.float64)
    mask = np.zeros((num, pad_to), dtype=np.float64)
    for index, block in enumerate(leaf_vectors):
        x[index, : block.shape[0]] = block
        mask[index, : block.shape[0]] = 1.0
    return x, mask, leaf_counts


def _featurize(
    programs: Sequence[TensorProgram],
    devices: Sequence[Union[str, DeviceSpec]],
    labels: Optional[Sequence[float]],
    models: Sequence[Optional[str]],
    use_positional_encoding: bool,
    max_leaves: Optional[int],
) -> FeatureSet:
    if not programs:
        raise FeatureError("nothing to featurize: empty program list")
    x, mask, leaf_counts = _pad(
        [_leaf_vectors(program, use_positional_encoding) for program in programs], max_leaves
    )
    num = len(programs)
    device_feats = np.stack([device_feature_vector(device) for device in devices], axis=0)
    y = np.asarray(labels, dtype=np.float64) if labels is not None else np.zeros(num)
    device_names = [
        device if isinstance(device, str) else device.name for device in devices
    ]
    return FeatureSet(
        x=x,
        mask=mask,
        leaf_counts=leaf_counts,
        device_features=device_feats,
        y=y,
        task_keys=[program.task.workload_key for program in programs],
        models=[model or "unknown" for model in models],
        op_types=[program.task.op_type for program in programs],
        devices=device_names,
    )


def featurize_records(
    records: Sequence[MeasureRecord],
    use_positional_encoding: bool = True,
    max_leaves: Optional[int] = None,
) -> FeatureSet:
    """Featurize measured records (features + latency labels)."""
    if not records:
        raise FeatureError("nothing to featurize: empty record list")
    return _featurize(
        programs=[record.program for record in records],
        devices=[record.device for record in records],
        labels=[record.latency_s for record in records],
        models=[record.model for record in records],
        use_positional_encoding=use_positional_encoding,
        max_leaves=max_leaves,
    )


def featurize_programs(
    programs: Sequence[TensorProgram],
    device: Union[str, DeviceSpec, Sequence[Union[str, DeviceSpec]]],
    use_positional_encoding: bool = True,
    max_leaves: Optional[int] = None,
) -> FeatureSet:
    """Featurize unmeasured programs for inference.

    ``device`` is either a single target device (applied to every program) or
    a sequence with one device per program, which lets a cross-device model
    answer a mixed-device query batch in a single vectorized call.
    """
    programs = list(programs)
    if isinstance(device, (str, DeviceSpec)):
        devices: List[Union[str, DeviceSpec]] = [device] * len(programs)
    else:
        devices = list(device)
        if len(devices) != len(programs):
            raise FeatureError(
                f"got {len(devices)} devices for {len(programs)} programs; "
                "pass one device, or exactly one per program"
            )
    return _featurize(
        programs=programs,
        devices=devices,
        labels=None,
        models=[program.task.model for program in programs],
        use_positional_encoding=use_positional_encoding,
        max_leaves=max_leaves,
    )


def featurize_rows(
    programs: Sequence[TensorProgram],
    devices: Sequence[Union[str, DeviceSpec]],
    max_leaves: int,
) -> List[FeatureRow]:
    """One :class:`FeatureRow` per (program, device) query.

    Raises :class:`FeatureError` for a program with more than ``max_leaves``
    leaves, as :func:`featurize_programs` would.  Rows of one device share
    its device-feature array.
    """
    device_arrays: Dict[Union[str, DeviceSpec], np.ndarray] = {}
    rows: List[FeatureRow] = []
    for program, device in zip(programs, devices):
        vectors = _leaf_vectors(program)
        if vectors.shape[0] > max_leaves:
            raise FeatureError(
                f"max_leaves={max_leaves} is smaller than the largest Compact AST "
                f"({vectors.shape[0]})"
            )
        device_features = device_arrays.get(device)
        if device_features is None:
            device_features = device_arrays[device] = device_feature_vector(device)
            device_features.setflags(write=False)
        vectors.setflags(write=False)
        rows.append(FeatureRow(vectors, device_features))
    return rows


def stack_rows(rows: Sequence[FeatureRow], max_leaves: int) -> FeatureSet:
    """Pad feature rows into one ``[N, max_leaves, F]`` prediction batch.

    The batch is for inference only: labels are zero and the per-sample
    metadata (task keys, models, op types, devices) is blank.
    """
    rows = list(rows)
    x, mask, leaf_counts = _pad([row.vectors for row in rows], max_leaves)
    blank = [""] * len(rows)
    return FeatureSet(
        x=x,
        mask=mask,
        leaf_counts=leaf_counts,
        device_features=np.stack([row.device_features for row in rows], axis=0),
        y=np.zeros(len(rows)),
        task_keys=blank,
        models=list(blank),
        op_types=list(blank),
        devices=list(blank),
    )
