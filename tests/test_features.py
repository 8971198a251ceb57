"""Tests for Compact-AST extraction, positional encoding and featurization."""

import numpy as np
import pytest

from repro.errors import FeatureError
from repro.features.compact_ast import (
    COMPUTATION_VECTOR_LENGTH,
    _StatementMemo,
    _TaskStatements,
    extract_compact_ast,
)
from repro.features.device_features import DEVICE_FEATURE_DIM, device_feature_vector
from repro.features.pipeline import (
    FeatureSet,
    featurize_programs,
    featurize_records,
    featurize_rows,
    stack_rows,
)
from repro.features.positional import add_positional_encoding, positional_encoding
from repro.ops import conv2d, dense, embedding_lookup
from repro.tir.ast import build_ast, preorder_serialize
from repro.tir.buffer import Buffer
from repro.tir.expr import FloatImm, Var
from repro.tir.lower import lower
from repro.tir.program import TensorProgram
from repro.tir.schedule import Schedule, random_schedule
from repro.tir.stmt import ComputeStmt, ForLoop, LoopKind, SeqStmt


class TestCompactAST:
    def test_shapes_and_leaf_count(self, dense_program):
        compact = extract_compact_ast(dense_program)
        assert compact.computation_vectors.shape == (dense_program.num_leaves, COMPUTATION_VECTOR_LENGTH)
        assert compact.ordering_vector.shape == (dense_program.num_leaves,)
        assert compact.num_leaves == dense_program.num_leaves
        assert compact.num_ast_nodes >= compact.num_leaves

    def test_ordering_vector_is_increasing(self, dense_program):
        compact = extract_compact_ast(dense_program)
        assert np.all(np.diff(compact.ordering_vector) > 0)

    def test_vectors_are_finite(self, dense_program):
        compact = extract_compact_ast(dense_program)
        assert np.all(np.isfinite(compact.computation_vectors))

    def test_schedule_changes_features(self, dense_task):
        plain = extract_compact_ast(lower(dense_task))
        annotated = extract_compact_ast(
            lower(dense_task, Schedule().annotate("b", "parallel").annotate("o", "vectorize"))
        )
        assert not np.allclose(plain.computation_vectors, annotated.computation_vectors)

    def test_gather_pattern_feature_set_for_embedding(self):
        program = lower(embedding_lookup(16, 1000, 32, model="m"))
        compact = extract_compact_ast(program)
        # The last block of features encodes access-pattern counts; at least
        # one leaf must report a gather read.
        gather_column = compact.computation_vectors[:, -2]
        assert gather_column.max() >= 1.0

    def test_compact_ast_validation(self):
        with pytest.raises(FeatureError):
            from repro.features.compact_ast import CompactAST

            CompactAST(np.zeros((2, 3)), np.zeros(2), 5)


def _sample_programs(count=12):
    tasks = [
        dense(8, 64, 32, activation="relu", model="layout"),
        conv2d(1, 8, 16, 14, 14, kernel=3, stride=1, padding=1, model="layout"),
        embedding_lookup(16, 1000, 32, model="layout"),
    ]
    rng = np.random.default_rng(3)
    return [
        lower(task, random_schedule(task, rng, kind))
        for task in tasks
        for kind in ("gpu", "cpu")
        for _ in range(count // 6)
    ]


def _hand_built_roots(task):
    """Program roots lowering never emits: a bare statement, nested
    single-child sequences, a top-level sequence of a loop and a statement."""
    out = Buffer("out", (4,))

    def stmt(label):
        return ComputeStmt(out, (Var("i"),), FloatImm(1.0), label=label)

    def loop(body):
        return ForLoop(Var("i"), 4, LoopKind.SERIAL, body)

    return [
        stmt("bare"),
        SeqStmt([SeqStmt([loop(stmt("wrapped"))])]),
        SeqStmt([loop(SeqStmt([stmt("a"), stmt("b")])), stmt("c")]),
        loop(SeqStmt([stmt("d"), loop(stmt("e")), SeqStmt([stmt("f")])])),
    ]


class TestLeafLayout:
    """The single-walk leaf positions equal the full AST's pre-order walk."""

    def test_matches_full_ast(self, dense_task):
        programs = _sample_programs() + [
            TensorProgram(dense_task, Schedule(), root) for root in _hand_built_roots(dense_task)
        ]
        for program in programs:
            root = build_ast(program)
            _, positions = preorder_serialize(root)
            layout = program.leaf_layout
            assert list(layout.positions) == positions
            assert layout.num_ast_nodes == root.num_nodes()
            assert layout.records == program.leaf_records
            compact = extract_compact_ast(program)
            assert compact.num_ast_nodes == root.num_nodes()
            assert compact.ordering_vector.tolist() == positions


class TestStatementMemo:
    def test_entries_are_never_shared_between_tasks(self):
        import dataclasses

        task = dense(8, 64, 32, activation="relu", model="memo")
        first, *rest = task.body.reads
        gather = dataclasses.replace(
            task,
            body=dataclasses.replace(
                task.body, reads=(dataclasses.replace(first, pattern="gather"), *rest)
            ),
        )
        # Both tasks lower to structurally equal statements; only the task
        # knows the access pattern.
        plain = extract_compact_ast(lower(task)).computation_vectors
        gathered = extract_compact_ast(lower(gather)).computation_vectors
        gather_column = -2
        assert plain[:, gather_column].max() == 0.0
        assert gathered[:, gather_column].max() >= 1.0

    def test_recycled_id_does_not_find_another_tasks_entry(self):
        memo = _StatementMemo()
        task_a = dense(8, 64, 32, model="a")
        task_b = dense(8, 64, 32, model="b")
        entry = memo.for_task(task_a)
        memo._tasks[id(task_b)] = entry  # what a recycled id would look like
        fresh = memo.for_task(task_b)
        assert fresh is not entry and fresh.task_ref() is task_b
        assert memo.for_task(task_b) is fresh

    def test_memo_is_bounded(self):
        memo = _StatementMemo(capacity=2)
        tasks = [dense(8, 64, 32, model=f"bound{i}") for i in range(4)]
        for task in tasks:
            memo.for_task(task)
        assert len(memo._tasks) == 2
        statements = _TaskStatements(tasks[0])
        out = Buffer("out", (4,))
        for index in range(_TaskStatements.MAX_STATEMENTS + 10):
            statements.lookup(ComputeStmt(out, (Var("i"),), FloatImm(1.0), label=f"s{index}"))
        assert len(statements.features) == _TaskStatements.MAX_STATEMENTS

    def test_concurrent_extraction_through_a_small_memo(self, monkeypatch):
        import sys
        import threading

        import repro.features.compact_ast as compact_ast

        programs = _sample_programs(count=24)
        expected = [extract_compact_ast(p).computation_vectors.tobytes() for p in programs]
        memo = _StatementMemo(capacity=2)  # forces evictions between threads
        monkeypatch.setattr(compact_ast, "_STATEMENTS", memo)
        mismatches, errors = [], []

        def worker(offset):
            try:
                for round_ in range(5):
                    for i in range(len(programs)):
                        index = (i + offset + round_) % len(programs)
                        program = lower(programs[index].task, programs[index].schedule)
                        got = extract_compact_ast(program).computation_vectors.tobytes()
                        if got != expected[index]:
                            mismatches.append(index)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not mismatches
        assert len(memo._tasks) <= 2

    def test_repeat_extraction_is_identical(self, dense_task):
        schedule = random_schedule(dense_task, np.random.default_rng(11), "gpu")
        first = extract_compact_ast(lower(dense_task, schedule))
        second = extract_compact_ast(lower(dense_task, schedule))  # memo hits
        assert first.computation_vectors.tobytes() == second.computation_vectors.tobytes()


class TestFeatureRows:
    def test_stacked_rows_equal_featurize_programs(self):
        programs = _sample_programs()
        devices = ["t4", "e5-2673"] * (len(programs) // 2)
        reference = featurize_programs(programs, devices, max_leaves=16)
        batch = stack_rows(featurize_rows(programs, devices, max_leaves=16), 16)
        for field in ("x", "mask", "leaf_counts", "device_features"):
            expected, actual = getattr(reference, field), getattr(batch, field)
            assert actual.dtype == expected.dtype and actual.shape == expected.shape
            assert actual.tobytes() == expected.tobytes()

    def test_rows_are_unpadded_and_read_only(self, dense_program):
        rows = featurize_rows([dense_program, dense_program], ["t4", "t4"], max_leaves=16)
        for row in rows:
            assert row.vectors.shape == (dense_program.num_leaves, COMPUTATION_VECTOR_LENGTH)
            assert not row.vectors.flags.writeable
            assert not row.device_features.flags.writeable
        assert rows[0].device_features is rows[1].device_features

    def test_too_many_leaves_raises(self, dense_program):
        with pytest.raises(FeatureError):
            featurize_rows([dense_program], ["t4"], max_leaves=1)


class TestPositionalEncoding:
    def test_shape_and_range(self):
        encoding = positional_encoding(np.arange(5), dim=COMPUTATION_VECTOR_LENGTH)
        assert encoding.shape == (5, COMPUTATION_VECTOR_LENGTH)
        assert np.all(np.abs(encoding) <= 1.0 + 1e-12)

    def test_distinct_positions_get_distinct_encodings(self):
        encoding = positional_encoding(np.array([1, 2, 7, 13]), dim=16)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(encoding[i], encoding[j])

    def test_same_position_same_encoding(self):
        encoding = positional_encoding(np.array([3, 3]), dim=16)
        assert np.allclose(encoding[0], encoding[1])

    def test_invalid_dim_raises(self):
        with pytest.raises(FeatureError):
            positional_encoding(np.arange(3), dim=0)

    def test_add_positional_encoding_changes_vectors(self, dense_program):
        compact = extract_compact_ast(dense_program)
        with_pe = add_positional_encoding(compact.computation_vectors, compact.ordering_vector)
        assert with_pe.shape == compact.computation_vectors.shape
        assert not np.allclose(with_pe, compact.computation_vectors)

    @pytest.mark.parametrize("dim", [COMPUTATION_VECTOR_LENGTH, 7])
    def test_table_rows_equal_the_direct_encoding(self, dim):
        rng = np.random.default_rng(dim)
        vectors = rng.normal(size=(5, dim))
        # Small positions, positions that regrow the table, and vectors that
        # are encoded directly (not pre-order indices, or past the table).
        for ordering in (
            [0, 1, 2, 5, 9],
            [3, 70, 71, 200, 1000],
            [0.5, 1, 2, 3, 4],
            [-1, 0, 1, 2, 3],
            [1, 2, 3, 4, 5000],
        ):
            ordering = np.asarray(ordering, dtype=np.float64)
            direct = vectors + positional_encoding(ordering, dim)
            assert add_positional_encoding(vectors, ordering).tobytes() == direct.tobytes()


class TestDeviceFeatures:
    def test_shape_matches_constant(self):
        assert device_feature_vector("t4").shape == (DEVICE_FEATURE_DIM,)

    def test_accepts_spec_or_name(self):
        from repro.devices.spec import get_device

        assert np.array_equal(device_feature_vector("a100"), device_feature_vector(get_device("a100")))


class TestFeaturizePipeline:
    def test_featurize_records_shapes(self, t4_splits):
        features = featurize_records(t4_splits.train[:20])
        assert len(features) == 20
        assert features.x.shape == (20, features.max_leaves, COMPUTATION_VECTOR_LENGTH)
        assert features.mask.shape == (20, features.max_leaves)
        assert features.device_features.shape == (20, DEVICE_FEATURE_DIM)
        assert np.all(features.y > 0)
        assert np.all(features.mask.sum(axis=1) == features.leaf_counts)

    def test_padding_is_zero(self, t4_splits):
        features = featurize_records(t4_splits.train[:20])
        padded = features.x * (1.0 - features.mask[:, :, None])
        assert np.allclose(padded, 0.0)

    def test_max_leaves_override_and_error(self, t4_splits):
        features = featurize_records(t4_splits.train[:5], max_leaves=32)
        assert features.max_leaves == 32
        with pytest.raises(FeatureError):
            featurize_records(t4_splits.train[:5], max_leaves=1)

    def test_positional_encoding_toggle_changes_x(self, t4_splits):
        with_pe = featurize_records(t4_splits.train[:10], use_positional_encoding=True)
        without_pe = featurize_records(t4_splits.train[:10], use_positional_encoding=False)
        assert not np.allclose(with_pe.x, without_pe.x)

    def test_featurize_programs_without_labels(self, dense_program):
        features = featurize_programs([dense_program], "v100")
        assert len(features) == 1
        assert features.y[0] == 0.0
        assert features.devices == ["v100"]

    def test_subset_and_groupers(self, t4_splits):
        features = featurize_records(t4_splits.train[:30])
        subset = features.subset([0, 2, 4])
        assert len(subset) == 3
        assert subset.task_keys[1] == features.task_keys[2]
        by_task = features.by_task()
        assert sum(len(v) for v in by_task.values()) == len(features)
        by_model = features.by_model()
        assert sum(len(v) for v in by_model.values()) == len(features)

    def test_concatenate_repads(self, t4_splits):
        a = featurize_records(t4_splits.train[:10], max_leaves=6)
        b = featurize_records(t4_splits.train[10:20], max_leaves=9)
        merged = FeatureSet.concatenate([a, b])
        assert len(merged) == 20
        assert merged.max_leaves == 9

    def test_empty_input_raises(self):
        with pytest.raises(FeatureError):
            featurize_records([])
