"""Tests for tasks, schedule primitives, lowering, programs and ASTs."""

import numpy as np
import pytest

from repro.errors import ScheduleError, TIRError
from repro.ops import dense
from repro.tir.ast import LEAF_MARKER, ast_summary, build_ast, preorder_serialize
from repro.tir.buffer import Buffer
from repro.tir.lower import lower
from repro.tir.schedule import (
    AnnotateStep,
    CacheStep,
    FuseStep,
    Schedule,
    SplitStep,
    random_schedule,
)
from repro.tir.task import IterVar, StatementSpec, Task


class TestTask:
    def test_spatial_and_reduce_extents(self, dense_task):
        assert dense_task.spatial_extent == 8 * 32
        assert dense_task.reduce_extent == 64

    def test_workload_key_is_stable_and_distinct(self):
        task_a = dense(4, 32, 16, model="m")
        task_b = dense(4, 32, 16, model="m")
        task_c = dense(4, 32, 32, model="m")
        assert task_a.workload_key == task_b.workload_key
        assert task_a.workload_key != task_c.workload_key

    def test_duplicate_iter_var_names_rejected(self):
        buffer = Buffer("o", (4,))
        with pytest.raises(TIRError):
            Task(
                "bad",
                {},
                (IterVar("i", 4), IterVar("i", 8)),
                StatementSpec("s", buffer, ("i",)),
            )

    def test_statement_must_cover_spatial_axes(self):
        buffer = Buffer("o", (4, 4))
        with pytest.raises(TIRError):
            Task(
                "bad",
                {},
                (IterVar("i", 4), IterVar("j", 4)),
                StatementSpec("s", buffer, ("i",)),
            )

    def test_naive_flops_positive_and_scales(self):
        small = dense(2, 16, 16).naive_flops()
        large = dense(2, 64, 64).naive_flops()
        assert 0 < small < large

    def test_input_and_output_buffers(self, dense_task):
        names = {buffer.name for buffer in dense_task.input_buffers}
        assert "data" in names and "weight" in names
        assert dense_task.output_buffer.name == "dense"


class TestSchedulePrimitives:
    def test_split_validation(self):
        with pytest.raises(ScheduleError):
            SplitStep("i", ())
        with pytest.raises(ScheduleError):
            SplitStep("i", (0,))

    def test_fuse_needs_two_loops(self):
        with pytest.raises(ScheduleError):
            FuseStep(("i",))

    def test_annotation_validation(self):
        with pytest.raises(ScheduleError):
            AnnotateStep("i", "hyperthread")

    def test_cache_scope_validation(self):
        with pytest.raises(ScheduleError):
            CacheStep("data", scope="l3")

    def test_primitive_counts(self):
        schedule = Schedule().split("i", [4]).annotate("i.1", "vectorize").cache("data")
        counts = schedule.primitive_counts()
        assert counts["split"] == 1 and counts["annotate"] == 1 and counts["cache"] == 1
        assert schedule.annotation_counts()["vectorize"] == 1
        assert len(schedule) == 3

    def test_split_factor_stats(self):
        schedule = Schedule().split("i", [4, 8])
        mean, maximum = schedule.split_factor_stats()
        assert mean == pytest.approx(6.0)
        assert maximum == 8.0

    def test_random_schedule_is_deterministic_per_seed(self, dense_task):
        first = random_schedule(dense_task, np.random.default_rng(3), "gpu")
        second = random_schedule(dense_task, np.random.default_rng(3), "gpu")
        assert [type(s).__name__ for s in first.steps] == [type(s).__name__ for s in second.steps]


class TestLowering:
    def test_default_lowering_structure(self, dense_task):
        program = lower(dense_task)
        # init + update + bias + relu epilogues
        assert program.num_leaves == 4
        assert program.stats.max_loop_depth >= 2

    def test_split_increases_loop_depth(self, dense_task):
        base = lower(dense_task)
        tiled = lower(dense_task, Schedule().split("b", [4]).split("o", [8]))
        assert tiled.stats.max_loop_depth > base.stats.max_loop_depth

    def test_split_preserves_total_flops_within_padding(self, dense_task):
        base = lower(dense_task).stats.total_flops
        tiled = lower(dense_task, Schedule().split("o", [8])).stats.total_flops
        # ceil-division padding can only add iterations, never remove them.
        assert tiled >= base
        assert tiled <= base * 1.5

    def test_annotations_set_loop_kinds(self, dense_task):
        program = lower(dense_task, Schedule().annotate("b", "parallel").annotate("o", "vectorize"))
        assert program.stats.parallel_extent == 8
        assert program.stats.vectorized_extent == 32

    def test_unknown_annotation_target_is_ignored(self, dense_task):
        program = lower(dense_task, Schedule().annotate("nope", "parallel"))
        assert program.stats.parallel_extent == 1

    def test_cache_step_adds_leaf(self, dense_task):
        plain = lower(dense_task)
        cached = lower(dense_task, Schedule().cache("data", "shared"))
        assert cached.num_leaves == plain.num_leaves + 1
        assert cached.stats.num_cache_stages == 1

    def test_cache_unknown_buffer_raises(self, dense_task):
        with pytest.raises(ScheduleError):
            lower(dense_task, Schedule().cache("ghost"))

    def test_fuse_reduces_loop_count(self, dense_task):
        fused = lower(dense_task, Schedule().fuse(("b", "o")))
        base = lower(dense_task)
        assert fused.stats.max_loop_depth == base.stats.max_loop_depth - 1

    def test_fuse_mixed_kinds_raises(self, dense_task):
        with pytest.raises(ScheduleError):
            lower(dense_task, Schedule().fuse(("o", "k")))

    def test_reorder_changes_outermost_loop(self, dense_task):
        program = lower(dense_task, Schedule().reorder(("o", "b")))
        outer_loop = program.leaf_records[0].loops[0]
        assert outer_loop.name == "o"


class TestProgramStats:
    def test_leaf_records_trip_counts(self, dense_program):
        for leaf in dense_program.leaf_records:
            assert leaf.trip_count >= 1
            assert leaf.total_flops >= 0

    def test_stats_totals_are_sums_of_leaves(self, dense_program):
        stats = dense_program.stats
        assert stats.total_flops == pytest.approx(
            sum(leaf.total_flops for leaf in dense_program.leaf_records)
        )
        assert stats.num_leaves == len(dense_program.leaf_records)

    def test_arithmetic_intensity_positive(self, dense_program):
        assert dense_program.stats.arithmetic_intensity > 0

    def test_describe_contains_task_name(self, dense_program):
        assert "dense" in dense_program.describe()


class TestAST:
    def test_ast_counts_match_program(self, dense_program):
        root = build_ast(dense_program)
        assert root.num_leaves() == dense_program.num_leaves
        assert root.num_nodes() >= root.num_leaves()

    def test_preorder_contains_marker_per_leaf(self, dense_program):
        root = build_ast(dense_program)
        sequence, leaf_positions = preorder_serialize(root)
        assert sequence.count(LEAF_MARKER) == root.num_leaves()
        assert len(leaf_positions) == root.num_leaves()
        assert leaf_positions == sorted(leaf_positions)

    def test_ast_summary_keys(self, dense_program):
        summary = ast_summary(dense_program)
        assert set(summary) == {"num_nodes", "num_leaves", "depth"}
        assert summary["depth"] > 1
