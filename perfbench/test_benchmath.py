"""Tests for the benchmark's own arithmetic (no daemon, no ``repro`` import)."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchmath  # noqa: E402
from benchmath import INF  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert benchmath.percentile(values, 50) == 3.0
        assert benchmath.percentile(values, 90) == 5.0
        assert benchmath.percentile(values, 20) == 1.0
        assert benchmath.percentile(values, 100) == 5.0

    def test_failures_count_as_infinite_latency(self):
        latencies = benchmath.latencies_with_failures([0.010, None, 0.020, 0.030, None])
        assert latencies.count(INF) == 2
        # 3 of 5 succeeded: p50 is the slowest success, p90 lands on a failure.
        assert benchmath.percentile(latencies, 50) == 0.030
        assert benchmath.percentile(latencies, 90) == INF

    def test_one_failure_among_many_moves_only_the_tail(self):
        latencies = benchmath.latencies_with_failures([0.001 * i for i in range(1, 100)] + [None])
        assert benchmath.percentile(latencies, 50) == pytest.approx(0.050)
        assert benchmath.percentile(latencies, 99) == pytest.approx(0.099)
        assert benchmath.percentile(latencies, 100) == INF

    def test_rejects_empty_and_bad_rank(self):
        with pytest.raises(ValueError):
            benchmath.percentile([], 50)
        with pytest.raises(ValueError):
            benchmath.percentile([1.0], 0)


class TestChunkedPercentile:
    def test_one_chunk_is_the_plain_percentile(self):
        values = [float(i) for i in range(1, 151)]
        assert benchmath.chunked_percentile(values, 90) == benchmath.percentile(values, 90)

    def test_disturbed_chunk_does_not_move_the_median(self):
        calm = [0.010] * 100
        disturbed = [0.200] * 100
        values = calm + disturbed + calm
        assert benchmath.chunked_percentile(values, 90) == 0.010
        assert benchmath.percentile(values, 90) == 0.200

    def test_failures_stay_infinite_inside_their_chunk(self):
        values = [0.01] * 95 + [None] * 5
        latencies = benchmath.latencies_with_failures(values)
        assert benchmath.chunked_percentile(latencies, 90) == 0.01
        assert benchmath.chunked_percentile(latencies, 99) == INF


class TestOpenLoop:
    def test_schedule_is_cumulative(self):
        assert benchmath.open_loop_schedule(10.0, [0.5, 0.25, 1.0]) == [10.5, 10.75, 11.75]

    def test_latency_counts_from_due_time_not_send_time(self):
        due, sent, arrived = 1.000, 1.040, 1.050  # sent 40 ms late, answered 10 ms later
        assert benchmath.open_loop_latency(due, arrived) == pytest.approx(0.050)
        assert benchmath.lateness([due], [sent]) == [pytest.approx(0.040)]

    def test_unanswered_request_is_infinite(self):
        assert benchmath.open_loop_latency(1.0, None) == INF

    def test_early_send_is_not_negative_lateness(self):
        assert benchmath.lateness([2.0, 3.0], [1.9995, 3.5]) == [0.0, pytest.approx(0.5)]


class TestStall:
    def test_response_released_by_next_send_is_stalled(self):
        sends = [(0.000, 0), (0.040, 1)]
        arrivals = [(0.0405, 0), (0.050, 1)]  # #0 arrives 0.5 ms after #1 is sent
        assert benchmath.stalled_responses(sends, arrivals) == 1

    def test_fast_answer_to_its_own_request_is_not_stalled(self):
        sends = [(0.000, 0), (0.040, 1)]
        arrivals = [(0.0005, 0), (0.0404, 1)]
        assert benchmath.stalled_responses(sends, arrivals) == 0

    def test_late_arrival_outside_window_is_not_stalled(self):
        sends = [(0.000, 0), (0.040, 1)]
        arrivals = [(0.0425, 0)]
        assert benchmath.stalled_responses(sends, arrivals) == 0


class TestSelfTime:
    def test_span_minus_children(self):
        spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 3.0), (3, 1, 5.0, 6.0)]
        assert benchmath.self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}

    def test_overlapping_children_subtract_their_union(self):
        # two children on different threads overlap in [2, 3]
        spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 3.0), (3, 1, 2.0, 4.0)]
        assert benchmath.self_times(spans)[1] == pytest.approx(7.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [(1, None, 0.0, 2.0), (2, 1, 1.5, 5.0)]
        assert benchmath.self_times(spans)[1] == pytest.approx(1.5)

    def test_grandchildren_do_not_reduce_the_grandparent_twice(self):
        spans = [(1, None, 0.0, 10.0), (2, 1, 0.0, 4.0), (3, 2, 1.0, 2.0)]
        selfs = benchmath.self_times(spans)
        assert selfs == {1: 6.0, 2: 3.0, 3: 1.0}
        assert math.isclose(sum(selfs.values()), 10.0)

    def test_union_length(self):
        assert benchmath.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
        assert benchmath.union_length([], 0, 10) == 0


class TestPathStages:
    def test_stages_tile_the_path(self):
        stages = benchmath.path_stages([1.0, 1.5, 2.0, 4.0])
        assert stages == [0.5, 0.5, 2.0]
        assert sum(stages) == 4.0 - 1.0

    def test_missing_point_moves_its_time_to_the_next_stage(self):
        assert benchmath.path_stages([1.0, None, 2.0, 4.0]) == [0.0, 1.0, 2.0]
        # a missing last point leaves the tail unaccounted
        assert benchmath.path_stages([1.0, 2.0, None]) == [1.0, 0.0]

    def test_first_point_is_required(self):
        with pytest.raises(ValueError):
            benchmath.path_stages([None, 1.0])
