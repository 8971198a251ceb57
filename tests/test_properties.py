"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cmd import cmd_distance
from repro.core.kmeans import KMeans
from repro.core.metrics import mape, threshold_accuracy
from repro.core.transforms import BoxCoxTransform
from repro.devices.spec import get_device, list_devices
from repro.devices.simulator import DeviceSimulator
from repro.features.compact_ast import COMPUTATION_VECTOR_LENGTH, extract_compact_ast
from repro.features.positional import positional_encoding
from repro.ops import conv2d, dense
from repro.tir.ast import LEAF_MARKER, build_ast, preorder_serialize
from repro.tir.lower import lower
from repro.tir.schedule import random_schedule
from repro.utils.rng import stable_hash

# Shared strategy: small dense tasks with valid shapes.
dense_shapes = st.tuples(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=2, max_value=128),
    st.integers(min_value=2, max_value=128),
)


@settings(max_examples=20, deadline=None)
@given(shape=dense_shapes, seed=st.integers(min_value=0, max_value=1_000))
def test_lowered_program_invariants(shape, seed):
    """Any random schedule of any dense task lowers to a consistent program."""
    batch, in_features, out_features = shape
    task = dense(batch, in_features, out_features, model="prop")
    schedule = random_schedule(task, np.random.default_rng(seed), "gpu")
    program = lower(task, schedule)

    stats = program.stats
    assert stats.total_flops > 0
    assert stats.total_bytes_read > 0
    assert stats.num_leaves == program.num_leaves >= 1
    assert stats.max_loop_depth >= 1
    # FLOPs can only grow (ceil-division padding) relative to the unscheduled task.
    assert stats.total_flops >= task.naive_flops() * 0.99
    # The AST and the program agree about leaves, and the serialization
    # contains exactly one marker per leaf.
    root = build_ast(program)
    sequence, leaf_positions = preorder_serialize(root)
    assert root.num_leaves() == program.num_leaves
    assert sequence.count(LEAF_MARKER) == program.num_leaves
    assert leaf_positions == sorted(leaf_positions)


@settings(max_examples=20, deadline=None)
@given(shape=dense_shapes, seed=st.integers(min_value=0, max_value=1_000))
def test_compact_ast_feature_invariants(shape, seed):
    """Compact-AST features are finite, fixed-width and leaf-aligned."""
    batch, in_features, out_features = shape
    task = dense(batch, in_features, out_features, model="prop")
    program = lower(task, random_schedule(task, np.random.default_rng(seed), "cpu"))
    compact = extract_compact_ast(program)
    assert compact.computation_vectors.shape == (program.num_leaves, COMPUTATION_VECTOR_LENGTH)
    assert np.all(np.isfinite(compact.computation_vectors))
    assert np.all(compact.ordering_vector >= 0)
    assert len(np.unique(compact.ordering_vector)) == program.num_leaves


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       device_index=st.integers(min_value=0, max_value=8))
def test_simulator_latency_invariants(seed, device_index):
    """Simulated latencies are positive, finite, and deterministic per seed."""
    devices = list_devices()
    device = devices[device_index % len(devices)]
    task = conv2d(1, 8, 16, 14, 14, model="prop")
    program = lower(task, random_schedule(task, np.random.default_rng(seed), device.taxonomy))
    first = DeviceSimulator(device, seed=seed).measure(program)
    second = DeviceSimulator(device, seed=seed).measure(program)
    assert first == second
    assert np.isfinite(first)
    assert first > device.launch_overhead_us * 1e-6 * 0.5


@settings(max_examples=20, deadline=None)
@given(
    values=st.lists(st.floats(min_value=1e-7, max_value=1e-1, allow_nan=False), min_size=16, max_size=200),
)
def test_box_cox_roundtrip_property(values):
    """Box-Cox transform round-trips arbitrary positive latency arrays."""
    array = np.asarray(values)
    transform = BoxCoxTransform().fit(array)
    recovered = transform.inverse_transform(transform.transform(array))
    np.testing.assert_allclose(recovered, array, rtol=1e-3, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    positions=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=20, unique=True),
    dim=st.integers(min_value=2, max_value=64),
)
def test_positional_encoding_bounded_and_unique(positions, dim):
    """PE values stay in [-1, 1] and distinct positions get distinct encodings."""
    encoding = positional_encoding(np.asarray(positions, dtype=float), dim=dim)
    assert np.all(np.abs(encoding) <= 1.0 + 1e-9)
    if len(positions) > 1 and dim >= 4:
        assert not np.allclose(encoding[0], encoding[1])


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=60),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=100),
)
def test_kmeans_partition_properties(n, k, seed):
    """KMeans labels form a partition and inertia is non-negative."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    kmeans = KMeans(k, seed=seed)
    result = kmeans.fit(x)
    assert result.labels.shape == (n,)
    assert result.labels.min() >= 0
    assert result.labels.max() < kmeans.num_clusters
    assert result.inertia >= 0
    # Every cluster center is finite.
    assert np.all(np.isfinite(result.centers))


@settings(max_examples=20, deadline=None)
@given(
    data=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=10, max_size=80),
    shift=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_cmd_is_nonnegative_and_grows_with_shift(data, shift):
    """CMD is non-negative and zero only for identical samples."""
    source = np.asarray(data).reshape(-1, 1)
    target = source + shift
    distance = cmd_distance(source, target)
    assert distance >= 0
    if shift > 0.5:
        assert distance > 0


@settings(max_examples=20, deadline=None)
@given(
    target=st.lists(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=2, max_size=50),
    scale=st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
)
def test_mape_scale_invariance(target, scale):
    """MAPE is invariant when predictions and targets are scaled together."""
    target_array = np.asarray(target)
    pred = target_array * 1.1
    assert mape(pred * scale, target_array * scale) == pytest.approx(mape(pred, target_array), rel=1e-9)
    assert 0.0 <= threshold_accuracy(pred, target_array, 0.2) <= 1.0


@settings(max_examples=30, deadline=None)
@given(parts=st.lists(st.text(min_size=0, max_size=12), min_size=1, max_size=4))
def test_stable_hash_is_stable(parts):
    """stable_hash is deterministic and bounded for arbitrary printable input."""
    assert stable_hash(*parts) == stable_hash(*parts)
    assert 0 <= stable_hash(*parts) < 2**63


# ----------------------------------------------------------------------
# Schedule-search invariants (the SearchService contract)
# ----------------------------------------------------------------------
def _flops_score(programs):
    """A deterministic, stateless scorer: prefer fewer padded FLOPs."""
    return np.array([float(program.stats.total_flops) for program in programs])


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    num_rounds=st.integers(min_value=1, max_value=4),
    population=st.integers(min_value=1, max_value=6),
    measurements=st.integers(min_value=1, max_value=4),
)
def test_search_best_latency_is_monotone_and_budgeted(seed, num_rounds, population, measurements):
    """Per-round best latency never worsens and measurements respect the budget."""
    from repro.search.ansor import evolutionary_search

    task = dense(4, 16, 16, model="prop-search")
    result = evolutionary_search(
        task,
        "t4",
        _flops_score,
        num_rounds=num_rounds,
        population=population,
        measurements_per_round=measurements,
        seed=seed,
    )
    history = result.best_latency_per_round
    assert len(history) == num_rounds
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))
    assert result.best_latency_s == history[-1] > 0
    assert result.num_measurements <= num_rounds * max(measurements, 1)
    assert result.num_scored == num_rounds * population
    assert result.scoring_batches == num_rounds
    assert result.best_schedule is not None


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000))
def test_perfect_oracle_never_loses_to_random_scorer(seed):
    """A ScoreFn returning the true simulated latency finds a schedule at
    least as fast as a random scorer under the identical search budget.

    Both searches share one seed, so they sample identical candidate pools;
    the oracle's measured top-k always contains the pool's true best, while
    the random scorer measures an arbitrary subset.
    """
    from repro.search.ansor import evolutionary_search

    task = dense(4, 16, 16, model="prop-search")
    device = get_device("t4")
    budget = dict(num_rounds=2, population=6, measurements_per_round=2, seed=seed)

    oracle_sim = DeviceSimulator(device, seed=seed)  # same stream as the search's

    def oracle(programs):
        return np.array([oracle_sim.measure(program) for program in programs])

    score_rng = np.random.default_rng(seed + 1)

    def random_scorer(programs):
        return score_rng.random(len(programs))

    best_oracle = evolutionary_search(task, device, oracle, **budget).best_latency_s
    best_random = evolutionary_search(task, device, random_scorer, **budget).best_latency_s
    assert best_oracle <= best_random * (1 + 1e-12)
