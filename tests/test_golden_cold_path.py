"""The cold scoring path answers exactly what the recorded goldens say.

``tests/data`` holds feature arrays, served predictions and tuning results
recorded by ``tests/golden_cases.py`` before the cold path was optimised
(hoisted statement features, single-walk leaf positions, compact feature
rows, memoised task lists), plus whole-model answers recorded before the
duplicate whole-model serving path was removed.  Feature arrays are plain scalar arithmetic and
must match bit for bit everywhere.  Predictions and tunings also match bit
for bit on the platform that recorded them; elsewhere a different BLAS may
sum in a different order, so they are held to a relative 1e-9 instead.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import golden_cases as golden


@pytest.fixture(scope="module")
def recorded():
    with open(golden.GOLDEN_DIR / golden.ANSWERS_FILE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def same_platform(recorded):
    return recorded["platform"] == golden.platform_tag()


@pytest.fixture(scope="module")
def cases():
    return golden.case_programs()


@pytest.fixture(scope="module")
def models():
    return golden.load_models()


def _assert_floats(actual, expected, exact):
    actual, expected = np.asarray(actual), np.asarray(expected)
    if exact:
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=0.0)


def test_feature_arrays_are_bit_identical(cases):
    with np.load(golden.GOLDEN_DIR / golden.FEATURES_FILE) as archive:
        expected = {name: archive[name] for name in archive.files}
    actual = golden.feature_arrays(cases)
    assert sorted(actual) == sorted(expected)
    for name, array in expected.items():
        _assert_floats(actual[name], array, exact=True)


def test_served_predictions_match(cases, models, recorded, same_platform):
    teacher, student = models
    actual = golden.served_answers(cases, teacher, student)
    assert sorted(actual) == sorted(recorded["served"])
    for name, answers in recorded["served"].items():
        _assert_floats(actual[name], answers, exact=same_platform)


def test_tune_model_results_match(models, recorded, same_platform):
    teacher, _ = models
    actual = golden.tune_answers(teacher)
    assert sorted(actual) == sorted(recorded["tuned"])
    for seed, tunings in recorded["tuned"].items():
        got = actual[seed]
        assert [t["device"] for t in got] == [t["device"] for t in tunings]
        for mine, theirs in zip(got, tunings):
            # Result order fixes the order of the tuned_latency_s sum.
            assert mine["order"] == theirs["order"]
            if same_platform:
                assert mine == theirs
            else:
                _assert_floats(mine["tuned_latency_s"], theirs["tuned_latency_s"], exact=False)


def test_whole_model_answers_match(models, recorded, same_platform):
    teacher, _ = models
    actual = golden.model_answers(teacher)
    assert sorted(actual) == sorted(recorded["models"])
    for name, expected in recorded["models"].items():
        got = actual[name]
        assert list(got) == list(expected)
        assert list(got["per_kernel_s"]) == list(expected["per_kernel_s"])
        for field, value in expected.items():
            if field == "per_kernel_s":
                got_values, value = list(got[field].values()), list(value.values())
            else:
                got_values = got[field]
            _assert_floats(got_values, value, exact=same_platform)
