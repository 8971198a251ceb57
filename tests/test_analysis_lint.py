"""Tests for the codebase-aware static checker (repro.analysis lint).

Each rule gets a must-flag / must-pass fixture pair written into a temp tree
shaped like the real package (scoped rules key off path fragments such as
``repro/serving/``).  Beyond the per-rule checks this file covers the two
acceptance demonstrations from the issue — deleting a ``# guarded-by``
annotation fails the run, and reintroducing ``def f(x=[])`` in serving/
fails the run — plus suppression semantics, the JSON report schema, the CLI
exit codes, and a self-check asserting the real ``src/`` tree lints clean.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULE_REGISTRY,
    Finding,
    main,
    run_lint,
)

# Importing the rules module registers the built-in rules (run_lint does this
# lazily; the registry tests need it done up front).
import repro.analysis.rules  # noqa: E402,F401

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every rule the checker ships with; registry drift fails loudly.
EXPECTED_RULES = {
    "lock-guard",
    "rng-global-state",
    "rng-generator-alias",
    "mutable-default",
    "clone-discipline",
    "thread-global",
    "protocol-conformance",
    "broad-except",
    "inference-autograd",
    "unused-import",
}


def write(root: Path, rel: str, source: str) -> Path:
    """Write a dedented fixture module under ``root`` and return its path."""
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def lint(root: Path, rules=None):
    return run_lint([root], rule_ids=rules)


def rule_ids(report, strict: bool = False):
    return [finding.rule for finding in report.active_findings(strict)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert EXPECTED_RULES <= set(RULE_REGISTRY)

    def test_rules_have_descriptions_and_valid_severity(self):
        for rule_id, rule in RULE_REGISTRY.items():
            assert rule.description, rule_id
            assert rule.severity in {"error", "warning"}, rule_id


# ---------------------------------------------------------------------------
# lock-guard
# ---------------------------------------------------------------------------

LOCKED_COUNTER = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.hits = 0  # guarded-by: _lock

        def bump(self):
            with self._lock:
                self.hits += 1
"""


class TestLockGuard:
    def test_guarded_access_without_lock_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0  # guarded-by: _lock

                def bump(self):
                    self.hits += 1
            """,
        )
        report = lint(tmp_path, rules=["lock-guard"])
        assert rule_ids(report) == ["lock-guard"]
        assert "without 'with self._lock:'" in report.findings[0].message

    def test_guarded_access_under_lock_passes(self, tmp_path):
        write(tmp_path, "repro/serving/mod.py", LOCKED_COUNTER)
        assert rule_ids(lint(tmp_path, rules=["lock-guard"])) == []

    def test_deleting_annotation_fails(self, tmp_path):
        """The acceptance demonstration: drop ``# guarded-by`` and the
        reverse check (mutation under a held lock must be annotated) fires."""
        write(
            tmp_path,
            "repro/serving/mod.py",
            LOCKED_COUNTER.replace("  # guarded-by: _lock", ""),
        )
        report = lint(tmp_path, rules=["lock-guard"])
        assert rule_ids(report) == ["lock-guard"]
        assert "no '# guarded-by: _lock'" in report.findings[0].message
        assert report.failed()

    def test_init_is_exempt(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0  # guarded-by: _lock
                    self.hits = 1
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["lock-guard"])) == []

    def test_requires_lock_helper_passes(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                # requires-lock: _lock
                def _bump_locked(self):
                    self.hits += 1
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["lock-guard"])) == []

    def test_requires_lock_naming_unknown_lock_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            class Counter:
                # requires-lock: _mutex
                def bump(self):
                    pass
            """,
        )
        report = lint(tmp_path, rules=["lock-guard"])
        assert rule_ids(report) == ["lock-guard"]
        assert "names no lock attribute" in report.findings[0].message

    def test_dangling_annotation_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    # guarded-by: _lock
                    pass
            """,
        )
        report = lint(tmp_path, rules=["lock-guard"])
        assert rule_ids(report) == ["lock-guard"]
        assert "dangling" in report.findings[0].message

    def test_unknown_lock_in_annotation_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            class Counter:
                def __init__(self):
                    self.hits = 0  # guarded-by: _lock
            """,
        )
        report = lint(tmp_path, rules=["lock-guard"])
        assert rule_ids(report) == ["lock-guard"]
        assert "defines no 'self._lock" in report.findings[0].message

    def test_nested_function_does_not_inherit_lock(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0  # guarded-by: _lock

                def bump_later(self):
                    with self._lock:
                        def callback():
                            self.hits += 1
                        return callback
            """,
        )
        report = lint(tmp_path, rules=["lock-guard"])
        # The closure runs after the with-block exits: both the unguarded
        # access and (while collected under the with) no false negatives.
        assert "lock-guard" in rule_ids(report)

    def test_mutator_call_under_lock_needs_annotation(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def push(self, item):
                    with self._lock:
                        self._items.append(item)
            """,
        )
        report = lint(tmp_path, rules=["lock-guard"])
        assert rule_ids(report) == ["lock-guard"]
        assert "_items" in report.findings[0].message


# ---------------------------------------------------------------------------
# rng-global-state
# ---------------------------------------------------------------------------


class TestRngGlobalState:
    @pytest.mark.parametrize(
        "snippet",
        [
            "np.random.seed(0)",
            "x = np.random.rand(3)",
            "np.random.shuffle(items)",
            "numpy.random.seed(1)",
        ],
    )
    def test_global_state_flags(self, tmp_path, snippet):
        write(
            tmp_path,
            "repro/core/mod.py",
            f"""
            import numpy as np
            import numpy

            items = (1, 2)
            {snippet}
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["rng-global-state"])) == [
            "rng-global-state"
        ]

    @pytest.mark.parametrize(
        "snippet",
        [
            "rng = np.random.default_rng(0)",
            "gen = np.random.Generator(np.random.PCG64(0))",
            "seq = np.random.SeedSequence(7)",
        ],
    )
    def test_generator_api_passes(self, tmp_path, snippet):
        write(tmp_path, "repro/core/mod.py", f"import numpy as np\n{snippet}\n")
        assert rule_ids(lint(tmp_path, rules=["rng-global-state"])) == []


# ---------------------------------------------------------------------------
# rng-generator-alias
# ---------------------------------------------------------------------------


class TestRngGeneratorAlias:
    def test_storing_caller_generator_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            class Sampler:
                def __init__(self, rng):
                    self._rng = rng
            """,
        )
        report = lint(tmp_path, rules=["rng-generator-alias"])
        assert rule_ids(report) == ["rng-generator-alias"]
        assert "share one stream" in report.findings[0].message

    def test_or_fallback_alias_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            class Sampler:
                def __init__(self, rng=None):
                    self._rng = rng or new_rng(0)
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["rng-generator-alias"])) == [
            "rng-generator-alias"
        ]

    def test_conditional_alias_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            class Sampler:
                def __init__(self, rng=None):
                    self._rng = rng if rng is not None else new_rng(0)
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["rng-generator-alias"])) == [
            "rng-generator-alias"
        ]

    def test_new_rng_of_seedlike_param_flags(self, tmp_path):
        """``new_rng`` returns a Generator argument unchanged, so routing a
        seed-typed parameter through it still aliases."""
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.utils.rng import new_rng

            class Sampler:
                def __init__(self, seed=0):
                    self._rng = new_rng(seed)
            """,
        )
        report = lint(tmp_path, rules=["rng-generator-alias"])
        assert rule_ids(report) == ["rng-generator-alias"]
        assert "derive_rng" in report.findings[0].message

    def test_spawn_and_derive_pass(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.utils.rng import derive_rng, spawn_rng

            class Sampler:
                def __init__(self, rng, seed=0):
                    self._rng = spawn_rng(rng, "sampler")
                    self._seed_rng = derive_rng(seed, "sampler")
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["rng-generator-alias"])) == []

    def test_annotated_generator_param_flags_regardless_of_name(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            import numpy as np

            class Sampler:
                def __init__(self, source: np.random.Generator):
                    self._rng = source
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["rng-generator-alias"])) == [
            "rng-generator-alias"
        ]

    def test_local_use_without_storing_passes(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            def sample(rng, n):
                return rng.integers(0, 10, size=n)
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["rng-generator-alias"])) == []


# ---------------------------------------------------------------------------
# mutable-default
# ---------------------------------------------------------------------------


class TestMutableDefault:
    @pytest.mark.parametrize(
        "signature",
        [
            "def f(x=[])",
            "def f(x={})",
            "def f(x=set())",
            "def f(*, x=dict())",
            "def f(x=list())",
        ],
    )
    def test_mutable_defaults_flag(self, tmp_path, signature):
        write(tmp_path, "repro/core/mod.py", f"{signature}:\n    return x\n")
        assert rule_ids(lint(tmp_path, rules=["mutable-default"])) == [
            "mutable-default"
        ]

    @pytest.mark.parametrize(
        "signature",
        ["def f(x=None)", "def f(x=())", "def f(x=0)", "def f(x='a')"],
    )
    def test_immutable_defaults_pass(self, tmp_path, signature):
        write(tmp_path, "repro/core/mod.py", f"{signature}:\n    return x\n")
        assert rule_ids(lint(tmp_path, rules=["mutable-default"])) == []

    def test_mutable_default_in_serving_fails_run(self, tmp_path, capsys):
        """The acceptance demonstration: ``def f(x=[])`` anywhere in
        serving/ makes the CLI exit non-zero."""
        write(tmp_path, "repro/serving/helpers.py", "def f(x=[]):\n    return x\n")
        exit_code = main([str(tmp_path), "--strict"])
        assert exit_code == 1
        assert "mutable-default" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# clone-discipline
# ---------------------------------------------------------------------------


class TestCloneDiscipline:
    def test_cross_model_load_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            class Trainer:
                def sync(self, other, model):
                    other.load_state_dict(model.state_dict())
            """,
        )
        report = lint(tmp_path, rules=["clone-discipline"])
        assert rule_ids(report) == ["clone-discipline"]
        assert "shared-checkpoint corruption" in report.findings[0].message

    @pytest.mark.parametrize(
        "context",
        [
            "def clone(self):",
            "def load_checkpoint(self, other):",
            "def _restore(self, other):",
        ],
    )
    def test_allowed_methods_pass(self, tmp_path, context):
        write(
            tmp_path,
            "repro/core/mod.py",
            f"""
            class Trainer:
                {context}
                    other = object()
                    other.load_state_dict({{}})
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["clone-discipline"])) == []

    def test_fine_tuner_class_passes(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            class FineTuner:
                def adapt(self, model, state):
                    model.load_state_dict(state)
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["clone-discipline"])) == []

    def test_self_load_passes(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            class Model:
                def from_state(self, state):
                    self.load_state_dict(state)
                    self.inner.load_state_dict(state)
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["clone-discipline"])) == []

    def test_state_dict_subscript_write_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            def patch(model, value):
                model.state_dict()["weight"] = value
            """,
        )
        report = lint(tmp_path, rules=["clone-discipline"])
        assert rule_ids(report) == ["clone-discipline"]
        assert "mutates shared checkpoint" in report.findings[0].message


# ---------------------------------------------------------------------------
# thread-global
# ---------------------------------------------------------------------------


class TestThreadGlobal:
    def test_module_level_mutable_in_nn_flags(self, tmp_path):
        write(tmp_path, "repro/nn/mod.py", "_cache = {}\n")
        report = lint(tmp_path, rules=["thread-global"])
        assert rule_ids(report) == ["thread-global"]
        assert "shared across threads" in report.findings[0].message

    def test_global_statement_in_nn_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/nn/mod.py",
            """
            _state = None

            def set_state(value):
                global _state
                _state = value
            """,
        )
        assert "thread-global" in rule_ids(lint(tmp_path, rules=["thread-global"]))

    @pytest.mark.parametrize(
        "snippet",
        [
            "__all__ = ['a', 'b']",
            "_SIZES = (1, 2, 3)",
            "import threading\n_state = threading.local()",
            "from contextvars import ContextVar\n_mode = ContextVar('mode')",
        ],
    )
    def test_safe_module_state_passes(self, tmp_path, snippet):
        write(tmp_path, "repro/nn/mod.py", snippet + "\n")
        assert rule_ids(lint(tmp_path, rules=["thread-global"])) == []

    def test_out_of_scope_package_passes(self, tmp_path):
        write(tmp_path, "repro/core/mod.py", "_cache = {}\n")
        assert rule_ids(lint(tmp_path, rules=["thread-global"])) == []


# ---------------------------------------------------------------------------
# protocol-conformance
# ---------------------------------------------------------------------------

COST_MODEL_BASE = """
    class CostModel:
        backend = "base"

        def predict(self, programs):
            raise NotImplementedError

        def save(self, path):
            raise NotImplementedError

        def describe(self):
            return self.backend
"""


class TestProtocolConformance:
    def test_missing_abstract_member_flags(self, tmp_path):
        write(tmp_path, "repro/backends/base.py", COST_MODEL_BASE)
        write(
            tmp_path,
            "repro/backends/impl.py",
            """
            from repro.backends.base import CostModel

            class PartialModel(CostModel):
                backend = "partial"

                def predict(self, programs):
                    return programs
            """,
        )
        report = lint(tmp_path, rules=["protocol-conformance"])
        assert rule_ids(report) == ["protocol-conformance"]
        assert "'save'" in report.findings[0].message

    def test_missing_backend_identifier_flags(self, tmp_path):
        write(tmp_path, "repro/backends/base.py", COST_MODEL_BASE)
        write(
            tmp_path,
            "repro/backends/impl.py",
            """
            from repro.backends.base import CostModel

            class NoBackend(CostModel):
                def predict(self, programs):
                    return programs

                def save(self, path):
                    pass
            """,
        )
        report = lint(tmp_path, rules=["protocol-conformance"])
        assert rule_ids(report) == ["protocol-conformance"]
        assert "'backend'" in report.findings[0].message

    def test_conforming_subclass_passes(self, tmp_path):
        write(tmp_path, "repro/backends/base.py", COST_MODEL_BASE)
        write(
            tmp_path,
            "repro/backends/impl.py",
            """
            from repro.backends.base import CostModel

            class FullModel(CostModel):
                def __init__(self):
                    self.backend = "full"

                def predict(self, programs):
                    return programs

                def save(self, path):
                    pass
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["protocol-conformance"])) == []

    def test_no_base_file_passes(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            class FreeStanding:
                pass
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["protocol-conformance"])) == []


# ---------------------------------------------------------------------------
# broad-except
# ---------------------------------------------------------------------------


class TestBroadExcept:
    def test_silent_swallow_in_serving_flags_as_warning(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            def run(work):
                try:
                    work()
                except Exception:
                    pass
            """,
        )
        report = lint(tmp_path, rules=["broad-except"])
        assert rule_ids(report, strict=True) == ["broad-except"]
        assert report.findings[0].severity == "warning"
        # Warnings gate only strict runs.
        assert not report.failed(strict=False)
        assert report.failed(strict=True)

    def test_bare_except_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            def run(work):
                try:
                    work()
                except:
                    return None
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["broad-except"])) == ["broad-except"]

    @pytest.mark.parametrize(
        "handler_body",
        [
            "raise",
            "log.warning('boom: %s', error)",
            "self._send_error(error)",
            "print(error)",
        ],
    )
    def test_reporting_handlers_pass(self, tmp_path, handler_body):
        write(
            tmp_path,
            "repro/serving/mod.py",
            f"""
            def run(work, log, error=None):
                try:
                    work()
                except Exception as error:
                    {handler_body}
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["broad-except"])) == []

    def test_out_of_scope_package_passes(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            def run(work):
                try:
                    work()
                except Exception:
                    pass
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["broad-except"])) == []


# ---------------------------------------------------------------------------
# inference-autograd
# ---------------------------------------------------------------------------


class TestInferenceAutograd:
    def test_tensor_construction_in_serving_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            from repro.nn.tensor import Tensor

            def score(model, x):
                return model(Tensor(x))
            """,
        )
        report = lint(tmp_path, rules=["inference-autograd"])
        assert rule_ids(report) == ["inference-autograd"]
        assert "autograd graph" in report.findings[0].message

    def test_qualified_tensor_construction_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            from repro import nn

            def score(model, x):
                return model(nn.Tensor(x))
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["inference-autograd"])) == [
            "inference-autograd"
        ]

    def test_direct_forward_call_flags(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            def score(predictor, features):
                return predictor.forward(features)
            """,
        )
        report = lint(tmp_path, rules=["inference-autograd"])
        assert rule_ids(report) == ["inference-autograd"]
        assert "infer" in report.findings[0].message

    def test_infer_path_passes(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            def score(predictor, features):
                return predictor.infer(features)

            def batch(model, programs, device):
                return model.predict_programs(programs, device)
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["inference-autograd"])) == []

    def test_out_of_scope_package_passes(self, tmp_path):
        """Training code legitimately builds graphs: nn/ and core/ are free
        to construct Tensors and call forward."""
        write(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.nn.tensor import Tensor

            def loss(model, x):
                return model.forward(Tensor(x, requires_grad=True))
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["inference-autograd"])) == []


# ---------------------------------------------------------------------------
# unused-import
# ---------------------------------------------------------------------------


class TestUnusedImport:
    def test_unused_names_flag(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            from __future__ import annotations

            import os.path
            from typing import List, Optional

            def f(x: Optional[int]) -> int:
                return x or 0
            """,
        )
        report = lint(tmp_path, rules=["unused-import"])
        messages = [finding.message for finding in report.findings]
        assert rule_ids(report) == ["unused-import", "unused-import"]
        assert "'os' is imported" in messages[0] and "'List' is imported" in messages[1]

    def test_used_names_pass(self, tmp_path):
        write(
            tmp_path,
            "repro/serving/mod.py",
            """
            import numpy as np
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core.trainer import Trainer

            def f(trainer: "Trainer") -> float:
                from scipy import stats

                return float(np.mean(stats.norm.ppf([0.5])))
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["unused-import"])) == []

    def test_reexports_and_side_effect_imports_pass(self, tmp_path):
        write(tmp_path, "repro/pkg/__init__.py", "from repro.pkg.mod import helper\n")
        write(
            tmp_path,
            "repro/pkg/mod.py",
            """
            from repro.pkg.impl import helper
            import repro.analysis.rules  # noqa: F401 -- registers the rules

            __all__ = ["helper"]
            """,
        )
        assert rule_ids(lint(tmp_path, rules=["unused-import"])) == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_trailing_suppression_with_justification(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            "def f(x=[]):  # repro-lint: disable=mutable-default -- fixture\n"
            "    return x\n",
        )
        report = lint(tmp_path, rules=["mutable-default"])
        assert rule_ids(report, strict=True) == []
        assert len(report.suppressed) == 1
        finding, suppression = report.suppressed[0]
        assert finding.rule == "mutable-default"
        assert suppression.justification == "fixture"
        assert not report.failed(strict=True)

    def test_standalone_suppression_governs_next_line(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            "# repro-lint: disable=mutable-default -- fixture\n"
            "def f(x=[]):\n"
            "    return x\n",
        )
        report = lint(tmp_path, rules=["mutable-default"])
        assert rule_ids(report, strict=True) == []
        assert len(report.suppressed) == 1

    def test_file_level_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            "# repro-lint: disable-file=mutable-default -- generated fixture\n"
            "def f(x=[]):\n"
            "    return x\n"
            "def g(y={}):\n"
            "    return y\n",
        )
        report = lint(tmp_path, rules=["mutable-default"])
        assert rule_ids(report, strict=True) == []
        assert len(report.suppressed) == 2

    def test_suppression_only_covers_named_rule(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            "def f(x=[]):  # repro-lint: disable=broad-except -- wrong rule\n"
            "    return x\n",
        )
        report = lint(tmp_path, rules=["mutable-default"])
        assert rule_ids(report) == ["mutable-default"]

    def test_undocumented_suppression_fails_strict_only(self, tmp_path):
        write(
            tmp_path,
            "repro/core/mod.py",
            "def f(x=[]):  # repro-lint: disable=mutable-default\n"
            "    return x\n",
        )
        report = lint(tmp_path, rules=["mutable-default"])
        assert not report.failed(strict=False)
        assert report.failed(strict=True)
        assert rule_ids(report, strict=True) == ["undocumented-suppression"]


# ---------------------------------------------------------------------------
# report schema and CLI
# ---------------------------------------------------------------------------


class TestReportAndCli:
    def test_json_schema(self, tmp_path):
        write(tmp_path, "repro/core/mod.py", "def f(x=[]):\n    return x\n")
        payload = lint(tmp_path).to_json(strict=True)
        # Round-trips through json (no stray Path/ast objects).
        payload = json.loads(json.dumps(payload))
        assert payload["version"] == 1
        assert payload["strict"] is True
        assert payload["files_checked"] == 1
        assert set(payload["counts"]) == {"error", "warning", "suppressed"}
        assert payload["counts"]["error"] >= 1
        (finding,) = [
            f for f in payload["findings"] if f["rule"] == "mutable-default"
        ]
        assert {"rule", "message", "path", "line", "severity"} <= set(finding)
        assert finding["line"] == 1

    def test_finding_render_format(self):
        finding = Finding(
            rule="mutable-default",
            message="boom",
            path="repro/core/mod.py",
            line=3,
            column=4,
        )
        assert finding.render() == (
            "repro/core/mod.py:3:4: [error] mutable-default: boom"
        )

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        write(clean, "repro/core/mod.py", "def f(x=None):\n    return x\n")
        dirty = tmp_path / "dirty"
        write(dirty, "repro/core/mod.py", "def f(x=[]):\n    return x\n")

        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert main([]) == 2  # no paths
        assert main([str(clean), "--rules", "no-such-rule"]) == 2
        capsys.readouterr()

    def test_cli_json_output(self, tmp_path, capsys):
        write(tmp_path, "repro/core/mod.py", "def f(x=[]):\n    return x\n")
        assert main([str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 1

    def test_cli_rules_filter(self, tmp_path, capsys):
        write(tmp_path, "repro/core/mod.py", "def f(x=[]):\n    return x\n")
        assert main([str(tmp_path), "--rules", "broad-except"]) == 0
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_RULES:
            assert rule_id in out

    def test_syntax_error_reported_as_parse_error(self, tmp_path):
        write(tmp_path, "repro/core/mod.py", "def f(:\n")
        report = lint(tmp_path)
        assert rule_ids(report) == ["parse-error"]
        assert report.failed()


# ---------------------------------------------------------------------------
# self-check: the real tree lints clean
# ---------------------------------------------------------------------------


class TestSelfCheck:
    def test_src_tree_is_clean_under_strict(self):
        report = run_lint([REPO_ROOT / "src"])
        assert report.files_checked > 0
        findings = report.active_findings(strict=True)
        assert findings == [], "\n".join(f.render() for f in findings)
        # Every suppression that fired carries a justification.
        for finding, suppression in report.suppressed:
            assert suppression.justification, finding.render()
