"""Built-in lint rules.

Each rule encodes an invariant this codebase has already been bitten by:

=====================  ========================================================
rule id                historical bug class
=====================  ========================================================
lock-guard             stats counters read/written without the cache/service
                       lock (serving tier)
rng-global-state       ``np.random.*`` module-level state leaking between
                       components
rng-generator-alias    storing a caller's ``Generator`` (or passing a
                       Generator-capable seed straight to ``new_rng``) so two
                       components share one stream — the PR 4/PR 7 aliasing bug
mutable-default        shared mutable default config objects — the PR 3 bug
clone-discipline       assigning into another model's ``state_dict`` outside
                       ``clone()``/``FineTuner`` — the PR 4 shared-checkpoint
                       corruption
thread-global          module-level mutable globals in ``nn/`` — the PR 5
                       ``_GRAD_ENABLED`` grad-mode race
protocol-conformance   a backend registered without the full ``CostModel``
                       surface, failing only at call time
broad-except           ``except Exception``/bare ``except`` silently swallowing
                       serving-tier errors
inference-autograd     serving hot paths building autograd graphs — the tiered
                       inference refactor moved serving onto the graph-free
                       ``Module.infer`` path; a stray ``Tensor(...)`` or
                       ``.forward(...)`` silently reintroduces tape overhead
unused-import          imports left behind by deleted code (83 across the
                       tree when the rule landed)
=====================  ========================================================

See ``docs/analysis.md`` for the full catalogue and the annotation syntax.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint import (
    FileContext,
    Finding,
    Project,
    Rule,
    register_rule,
)

__all__ = [
    "LockGuardRule",
    "RngGlobalStateRule",
    "RngGeneratorAliasRule",
    "MutableDefaultRule",
    "CloneDisciplineRule",
    "ThreadGlobalRule",
    "ProtocolConformanceRule",
    "BroadExceptRule",
    "InferenceAutogradRule",
    "UnusedImportRule",
]


def _terminal_name(node: ast.AST) -> Optional[str]:
    """Rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _root_self_attr(node: ast.AST) -> Optional[str]:
    """If ``node`` is a ``self.<attr>`` (possibly followed by more attribute /
    subscript steps when walking down from an outer node), return ``attr``."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if (
            isinstance(current, ast.Attribute)
            and isinstance(current.value, ast.Name)
            and current.value.id == "self"
        ):
            return current.attr
        current = current.value
    return None


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


# ---------------------------------------------------------------------------
# lock-guard
# ---------------------------------------------------------------------------

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

# Method calls that mutate common containers; used to demand a ``guarded-by``
# annotation for attributes mutated under a lock.  ``set``/``clear`` are
# deliberately absent (``threading.Event`` uses them for thread-safe flags).
_MUTATOR_NAMES = {
    "add",
    "append",
    "appendleft",
    "extend",
    "insert",
    "discard",
    "remove",
    "pop",
    "popitem",
    "popleft",
    "setdefault",
    "update",
    "move_to_end",
}

_INIT_METHODS = {"__init__", "__post_init__", "__del__"}


@register_rule
class LockGuardRule(Rule):
    """Lock-guard discipline, in the spirit of Clang's thread-safety analysis.

    * ``self.attr = ...  # guarded-by: _lock`` declares that ``attr`` may only
      be touched inside ``with self._lock:`` (``__init__`` is exempt).
    * ``# requires-lock: _lock`` on (or directly above) a ``def`` line declares
      a helper that is only ever called with the lock already held.
    * The reverse check: an attribute *mutated* under ``with self.<lock>:`` in
      a non-init method must carry a ``guarded-by`` annotation — so deleting an
      annotation fails the lint run rather than silently dropping coverage.
    """

    id = "lock-guard"
    severity = "error"
    description = (
        "guarded-by annotated attributes only touched with the lock held; "
        "lock-mutated attributes must be annotated"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)
        # Any guarded-by comment that no assignment claimed is a dangling
        # annotation (typo'd target, or the assignment was deleted).
        for line in sorted(ctx.guarded_by):
            if line not in ctx.claimed_guard_lines:
                yield Finding(
                    rule=self.id,
                    message=(
                        "dangling '# guarded-by' annotation: no 'self.<attr> = ...' "
                        "assignment on this line"
                    ),
                    path=ctx.display,
                    line=line,
                    severity=self.severity,
                )

    # -- per-class analysis ----------------------------------------------

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        locks = self._collect_locks(cls)
        guarded = self._collect_guarded(ctx, cls)

        for attr, (lock, line) in guarded.items():
            if lock not in locks:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"attribute {attr!r} is guarded-by {lock!r}, but "
                        f"{cls.name} defines no 'self.{lock} = threading.*' lock"
                    ),
                    path=ctx.display,
                    line=line,
                    severity=self.severity,
                )

        guard_map = {attr: lock for attr, (lock, _) in guarded.items()}
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in _INIT_METHODS:
                continue
            held: Set[str] = set()
            required = ctx.requires_lock.get(stmt.lineno) or ctx.requires_lock.get(
                stmt.lineno - 1
            )
            if required is not None:
                if required not in locks:
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"'# requires-lock: {required}' on {cls.name}.{stmt.name} "
                            f"names no lock attribute of {cls.name}"
                        ),
                        path=ctx.display,
                        line=stmt.lineno,
                        severity=self.severity,
                    )
                else:
                    held.add(required)
            for child in stmt.body:
                yield from self._walk(
                    ctx, cls, stmt, child, frozenset(held), locks, guard_map
                )

    def _collect_locks(self, cls: ast.ClassDef) -> Set[str]:
        locks: Set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _LOCK_FACTORIES
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id == "threading"
            ):
                continue
            for target in node.targets:
                if _is_self_attr(target):
                    locks.add(target.attr)
        return locks

    def _collect_guarded(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Dict[str, Tuple[str, int]]:
        guarded: Dict[str, Tuple[str, int]] = {}
        for node in ast.walk(cls):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            lock = ctx.guarded_by.get(node.lineno)
            if lock is None:
                continue
            for target in targets:
                if _is_self_attr(target):
                    guarded[target.attr] = (lock, node.lineno)
                    ctx.claimed_guard_lines.add(node.lineno)
        return guarded

    def _locks_acquired(self, item: ast.withitem, locks: Set[str]) -> Optional[str]:
        expr = item.context_expr
        if _is_self_attr(expr) and expr.attr in locks:
            return expr.attr
        return None

    def _walk(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        method: ast.AST,
        node: ast.AST,
        held: frozenset,
        locks: Set[str],
        guarded: Dict[str, str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                lock = self._locks_acquired(item, locks)
                if lock is not None:
                    acquired.add(lock)
                else:
                    yield from self._walk(
                        ctx, cls, method, item.context_expr, held, locks, guarded
                    )
                if item.optional_vars is not None:
                    yield from self._walk(
                        ctx, cls, method, item.optional_vars, held, locks, guarded
                    )
            inner = frozenset(held | acquired)
            for child in node.body:
                yield from self._walk(ctx, cls, method, child, inner, locks, guarded)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function or lambda runs later: the lexically enclosing
            # lock is NOT held at execution time.
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                yield from self._walk(
                    ctx, cls, method, child, frozenset(), locks, guarded
                )
            return

        yield from self._check_access(ctx, cls, method, node, held, locks, guarded)
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, cls, method, child, held, locks, guarded)

    def _check_access(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        method: ast.AST,
        node: ast.AST,
        held: frozenset,
        locks: Set[str],
        guarded: Dict[str, str],
    ) -> Iterator[Finding]:
        method_name = getattr(method, "name", "<module>")
        # (a) annotated attribute touched without its lock.
        if _is_self_attr(node) and node.attr in guarded:
            lock = guarded[node.attr]
            if lock not in held:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"'self.{node.attr}' is guarded-by {lock!r} but is accessed "
                        f"in {cls.name}.{method_name} without 'with self.{lock}:' "
                        f"(annotate the method '# requires-lock: {lock}' if the "
                        "caller holds it)"
                    ),
                    path=ctx.display,
                    line=node.lineno,
                    severity=self.severity,
                )
        # (b) attribute mutated under a held lock must be annotated.
        if not held:
            return
        mutated = self._mutated_attr(node)
        if (
            mutated is not None
            and mutated not in guarded
            and mutated not in locks
        ):
            lock = sorted(held)[0]
            yield Finding(
                rule=self.id,
                message=(
                    f"'self.{mutated}' is mutated while holding 'self.{lock}' in "
                    f"{cls.name}.{method_name} but has no '# guarded-by: {lock}' "
                    "annotation on its assignment in __init__"
                ),
                path=ctx.display,
                line=node.lineno,
                severity=self.severity,
            )

    def _mutated_attr(self, node: ast.AST) -> Optional[str]:
        # Direct / chained / subscripted stores rooted at self.<attr>.
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            return _root_self_attr(node)
        # Mutator method calls: self.<attr>....append(...), .pop(...), ...
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_NAMES
        ):
            return _root_self_attr(node.func.value)
        return None


# ---------------------------------------------------------------------------
# rng-global-state
# ---------------------------------------------------------------------------

_NP_RANDOM_ALLOWED = {
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "default_rng",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "RandomState",  # instance-based; legacy but not shared global state
}


@register_rule
class RngGlobalStateRule(Rule):
    """No ``np.random.*`` module-level state (``np.random.seed`` & friends)."""

    id = "rng-global-state"
    severity = "error"
    description = "no numpy global RNG state; use new_rng/spawn_rng/derive_rng"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in {"np", "numpy"}
                and node.attr not in _NP_RANDOM_ALLOWED
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"'np.random.{node.attr}' touches numpy's global RNG state; "
                    "construct a Generator via repro.utils.rng instead",
                )


# ---------------------------------------------------------------------------
# rng-generator-alias
# ---------------------------------------------------------------------------

_SEED_PARAM_NAMES = {"seed", "rng", "generator"}
_GENERATOR_PARAM_NAMES = {"rng", "generator"}
_RNG_CONSTRUCTORS = {"new_rng", "default_rng"}
_RNG_DERIVERS = {"spawn_rng", "derive_rng"}


def _annotation_text(annotation: Optional[ast.expr]) -> str:
    if annotation is None:
        return ""
    try:
        return ast.unparse(annotation)
    except Exception:  # pragma: no cover - defensive
        return ""


@register_rule
class RngGeneratorAliasRule(Rule):
    """No storing a caller's Generator (or a Generator-capable seed routed
    through ``new_rng``, which returns Generators unchanged) on ``self`` —
    derive an independent stream with ``spawn_rng``/``derive_rng`` instead."""

    id = "rng-generator-alias"
    severity = "error"
    description = (
        "stored RNGs must be derived via spawn_rng/derive_rng, not aliased "
        "from a caller's Generator"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _param_kinds(self, func: ast.AST) -> Tuple[Set[str], Set[str]]:
        generator_params: Set[str] = set()
        seedlike_params: Set[str] = set()
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            text = _annotation_text(arg.annotation)
            if "Generator" in text:
                generator_params.add(arg.arg)
                seedlike_params.add(arg.arg)
            elif "Seedable" in text:
                seedlike_params.add(arg.arg)
            elif not text:
                if arg.arg in _GENERATOR_PARAM_NAMES:
                    generator_params.add(arg.arg)
                if arg.arg in _SEED_PARAM_NAMES:
                    seedlike_params.add(arg.arg)
        return generator_params, seedlike_params

    def _check_function(self, ctx: FileContext, func: ast.AST) -> Iterator[Finding]:
        generator_params, seedlike_params = self._param_kinds(func)
        if not seedlike_params:
            return
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not any(isinstance(t, ast.Attribute) for t in targets):
                continue
            message = self._classify(value, generator_params, seedlike_params)
            if message is not None:
                yield self.finding(ctx, node, message)

    def _classify(
        self,
        value: ast.expr,
        generator_params: Set[str],
        seedlike_params: Set[str],
    ) -> Optional[str]:
        def is_gen_param(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Name) and expr.id in generator_params

        if is_gen_param(value):
            return (
                f"stores the caller's Generator {value.id!r} directly; two owners "
                "would share one stream (the PR 4/PR 7 aliasing bug) — use "
                "spawn_rng/derive_rng to fork an independent stream"
            )
        if isinstance(value, ast.BoolOp) and any(is_gen_param(v) for v in value.values):
            name = next(v.id for v in value.values if is_gen_param(v))
            return (
                f"may store the caller's Generator {name!r} (via 'or' fallback); "
                "use spawn_rng/derive_rng to fork an independent stream"
            )
        if isinstance(value, ast.IfExp) and (
            is_gen_param(value.body) or is_gen_param(value.orelse)
        ):
            branch = value.body if is_gen_param(value.body) else value.orelse
            return (
                f"may store the caller's Generator {branch.id!r} (conditional "
                "alias); use spawn_rng/derive_rng to fork an independent stream"
            )
        if isinstance(value, ast.Call):
            name = _terminal_name(value.func)
            if name in _RNG_CONSTRUCTORS:
                for arg in value.args:
                    if isinstance(arg, ast.Name) and arg.id in seedlike_params:
                        return (
                            f"'{name}({arg.id})' returns the caller's Generator "
                            f"unchanged when {arg.id!r} is one; use "
                            "derive_rng(seed, <label>) to fork an independent "
                            "stream"
                        )
        return None


# ---------------------------------------------------------------------------
# mutable-default
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "OrderedDict",
    "Counter",
}


@register_rule
class MutableDefaultRule(Rule):
    """No mutable default arguments (the PR 3 shared-config bug)."""

    id = "mutable-default"
    severity = "error"
    description = "no mutable default arguments (lists, dicts, sets, ...)"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            name = getattr(node, "name", "<lambda>")
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is None:
                    continue
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {name!r} is shared across "
                        "calls (the PR 3 shared-config bug); default to None and "
                        "construct inside the body",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _terminal_name(node.func) in _MUTABLE_CALLS
        return False


# ---------------------------------------------------------------------------
# clone-discipline
# ---------------------------------------------------------------------------

_CLONE_ALLOWED_PREFIXES = ("load", "_load", "restore", "_restore")
_CLONE_ALLOWED_CLASSES = {"FineTuner"}


@register_rule
class CloneDisciplineRule(Rule):
    """No method outside ``clone()``/loaders/``FineTuner`` writes into another
    model's ``state_dict`` (the PR 4 shared-checkpoint corruption)."""

    id = "clone-discipline"
    severity = "error"
    description = (
        "state_dict writes only in clone()/load*/restore* methods or FineTuner"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._visit(ctx, ctx.tree, None, None)

    def _visit(
        self,
        ctx: FileContext,
        node: ast.AST,
        cls: Optional[str],
        func: Optional[str],
    ) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        yield from self._check_node(ctx, node, cls, func)
        for child in ast.iter_child_nodes(node):
            yield from self._visit(ctx, child, cls, func)

    def _allowed(self, cls: Optional[str], func: Optional[str]) -> bool:
        if cls in _CLONE_ALLOWED_CLASSES:
            return True
        if func is None:
            return False
        return func == "clone" or func.startswith(_CLONE_ALLOWED_PREFIXES)

    def _check_node(
        self,
        ctx: FileContext,
        node: ast.AST,
        cls: Optional[str],
        func: Optional[str],
    ) -> Iterator[Finding]:
        # other.load_state_dict(...) outside an allowed context.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "load_state_dict"
        ):
            receiver = node.func.value
            self_rooted = isinstance(receiver, ast.Name) and receiver.id == "self"
            self_rooted = self_rooted or _root_self_attr(receiver) is not None
            if not self_rooted and not self._allowed(cls, func):
                target = _terminal_name(receiver) or "<expr>"
                yield self.finding(
                    ctx,
                    node,
                    f"'{target}.load_state_dict(...)' overwrites another model's "
                    "parameters outside clone()/load*/restore*/FineTuner (the "
                    "PR 4 shared-checkpoint corruption)",
                )
        # model.state_dict()[key] = value — mutating a checkpoint view.
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "state_dict"
        ):
            yield self.finding(
                ctx,
                node,
                "writing into 'state_dict()[...]' mutates shared checkpoint "
                "state in place; copy the dict (or use clone()) instead",
            )


# ---------------------------------------------------------------------------
# thread-global
# ---------------------------------------------------------------------------

_CONSTANT_NAME_RE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")
_THREAD_SAFE_FACTORIES = {"local", "ContextVar"}


@register_rule
class ThreadGlobalRule(Rule):
    """Module-level mutable globals in ``nn/`` must be thread-local (the PR 5
    ``_GRAD_ENABLED`` grad-mode race)."""

    id = "thread-global"
    severity = "error"
    description = (
        "no module-level mutable globals in nn/ unless threading.local / "
        "ContextVar; no 'global' rebinding"
    )

    SCOPE = ("repro", "nn")

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*self.SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                for name in node.names:
                    yield self.finding(
                        ctx,
                        node,
                        f"'global {name}' rebinds module state at runtime; "
                        "module-level mutability in nn/ raced across threads "
                        "before (PR 5 _GRAD_ENABLED) — prefer threading.local "
                        "or instance state",
                    )
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not self._is_mutable_container(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                is_dunder = target.id.startswith("__") and target.id.endswith("__")
                if not is_dunder and not _CONSTANT_NAME_RE.match(target.id):
                    yield self.finding(
                        ctx,
                        stmt,
                        f"module-level mutable global {target.id!r} in nn/ is "
                        "shared across threads; use threading.local(), a "
                        "ContextVar, or an ALL_CAPS immutable constant",
                    )

    def _is_mutable_container(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if name in _THREAD_SAFE_FACTORIES:
                return False
            return name in _MUTABLE_CALLS
        return False


# ---------------------------------------------------------------------------
# protocol-conformance
# ---------------------------------------------------------------------------


@register_rule
class ProtocolConformanceRule(Rule):
    """Every ``CostModel`` subclass statically defines the abstract protocol
    surface declared in ``backends/base.py`` (methods whose base implementation
    raises ``NotImplementedError``, plus the ``backend`` identifier)."""

    id = "protocol-conformance"
    severity = "error"
    description = (
        "CostModel subclasses define every abstract member of the protocol"
    )

    BASE_SUFFIX = "backends/base.py"
    BASE_CLASS = "CostModel"

    def check_project(self, project: Project) -> Iterator[Finding]:
        base = self._find_base(project)
        if base is None:
            return
        required = self._abstract_members(base)
        required_attrs = {"backend"}
        for ctx in project.files:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if node is base:
                    continue
                if not any(
                    _terminal_name(b) == self.BASE_CLASS for b in node.bases
                ):
                    continue
                defined = self._defined_members(node)
                for member in sorted(required - defined):
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"{node.name} subclasses {self.BASE_CLASS} but does "
                            f"not define abstract member {member!r} (the base "
                            "raises NotImplementedError at call time)"
                        ),
                        path=ctx.display,
                        line=node.lineno,
                        severity=self.severity,
                    )
                for attr in sorted(required_attrs - defined):
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"{node.name} subclasses {self.BASE_CLASS} but sets "
                            f"no {attr!r} identifier (class attribute or "
                            f"'self.{attr} = ...' in __init__)"
                        ),
                        path=ctx.display,
                        line=node.lineno,
                        severity=self.severity,
                    )

    def _find_base(self, project: Project) -> Optional[ast.ClassDef]:
        for ctx in project.find(self.BASE_SUFFIX):
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef) and node.name == self.BASE_CLASS:
                    return node
        return None

    def _abstract_members(self, base: ast.ClassDef) -> Set[str]:
        members: Set[str] = set()
        for stmt in base.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc
                    name = (
                        _terminal_name(exc.func)
                        if isinstance(exc, ast.Call)
                        else _terminal_name(exc)
                    )
                    if name == "NotImplementedError":
                        members.add(stmt.name)
                        break
        return members

    def _defined_members(self, cls: ast.ClassDef) -> Set[str]:
        defined: Set[str] = set()
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(stmt.name)
                if stmt.name == "__init__":
                    for node in ast.walk(stmt):
                        if isinstance(node, ast.Attribute) and isinstance(
                            node.ctx, ast.Store
                        ):
                            if _is_self_attr(node):
                                defined.add(node.attr)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                defined.add(stmt.target.id)
        return defined


# ---------------------------------------------------------------------------
# broad-except
# ---------------------------------------------------------------------------

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
_REPORTING_FRAGMENTS = ("log", "warn", "error", "except", "print", "debug", "fail")


@register_rule
class BroadExceptRule(Rule):
    """``except Exception``/bare ``except`` in ``serving/`` must re-raise or
    report — silent swallowing hides daemon-tier failures."""

    id = "broad-except"
    severity = "warning"
    description = (
        "broad except handlers in serving/ must re-raise or log/report"
    )

    SCOPE = ("repro", "serving")

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*self.SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._reports(node):
                continue
            label = (
                "bare 'except:'" if node.type is None else "'except Exception'"
            )
            yield self.finding(
                ctx,
                node,
                f"{label} swallows serving-tier errors without re-raising or "
                "reporting; narrow the exception type, re-raise, or send the "
                "error to the caller/log",
            )

    def _is_broad(self, type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return _terminal_name(type_node) in _BROAD_EXCEPTIONS

    def _reports(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name and any(
                    fragment in name.lower() for fragment in _REPORTING_FRAGMENTS
                ):
                    return True
        return False


# ---------------------------------------------------------------------------
# inference-autograd
# ---------------------------------------------------------------------------


@register_rule
class InferenceAutogradRule(Rule):
    """Serving hot paths stay on the autograd-free inference path: no
    ``Tensor(...)`` construction and no direct ``.forward(...)`` calls in
    ``serving/`` — the predictors' ``infer``/``predict_*`` entry points
    operate on raw ndarrays without building a tape."""

    id = "inference-autograd"
    severity = "error"
    description = (
        "no Tensor(...) construction or .forward(...) calls in serving/; "
        "serve through the autograd-free infer path"
    )

    SCOPE = ("repro", "serving")

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*self.SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _terminal_name(node.func) == "Tensor":
                yield self.finding(
                    ctx,
                    node,
                    "'Tensor(...)' builds an autograd graph on the serving hot "
                    "path; serve through the model's predict_*/infer entry "
                    "points, which stay on raw ndarrays",
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "forward":
                yield self.finding(
                    ctx,
                    node,
                    "direct '.forward(...)' runs the autograd forward pass on "
                    "the serving hot path; call the inference-mode entry point "
                    "(Module.infer / predictor.infer) instead",
                )


# ---------------------------------------------------------------------------
# unused-import
# ---------------------------------------------------------------------------

#: ``# noqa`` alone, or a ``# noqa:`` list naming F401 (unused import).
_NOQA_F401_RE = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b")


@register_rule
class UnusedImportRule(Rule):
    """Every imported name is referenced somewhere in its module.

    Skipped: package ``__init__.py`` files (they re-export), names listed in
    ``__all__``, and imports marked ``# noqa: F401`` (kept for a side
    effect).  Names inside string annotations (``"Trainer"``) count as used.
    """

    id = "unused-import"
    severity = "error"
    description = "no imported names that the module never references"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.name == "__init__.py":
            return
        used = {node.id for node in ast.walk(ctx.tree) if isinstance(node, ast.Name)}
        for node in ast.walk(ctx.tree):
            annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    try:
                        expr = ast.parse(part.value, mode="eval")
                    except SyntaxError:
                        continue
                    used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                elements = getattr(node.value, "elts", ())
                used.update(e.value for e in elements if isinstance(e, ast.Constant))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if _NOQA_F401_RE.search(ctx.comments.get(node.lineno, "")):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in used:
                    yield self.finding(
                        ctx,
                        node,
                        f"{bound!r} is imported but never used; delete the import "
                        "(or list the name in __all__ if it is re-exported)",
                    )
