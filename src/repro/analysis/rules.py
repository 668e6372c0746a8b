"""caratlint rule catalog (CL001–CL009).

Each rule encodes a repo convention that used to live only in review
comments or runtime tests; the catalog with rationale and examples is
``docs/static-analysis.md``.  Scoped rules key off dotted module names
(see :func:`repro.analysis.core.module_name_for`), so snippets under
``tests/`` are untouched unless a test passes ``module=`` explicitly.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.core import (Finding, ModuleContext, Rule,
                                 register)
from repro.obs.metrics import NAME_GRAMMAR

__all__ = ["HOT_PATHS"]

# ---------------------------------------------------------------------------
# Designated kernel hot paths (rules CL002 / CL005).
#
# These functions are the tensorized inner loops: per-chain / per-site
# / per-batch work must stay on NumPy axes, and the dict-based solver
# facade (ClosedNetwork and friends) must stay outside.  Boundary
# adapters (NetworkArrays.from_network, assemble_solution, the
# _BatchEngine setup/teardown) are deliberately *not* listed.
# ---------------------------------------------------------------------------
HOT_PATHS: dict[str, frozenset[str]] = {
    "repro.queueing.kernels": frozenset({
        "_multiply",
        "solve_exact_batch",
        "solve_schweitzer_batch",
        "initial_queue",
    }),
    "repro.model.outer": frozenset({
        "_seq_sum_last",
        "PhaseCostTable.demands",
        "phase_visits",
        "locks_held",
        "conflict_rates",
        "abort_state",
        "iterate_rows",
        "_BatchEngine._rebuild",
        "_BatchEngine._solve_mva",
        "_BatchEngine._absorb",
        "_BatchEngine._update_abort",
        "_BatchEngine._update_lock",
        "_BatchEngine._update_remote",
        "_BatchEngine._update_tms",
    }),
}


def _qualified_functions(
        tree: ast.Module) -> Iterator[tuple[str, ast.FunctionDef]]:
    """Yield ``(qualname, node)`` for every function definition."""

    def walk(node: ast.AST, prefix: str) -> Iterator[
            tuple[str, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                yield name, child  # type: ignore[misc]
                yield from walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _hot_functions(ctx: ModuleContext) -> Iterator[
        tuple[str, ast.FunctionDef]]:
    designated = HOT_PATHS.get(ctx.module)
    if not designated:
        return
    for qualname, node in _qualified_functions(ctx.tree):
        if qualname in designated:
            yield qualname, node


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


# ---------------------------------------------------------------------------
# CL001 — determinism: no unseeded RNG or wall-clock in model/testbed
# ---------------------------------------------------------------------------

_SEEDED_RANDOM = frozenset({"Random", "SystemRandom"})
_SEEDED_NP_RANDOM = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
})
_WALL_CLOCKS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})


@register
class UnseededNondeterminism(Rule):
    """Module-level RNG state and wall clocks break the testbed's
    replayability guarantee: every stochastic draw must route through
    an explicitly seeded generator, and timing through the diagnostics
    helpers so traced and untraced runs stay bit-identical."""

    rule_id = "CL001"
    title = "unseeded RNG or wall-clock read in model/testbed code"
    rationale = ("seeded determinism: simulations must replay "
                 "bit-identically from a seed, and solver numerics "
                 "must not depend on wall time")

    _EXEMPT = ("repro.model.diagnostics",)

    def applies(self, module: str) -> bool:
        scoped = (module == "repro.testbed"
                  or module.startswith("repro.testbed.")
                  or module == "repro.model"
                  or module.startswith("repro.model.")
                  or module == "repro.obs"
                  or module.startswith("repro.obs.")
                  or module == "repro.scenarios"
                  or module.startswith("repro.scenarios."))
        return scoped and module not in self._EXEMPT

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                yield from self._check_attribute(ctx, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import(ctx, node)

    def _check_attribute(self, ctx: ModuleContext,
                         node: ast.Attribute) -> Iterator[Finding]:
        value = node.value
        if isinstance(value, ast.Name):
            if value.id == "random" and node.attr not in _SEEDED_RANDOM:
                yield self.finding(
                    ctx, node,
                    f"module-level RNG 'random.{node.attr}' — draw "
                    "from an explicitly seeded random.Random instead")
            elif value.id == "time" and node.attr in _WALL_CLOCKS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read 'time.{node.attr}' — route "
                    "timing through repro.model.diagnostics (e.g. "
                    "trace_clock()) so model code stays replayable")
        elif (isinstance(value, ast.Attribute)
              and value.attr == "random"
              and isinstance(value.value, ast.Name)
              and value.value.id in ("np", "numpy")
              and node.attr not in _SEEDED_NP_RANDOM):
            yield self.finding(
                ctx, node,
                f"legacy NumPy RNG 'np.random.{node.attr}' — use an "
                "explicit np.random.Generator (default_rng(seed))")

    def _check_import(self, ctx: ModuleContext,
                      node: ast.ImportFrom) -> Iterator[Finding]:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _SEEDED_RANDOM:
                    yield self.finding(
                        ctx, node,
                        f"'from random import {alias.name}' imports "
                        "module-level RNG state — import the seeded "
                        "random.Random class instead")
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCKS:
                    yield self.finding(
                        ctx, node,
                        f"'from time import {alias.name}' in model/"
                        "testbed code — route timing through "
                        "repro.model.diagnostics")


# ---------------------------------------------------------------------------
# CL002 — no Python loops in designated kernel hot paths
# ---------------------------------------------------------------------------


@register
class LoopInKernelHotPath(Rule):
    """The batched solve path earns its speedup by keeping per-chain,
    per-center and per-batch iteration on NumPy axes.  A Python loop
    reintroduces O(B·C·K) interpreter overhead exactly where the
    ROADMAP's scaling items need it least.  Deliberately sequential
    recurrences (polynomial products, damped fixed-point steps) carry
    a justified suppression comment instead."""

    rule_id = "CL002"
    title = "Python loop in a designated kernel hot path"
    rationale = ("vectorization: chain/site/batch iteration in hot "
                 "paths must run on NumPy axes, not the interpreter")

    def applies(self, module: str) -> bool:
        return module in HOT_PATHS

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for qualname, func in _hot_functions(ctx):
            for node in ast.walk(func):
                if isinstance(node, (ast.For, ast.AsyncFor,
                                     ast.While)):
                    kind = ("while" if isinstance(node, ast.While)
                            else "for")
                    yield self.finding(
                        ctx, node,
                        f"Python '{kind}' loop inside kernel hot "
                        f"path '{qualname}' — vectorize over the "
                        "batch/center/chain axes, or suppress with "
                        "a justification if the recurrence is "
                        "inherently sequential")


# ---------------------------------------------------------------------------
# CL003 — shape contracts on ndarray parameters in kernel modules
# ---------------------------------------------------------------------------

# A shape tuple of named dimensions: "(B, C, K)", "(C,)", "(B, K)".
_SHAPE_PATTERN = re.compile(
    r"\(\s*[A-Z][A-Za-z0-9_]*\s*(?:(?:,\s*[A-Z][A-Za-z0-9_]*\s*)+,?|,)\s*\)")


@register
class MissingShapeContract(Rule):
    """Kernel interfaces pass bare ndarrays whose axis meanings exist
    only by convention; an undocumented parameter is how ``(C, K)``
    and ``(K, C)`` get silently transposed.  Every ndarray parameter
    needs either a ``@shape_contract`` decorator or a docstring naming
    the parameter and at least one ``(B, C, K)``-style shape tuple."""

    rule_id = "CL003"
    title = "ndarray parameter without a shape contract"
    rationale = ("shape discipline: (B, C, K) axis conventions must "
                 "be machine-readable at kernel interfaces")

    _SCOPE = ("repro.queueing.kernels", "repro.model.outer")

    def applies(self, module: str) -> bool:
        return module in self._SCOPE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        class_docs: dict[str, str] = {
            node.name: ast.get_docstring(node) or ""
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }
        for qualname, func in _qualified_functions(ctx.tree):
            array_params = self._array_params(func)
            if not array_params:
                continue
            if self._has_shape_contract_decorator(func):
                continue
            doc = ast.get_docstring(func) or ""
            if func.name == "__init__" and "." in qualname:
                owner = qualname.rsplit(".", 2)[-2]
                doc = doc or class_docs.get(owner, "")
            missing = [name for name in array_params
                       if not re.search(rf"\b{re.escape(name)}\b", doc)]
            if missing:
                yield self.finding(
                    ctx, func,
                    f"'{qualname}' takes ndarray parameter(s) "
                    f"{', '.join(missing)} with no documented shape "
                    "— add a @shape_contract or document each in "
                    "the docstring")
            elif not _SHAPE_PATTERN.search(doc):
                yield self.finding(
                    ctx, func,
                    f"'{qualname}' documents its arrays but gives "
                    "no named shape tuple like (B, C, K) — state "
                    "the expected axes explicitly")

    @staticmethod
    def _array_params(func: ast.FunctionDef) -> list[str]:
        names = []
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.annotation is None:
                continue
            rendered = ast.unparse(arg.annotation)
            if "ndarray" in rendered or "NDArray" in rendered:
                names.append(arg.arg)
        return names

    @staticmethod
    def _has_shape_contract_decorator(func: ast.FunctionDef) -> bool:
        for deco in func.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if isinstance(target, ast.Name) \
                    and target.id == "shape_contract":
                return True
            if isinstance(target, ast.Attribute) \
                    and target.attr == "shape_contract":
                return True
        return False


# ---------------------------------------------------------------------------
# CL004 — telemetry purity: hooks observe, they do not mutate
# ---------------------------------------------------------------------------

_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "pop", "popleft",
    "remove", "discard", "clear", "extend", "insert", "setdefault",
    "sort", "reverse", "write",
})


@register
class TelemetryMutation(Rule):
    """The telemetry-off/on equivalence test only holds if sampling
    hooks are pure observers: a telemetry method may mutate ``self``
    (its own counters) but never the simulation objects handed to it."""

    rule_id = "CL004"
    title = "telemetry hook mutates observed simulation state"
    rationale = ("telemetry purity: traced and untraced runs must "
                 "stay bit-identical, so hooks cannot write to the "
                 "objects they sample")

    def applies(self, module: str) -> bool:
        return module == "repro.testbed.telemetry"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for qualname, func in _qualified_functions(ctx.tree):
            external = {
                arg.arg
                for arg in (*func.args.posonlyargs, *func.args.args,
                            *func.args.kwonlyargs)
            } - {"self", "cls"}
            if not external:
                continue
            yield from self._check_body(ctx, qualname, func, external)

    def _check_body(self, ctx: ModuleContext, qualname: str,
                    func: ast.FunctionDef,
                    external: set[str]) -> Iterator[Finding]:
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            elif isinstance(node, ast.Call):
                fn = node.func
                if (isinstance(fn, ast.Attribute)
                        and fn.attr in _MUTATOR_METHODS
                        and _root_name(fn.value) in external):
                    root = _root_name(fn.value)
                    yield self.finding(
                        ctx, node,
                        f"'{qualname}' calls mutator "
                        f"'.{fn.attr}()' on observed object "
                        f"'{root}' — telemetry hooks must not "
                        "modify simulation state")
                continue
            for target in targets:
                if not isinstance(target, (ast.Attribute,
                                           ast.Subscript)):
                    continue
                root = _root_name(target)
                if root in external:
                    yield self.finding(
                        ctx, node,
                        f"'{qualname}' writes to observed object "
                        f"'{root}' — telemetry hooks must not "
                        "modify simulation state")


# ---------------------------------------------------------------------------
# CL005 — dict-based solver facade banned inside kernel internals
# ---------------------------------------------------------------------------

_DICT_API_SYMBOLS = frozenset({
    "ClosedNetwork", "NetworkSolution", "ServiceCenter",
    "solve_mva_exact", "solve_mva_approx", "from_network",
    "assemble_solution",
})


@register
class DictApiInKernel(Rule):
    """Kernel internals speak raw arrays; the per-chain dict facade
    (``ClosedNetwork``/``NetworkSolution``) belongs at the boundary
    adapters.  Referencing it inside a hot path reintroduces dict
    traffic per iteration and couples the kernels to the facade."""

    rule_id = "CL005"
    title = "dict-based solver API referenced inside a kernel hot path"
    rationale = ("layering: array kernels must not construct or "
                 "consume the dict-keyed network facade")

    def applies(self, module: str) -> bool:
        return module in HOT_PATHS

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for qualname, func in _hot_functions(ctx):
            for node in ast.walk(func):
                symbol = None
                if isinstance(node, ast.Name) \
                        and node.id in _DICT_API_SYMBOLS:
                    symbol = node.id
                elif isinstance(node, ast.Attribute) \
                        and node.attr in _DICT_API_SYMBOLS:
                    symbol = node.attr
                if symbol is not None:
                    yield self.finding(
                        ctx, node,
                        f"kernel hot path '{qualname}' references "
                        f"dict-based solver API '{symbol}' — keep "
                        "facade conversions in the boundary "
                        "adapters")


# ---------------------------------------------------------------------------
# CL006 — float comparisons without tolerance in solver modules
# ---------------------------------------------------------------------------


@register
class ExactFloatComparison(Rule):
    """``==`` against a float literal in solver numerics is almost
    always a latent convergence bug; compare against a tolerance.
    Structural exact-zero tests (``demand != 0.0`` deciding whether a
    chain visits a center at all) are the one sanctioned exception."""

    rule_id = "CL006"
    title = "exact float-literal comparison in solver code"
    rationale = ("numerics: solver comparisons against float "
                 "literals need an explicit tolerance; only exact-"
                 "zero structure tests are safe")

    def applies(self, module: str) -> bool:
        return (module.startswith("repro.queueing.")
                or module.startswith("repro.planner.")
                or module in (
                    "repro.model.outer", "repro.model.solver",
                    "repro.model.solver_reference",
                    "repro.model.open_solver", "repro.model.locking",
                    "repro.model.demands", "repro.model.remote",
                    "repro.model.phases"))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands,
                                       operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if (isinstance(side, ast.Constant)
                            and isinstance(side.value, float)
                            and side.value != 0.0):
                        yield self.finding(
                            ctx, node,
                            f"exact comparison against float "
                            f"literal {side.value!r} — use a "
                            "tolerance (math.isclose / abs(a-b) "
                            "< tol); only == 0.0 structure tests "
                            "are exempt")


# ---------------------------------------------------------------------------
# CL007 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray",
                            "defaultdict", "deque", "Counter"})


@register
class MutableDefaultArgument(Rule):
    """A mutable default is shared across every call of the function;
    for solver entry points that accumulate stats dicts this turns
    independent solves into coupled ones."""

    rule_id = "CL007"
    title = "mutable default argument"
    rationale = ("hygiene: default values are evaluated once; "
                 "mutable ones leak state between calls")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for qualname, func in _qualified_functions(ctx.tree):
            args = func.args
            for default in (*args.defaults, *args.kw_defaults):
                if default is None:
                    continue
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in "
                        f"'{qualname}' — default to None and "
                        "allocate inside the body")

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fn = node.func
            name = (fn.id if isinstance(fn, ast.Name)
                    else fn.attr if isinstance(fn, ast.Attribute)
                    else None)
            return name in _MUTABLE_CALLS
        return False


# ---------------------------------------------------------------------------
# CL008 — bare except
# ---------------------------------------------------------------------------


@register
class BareExcept(Rule):
    """``except:`` swallows KeyboardInterrupt and SystemExit along
    with the error it meant to catch; name the exception, or use
    ``except BaseException: raise``-style guards when a cleanup path
    really must see everything."""

    rule_id = "CL008"
    title = "bare except clause"
    rationale = ("hygiene: bare except catches KeyboardInterrupt/"
                 "SystemExit and hides programming errors")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) \
                    and node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare 'except:' — catch a named exception "
                    "class (or BaseException with an immediate "
                    "re-raise)")


# ---------------------------------------------------------------------------
# CL009 — obs metric/span names follow the layer.noun_verb grammar
# ---------------------------------------------------------------------------

#: Modules whose imports bind obs API names (``from repro.obs import
#: metrics as obs`` and friends).
_OBS_MODULES = frozenset({"repro.obs", "repro.obs.metrics",
                          "repro.obs.spans"})

#: obs API entry points whose first argument is a metric/span name.
_OBS_NAMED_CALLS = frozenset({"add", "set_gauge", "observe", "span",
                              "record_span"})


@register
class ObsNamingGrammar(Rule):
    """Metric and span names are the join keys of every exported
    timeline and dashboard; one ``CamelCase`` or flat name fragments
    the namespace forever (renaming breaks recorded baselines).  The
    grammar is enforced at first use at runtime
    (:func:`repro.obs.metrics.validate_name`); this rule moves the
    failure to lint time for every *literal* name.  Two detectors:
    calls through imported obs API names are always checked, and
    ``.add()``/``.observe()``/``.set_gauge()``-style method calls are
    checked when the literal already looks dotted.  Names built at
    runtime are out of static reach and stay covered by the runtime
    validator."""

    rule_id = "CL009"
    title = "obs metric/span name off the layer.noun_verb grammar"
    rationale = ("observability: metric and span names must match "
                 "the lowercase dotted grammar (layer.noun_verb) so "
                 "exports aggregate and dashboards stay stable")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        modules, functions = self._obs_bindings(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                continue
            name = first.value
            if not self._is_obs_call(node.func, name, modules,
                                     functions):
                continue
            if not NAME_GRAMMAR.match(name):
                yield self.finding(
                    ctx, first,
                    f"obs name {name!r} breaks the naming grammar — "
                    "use lowercase dotted layer.noun_verb segments "
                    "(e.g. 'cache.hits', 'runner.sweep_solve')")

    @staticmethod
    def _obs_bindings(
            tree: ast.Module) -> tuple[set[str], set[str]]:
        """Local names bound to obs modules and obs API functions."""
        modules: set[str] = set()
        functions: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module == "repro":
                modules.update(alias.asname or alias.name
                               for alias in node.names
                               if alias.name == "obs")
            elif node.module in _OBS_MODULES:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name in ("metrics", "spans"):
                        modules.add(bound)
                    elif alias.name in _OBS_NAMED_CALLS:
                        functions.add(bound)
        return modules, functions

    @staticmethod
    def _is_obs_call(func: ast.expr, name: str, modules: set[str],
                     functions: set[str]) -> bool:
        if isinstance(func, ast.Name):
            return func.id in functions
        if isinstance(func, ast.Attribute) \
                and func.attr in _OBS_NAMED_CALLS:
            if isinstance(func.value, ast.Name) \
                    and func.value.id in modules:
                return True
            # Registry method call on an arbitrary receiver: only a
            # literal that already looks like a dotted metric name is
            # attributable to obs without type information.
            return "." in name
        return False
