"""det-*: determinism / cache-safety checks.

Every experiment cell must compute bit-identically across runs, machines
and worker counts — the on-disk result cache stores cells by content
address and the parallel engine merges them positionally, so *any*
run-to-run variation silently corrupts sweeps.  These rules flag the usual
entropy sources:

* ``det-unseeded-rng``  — module-level ``random.*`` draws, ``random.Random()``
  / ``numpy.random.default_rng()`` / ``RandomState()`` without a seed, and
  any ``numpy.random.*`` global-state draw — through every import spelling
  (``import numpy``, ``import numpy.random as npr``, ``from numpy import
  random``, ``from numpy.random import shuffle``).
* ``det-time``          — wall/CPU clock reads (``time.time`` et al.,
  ``datetime.now``/``utcnow``/``today``).  The parallel supervisor, the
  throughput bench and the lint CLI alone
  (:data:`MONOTONIC_CLOCK_MODULES`) may read *monotonic* clocks and the
  process's CPU time: the supervisor needs them for timeout deadlines
  and cell durations, the others for timing, and they never flow into
  results.  A ``random`` draw or wall-clock read anywhere else
  (including ``repro.experiments.resilience``) stays flagged.
* ``det-entropy``       — OS entropy (``os.urandom``, ``secrets``,
  ``uuid.uuid1``/``uuid4``, ``random.SystemRandom``).
* ``det-id``            — ``id()`` values, which vary per process.
* ``det-hash``          — ``hash()`` outside ``__hash__``: string hashing is
  salted per process (PYTHONHASHSEED).
* ``det-set-order``     — iterating a ``set`` (or feeding one to
  ``list``/``tuple``/``sum``/``join``/...) without ``sorted``: set order
  depends on the per-process hash salt.
* ``det-env``           — environment reads outside the sanctioned config
  surface (:data:`SANCTIONED_ENV_MODULES`: the result-cache directory
  override and the fault-injection switch): hidden env inputs
  make identical-looking cells differ between hosts.
* ``det-write``         — file writes (``open`` in a ``w``/``a``/``x``/``+``
  mode, ``Path.write_text``/``write_bytes``, ``Path.open("w")``) outside
  the sanctioned output surface (:data:`SANCTIONED_WRITE_MODULES`: trace
  serialisation, metrics/telemetry emission, the cache and the
  throughput-record writer).  A stray write from simulation code can
  race across workers and silently change what a cached cell means.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from .findings import Finding
from .index import PackageIndex
from .source import SourceModule

__all__ = ["RULES", "check", "MONOTONIC_CLOCK_MODULES",
           "SANCTIONED_ENV_MODULES", "SANCTIONED_WRITE_MODULES"]

RULES: Dict[str, str] = {
    "det-unseeded-rng": "unseeded or process-global random number generator",
    "det-time": "wall/CPU clock read in simulation code",
    "det-entropy": "OS entropy source (urandom/secrets/uuid1/uuid4)",
    "det-id": "id() is per-process and must not reach results or cache keys",
    "det-hash": "hash() outside __hash__ is salted per process",
    "det-set-order": "iteration over an unordered set without sorted()",
    "det-env": "environment read outside the sanctioned config surface",
    "det-write": "file write outside the sanctioned output surface",
}

#: Modules allowed to read the environment: the result-cache directory
#: override and the fault-injection switch are the package's sanctioned
#: env-configured knobs.  Add new env inputs here (and to the
#: cache key, if they can change results!) rather than scattering reads.
SANCTIONED_ENV_MODULES = frozenset({
    "repro.experiments.result_cache",
    "repro.experiments.resilience",
})

#: Modules allowed to read monotonic (never wall-clock) clocks and CPU
#: time: the supervisor loop (deadlines and cell durations), the
#: throughput bench harness (``process_time`` deltas are its entire
#: product) and the lint CLI (its ``--metrics`` record carries the run's
#: wall seconds).
#: Clock values there drive *when* a cell runs or *how long it took*,
#: never *what* it computes.
MONOTONIC_CLOCK_MODULES = frozenset({
    "repro.experiments.parallel",
    "repro.experiments.bench_baseline",
    "repro.lint.cli",
})

#: Modules allowed to open files for writing.  Everything else — the
#: simulator core, predictors, trace generation, figures — must stay
#: side-effect free so cells are pure functions of their parameters;
#: telemetry and metrics leave the process only through
#: ``repro.obs.metrics`` and these writers.
SANCTIONED_WRITE_MODULES = frozenset({
    "repro.trace.stream",
    "repro.obs.metrics",
    "repro.experiments.result_cache",
    # The throughput-record writer: BENCH_throughput.json is a committed
    # artifact, produced on explicit request, never from a suite cell.
    "repro.experiments.bench_baseline",
})

_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "weibullvariate", "triangular", "vonmisesvariate", "getrandbits",
    "randbytes", "binomialvariate", "seed",
})
_NUMPY_DRAWS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "exponential", "poisson", "binomial", "bytes",
    "seed",
})
_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
})
#: Clock reads with no wall-time meaning (monotonic intervals and the
#: process's own CPU time), tolerated in MONOTONIC_CLOCK_MODULES only.
_MONOTONIC_FUNCS = frozenset({
    "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns",
})
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_WRITE_MODE_CHARS = frozenset("wax+")
_SET_SINKS = frozenset({"list", "tuple", "iter", "enumerate", "sum", "map",
                        "filter", "reversed"})


def _resolves_to(index: PackageIndex, module: str, name: str,
                 target: str) -> bool:
    return index.resolve(module, name) == target


def _write_mode(node: ast.Call, position: int) -> Optional[str]:
    """Constant write-mode string of an ``open``-style call, if any.

    ``position`` is where the mode argument sits positionally: 1 for the
    ``open(file, mode)`` builtin, 0 for ``Path.open(mode)``.  A
    non-constant mode is treated as read (the common dynamic case is
    plumbing a caller-supplied "r").
    """
    mode: Optional[ast.expr] = None
    if len(node.args) > position:
        mode = node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(c in _WRITE_MODE_CHARS for c in mode.value)):
        return mode.value
    return None


class _DetVisitor(ast.NodeVisitor):
    def __init__(self, index: PackageIndex, mod: SourceModule):
        self.index = index
        self.mod = mod
        self.findings: List[Finding] = []
        self._func_stack: List[str] = []
        #: Stack of per-scope sets of names currently bound to set values.
        self._set_scopes: List[Set[str]] = [set()]

    # -------------------------------------------------------------- helpers

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule,
            module=self.mod.module,
            path=str(self.mod.path),
            line=node.lineno,
            col=node.col_offset,
            message=message,
            symbol=self._symbol(),
        ))

    def _symbol(self) -> Optional[str]:
        if not self._func_stack:
            return f"{self.mod.module}:<module>"
        return f"{self.mod.module}:{'.'.join(self._func_stack)}"

    def _resolve_name(self, name: str) -> str:
        return self.index.resolve(self.mod.module, name)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_scopes)
        return False

    def _check_iteration(self, iterable: ast.expr, context: str) -> None:
        if self._is_set_expr(iterable):
            self._emit(
                "det-set-order", iterable,
                f"{context} iterates an unordered set; wrap it in sorted() "
                "so result/cache ordering does not depend on the per-process "
                "hash seed",
            )

    # ---------------------------------------------------------------- scopes

    def _visit_function(self, node) -> None:
        self._func_stack.append(node.name)
        self._set_scopes.append(set())
        self.generic_visit(node)
        self._set_scopes.pop()
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                scope = self._set_scopes[-1]
                if self._is_set_expr(node.value):
                    scope.add(target.id)
                else:
                    scope.discard(target.id)
        self.generic_visit(node)

    # ------------------------------------------------------------ iteration

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, "for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(generator.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # ----------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func

        if isinstance(func, ast.Name):
            resolved = self._resolve_name(func.id)
            if func.id == "id" and resolved == "id":
                self._emit(
                    "det-id", node,
                    "id() changes between processes; it must never flow "
                    "into results, cache keys or ordering",
                )
            elif func.id == "hash" and resolved == "hash":
                if "__hash__" not in self._func_stack:
                    self._emit(
                        "det-hash", node,
                        "hash() of strings is salted per process "
                        "(PYTHONHASHSEED); use repro.common.hashing for "
                        "stable hashes",
                    )
            elif func.id in _SET_SINKS and node.args:
                self._check_iteration(node.args[0], f"{func.id}()")
            # from-imports of RNG constructors / draws.
            if resolved.startswith("random.") and (
                resolved.split(".", 1)[1] in _RANDOM_DRAWS
            ):
                self._emit(
                    "det-unseeded-rng", node,
                    f"{resolved}() draws from the process-global RNG; use a "
                    "seeded random.Random instance",
                )
            elif resolved in ("numpy.random.default_rng",
                              "numpy.random.RandomState") and not node.args:
                self._emit(
                    "det-unseeded-rng", node,
                    f"{resolved}() without a seed is OS-entropy seeded",
                )
            elif resolved.startswith("numpy.random.") and (
                resolved.rsplit(".", 1)[1] in _NUMPY_DRAWS
            ):
                # from numpy.random import shuffle / seed / rand / ...
                self._emit(
                    "det-unseeded-rng", node,
                    f"{resolved}() uses numpy's global RNG state; use "
                    "numpy.random.default_rng(seed)",
                )
            elif resolved == "random.Random" and not node.args:
                self._emit(
                    "det-unseeded-rng", node,
                    "random.Random() without a seed is OS-entropy seeded",
                )
            elif resolved == "os.urandom":
                self._emit("det-entropy", node,
                           "os.urandom() is nondeterministic by design")
            elif resolved in ("uuid.uuid1", "uuid.uuid4"):
                self._emit("det-entropy", node,
                           f"{resolved}() embeds host/OS entropy")
            elif resolved == "os.getenv":
                self._check_env(node)
            elif resolved == "open":
                mode = _write_mode(node, 1)
                if mode is not None:
                    self._check_write(node, f"open(..., {mode!r})")

        elif isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)

        self.generic_visit(node)

    def _check_attribute_call(self, node: ast.Call,
                              func: ast.Attribute) -> None:
        attr = func.attr
        value = func.value

        if attr in ("write_text", "write_bytes"):
            self._check_write(node, f".{attr}()")
        elif attr == "open":
            mode = _write_mode(node, 0)
            if mode is not None:
                self._check_write(node, f".open({mode!r})")

        # <name>.<attr>(...) with <name> an imported module (or class).
        if isinstance(value, ast.Name):
            resolved = self._resolve_name(value.id)
            if resolved == "random":
                if attr in _RANDOM_DRAWS:
                    self._emit(
                        "det-unseeded-rng", node,
                        f"random.{attr}() uses the process-global RNG "
                        "(seeded from OS entropy); use a seeded "
                        "random.Random instance",
                    )
                elif attr == "Random" and not node.args:
                    self._emit(
                        "det-unseeded-rng", node,
                        "random.Random() without a seed is OS-entropy seeded",
                    )
                elif attr == "SystemRandom":
                    self._emit("det-entropy", node,
                               "random.SystemRandom draws OS entropy")
            elif resolved == "numpy.random":
                # import numpy.random as npr / from numpy import random
                if attr in ("default_rng", "RandomState"):
                    if not node.args:
                        self._emit(
                            "det-unseeded-rng", node,
                            f"numpy.random.{attr}() without a seed is "
                            "OS-entropy seeded",
                        )
                elif attr in _NUMPY_DRAWS:
                    self._emit(
                        "det-unseeded-rng", node,
                        f"numpy.random.{attr}() uses numpy's global RNG "
                        "state; use numpy.random.default_rng(seed)",
                    )
            elif resolved == "time" and attr in _TIME_FUNCS:
                if not (attr in _MONOTONIC_FUNCS
                        and self.mod.module in MONOTONIC_CLOCK_MODULES):
                    self._emit(
                        "det-time", node,
                        f"time.{attr}() reads the clock; simulation results "
                        "must not depend on wall time",
                    )
            elif (resolved in ("datetime", "datetime.datetime",
                               "datetime.date")
                  and attr in _DATETIME_FUNCS):
                self._emit("det-time", node,
                           f"{resolved.split('.')[-1]}.{attr}() reads the "
                           "clock")
            elif resolved == "os":
                if attr == "urandom":
                    self._emit("det-entropy", node,
                               "os.urandom() is nondeterministic by design")
                elif attr == "getenv":
                    self._check_env(node)
            elif resolved == "secrets":
                self._emit("det-entropy", node,
                           f"secrets.{attr}() draws OS entropy")
            elif resolved == "uuid" and attr in ("uuid1", "uuid4"):
                self._emit("det-entropy", node,
                           f"uuid.{attr}() embeds host/OS entropy")
            elif attr == "join" and node.args:
                self._check_iteration(node.args[0], "str.join()")

        # numpy.random.<attr>(...).
        elif isinstance(value, ast.Attribute) and isinstance(value.value,
                                                             ast.Name):
            root = self._resolve_name(value.value.id)
            if root == "numpy" and value.attr == "random":
                if attr in ("default_rng", "RandomState"):
                    if not node.args:
                        self._emit(
                            "det-unseeded-rng", node,
                            f"numpy.random.{attr}() without a seed is "
                            "OS-entropy seeded",
                        )
                elif attr in _NUMPY_DRAWS:
                    self._emit(
                        "det-unseeded-rng", node,
                        f"numpy.random.{attr}() uses numpy's global RNG "
                        "state; use numpy.random.default_rng(seed)",
                    )
            elif attr == "join" and node.args:
                self._check_iteration(node.args[0], "str.join()")
        elif attr == "join" and node.args:
            self._check_iteration(node.args[0], "str.join()")

    # ------------------------------------------------------------------ env

    def _check_write(self, node: ast.AST, description: str) -> None:
        if self.mod.module in SANCTIONED_WRITE_MODULES:
            return
        self._emit(
            "det-write", node,
            f"{description} writes a file outside the sanctioned output "
            "surface (see repro.lint.determinism.SANCTIONED_WRITE_MODULES); "
            "simulation cells must be pure — emit artifacts through "
            "repro.obs.metrics or the cache writer",
        )

    def _check_env(self, node: ast.AST) -> None:
        if self.mod.module in SANCTIONED_ENV_MODULES:
            return
        self._emit(
            "det-env", node,
            "environment read outside the sanctioned config surface "
            "(see repro.lint.determinism.SANCTIONED_ENV_MODULES); hidden "
            "env inputs make cached cells host-dependent",
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Bare os.environ access (subscript, .get, iteration, ...).
        if (node.attr == "environ" and isinstance(node.value, ast.Name)
                and self._resolve_name(node.value.id) == "os"):
            self._check_env(node)
        self.generic_visit(node)


def check(index: PackageIndex) -> List[Finding]:
    findings: List[Finding] = []
    for name in sorted(index.modules):
        mod = index.modules[name]
        visitor = _DetVisitor(index, mod)
        visitor.visit(mod.tree)
        findings.extend(visitor.findings)
    return findings
