"""conc-*: fork/worker safety of code reachable from pool workers.

``execute_cells`` fans cells out to a ``ProcessPoolExecutor``; everything
the worker function (``compute_cell``) can reach runs in forked/spawned
children.  Module-level mutable state there is a trap twice over: under
``fork`` it is silently *copied* (mutations diverge per worker, results
depend on scheduling), and under ``spawn`` it is rebuilt from scratch
in every worker.  These rules fence that surface:

* ``conc-mutable-global`` — a module-scope mutable container that the
  module itself mutates, or a module-scope instance of an in-package
  class that is not a frozen dataclass, in any worker-reachable module.
  Deliberate per-process memos (content-keyed caches whose entries are
  pure functions of their keys) carry a suppression pragma saying so.
* ``conc-global-rebind``  — a ``global`` statement rebinding module state
  inside a worker-reachable function: the rebind is per-process and its
  value cannot be trusted across workers.
* ``conc-process-handle`` — a file / lock / socket / subprocess handle
  created at module scope in a worker-reachable module: handles do not
  survive the process boundary (fork shares fds, spawn re-imports), so
  they must be created per worker instead.
* ``conc-socket``         — socket creation anywhere
  (:data:`SOCKET_SANCTIONED_MODULES` is empty).  Cells run on local
  worker processes, and hosts share work by splitting a grid's
  benchmarks and copying cache directories, so no module talks to the
  network; a socket would be an unaudited channel into or out of a
  cell.
* ``conc-file-lock``      — file-locking primitives (``fcntl.flock`` /
  ``lockf``, ``os.open`` with ``O_EXCL``) anywhere
  (:data:`FILE_LOCK_SANCTIONED_MODULES` is empty).  Processes on one
  host share a cache directory through atomic renames of per-writer
  temp files, and hosts share one by copying the directory, since every
  entry verifies itself on load; a cross-process file lock would be a
  second, unaudited writer discipline.

Reachability is the conservative call-graph closure of
:mod:`repro.lint.callgraph` seeded at ``compute_cell``; ``functools``
caches (``lru_cache``) are exempt — they are content-keyed memos the
runtime owns.  The reachability rules stand down when no worker entry
point is in the linted tree; the boundary rules (``conc-socket``,
``conc-file-lock``) scan every module unconditionally.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from .callgraph import CallGraph
from .findings import Finding
from .index import PackageIndex, _dotted
from .source import SourceModule

__all__ = ["RULES", "check", "WORKER_ENTRY_POINTS",
           "SOCKET_SANCTIONED_MODULES", "FILE_LOCK_SANCTIONED_MODULES"]

RULES: Dict[str, str] = {
    "conc-mutable-global": "mutable module-level state in a worker-reachable "
                           "module",
    "conc-global-rebind": "global-statement rebind in worker-reachable code",
    "conc-process-handle": "process-bound handle created at module scope in "
                           "a worker-reachable module",
    "conc-socket": "network socket use",
    "conc-file-lock": "cross-process file-lock primitive",
}

#: (module suffix, function name) seeds for worker reachability: the pure
#: functions the process pool maps over cells.
WORKER_ENTRY_POINTS = (("experiments.parallel", "compute_cell"),)

#: Modules allowed to create sockets: none.  The package does no
#: network I/O (see the ``conc-socket`` entry above).
SOCKET_SANCTIONED_MODULES = frozenset()

#: Modules allowed to take cross-process file locks: none.  Cache
#: writers never lock (see the ``conc-file-lock`` entry above).
FILE_LOCK_SANCTIONED_MODULES = frozenset()

#: Calls that create a network socket.
_SOCKET_CALLS = frozenset({
    "socket.socket", "socket.create_connection", "socket.create_server",
    "socket.socketpair", "socket.fromfd",
})

#: Calls that take (or implement) a cross-process file lock.
_FILE_LOCK_CALLS = frozenset({
    "fcntl.flock", "fcntl.lockf", "msvcrt.locking",
})

#: Constructors whose module-scope result is a mutable container.
_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter", "ChainMap",
})

#: Method names that mutate the container they are called on.
_MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "setdefault", "pop", "popitem", "popleft", "remove",
    "discard", "clear", "move_to_end", "sort", "reverse",
})

#: Calls that produce handles bound to the creating process.
_HANDLE_CALLS = frozenset({
    "open",
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore", "threading.Event",
    "multiprocessing.Lock", "multiprocessing.RLock", "multiprocessing.Queue",
    "multiprocessing.Manager", "multiprocessing.Pool",
    "socket.socket", "sqlite3.connect", "subprocess.Popen",
    "tempfile.NamedTemporaryFile", "tempfile.TemporaryFile",
})


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            name = deco.func
            for kw in deco.keywords:
                if (kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True):
                    if getattr(name, "id", getattr(name, "attr", "")) == \
                            "dataclass":
                        return True
    return False


def _is_enum(index: PackageIndex, qualname: str) -> bool:
    cls = index.classes.get(qualname)
    if cls is None:
        return False
    return index.has_base(cls, ("Enum", "IntEnum", "Flag", "IntFlag",
                                "NamedTuple"))


def _mutations_of(mod: SourceModule) -> Set[str]:
    """Module-global names the module itself mutates or rebinds."""
    mutated: Set[str] = set()
    module_scope: Set[str] = set()
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.Assign):
            module_scope.update(t.id for t in stmt.targets
                                if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                module_scope.add(stmt.target.id)

    def root_name(expr: ast.expr) -> Optional[str]:
        while isinstance(expr, (ast.Subscript, ast.Attribute)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Global):
            mutated.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = root_name(target)
                    if name is not None:
                        mutated.add(name)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = root_name(target)
                if name is not None:
                    mutated.add(name)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATING_METHODS):
            name = root_name(node.func.value)
            if name is not None:
                mutated.add(name)
    return mutated & module_scope


class _ModuleScan:
    """conc findings for one worker-reachable module's top level."""

    def __init__(self, index: PackageIndex, mod: SourceModule):
        self.index = index
        self.mod = mod
        self.findings: List[Finding] = []
        self._mutated = _mutations_of(mod)

    def _emit(self, rule: str, node: ast.AST, name: str,
              message: str) -> None:
        self.findings.append(Finding(
            rule=rule, module=self.mod.module, path=str(self.mod.path),
            line=node.lineno, col=node.col_offset, message=message,
            symbol=f"{self.mod.module}:{name}",
        ))

    def _ctor_name(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            return func.attr
        return None

    def _handle_target(self, call: ast.Call) -> Optional[str]:
        func = call.func
        dotted: Optional[str] = None
        if isinstance(func, ast.Name):
            dotted = self.index.resolve(self.mod.module, func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value,
                                                            ast.Name):
            base = self.index.resolve(self.mod.module, func.value.id)
            dotted = f"{base}.{func.attr}"
        if dotted in _HANDLE_CALLS:
            return dotted
        return None

    def scan(self) -> None:
        for stmt in self.mod.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = stmt.value
            if value is None:
                continue
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue
            self._scan_value(stmt, value, names)

    def _scan_value(self, stmt: ast.stmt, value: ast.expr,
                    names: List[str]) -> None:
        if isinstance(value, ast.Call):
            handle = self._handle_target(value)
            if handle is not None:
                self._emit(
                    "conc-process-handle", stmt, names[0],
                    f"{handle}() at module scope creates a handle that does "
                    "not survive the worker process boundary; create it per "
                    "worker instead",
                )
                return
            ctor = self._ctor_name(value)
            if ctor in _MUTABLE_CTORS:
                self._flag_container(stmt, names)
                return
            dotted = _dotted(value.func)
            if dotted is not None:
                resolved = self.index.resolve(self.mod.module, dotted)
                cls = self.index.classes.get(resolved)
                if (cls is not None and not _is_frozen_dataclass(cls.node)
                        and not _is_enum(self.index, resolved)):
                    self._emit(
                        "conc-mutable-global", stmt, names[0],
                        f"module-scope instance of {resolved} in a "
                        "worker-reachable module; instance state diverges "
                        "per worker process and must not influence results",
                    )
            return
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            self._flag_container(stmt, names)

    def _flag_container(self, stmt: ast.stmt, names: List[str]) -> None:
        for name in names:
            if name in self._mutated:
                self._emit(
                    "conc-mutable-global", stmt, name,
                    f"module-scope container {name!r} is mutated in a "
                    "worker-reachable module; each pool worker sees its own "
                    "copy, so the mutations diverge across processes",
                )


def _resolved_call(index: PackageIndex, module: str,
                   call: ast.Call) -> Optional[str]:
    """Dotted target of a call through the module's import table."""
    func = call.func
    if isinstance(func, ast.Name):
        return index.resolve(module, func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base = index.resolve(module, func.value.id)
        return f"{base}.{func.attr}"
    return None


def _uses_o_excl(call: ast.Call) -> bool:
    """True when any argument expression mentions ``O_EXCL``."""
    values = list(call.args) + [kw.value for kw in call.keywords]
    for value in values:
        for node in ast.walk(value):
            if isinstance(node, ast.Attribute) and node.attr == "O_EXCL":
                return True
            if isinstance(node, ast.Name) and node.id == "O_EXCL":
                return True
    return False


def _boundary_findings(index: PackageIndex) -> List[Finding]:
    """conc-socket / conc-file-lock: whole-package, any nesting depth."""
    findings: List[Finding] = []
    for name in sorted(index.modules):
        mod = index.modules[name]
        socket_ok = name in SOCKET_SANCTIONED_MODULES
        lock_ok = name in FILE_LOCK_SANCTIONED_MODULES
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolved_call(index, name, node)
            if target is None:
                continue
            if not socket_ok and target in _SOCKET_CALLS:
                findings.append(Finding(
                    rule="conc-socket", module=name, path=str(mod.path),
                    line=node.lineno, col=node.col_offset,
                    message=f"{target}() opens a network socket; cells "
                            "run on local workers and hosts share work "
                            "by copying cache directories, so no module "
                            "does network I/O",
                    symbol=f"{name}:{target}",
                ))
            elif not lock_ok and (target in _FILE_LOCK_CALLS
                                  or (target == "os.open"
                                      and _uses_o_excl(node))):
                findings.append(Finding(
                    rule="conc-file-lock", module=name, path=str(mod.path),
                    line=node.lineno, col=node.col_offset,
                    message=f"{target}() takes a cross-process file lock; "
                            "cache writers share a directory through "
                            "atomic renames and hosts share a cache by "
                            "copying its self-verifying entries, so no "
                            "module locks files",
                    symbol=f"{name}:{target}",
                ))
    return findings


def _rebind_findings(index: PackageIndex, graph: CallGraph,
                     reachable_functions: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    for qualname in sorted(reachable_functions):
        info = graph.functions[qualname]
        mod = index.modules.get(info.module)
        if mod is None:
            continue
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                findings.append(Finding(
                    rule="conc-global-rebind", module=info.module,
                    path=str(mod.path), line=node.lineno,
                    col=node.col_offset,
                    message=f"worker-reachable {info.qualname} rebinds "
                            f"global(s) {', '.join(node.names)}; the rebind "
                            "is per-process and invisible to other workers",
                    symbol=info.qualname,
                ))
    return findings


def check(index: PackageIndex) -> List[Finding]:
    findings: List[Finding] = _boundary_findings(index)

    seeds = []
    for suffix, func_name in WORKER_ENTRY_POINTS:
        for module in sorted(index.modules):
            if module == suffix or module.endswith("." + suffix):
                qualname = f"{module}:{func_name}"
                if f"{module}.{func_name}" in index.functions:
                    seeds.append(qualname)
    if not seeds:
        return findings

    graph = CallGraph(index)
    reach = graph.reachable(seeds)

    for module in sorted(reach.modules):
        mod = index.modules.get(module)
        if mod is None:
            continue
        scan = _ModuleScan(index, mod)
        scan.scan()
        findings.extend(scan.findings)
    findings.extend(_rebind_findings(index, graph, reach.functions))
    return findings
