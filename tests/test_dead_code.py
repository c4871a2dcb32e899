"""Dead-code guard over ``src/repro``, by source parsing alone.

Two rules keep code that nothing runs from piling up again:

* no module other than a package ``__init__.py`` imports a name it never
  uses (ruff's F401 is outside the project's ruff selection);
* every public top-level function and class is referenced somewhere other
  than its own definition and the package ``__init__`` re-exports: in
  ``src/repro``, ``bench/``, ``benchmarks/``, ``examples/`` or
  ``scripts/``.  Tests alone do not keep code alive; the few oracles that
  tests compare production code against are allowlisted with a reason.

Nothing here imports the package: the rules read the files as text.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("bench", "benchmarks", "examples", "scripts")

#: Public names that only tests reach, and why they stay.
REFERENCE_ALLOWLIST = {
    "warm_hierarchy": "replayed warmup; the oracle that tests compare "
                      "WarmupIndex.warm (the MTR path) against",
    "mav_dim": "MAV signature width; tests pin the feature layout with it",
    "cache_info": "fixture-cache instrumentation; tests assert each "
                  "fixture is built once per session with it",
}


def _package_modules(root: Path) -> List[Path]:
    return sorted((root / PACKAGE.relative_to(ROOT)).rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) for every import binding in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _string_annotation_names(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _string_annotation_names(parsed)
        elif isinstance(sub, ast.Name):
            yield sub.id


def _dunder_all(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def _annotation_names(tree: ast.AST) -> Iterator[str]:
    """Names read by annotations, quoted ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in annotations:
            if annotation is not None:
                yield from _string_annotation_names(annotation)


def _used_names(tree: ast.Module) -> Set[str]:
    """Names a module reads: loads, annotations and ``__all__``."""
    used = _dunder_all(tree) | set(_annotation_names(tree))
    used.update(node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name))
    return used


def unused_imports(root: Path = ROOT) -> List[str]:
    found = []
    for path in _package_modules(root):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        used = _used_names(tree)
        for name, line in _imported_names(tree):
            if name not in used:
                found.append(f"{path.relative_to(root)}:{line}: {name}")
    return found


def _public_definitions(root: Path) -> Dict[str, List[str]]:
    """Public top-level function/class name -> defining modules."""
    defs: Dict[str, List[str]] = {}
    for path in _package_modules(root):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.setdefault(node.name, []).append(
                    str(path.relative_to(root)))
    return defs


def _python_references(path: Path) -> Set[str]:
    """Names a file reads, outside the body of a same-named definition.

    Imports and ``__all__`` entries are not reads, so a package
    ``__init__`` re-export keeps nothing alive.
    """
    refs: Set[str] = set()
    for top in _parse(path).body:
        names = set(_annotation_names(top))
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(getattr(top, "name", None))
        refs |= names
    return refs


def unreferenced_definitions(root: Path = ROOT) -> Dict[str, List[str]]:
    """Public definition name -> modules, for names with no caller."""
    refs: Set[str] = set()
    for path in _package_modules(root):
        refs |= _python_references(path)
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix == ".py":
                refs |= _python_references(path)
            elif path.suffix == ".sh":
                refs.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return {name: modules
            for name, modules in _public_definitions(root).items()
            if name not in refs}


class TestDeadCode:
    def test_no_module_imports_a_name_it_never_uses(self):
        assert unused_imports() == []

    def test_every_public_definition_has_a_caller_outside_tests(self):
        dead = unreferenced_definitions()
        assert sorted(f"{module}: {name}" for name, modules in dead.items()
                      if name not in REFERENCE_ALLOWLIST
                      for module in modules) == []

    def test_allowlist_holds_only_uncalled_definitions(self):
        # An entry that gained a caller (or lost its definition) goes.
        assert sorted(unreferenced_definitions().keys()
                      & REFERENCE_ALLOWLIST.keys()) == sorted(
                          REFERENCE_ALLOWLIST)


def _tree(tmp_path: Path, files: Dict[str, str]) -> Path:
    """A throwaway repository root holding ``files`` (path -> source)."""
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


class TestUnusedImportRule:
    """The import rule on small synthetic packages."""

    def _findings(self, tmp_path, source, name="src/repro/mod.py"):
        return unused_imports(_tree(tmp_path, {name: source}))

    def test_flags_an_unused_import(self, tmp_path):
        assert self._findings(tmp_path, "import os\n") == [
            "src/repro/mod.py:1: os"]

    def test_flags_an_unused_from_import_by_line(self, tmp_path):
        source = "import os\nfrom typing import Dict, List\nos.sep\n"
        assert self._findings(tmp_path, source) == [
            "src/repro/mod.py:2: Dict", "src/repro/mod.py:2: List"]

    def test_alias_is_the_bound_name(self, tmp_path):
        source = "import numpy as np\nnumpy = 1\n"
        assert self._findings(tmp_path, source) == ["src/repro/mod.py:1: np"]

    def test_dotted_import_binds_its_first_segment(self, tmp_path):
        assert self._findings(tmp_path, "import os.path\nos.sep\n") == []

    def test_annotation_use_counts(self, tmp_path):
        source = ("from typing import Dict\n"
                  "def f(x: Dict) -> None:\n    pass\n")
        assert self._findings(tmp_path, source) == []

    def test_quoted_annotation_use_counts(self, tmp_path):
        source = ("from typing import Dict, List\n"
                  "x: 'Dict[str, List[int]]' = {}\n")
        assert self._findings(tmp_path, source) == []

    def test_dunder_all_use_counts(self, tmp_path):
        source = "from .other import thing\n__all__ = ['thing']\n"
        assert self._findings(tmp_path, source) == []

    def test_future_import_is_exempt(self, tmp_path):
        assert self._findings(
            tmp_path, "from __future__ import annotations\n") == []

    def test_package_init_may_reexport(self, tmp_path):
        assert self._findings(tmp_path, "from .mod import thing\n",
                              name="src/repro/__init__.py") == []


class TestUnreferencedDefinitionRule:
    """The reference rule on small synthetic repositories."""

    def test_uncalled_public_function_is_reported(self, tmp_path):
        root = _tree(tmp_path, {"src/repro/mod.py": "def orphan():\n"
                                                    "    pass\n"})
        assert unreferenced_definitions(root) == {
            "orphan": ["src/repro/mod.py"]}

    def test_private_definitions_are_exempt(self, tmp_path):
        root = _tree(tmp_path, {"src/repro/mod.py": "def _helper():\n"
                                                    "    pass\n"})
        assert unreferenced_definitions(root) == {}

    def test_call_inside_the_package_keeps_it(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": "def used():\n    pass\n",
            "src/repro/user.py": "from .mod import used\nused()\n"})
        assert unreferenced_definitions(root) == {}

    def test_reexport_alone_does_not_keep_it(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": "class Orphan:\n    pass\n",
            "src/repro/__init__.py": "from .mod import Orphan\n"
                                     "__all__ = ['Orphan']\n"})
        assert unreferenced_definitions(root) == {
            "Orphan": ["src/repro/mod.py"]}

    def test_self_reference_does_not_keep_it(self, tmp_path):
        root = _tree(tmp_path, {"src/repro/mod.py": (
            "def loop(n):\n    return loop(n - 1) if n else 0\n")})
        assert unreferenced_definitions(root) == {
            "loop": ["src/repro/mod.py"]}

    def test_attribute_access_keeps_it(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": "def used():\n    pass\n",
            "src/repro/user.py": "from . import mod\nmod.used()\n"})
        assert unreferenced_definitions(root) == {}

    @pytest.mark.parametrize("directory", CALLER_DIRS)
    def test_caller_directory_keeps_it(self, tmp_path, directory):
        root = _tree(tmp_path, {
            "src/repro/mod.py": "def used():\n    pass\n",
            f"{directory}/run.py": "from repro.mod import used\nused()\n"})
        assert unreferenced_definitions(root) == {}

    def test_shell_script_mention_keeps_it(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": "def drill():\n    pass\n",
            "scripts/drill.sh": "python -c 'from repro.mod import drill'\n"})
        assert unreferenced_definitions(root) == {}

    def test_tests_do_not_keep_it(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": "def orphan():\n    pass\n",
            "tests/test_mod.py": "from repro.mod import orphan\norphan()\n"})
        assert unreferenced_definitions(root) == {
            "orphan": ["src/repro/mod.py"]}
