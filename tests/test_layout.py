"""Ratchets on src/ code that only tests call, and on what the light modules import.

A public module-level function of src/clext is used when clext.__all__
names it, when bench/ or a module-level statement of src/clext other than
an import (a class body, a table of handlers) refers to it, or when a used
function does.  The public functions that are not used are the ones only
tests reach; they are listed in TEST_ONLY, and the list may only shrink: a
new function that only tests call fails the test, and so does a listed
name that gained a caller or was deleted, until it leaves the list.

The package itself, the state builders and the algebra import no special
functions: neither they nor any clext module they import, directly or
through another, imports specfun, so `import clext` and a command that
needs only them stay cheap to load.
"""

import ast
from pathlib import Path

import pytest

import clext

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY: dict[str, set[str]] = {}


def _names(node) -> set[str]:
    """Every name, attribute and imported name that node refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _test_only() -> dict[str, set[str]]:
    src = sorted((ROOT / "src" / "clext").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    refers: dict[str, set[str]] = {}  # function -> names its body refers to
    public: dict[str, str] = {}  # public function -> module
    roots = set(clext.__all__)
    for path in src + bench:
        for stmt in ast.parse(path.read_text()).body:
            if path in src and isinstance(stmt, ast.FunctionDef):
                refers[stmt.name] = _names(stmt) - {stmt.name}
                if not stmt.name.startswith("_"):
                    public[stmt.name] = path.stem
            elif path not in src or not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    used, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in used:
            used.add(name)
            todo.extend(refers.get(name, ()))
    out: dict[str, set[str]] = {}
    for name, module in public.items():
        if name not in used:
            out.setdefault(module, set()).add(name)
    return out


def test_no_new_function_only_tests_call():
    found = _test_only()
    new = {m: sorted(names - TEST_ONLY.get(m, set())) for m, names in found.items()}
    assert not any(new.values()), f"public functions that only tests call: {new}"


def test_the_test_only_list_only_shrinks():
    found = _test_only()
    stale = {m: sorted(names - found.get(m, set())) for m, names in TEST_ONLY.items()}
    assert not any(stale.values()), f"no longer test-only, drop from TEST_ONLY: {stale}"


def _clext_imports(stem: str) -> set[str]:
    """The clext modules that src/clext/<stem>.py imports by its own statements."""
    out = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "clext" / f"{stem}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("clext."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("clext."))
    return out & {path.stem for path in (ROOT / "src" / "clext").glob("*.py")}


@pytest.mark.parametrize("module", ["__init__", "states", "algebra"])
def test_light_module_does_not_import_specfun(module):
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_clext_imports(name))
    assert "specfun" not in seen, f"clext.{module} imports specfun through {sorted(seen)}"
