"""Ratchets on src/ code and knobs that only tests use, and on what the light modules import.

A public module-level function of src/clext is used when clext.__all__
names it, when bench/ or a module-level statement of src/clext other than
an import (a table of handlers, a class body outside its methods) refers
to it, or when a used function or method does.  A public method or
property of a src/clext class is used when one of those refers to it as
an attribute (obj.name); a dunder method counts as used.  The public
functions that are not used are the ones only tests reach; they are listed
in TEST_ONLY, the methods (as Class.name) in TEST_ONLY_METHODS, and both
lists may only shrink: a new function or method that only tests call
fails the test, and so does a listed name that gained a caller or was
deleted, until it leaves the list.  Names are matched by name alone, so a
method counts as used when any attribute of its name is.

Likewise every defaulted parameter of a public module-level function of
src/clext must be set, by keyword or by position, by some call in src/ or
bench/ (a call with *args sets every positional one, one with **kwargs
all); the ones only tests set are listed in TEST_ONLY_PARAMS, which may
only shrink.

The four Meijer-G routes of specfun.g_general_vec take exactly (a, b, y,
tol, shifts), so that the router calls each the same way.  Every other
parameter of a module-level function or method of src/clext is read in its
body, and every name that clext.__all__ or clext.specfun.__all__ exports is
referred to in src/clext outside its own definition and its imports, or in
bench/.  No function of src/clext but apply_realization refers to the
private realizations of clext.bargmann (_apply_sector, _apply_vector_alpha0,
_apply_eigenstate), apart from _apply_vector_alpha0's family-0 call of
_apply_sector.  No function of src/clext takes both a mu and an alpha
parameter, and no class holds both as fields: sector = (mu, alpha) is one
argument.

The package itself, the state builders and the algebra import no special
functions: neither they nor any clext module they import, directly or
through another, imports specfun, so `import clext` and a command that
needs only them stay cheap to load.
"""

import ast
import inspect
from pathlib import Path

import pytest

import clext
from clext import specfun

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY: dict[str, set[str]] = {}

# module -> Class.method; EigenstateMeasures.g and .h are wrapped by name in
# bench/tracing.py METHODS, which refers to them as strings, not attributes
TEST_ONLY_METHODS: dict[str, set[str]] = {
    "measures": {"EigenstateMeasures.g", "EigenstateMeasures.h"},
}

# function -> its defaulted parameters that no call in src/ or bench/ sets
TEST_ONLY_PARAMS: dict[str, set[str]] = {
    "intertwining_residual": {"mu_op"},
}


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


def _refers(node) -> set[str]:
    """_names of node, plus ".attr" for each attribute it refers to."""
    return _names(node) | {"." + sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _test_only(methods: bool = False) -> dict[str, set[str]]:
    """The public functions, or methods (as Class.name), that nothing but
    tests reaches, by module.  A method is the node ".name" of the walk."""
    src = sorted((ROOT / "src" / "clext").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    refers: dict[str, set[str]] = {}  # function or ".method" -> what its body refers to
    public: dict[str, tuple[str, str]] = {}  # function or Class.method -> (module, node)
    roots = set(clext.__all__)
    for path in src + bench:
        for stmt in ast.parse(path.read_text()).body:
            if path in src and isinstance(stmt, ast.FunctionDef):
                refers[stmt.name] = _refers(stmt) - {stmt.name}
                if not stmt.name.startswith("_"):
                    public[stmt.name] = (path.stem, stmt.name)
            elif path in src and isinstance(stmt, ast.ClassDef):
                roots |= set().union(*map(_refers, stmt.decorator_list + stmt.bases))
                for item in stmt.body:
                    # fields, and the dunder methods python calls itself
                    if not isinstance(item, ast.FunctionDef) or item.name.startswith("__"):
                        roots |= _refers(item)
                        continue
                    node = "." + item.name
                    refers[node] = refers.get(node, set()) | _refers(item)
                    if not item.name.startswith("_"):
                        public[f"{stmt.name}.{item.name}"] = (path.stem, node)
            elif path not in src or not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _refers(stmt)
    used, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in used:
            used.add(name)
            todo.extend(refers.get(name, ()))
    out: dict[str, set[str]] = {}
    for name, (module, node) in public.items():
        if node not in used and ("." in name) == methods:
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


def test_no_new_method_only_tests_call():
    found = _test_only(methods=True)
    new = {m: sorted(names - TEST_ONLY_METHODS.get(m, set())) for m, names in found.items()}
    assert not any(new.values()), f"public methods and properties that only tests call: {new}"


def test_the_test_only_methods_list_only_shrinks():
    found = _test_only(methods=True)
    stale = {m: sorted(names - found.get(m, set())) for m, names in TEST_ONLY_METHODS.items()}
    assert not any(stale.values()), f"no longer test-only, drop from TEST_ONLY_METHODS: {stale}"


def _unset_params() -> dict[str, set[str]]:
    src = sorted((ROOT / "src" / "clext").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in src + bench}
    params: dict[str, list[str]] = {}  # public function -> positional parameter names
    unset: dict[str, set[str]] = {}
    for path in src:
        for stmt in trees[path].body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                args = stmt.args
                positional = args.posonlyargs + args.args
                params[stmt.name] = [arg.arg for arg in positional]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                unset[stmt.name] = {arg.arg for arg in defaulted}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in unset:
                continue
            if any(kw.arg is None for kw in call.keywords):
                unset[name].clear()
            unset[name] -= {kw.arg for kw in call.keywords}
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            unset[name] -= set(params[name] if starred else params[name][:len(call.args)])
    return {name: names for name, names in unset.items() if names}


def test_no_new_parameter_only_tests_set():
    found = _unset_params()
    new = {f: sorted(names - TEST_ONLY_PARAMS.get(f, set())) for f, names in found.items()}
    assert not any(new.values()), f"defaulted parameters that only tests set: {new}"


def test_the_test_only_params_list_only_shrinks():
    found = _unset_params()
    stale = {f: sorted(names - found.get(f, set())) for f, names in TEST_ONLY_PARAMS.items()}
    assert not any(stale.values()), f"set outside tests, drop from TEST_ONLY_PARAMS: {stale}"


# function -> the private realizations of clext.bargmann it may refer to: the
# others reach them through apply_realization; the vector basis's N, J0, J+-
# are family 0 of the sector realization
REALIZATIONS = {"_apply_sector", "_apply_vector_alpha0", "_apply_eigenstate"}
REALIZATION_CALLERS = {"apply_realization": REALIZATIONS, "_apply_vector_alpha0": {"_apply_sector"}}


def test_realizations_are_reached_through_apply_realization():
    found = {}
    for path in sorted((ROOT / "src" / "clext").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                if isinstance(node, ast.FunctionDef):
                    refs = _names(node) & REALIZATIONS - REALIZATION_CALLERS.get(node.name, set())
                    if refs:
                        found[f"{path.stem}.{node.name}"] = sorted(refs)
    assert not found, f"functions that bypass apply_realization: {found}"


def test_a_family_is_one_sector_argument():
    # sector = (mu, alpha) names a family: no function takes mu and alpha as
    # two parameters, and no class holds them as two fields
    found = []
    for path in sorted((ROOT / "src" / "clext").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            elif isinstance(node, ast.ClassDef):
                names = {item.target.id for item in node.body
                         if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
            else:
                continue
            if {"mu", "alpha"} <= names:
                found.append(f"{path.stem}.{node.name}")
    assert not found, f"functions and classes that take mu and alpha apart: {found}"


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


ROUTES = ("_closed_vec", "_slater_vec", "_expansion_vec", "_continuation_vec")


@pytest.mark.parametrize("route", ROUTES)
def test_meijer_routes_share_one_signature(route):
    params = list(inspect.signature(getattr(specfun, route)).parameters)
    assert params == ["a", "b", "y", "tol", "shifts"], params


def test_every_parameter_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "clext").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                if not isinstance(node, ast.FunctionDef) or node.name in ROUTES:
                    continue
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
                read = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
                unread += [f"{path.stem}.{node.name}({p})" for p in params if p not in read]
    assert not unread, f"parameters that their function never reads: {unread}"


def test_every_export_is_used():
    refs = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        refs |= _names(ast.parse(path.read_text()))
    for path in sorted((ROOT / "src" / "clext").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                refs |= _names(stmt) - {getattr(stmt, "name", None)}
    unused = sorted(set(clext.__all__ + specfun.__all__) - refs)
    assert not unused, f"exported names that nothing in src/ or bench/ uses: {unused}"
