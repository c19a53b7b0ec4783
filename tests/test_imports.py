"""Every name a module imports is used in it, and every name the package defines is used.

No linter ships with the toolchain, so these are the project's unused-import
and dead-definition checks.  The first covers the package and the test
modules; ``__init__.py`` is exempt from it because it imports to re-export.
A public name that only the tests call is listed, with its reason, in
``TEST_ONLY_NAMES``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epriccati"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(node):
    """The names a top-level statement lists in ``__all__``: they are re-exported."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return {elt.value for elt in node.value.elts}
    return set()


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used.union(*map(_exported, tree.body))


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports unused names: {unused}"


def _definitions(node):
    """The module-level names a top-level statement defines: functions, classes, constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")}


def _references(node):
    """The names a statement refers to: loaded names, attributes, imports and ``__all__`` entries."""
    refs = _exported(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs |= {alias.name for alias in sub.names}
    return refs


def test_every_definition_is_used():
    # a definition counts as used when some other statement in the package refers to it
    statements = [(p, node) for p in SOURCES for node in ast.parse(p.read_text()).body]
    refs = [_references(node) for _, node in statements]
    dead = []
    for i, (path, node) in enumerate(statements):
        for name in sorted(_definitions(node)):
            if not any(name in r for j, r in enumerate(refs) if j != i):
                dead.append(f"{path.name}:{name}")
    assert not dead, f"definitions used nowhere in src/: {dead}"


# Public names that no package statement calls, each with the reason it stays.
# A new one fails here until it is either used or listed with its reason.
# Those from aux_system on are ROADMAP's "Test-only names", kept for these reasons.
TEST_ONLY_NAMES = {
    "riccati.eval_rhs_ep": "scalar oracle for the batched ep_rhs_into",
    "integrate.integrate_fixed_oracle": "fixed-step oracle for the adaptive integrator",
    "fieldio.read_scalar_field": "reader of the snapshot format that fieldio writes",
    "comparison.d_upper_bound": "closed-form divergence bound the bench's certify check reads",
    "riccati.aux_system": "the 3D auxiliary flow that acceptance criterion 3 integrates",
    "regions.in_omega0": "membership of the auxiliary system's invariant space",
    "regions.s1_flux": "float flux through S1, checked against its sympy lemma",
    "regions.s2_flux": "float flux through S2, checked against its sympy lemma",
}


def test_public_names_without_a_package_caller_are_listed():
    # references from __init__.py and __all__ re-export a name; they do not call it
    statements = [(p, node) for p in MODULES for node in ast.parse(p.read_text()).body]
    refs = [_references(node) - _exported(node) for _, node in statements]
    uncalled = set()
    for i, (path, node) in enumerate(statements):
        for name in _definitions(node):
            public = not name.startswith("_")
            if public and not any(name in r for j, r in enumerate(refs) if j != i):
                uncalled.add(f"{path.stem}.{name}")
    unlisted = sorted(uncalled - TEST_ONLY_NAMES.keys())
    stale = sorted(TEST_ONLY_NAMES.keys() - uncalled)
    assert not unlisted, f"public names only tests call, with no reason listed: {unlisted}"
    assert not stale, f"listed names that the package now calls, or that are gone: {stale}"
