"""Every parameter of a package function is read in its body.

A parameter that no code reads is an interface promise the function does not
keep.  Parameters whose name starts with ``_`` are exempt: they stand where an
interface fixes the signature (a base-class stub, a right-hand side that does
not depend on time).  So are the receivers ``self`` and ``cls``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epriccati"
MODULES = sorted(PACKAGE.glob("*.py"))
RECEIVERS = {"self", "cls"}


def _unread_parameters(tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        for p in params:
            if not p.arg.startswith("_") and p.arg not in RECEIVERS | read:
                yield f"{name}({p.arg}) at line {node.lineno}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = list(_unread_parameters(ast.parse(path.read_text())))
    assert not unread, f"{path.name} has unread parameters: {unread}"
