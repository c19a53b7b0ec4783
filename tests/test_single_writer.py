"""Only ``cli.main`` writes to stderr.

Commands and library code raise or warn, and ``main`` turns the outcome into
at most one stderr line.  ``print`` without ``file=`` writes to stdout: the
commands in ``cli.py`` use it for their output, and so does the ``__main__``
block of ``config.py``, which prints the schema; no other module prints.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epriccati"
MODULES = sorted(PACKAGE.glob("*.py"))


def _stderr_uses(node, function=None):
    """``(line, innermost enclosing function)`` of every ``stderr`` attribute or name."""
    for child in ast.iter_child_nodes(node):
        if getattr(child, "attr", None) == "stderr" or getattr(child, "id", None) == "stderr":
            yield child.lineno, function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _stderr_uses(child, inner)


def _prints(tree):
    """Line numbers of the ``print`` calls outside an ``if __name__ == "__main__"`` block."""
    main_blocks = [n for n in tree.body if isinstance(n, ast.If) and "__main__" in ast.unparse(n.test)]
    exempt = {id(n) for block in main_blocks for n in ast.walk(block)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "print"
        and id(node) not in exempt
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_main_writes_to_stderr(path):
    tree = ast.parse(path.read_text())
    stray = [line for line, function in _stderr_uses(tree) if (path.name, function) != ("cli.py", "main")]
    assert not stray, f"{path.name} uses stderr outside cli.main at lines {stray}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name)
def test_library_modules_do_not_print(path):
    stray = _prints(ast.parse(path.read_text()))
    assert not stray, f"{path.name} prints at lines {stray}"
