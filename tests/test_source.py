"""Checks on the source text of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nldd"


def unread_parameters(src: Path = SRC) -> list[str]:
    """``module.function(parameter)`` for every parameter of a function or
    lambda in ``src`` that its body never reads (``self`` and ``cls`` aside)."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            found += [f"{path.stem}.{name}({p})" for p in params if p not in read | {"self", "cls"}]
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == []
