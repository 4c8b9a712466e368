"""Every parameter of every function in the package is read by its body.

A parameter that no line reads still has to be passed by every caller, and
reads as if it mattered; it is an option that nothing can reach.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dml_ope").glob("*.py"))


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter of a function in ``source`` that
    no name in the function's body, nested functions included, reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for statement in body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{name}({param})" for param in params if param not in read]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_an_unread_parameter_is_found():
    source = ("def score(sa, states, rewards):\n"
              "    def inner(x):\n"
              "        return x + rewards\n"
              "    return inner(sa)\n")
    assert unread_parameters(source) == ["score(states)"]
