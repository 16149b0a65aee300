"""No module of the package flattens its input.

A ``.ravel()`` or ``.flatten()`` reads a block of rows as one long vector,
so input of the wrong shape is answered instead of rejected. Input is read
through ``sets.one_vector``, ``sets.value_rows`` or an explicit shape check;
a ``reshape`` that regroups rows of known length stays allowed.
"""

import ast
import pathlib

import fuzzyrough

FLATTENING = {"ravel", "flatten"}


def flattening_calls(source: str, filename: str) -> list[str]:
    """``file:line`` of every call of a ``ravel`` or ``flatten`` attribute."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in FLATTENING]


def test_package_calls_no_ravel_or_flatten():
    package = pathlib.Path(fuzzyrough.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 5
    found = [hit for path in sources
             for hit in flattening_calls(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_check_sees_every_spelling():
    source = "a.ravel()\nnp.ravel(a)\nb = a.flatten(order='F')\nc = a.reshape(-1, 2)\n"
    assert flattening_calls(source, "m.py") == ["m.py:1", "m.py:2", "m.py:3"]
