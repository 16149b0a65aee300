"""No module of the package flattens its input.

A ``.ravel()``, ``.flatten()``, ``reshape(-1)`` or ``reshape(1, -1)`` reads
a block of rows as one long vector or one instance, so input of the wrong
shape is answered instead of rejected. Input is read through
``sets.one_vector``, ``sets.value_rows`` or an explicit shape check; a
``reshape`` that regroups rows of known length, such as ``reshape(-1, k)``,
stays allowed.
"""

import ast
import pathlib

import fuzzyrough

FLATTENING = {"ravel", "flatten"}
FLAT_SHAPES = {(-1,), (1, -1)}


def _shape(call: ast.Call):
    """The literal shape a ``reshape`` call asks for, or None."""
    args = call.args
    if isinstance(call.func.value, ast.Name) and call.func.value.id in ("np", "numpy"):
        args = args[1:]  # np.reshape(a, shape)
    if len(args) == 1 and isinstance(args[0], (ast.Tuple, ast.List)):
        args = args[0].elts
    try:
        return tuple(ast.literal_eval(arg) for arg in args)
    except ValueError:
        return None


def flattening_calls(source: str, filename: str) -> list[str]:
    """``file:line`` of every call of a ``ravel`` or ``flatten`` attribute, and
    of every ``reshape`` to one row or one vector of unknown length."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and (node.func.attr in FLATTENING
                 or node.func.attr == "reshape" and _shape(node) in FLAT_SHAPES)]


def test_package_calls_no_ravel_or_flatten():
    package = pathlib.Path(fuzzyrough.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 5
    found = [hit for path in sources
             for hit in flattening_calls(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_check_sees_every_spelling():
    source = ("a.ravel()\nnp.ravel(a)\nb = a.flatten(order='F')\nc = a.reshape(-1, 2)\n"
              "d = a.reshape(-1)\ne = a.reshape((1, -1))\nf = np.reshape(a, [-1])\n"
              "g = a.reshape(1, -1)\nh = a.reshape(shape)\ni = a.reshape(2, k)\n")
    assert flattening_calls(source, "m.py") == ["m.py:1", "m.py:2", "m.py:3", "m.py:5",
                                                "m.py:6", "m.py:7", "m.py:8"]
