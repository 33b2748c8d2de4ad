import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multdep"

# the modules that compute; report and cli only render floats
EXACT_MODULES = ("arith", "relations", "latticecount", "slicevol", "constants")
MATH_FLOAT_FUNCS = {"sqrt", "log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "pow"}


def _float_uses(tree):
    """(line, what) for every float the math could touch in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr in MATH_FLOAT_FUNCS:
                yield node.lineno, f"math.{node.attr}"
            elif node.value.id in ("np", "numpy") and node.attr.startswith("float"):
                yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in MATH_FLOAT_FUNCS:
                    yield node.lineno, f"from math import {alias.name}"


def test_exact_modules_use_no_floats():
    # docstrings may speak of floats; code may not create or call one
    found = [
        f"{name}.py:{line}: {what}"
        for name in EXACT_MODULES
        for line, what in _float_uses(ast.parse((SRC / f"{name}.py").read_text()))
    ]
    assert not found, found


def test_exact_modules_use_no_assert():
    # a check that ``python -O`` strips is no check: the exact modules raise
    found = [
        f"{name}.py:{node.lineno}: assert"
        for name in EXACT_MODULES
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
