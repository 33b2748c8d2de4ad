import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multdep"

# the smallest-prime-factor sieve and its growth rule belong to arith; other
# modules factorize through arith's public functions
SIEVE_NAMES = {"_spf_table", "_grow_spf", "SIEVE_LIMIT"}


def _names(tree):
    """(line, name) for every identifier ``tree`` reads, sets, imports or
    takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name


def test_only_arith_touches_the_sieve():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "arith"
        for line, name in _names(ast.parse(path.read_text()))
        if name in SIEVE_NAMES
    ]
    assert not found, found


# the sweep's stages are picked in one place: ``count_S`` alone names the
# cell sweep and the classify stages
STAGE_NAMES = {"_solutions", "_classify_block", "_deep_residue"}


def test_only_count_S_picks_the_sweep_stage():
    tree = ast.parse((SRC / "latticecount.py").read_text())
    found = [
        f"{getattr(node, 'name', 'module')}:{line}: {name}"
        for node in tree.body
        if getattr(node, "name", None) != "count_S"
        for line, name in _names(node)
        if name in STAGE_NAMES
    ]
    assert not found, found


# ``relations`` alone picks where the deep stage's Gram matrices come from
# (the table of value-pair inner products or the laid-out exponent rows):
# ``latticecount`` hands it value rows and names no part of either source
GRAM_NAMES = {"exponent_stack", "_gram", "factor_table"}


def test_latticecount_hands_relations_values_only():
    found = [
        f"latticecount.py:{line}: {name}"
        for line, name in _names(ast.parse((SRC / "latticecount.py").read_text()))
        if name in GRAM_NAMES
    ]
    assert not found, found
