"""Multiplicative dependence of integer vectors.

A vector of nonzero integers (ν_1, ..., ν_n) is multiplicatively dependent
when some nonzero integer vector k satisfies ν_1**k_1 · ... · ν_n**k_n = 1.
Everything here decides that exactly, through linear algebra on the matrix of
prime exponents: row i lists the exponents of |ν_i| over the primes occurring
in the vector.  A relation is an integer vector annihilating every prime
column whose sign product is +1; a kernel vector with sign product −1 is
repaired by doubling, since −1 is 2-torsion.

Witnesses are verified symbolically (per-prime exponent sums and the sign
product), never by evaluating integer powers, so huge exponents are safe.

Vectors must have nonzero coordinates throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import arith


def validate_vector(nu) -> tuple[int, ...]:
    v = tuple(int(x) for x in nu)
    if not v:
        raise ValueError("vector must have dimension >= 1")
    if any(x == 0 for x in v):
        raise ValueError("vector coordinates must be nonzero")
    return v


@dataclass(frozen=True)
class ExponentMatrix:
    """Per-coordinate prime exponent rows (ascending primes) plus sign bits."""

    primes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]


def exponent_matrix(nu) -> ExponentMatrix:
    nu = validate_vector(nu)
    facts = [arith._abs_exponents(abs(x)) for x in nu]
    primes = sorted({p for f in facts for p, _ in f})
    index = {p: i for i, p in enumerate(primes)}
    rows = []
    for f in facts:
        row = [0] * len(primes)
        for p, e in f:
            row[index[p]] = e
        rows.append(tuple(row))
    signs = tuple(1 if x > 0 else -1 for x in nu)
    return ExponentMatrix(tuple(primes), tuple(rows), signs)


# ── exact integer linear algebra ─────────────────────────────────────────


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.  Returns (rows, pivot column list).

    Cross-multiplication keeps every intermediate entry an integer; rows are
    divided by their content to control growth.
    """
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    top = 0
    for col in range(ncols):
        piv = None
        for r in range(top, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        lead = mat[top][col]
        for r in range(top + 1, len(mat)):
            x = mat[r][col]
            if x == 0:
                continue
            row = [lead * a - x * b for a, b in zip(mat[r], mat[top])]
            g = 0
            for a in row:
                g = math.gcd(g, a)
            if g > 1:
                row = [a // g for a in row]
            mat[r] = row
        pivots.append(col)
        top += 1
        if top == len(mat):
            break
    return mat[:top], pivots


def rank_of_rows(rows) -> int:
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    return len(_echelon(rows)[0])


def rank_from_rows(rows, smallest: int = 2) -> int:
    """Multiplicative rank from the exponent rows of a vector with no ±1.

    One full-rank test first: independent rows give n.  Otherwise the rank is
    one less than the size of the smallest dependent subset, scanned in
    increasing size from ``smallest`` (the caller vouches that smaller
    subsets are independent); the whole set being dependent caps it at n − 1.
    """
    n = len(rows)
    if rank_of_rows(rows) == n:
        return n
    for size in range(smallest, n):
        for sub in combinations(range(n), size):
            if rank_of_rows([rows[i] for i in sub]) < size:
                return size - 1
    return n - 1


def right_kernel_basis(rows, ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : M x = 0}, deterministic order.

    One basis vector per free column, ascending; each is reduced by
    ``_primitive`` to content 1 with its first nonzero entry positive.
    """
    ech, pivots = _echelon([list(r) for r in rows if any(r)])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r in range(len(ech) - 1, -1, -1):
            col = pivots[r]
            s = Fraction(0)
            for c in range(col + 1, ncols):
                if ech[r][c]:
                    s += ech[r][c] * x[c]
            x[col] = -s / ech[r][col]
        den = math.lcm(*(q.denominator for q in x))
        basis.append(_primitive([int(q * den) for q in x]))
    return basis


def _relation_lattice_basis(nu) -> list[tuple[int, ...]]:
    """Kernel of the exponent rows (sign ignored): transpose and solve."""
    em = exponent_matrix(nu)
    n = len(em.rows)
    cols = [[em.rows[i][j] for i in range(n)] for j in range(len(em.primes))]
    return right_kernel_basis(cols, n)


def _sign_product(nu, k) -> int:
    s = 0
    for x, e in zip(nu, k):
        if x < 0:
            s += e
    return -1 if s % 2 else 1


def verify_relation(nu, k) -> bool:
    """Symbolic check that ∏ ν_i**k_i = 1: zero exponent sums, sign +1."""
    nu = validate_vector(nu)
    k = tuple(int(e) for e in k)
    if len(k) != len(nu) or not any(k):
        return False
    em = exponent_matrix(nu)
    for col in range(len(em.primes)):
        if sum(e * em.rows[i][col] for i, e in enumerate(k)) != 0:
            return False
    return _sign_product(nu, k) == 1


def is_dependent(nu) -> bool:
    """True iff some nonzero integer k gives ∏ ν_i**k_i = 1.

    A ±1 coordinate makes the vector dependent outright; otherwise the
    exponent rows must be linearly dependent over the rationals (any rational
    kernel vector scales to an integer relation, doubling if the sign product
    comes out −1).
    """
    nu = validate_vector(nu)
    if any(abs(x) == 1 for x in nu):
        return True
    em = exponent_matrix(nu)
    return rank_of_rows(em.rows) < len(nu)


def _primitive(k) -> tuple[int, ...]:
    g = 0
    for a in k:
        g = math.gcd(g, a)
    if g > 1:
        k = [a // g for a in k]
    lead = next((a for a in k if a != 0), 0)
    if lead < 0:
        k = [-a for a in k]
    return tuple(k)


def _verified(nu, k) -> tuple[int, ...]:
    if not verify_relation(nu, k):
        raise ArithmeticError(f"relation witness {k} fails verification for {nu}")
    return k


def relation(nu):
    """A verified relation witness, or None for independent vectors.

    Preference order: unit vector at a coordinate equal to 1; twice a unit
    vector at a coordinate equal to −1; otherwise a kernel vector reduced to
    primitive form, doubled when its sign product is −1.
    """
    nu = validate_vector(nu)
    n = len(nu)
    for i, x in enumerate(nu):
        if x == 1:
            return _verified(nu, tuple(1 if j == i else 0 for j in range(n)))
    for i, x in enumerate(nu):
        if x == -1:
            return _verified(nu, tuple(2 if j == i else 0 for j in range(n)))
    basis = _relation_lattice_basis(nu)
    if not basis:
        return None
    k = _primitive(basis[0])
    if _sign_product(nu, k) == -1:
        k = tuple(2 * a for a in k)
    return _verified(nu, k)


def mult_rank(nu) -> int:
    """Multiplicative rank.

    0 when some coordinate is ±1; otherwise the largest s such that every s
    coordinates are multiplicatively independent (n for a fully independent
    vector), i.e. one less than the size of the smallest dependent subset.
    """
    nu = validate_vector(nu)
    if any(abs(x) == 1 for x in nu):
        return 0
    return rank_from_rows(exponent_matrix(nu).rows)


def full_support_relation(nu):
    """A verified relation with every exponent nonzero, or None.

    Exists iff the relation kernel is not contained in any coordinate
    hyperplane {k_i = 0}.  A combination of the kernel basis with coefficients
    1, L, L², ... is generically full-support; L grows on the rare collision.
    """
    nu = validate_vector(nu)
    n = len(nu)
    basis = _relation_lattice_basis(nu)
    if not basis:
        return None
    for i in range(n):
        if all(b[i] == 0 for b in basis):
            return None
    maxabs = max(abs(a) for b in basis for a in b)
    L = 1 + maxabs * n
    while True:
        k = [0] * n
        w = 1
        for b in basis:
            for i in range(n):
                k[i] += w * b[i]
            w *= L
        if all(k):
            k = _primitive(k)
            if _sign_product(nu, k) == -1:
                k = tuple(2 * a for a in k)
            if all(k) and verify_relation(nu, k):
                return tuple(k)
        L += 1 + maxabs


def fatal_triple(N: int) -> tuple[int, int, int, tuple[int, ...]] | None:
    """First triple a < b < c with a + b + c = N that has a full-support relation.

    Returns (a, b, c, k) for the first hit in increasing a, then b, or None.
    """
    for a in range(1, N // 3 + 1):
        for b in range(a + 1, (N - a) // 2 + 1):
            c = N - a - b
            if c <= b:
                continue
            k = full_support_relation((a, b, c))
            if k is not None:
                return a, b, c, k
    return None


def has_full_support_relation(nu) -> bool:
    """True iff some relation uses every coordinate with nonzero exponent."""
    return full_support_relation(nu) is not None
