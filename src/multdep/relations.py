"""Multiplicative dependence of integer vectors.

A vector of nonzero integers (ν_1, ..., ν_n) is multiplicatively dependent
when some nonzero integer vector k satisfies ν_1**k_1 · ... · ν_n**k_n = 1.
Everything here decides that exactly, through linear algebra on the matrix of
prime exponents, laid out by ``exponent_stack``: row i lists the exponents of
|ν_i|, and each prime occurring in the vector owns one column.  A relation is
an integer vector annihilating every column whose sign product is +1; a
kernel vector with sign product −1 is repaired by doubling, since −1 is
2-torsion.  Kernels come from ``right_kernel_basis``, one fraction-free
Gauss–Jordan elimination in Python ints.

Witnesses are verified symbolically (per-prime exponent sums and the sign
product), never by evaluating integer powers, so huge exponents are safe.

Ranks come from one kernel that works on stacks, like
``np.linalg.matrix_rank``: ``rank_of_rows`` and ``rank_from_rows`` take one
matrix of rows or a stack (..., n, k) of them.  A set of rows is dependent
exactly when its Gram matrix G = E·Eᵀ is singular, so every subset's test is
a principal block of one G, and fraction-free elimination in natural order
ranks a whole stack of blocks at once: in int64 while a bound on the data
keeps it exact, in Python ints past it.  ``exponent_stack`` lays out the
exponent rows of many vectors as one such stack, for the deep stage of
``latticecount.count_S``, and of one vector for the decisions and witnesses
here.

Vectors must have nonzero coordinates throughout.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from . import arith
from .errors import RegimeError


def validate_vector(nu) -> tuple[int, ...]:
    v = tuple(int(x) for x in nu)
    if not v:
        raise ValueError("vector must have dimension >= 1")
    if any(x == 0 for x in v):
        raise ValueError("vector coordinates must be nonzero")
    return v


def exponent_stack(keys) -> np.ndarray:
    """Exponent rows of each row of ``keys``, a nonempty (m, n) array of
    absolute values ≥ 1, as a stack (m, n, n·w), w the most primes of one
    value (at least 1).

    Column (j, t) of a row is prime slot t of value j; a prime that several
    values of the row share goes in the first of its slots, so the other
    columns are zero, which changes no rank, and each prime of the row owns
    exactly one column.  A value 1 has an all-zero row.  Each distinct value
    is factorized once.  Values past int64 are kept as Python ints.
    """
    try:
        keys = np.asarray(keys, dtype=np.int64)
    except OverflowError:
        keys = np.asarray(keys, dtype=object)
    m, n = keys.shape
    vals = np.sort(keys, axis=None)
    vals = vals[np.flatnonzero(np.diff(vals, prepend=0))]
    facts = [arith._abs_exponents(v) for v in vals.tolist()]
    w = max(1, *map(len, facts))
    facts = [f + ((0, 0),) * (w - len(f)) for f in facts]
    table = np.array(facts, dtype=keys.dtype)  # a prime is at most its value
    primes, exps = table[:, :, 0], table[:, :, 1]
    at = np.searchsorted(vals, keys)
    row_primes = primes[at].reshape(m, n * w)
    first = (row_primes[:, :, None] == row_primes[:, None, :]).argmax(axis=2)
    out = np.zeros((m, n, n * w), dtype=np.int64)
    # within one value the primes differ, so no two slots meet in one cell
    # (padding slots write 0 over 0)
    np.put_along_axis(out, first.reshape(m, n, w), exps[at], axis=2)
    return out


# ── exact integer linear algebra ─────────────────────────────────────────


# 2⁰ … 2⁶¹, for ⌈log₂ x⌉ of int64 entries by search
_POW2 = 1 << np.arange(62, dtype=np.int64)


def _gram(rows) -> np.ndarray:
    """Gram matrices rows·rowsᵀ of a stack (..., n, k) of integer rows, in
    the dtype that keeps ``_psd_rank`` exact on them and on every principal
    block of them.

    The product is formed in int64 while every entry is provably below 2⁶²,
    in Python ints otherwise.  ``_psd_rank``'s products multiply two minors
    of G = E·Eᵀ of at most s − 1 rows.  A minor on rows A and columns B is at
    most √(∏_A G_kk · ∏_B G_kk) in size (Cauchy–Binet and Hadamard), so none
    of the products passes M², M the product of every diagonal entry but the
    smallest (each taken at least 1).  A principal block's M is at most the
    whole matrix's, so one check here covers the blocks of a subset scan.
    int64 is kept while M² < 2⁶², checked first with M ≤ D^(s−1), D the
    largest diagonal entry, then with ⌈log₂⌉ of each entry; a stack past
    that is returned in Python ints.
    """
    try:
        a = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        a = np.asarray(rows, dtype=object)
    if a.ndim < 2:
        a = a.reshape(0, 0)  # no rows at all
    if a.dtype != object:
        top = max(int(a.max(initial=0)), -int(a.min(initial=0)))
        if top * top * a.shape[-1] >= 2**62:
            a = a.astype(object)
    g = np.matmul(a, np.swapaxes(a, -1, -2))
    s = g.shape[-1]
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    if s and g.dtype != object and int(diag.max(initial=0)) ** (2 * (s - 1)) >= 2**62:
        bits = np.searchsorted(_POW2, np.maximum(diag, 1) - 1, side="right")
        if int((bits.sum(axis=-1) - bits.min(axis=-1)).max(initial=0)) > 30:
            g = g.astype(object)
    return g


def _psd_rank(g: np.ndarray) -> np.ndarray:
    """Rank of each matrix in a stack (m, s, s) of integer Gram matrices,
    exact in the dtype ``_gram`` chose for them.

    Fraction-free (Bareiss) elimination on the whole stack at once, in
    natural order: step k pivots on g[k, k] and updates only the trailing
    block g[k+1:, k+1:], dividing it exactly by the last nonzero pivot.  A
    Gram matrix stays positive semidefinite under this elimination, and a
    zero diagonal entry of a positive semidefinite matrix has its whole row
    and column zero, so a zero pivot is skipped: it adds nothing to the rank,
    and the last nonzero pivot stands in for it, so the step multiplies the
    block by that pivot and divides it back out.  The nonzero pivots taken
    are the rank.  After the steps with nonzero pivots on a set P, every
    trailing entry (i, j) is the minor of G on rows P + i and columns P + j,
    whatever the order in which P was taken.
    """
    m, s = g.shape[0], g.shape[-1]
    # the stack axis goes last, so each elementwise step runs one long inner
    # loop per matrix entry rather than one short loop per matrix
    g = np.moveaxis(g, 0, -1).copy()
    rank = np.zeros(m, dtype=np.int64)
    prev = np.ones(m, dtype=g.dtype)
    for k in range(s):
        piv = g[k, k]
        live = piv > 0
        rank += live
        if k == s - 1:
            break
        piv = np.where(live, piv, prev)
        col = g[k + 1:, k]
        block = g[k + 1:, k + 1:]
        block *= piv
        block -= col[:, None] * col
        if k:  # the first divisor is 1
            block //= prev
        prev = piv
    return rank


def _stacked(f, g: np.ndarray, *args):
    """Apply a stack kernel to (..., n, n) and give back the batch shape:
    a Python int for a single matrix, like ``np.linalg.matrix_rank``."""
    batch = g.shape[:-2]
    out = f(g.reshape((math.prod(batch),) + g.shape[-2:]), *args).reshape(batch)
    return int(out) if not batch else out


def rank_of_rows(rows):
    """Rank over Q of integer rows, for one matrix (n, k) or a stack (..., n, k).

    Returns an int for one matrix and an int64 array of the batch shape for a
    stack.  Rows of width 0 and all-zero rows have rank 0.
    """
    return _stacked(_psd_rank, _gram(rows))


# most Gram-block entries one elimination of the subset scan takes (256 KiB
# of int64), so a long vector's scan never holds all C(n, s) blocks at once
_SCAN_CELLS = 1 << 15

# most subsets one scan may test: every subset of a vector with n ≤ 20
# coordinates fits, and a longer vector fails fast instead of testing ~2ⁿ
_SCAN_SUBSETS = 1 << 20


def _subset_rank(g: np.ndarray, smallest: int) -> np.ndarray:
    """``rank_from_rows`` on a stack (m, n, n) of Gram matrices.

    Subsets of one size are taken in chunks of at most ``_SCAN_CELLS`` block
    entries, and a matrix leaves the scan at its first dependent subset.
    Raises RegimeError before a size whose subsets would take the scan past
    ``_SCAN_SUBSETS``.
    """
    n = g.shape[-1]
    rank = np.full(len(g), n, dtype=np.int64)
    todo = np.flatnonzero(_psd_rank(g) < n)
    rank[todo] = n - 1
    scanned = 0
    for size in range(smallest, n):
        scanned += math.comb(n, size)
        if todo.size and scanned > _SCAN_SUBSETS:
            raise RegimeError(f"the rank of {n} coordinates needs more than {_SCAN_SUBSETS} subset tests")
        subsets = combinations(range(n), size)
        while todo.size:
            step = max(1, _SCAN_CELLS // (len(todo) * size * size))
            subs = np.array(list(islice(subsets, step)), dtype=np.intp).reshape(-1, size)
            if len(subs) == 0:
                break
            sub = g[todo][:, subs[:, :, None], subs[:, None, :]]
            hit = (_psd_rank(sub.reshape(-1, size, size)) < size).reshape(len(todo), -1).any(axis=1)
            rank[todo[hit]] = size - 1
            todo = todo[~hit]
    return rank


def rank_from_rows(rows, smallest: int = 2):
    """Multiplicative rank from the exponent rows of vectors with no ±1.

    ``rows`` is one matrix (n, k) or a stack (..., n, k); the result is an
    int or an int64 array of the batch shape.  Independent rows give n.
    Otherwise the rank is one less than the size of the smallest dependent
    subset, scanned in increasing size from ``smallest`` (the caller vouches
    that smaller subsets are independent); the whole set being dependent caps
    it at n − 1.  A subset S is dependent exactly when its principal Gram
    block G_S = E_S·E_Sᵀ is singular, so one Gram stack serves every subset.
    """
    return _stacked(_subset_rank, _gram(rows), smallest)


def right_kernel_basis(rows, ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : M x = 0}, deterministic order.

    One basis vector per free column, ascending; each is reduced by
    ``_primitive`` to content 1 with its first nonzero entry positive.

    Fraction-free (Bareiss) Gauss–Jordan elimination in Python ints: each
    pivot p updates every other row, above and below, to (p·a − x·b) // prev,
    prev the pivot before it (1 at the start), and every division is exact.
    At the end each pivot entry equals the last pivot D, so free column f
    has the kernel vector with D at f, −R[r][f] at the pivot column of row r
    and 0 elsewhere.
    """
    # equal rows and zero rows add nothing
    mat = [list(r) for r in dict.fromkeys(map(tuple, rows)) if any(r)]
    pivots = []
    prev = 1
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        b = mat[top]
        p = b[col]
        for r, a in enumerate(mat):
            x = a[col]
            if r != top and (x or p != prev):  # else the row is unchanged
                mat[r] = [(p * u - x * v) // prev for u, v in zip(a, b)]
        pivots.append(col)
        prev = p
    basis = []
    for f in range(ncols):
        if f not in pivots:
            x = [0] * ncols
            x[f] = prev
            for row, col in zip(mat, pivots):
                x[col] = -row[f]
            basis.append(_primitive(x))
    return basis


def _exponent_rows(nu) -> np.ndarray:
    """The ``exponent_stack`` rows (n, k) of one vector's absolute values."""
    return exponent_stack([[abs(x) for x in nu]])[0]


def _relation_lattice_basis(nu) -> list[tuple[int, ...]]:
    """Kernel of the exponent rows (sign ignored): transpose and solve."""
    return right_kernel_basis(_exponent_rows(nu).T.tolist(), len(nu))


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
    for col in _exponent_rows(nu).T.tolist():  # one column per prime
        if sum(e * c for e, c in zip(k, col)) != 0:
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
    return rank_of_rows(_exponent_rows(nu)) < len(nu)


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


def _repaired(nu, k) -> tuple[int, ...]:
    """Kernel vector k as a verified witness: primitive, doubled when its
    sign product is −1."""
    k = _primitive(k)
    if _sign_product(nu, k) == -1:
        k = tuple(2 * a for a in k)
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
    for unit in (1, -1):
        if unit in nu:
            i = nu.index(unit)
            return _repaired(nu, [int(j == i) for j in range(len(nu))])
    basis = _relation_lattice_basis(nu)
    return _repaired(nu, basis[0]) if basis else None


def mult_rank(nu) -> int:
    """Multiplicative rank.

    0 when some coordinate is ±1; otherwise the largest s such that every s
    coordinates are multiplicatively independent (n for a fully independent
    vector), i.e. one less than the size of the smallest dependent subset.
    """
    nu = validate_vector(nu)
    if any(abs(x) == 1 for x in nu):
        return 0
    return rank_from_rows(_exponent_rows(nu))


def full_support_relation(nu):
    """A verified relation with every exponent nonzero, or None.

    Exists iff the relation kernel is not contained in any coordinate
    hyperplane {k_i = 0}.  Then k = Σ_j L^j·b_j over the kernel basis, with
    L = 1 + n·maxabs and maxabs the largest |b_j[i]|, has every entry
    nonzero: if b_j is the last basis vector with b_j[i] ≠ 0, it contributes
    at least L^j in absolute value to k_i, and the earlier ones at most
    maxabs·(L^j − 1)/(L − 1) < L^j together.
    """
    nu = validate_vector(nu)
    n = len(nu)
    basis = _relation_lattice_basis(nu)
    if not basis:
        return None
    for i in range(n):
        if all(b[i] == 0 for b in basis):
            return None
    L = 1 + n * max(abs(a) for b in basis for a in b)
    return _repaired(nu, [sum(L**j * b[i] for j, b in enumerate(basis)) for i in range(n)])


def fatal_triple(N: int) -> tuple[int, int, int, tuple[int, ...]] | None:
    """First triple a < b < c with a + b + c = N that has a full-support relation.

    Returns (a, b, c, k) for the first hit in increasing a, then b, or None.
    A prime of one coordinate that the other two lack forces that exponent
    to 0, so only triples whose every coordinate's radical divides the
    product of the other two are solved.
    """
    rad = arith.radical
    for a in range(1, N // 3 + 1):
        for b in range(a + 1, (N - a) // 2 + 1):
            c = N - a - b
            if c <= b or b * c % rad(a) or a * c % rad(b) or a * b % rad(c):
                continue
            k = full_support_relation((a, b, c))
            if k is not None:
                return a, b, c, k
    return None


def has_full_support_relation(nu) -> bool:
    """True iff some relation uses every coordinate with nonzero exponent."""
    return full_support_relation(nu) is not None
