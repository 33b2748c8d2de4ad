"""Multiplicative dependence of integer vectors.

A vector of nonzero integers (ν_1, ..., ν_n) is multiplicatively dependent
when some nonzero integer vector k satisfies ν_1**k_1 · ... · ν_n**k_n = 1.
Everything here decides that exactly, through linear algebra on the matrix of
prime exponents, laid out by ``exponent_stack``: row i lists the exponents of
|ν_i|, and each prime occurring in the vector owns one column.  A relation is
an integer vector annihilating every column whose sign product is +1; a
kernel vector with sign product −1 is repaired by doubling, since −1 is
2-torsion.

Witnesses are verified symbolically on the rows ``exponent_stack`` lays out
(per-prime exponent sums and the sign product), never by evaluating
integer powers, so huge exponents are safe.

Ranks have one entry, ``rank_from_rows``: it takes the absolute values of
one vector (n,) or of a stack (..., n) of them.  A set of exponent rows E
is dependent exactly when its Gram matrix G = E·Eᵀ is singular, and
ker G = ker Eᵀ is the vector's relation space over Q.  So one fraction-free
Gauss–Jordan elimination of G (``_reduce``), on a whole stack at once, in
int64 while a bound on the data keeps it exact and in Python ints past it,
gives the corank and a kernel basis: they fix most ranks, the subset scan
of G's principal blocks the rest, and the witnesses read the kernel.  An
entry of G is the inner product of the exponent vectors of two values, so
here alone it is decided where a stack's G comes from (``_value_gram``):
one gather from the table of inner products of its V distinct values,
built from ``arith.factor_table``, while V² ≤ m·n² for m vectors of n
values (the deep stage of ``latticecount.count_S`` on four coordinates,
and one vector), and otherwise the exponent rows laid out by
``exponent_stack`` and multiplied (the k = 3 strata residue, whose values
outnumber its rows).

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


def _as_ints(x) -> np.ndarray:
    """``x`` as an int64 array, or in Python ints when an entry passes int64."""
    try:
        return np.asarray(x, dtype=np.int64)
    except OverflowError:
        return np.asarray(x, dtype=object)


def _factored(keys: np.ndarray):
    """(vals, primes, exps, at) of an (m, n) int array of absolute values ≥ 1:
    its sorted distinct values, their ``arith.factor_table`` rows and each
    key's index in vals."""
    # asked for the inverse, np.unique sorts (no hash table), which beats a
    # sort and a searchsorted of every key
    vals, at = np.unique(keys, return_inverse=True)
    return vals, *arith.factor_table(vals), at.reshape(keys.shape)


def exponent_stack(keys) -> np.ndarray:
    """Exponent rows of each row of ``keys``, a nonempty (m, n) array of
    absolute values ≥ 1, as a stack (m, n, n·w), w the most primes of one
    value (at least 1).

    Column (j, t) of a row is prime slot t of value j; a prime that several
    values of the row share goes in the first of its slots, so the other
    columns are zero, which changes no rank, and each prime of the row owns
    exactly one column.  A value 1 has an all-zero row.  The distinct values
    are factorized together, once each (``arith.factor_table``).  Values past
    int64 are kept as Python ints.
    """
    return _layout(*_factored(_as_ints(keys))[1:])


def _layout(primes: np.ndarray, exps: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``exponent_stack`` of the keys whose indices into the factor table
    (primes, exps) of their distinct values are ``at``, (m, n)."""
    m, n = at.shape
    w = primes.shape[1]
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
    the dtype that keeps ``_reduce`` exact on them and on every principal
    block of them.

    The product is formed in int64 while every entry is provably below 2⁶²,
    in Python ints otherwise.  ``_reduce``'s products multiply two minors
    of G = E·Eᵀ of at most s − 1 rows: a step that updates a column after k
    has taken at most s − 2 pivots, on a set P, and then an entry (i, j)
    below the pivots is the minor on rows P + i and columns P + j, and one
    above them, in pivot row r, the minor on rows P and columns P − r + j
    (Cramer's rule).  A minor on rows A and columns B is at most
    √(∏_A G_kk · ∏_B G_kk) in size (Cauchy–Binet and Hadamard), so none of
    the products passes M², M the product of every diagonal entry but the
    smallest (each taken at least 1).  A principal block's M is at most the
    whole matrix's, so one check here covers the blocks of a subset scan.
    int64 is kept while M² < 2⁶², checked first with M ≤ D^(s−1), D the
    largest diagonal entry, then with ⌈log₂⌉ of each entry; a stack past
    that is returned in Python ints.
    """
    a = _as_ints(rows)
    if a.ndim < 2:
        a = a.reshape(0, 0)  # no rows at all
    if a.dtype != object and _wide(max(int(a.max(initial=0)), -int(a.min(initial=0))), a.shape[-1]):
        a = a.astype(object)
    return _exact(np.matmul(a, np.swapaxes(a, -1, -2)))


def _wide(top: int, k: int) -> bool:
    """Whether a Gram entry of rows of k entries, each at most ``top`` in
    size, could pass 2⁶², so that ``_gram`` forms it in Python ints."""
    return top * top * k >= 2**62


def _exact(g: np.ndarray) -> np.ndarray:
    """A stack of Gram matrices in the dtype ``_gram`` gives it: in Python
    ints when ``_reduce``'s products on it, below the pivots and above
    them, could pass 2⁶² (the M² bound)."""
    s = g.shape[-1]
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    if s and g.dtype != object and int(diag.max(initial=0)) ** (2 * (s - 1)) >= 2**62:
        bits = np.searchsorted(_POW2, np.maximum(diag, 1) - 1, side="right")
        if int((bits.sum(axis=-1) - bits.min(axis=-1)).max(initial=0)) > 30:
            g = g.astype(object)
    return g


def _table_pays(V: int, m: int, n: int) -> bool:
    """Whether ``_value_gram`` tabulates the inner products of the V distinct
    values of a stack of m rows of n values, rather than lay out its rows.

    The table takes about V²·P multiply-adds for P distinct primes, the
    layout an (m, n·w, n·w) prime comparison and m·n²·n·w multiply-adds.
    Timed on both sides, the table is the faster up to V² ≈ m·n² when the
    values have many distinct primes (random values up to 10⁵) and up to
    about 4·m·n² when they have few (the benchmark's k = 3 and k = 4
    stacks), so it is taken up to the lower bound.
    """
    return V * V <= m * n * n


def _value_gram(keys: np.ndarray) -> np.ndarray:
    """``_gram(exponent_stack(keys))`` of an (m, n) int array of absolute
    values ≥ 1, entry for entry and in its dtype.

    Entry (a, b) of a row's Gram matrix is the inner product of the exponent
    vectors of its values a and b, so it depends only on that pair.  Where
    ``_table_pays``, the inner products of the V distinct values are
    tabulated once, as F·Fᵀ for the (V, P) matrix F of their exponents over
    their P distinct primes, and each Gram matrix is one gather from the
    table; elsewhere the exponent rows are laid out and multiplied.  F is
    formed in the dtype ``_gram`` would take for those rows (``_wide`` of
    the largest exponent and n·w).
    """
    vals, primes, exps, at = _factored(keys)
    m, n = keys.shape
    if not _table_pays(len(vals), m, n):
        return _gram(_layout(primes, exps, at))
    w = primes.shape[1]
    # the distinct values' exponent vectors, one column per distinct prime
    # (padding slots write exponent 0 into the column of prime 0)
    ps, col = np.unique(primes, return_inverse=True)
    f = np.zeros((len(vals), len(ps)), dtype=object if _wide(int(exps.max(initial=0)), n * w) else np.int64)
    f[np.arange(len(vals))[:, None], col.reshape(primes.shape)] = exps
    table = f @ f.T
    return _exact(table[at[:, :, None], at[:, None, :]])


def _reduce(g: np.ndarray) -> np.ndarray:
    """A stack (m, s, s) of integer Gram matrices after fraction-free
    Gauss–Jordan elimination in natural order, exact in the dtype ``_gram``
    chose for them.

    Step k pivots on g[k, k] and updates every row but row k, in the columns
    after k only, to (piv·a − a[k]·row_k) // prev, prev the last nonzero
    pivot (1 at the start); every division is exact.  A Gram matrix is
    positive semidefinite, so at a zero pivot, column k of G lies in the span
    of the earlier pivot columns, and row k is all zero: the last nonzero
    pivot stands in, and the step changes nothing.  So column k keeps its
    step-k values, and the diagonal holds the pivots taken, 0 at each free
    column; the nonzero pivots are the rank.  A free column f is zero from
    row f down, and ``_kernel`` reads its kernel vector from the rows above.
    """
    m, s = g.shape[0], g.shape[-1]
    # the stack axis goes last, so each elementwise step runs one long inner
    # loop per matrix entry rather than one short loop per matrix
    g = np.moveaxis(g, 0, -1).copy()
    prev = np.ones(m, dtype=g.dtype)
    for k in range(s - 1):
        piv = np.where(g[k, k] > 0, g[k, k], prev)
        rest = g[:, k + 1:]
        row = rest[k].copy()
        rest *= piv
        rest -= g[:, k, None] * row
        if k:  # the first divisor is 1
            rest //= prev
        rest[k] = row
        prev = piv
    return np.moveaxis(g, -1, 0)


def _pivots(r: np.ndarray) -> np.ndarray:
    """Rank of each matrix in a ``_reduce``d stack: its nonzero pivots."""
    return (np.diagonal(r, axis1=-2, axis2=-1) != 0).sum(axis=-1)


def _kernel(r: np.ndarray) -> list[tuple[int, ...]]:
    """Primitive integer basis of the kernel of one ``_reduce``d Gram
    matrix r (s, s): for each free column f, ascending, the last pivot
    before f (1 if none) at f, −r[i, f] at each row i < f (0 at a free row)
    and 0 after f, made ``_primitive``.  It is the one kernel vector, up to
    scale, that is 0 at every other free column.
    """
    r = r.tolist()
    basis, last = [], 1
    for f, row in enumerate(r):
        if row[f]:
            last = row[f]
        else:
            basis.append(_primitive([-r[i][f] for i in range(f)] + [last] + [0] * (len(r) - f - 1)))
    return basis


# most Gram-block entries one elimination of the subset scan takes (256 KiB
# of int64), so a long vector's scan never holds all C(n, s) blocks at once
_SCAN_CELLS = 1 << 15

# most subsets one scan may test: every subset of a vector with n ≤ 20
# coordinates fits, and a longer vector fails fast instead of testing ~2ⁿ
_SCAN_SUBSETS = 1 << 20


def _subset_rank(g: np.ndarray, smallest: int, hi: np.ndarray) -> np.ndarray:
    """``rank_from_rows`` on a stack (m, n, n) of Gram matrices whose ranks
    are at most ``hi`` (m,): one less than the size of the smallest
    singular principal block, scanned in increasing size from ``smallest``,
    and ``hi`` where no block of size up to ``hi`` is singular.

    Subsets of one size are taken in chunks of at most ``_SCAN_CELLS`` block
    entries, each block ranked by ``_reduce``, and a matrix leaves the scan
    at its first dependent subset.  Raises RegimeError before a size whose
    subsets would take the scan past ``_SCAN_SUBSETS``.
    """
    n = g.shape[-1]
    rank = hi.copy()
    todo = np.arange(len(g))
    scanned = 0
    for size in range(smallest, n):
        todo = todo[hi[todo] >= size]
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
            hit = (_pivots(_reduce(sub.reshape(-1, size, size))) < size).reshape(len(todo), -1).any(axis=1)
            rank[todo[hit]] = size - 1
            todo = todo[~hit]
    return rank


def rank_from_rows(rows, smallest: int = 2):
    """Multiplicative rank of vectors with no ±1, from their absolute values.

    ``rows`` is one vector (n,) or a stack (..., n) of them; the result is
    an int or an int64 array of the batch shape.  Vectors whose exponent
    rows are independent give n.  Otherwise the rank is one less than the
    size of the smallest dependent subset, at least ``smallest`` − 1 (the
    caller vouches that smaller subsets are independent).  A subset is
    dependent exactly when its principal block of the Gram matrix G = E·Eᵀ
    (``_value_gram``) is singular, and ker G is the relation space, so the
    corank c of G read from ``_reduce`` bounds the rank:
    - c = 1: every relation is a multiple of the one kernel vector k, so
      the rank is |supp k| − 1;
    - c ≥ 2: a c-dimensional kernel holds a vector with c − 1 zeros, so the
      rank is at most n − c, and only where that passes ``smallest`` − 1
      is it left to ``_subset_rank``: never with ``smallest`` ≥ n − 1 (four
      coordinates and no dependent pair, or dependence of the whole set).
    """
    keys = _as_ints(rows)
    n = keys.shape[-1]
    g = _value_gram(keys.reshape(-1, n))
    r = _reduce(g)
    free = np.diagonal(r, axis1=1, axis2=2) == 0
    corank = free.sum(axis=1)
    lo = min(smallest, n) - 1
    hi = n - corank
    if lo < n - 1:  # else |supp k| − 1 ≤ n − 1 ≤ lo
        # where c = 1, supp k is the free column (nonzero in k) and the
        # nonzero entries above it: the column is zero from its diagonal down
        hi = np.where(corank == 1, ((r != 0).sum(axis=1) * free).sum(axis=1), hi)
    rank = np.maximum(hi, lo)  # n where corank is 0
    if lo < n - 2:  # else n − corank ≤ lo wherever corank ≥ 2
        scan = (corank > 1) & (hi > lo)
        if scan.any():
            rank[scan] = _subset_rank(g[scan], smallest, hi[scan])
    rank = rank.reshape(keys.shape[:-1])
    return rank if rank.ndim else int(rank)


def _relation_lattice_basis(nu) -> list[tuple[int, ...]]:
    """Kernel of the exponent rows E (sign ignored), read off the reduced
    Gram matrix of the absolute values: ker E·Eᵀ = ker Eᵀ."""
    return _kernel(_reduce(_value_gram(_as_ints([[abs(x) for x in nu]])))[0])


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
    for col in exponent_stack([[abs(x) for x in nu]])[0].T.tolist():  # one column per prime
        if sum(e * c for e, c in zip(k, col)) != 0:
            return False
    return _sign_product(nu, k) == 1


def is_dependent(nu) -> bool:
    """True iff some nonzero integer k gives ∏ ν_i**k_i = 1.

    A ±1 coordinate makes the vector dependent outright; otherwise the
    exponent rows must be linearly dependent over the rationals (any rational
    kernel vector scales to an integer relation, doubling if the sign product
    comes out −1), which ``rank_from_rows`` decides with no subset scan.
    """
    nu = validate_vector(nu)
    if any(abs(x) == 1 for x in nu):
        return True
    return rank_from_rows([abs(x) for x in nu], smallest=len(nu)) < len(nu)


def _primitive(k) -> tuple[int, ...]:
    g = arith.gcd_vec(k)
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
    return rank_from_rows([abs(x) for x in nu])


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
