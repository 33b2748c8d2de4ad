"""Exact enumeration and counting of integer vectors on hyperplanes.

The central object is the count of multiplicatively dependent vectors ν with
nonzero coordinates, 0 < |ν_i| ≤ H, lying on α·ν = J, always split by
multiplicative rank.

Strata first.  On a plane of exactly three coordinates, all with nonzero α,
the total, rank 0 and rank 1 are closed-form lattice counts (``_strata``).
With N_ℓ the number of points with ℓ ≤ |ν_i| ≤ H for every i, the total is
N₁ and rank 0 is N₁ − N₂.  Rank 1 is N₁₂ + N₁₃ + N₂₃ − 2·N₁₂₃, where N_ij
counts the points with every |ν| ≥ 2 and base(ν_i) = base(ν_j), and N₁₂₃
those with one base for all three.  Equal values |ν_i| = |ν_j| merge two
coefficients into a_i ± a_j; unequal values of one base w ≤ √H are few, and
each pair solves the third coordinate.  Every lattice count is a sum of
closed-form line counts (``_line_points``): O(H) numpy work for the boxes
of three coordinates, O(1) for the merged ones.

Then the sweep, which is exhaustive: one coordinate p with nonzero α (the
pivot) is solved from the others.  Each combination of the outer free
coordinates leaves the last free coordinate c and p on a line
a_c·c + a_p·p = rem; its integer points have c in one residue class mod
s = |a_p|/g, and there are none unless g = gcd(a_c, a_p) divides rem.  The
sweep steps c along that class, over the range that keeps p in its own, and
solves p = (rem − a_c·c)/a_p, one floor division by the scalar a_p per cell
(exact in int64, as |rem − a_c·c| < 2⁶²), so every cell solves the plane
with |c|, |p| ≤ H; it classifies the cells exactly, at most ``_BLOCK_ROWS``
at a time, and drops a signed cell with c = 0 or p = 0, off the box.

Classification cascade per solution (cheapest first):
  rank 0   some coordinate is ±1;
  rank 1   two coordinates share the same minimal power base (a pair of
           values above 1 is dependent exactly when their bases coincide);
  deeper   a subset of size ≥ 3 can only be dependent if each of its members
           has every prime factor shared with another member, so vectors with
           fewer than three such "covered" coordinates are independent; each
           survivor's rank is one less than the size of its smallest
           dependent subset of exponent rows (``relations.rank_from_rows``).

On a plane with strata the sweep counts neither rank 0 nor rank 1; it
hunts the rank-2 rows by the side lemma.  Such a row has no ±1 and no two
coordinates of one base, so no smaller subset is dependent and its relation
has every exponent nonzero.  With the positive exponents on one side,
∏_P |x|^a = ∏_N |x|^b, each side is nonempty and every prime of one side
divides the other.  With three coordinates one side is a single
dominant coordinate d, and rad(d) = rad(row).  So the sweep runs once per
role of d, with the third coordinate e outer over 2 ≤ |e| ≤ H, and steps d
along its side class: d ≡ 0 (mod rad(e)) within the line's class mod s,
one class mod rad(e)·s/gcd(rad(e), s) per combo (``_side_class``).  As
Σ 1/rad(e) over e ≤ H grows slower than any power of H (28 at H = 2000,
141 at 10⁶), the cells number H^{1+o(1)}, not O(H²).  Then
``_deep_residue`` tests the rest of the side exactly, rad(p) | d and
rad(d) | e·p, and keeps the rows the cascade would hand on that have a
dominant coordinate, each under the one of largest value (equal values share
a base, so two dominant values of a kept row never tie).

The deep stage is batched per count: survivors of every block wait, each
sorted, in one buffer of one block's size.  When it is full, and once at
the end, equal rows are merged by summing their weights, and the distinct
rows are ranked in a few large integer stacks, at most ``_RANK_CELLS`` Gram
entries each: one ``relations.exponent_stack`` lays a stack out and one
``relations.rank_from_rows`` ranks it.  Nothing is remembered between
flushes.

Orbits.  Dependence and rank depend only on the multiset of |ν_i|.  A
signed count first maps α to |α|: ν_i ↦ sign(α_i)·ν_i carries the plane onto
the |α| plane and keeps every |ν_i|.  In the signed domain a free coordinate
with α_i = 0 is swept over [1, H] with multiplicity 2 (its fold), as the
constraint never involves it.  Group the free coordinates into classes of
equal α_i; the pivot is in none.  The lemma: permuting the ν of a class
keeps Σ α_i·ν_i, the box and every |ν_i|, so it maps the plane's points onto
points of the same rank.  So the cascade sweep visits one cell per orbit,
the one whose ν is nondecreasing within each class in free order, and the
cell stands for fold × ∏ k!/∏ r! vectors: k is a class's size and r the
lengths of its runs of equal ν.  A plane without repeated α has singleton
classes and weight fold.  The strata passes fix roles, so there every cell
stands for itself.

Curve systems (one power-product equation with one linear equation) run one
loop for every variant, ``curve_counts``: it solves the inner pair of plane
coordinates from candidates drawn by ``arith.smooth_numbers``, or from the
same residue class where no smoothness holds, and tests the power equation
in exact integers (the lemma behind it is in its docstring).  A count that
sweeps refuses H above ``_TABLE_CAP``, and planes whose int64 arithmetic
could wrap (Σ|α_i|·H + |J| ≥ 2⁶²), with RegimeError before any strata,
sweep or table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from . import arith, relations
from .errors import RegimeError

# ── domain types ─────────────────────────────────────────────────────────


@dataclass(frozen=True)
class HyperplaneSpec:
    """Coefficient vector α and level J of the constraint α·ν = J."""

    alpha: tuple[int, ...]
    J: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        if not self.alpha:
            raise ValueError("alpha must have dimension >= 1")

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def nnz(self) -> int:
        return sum(1 for a in self.alpha if a != 0)


@dataclass(frozen=True)
class DomainSpec:
    """Coordinate domain: signed ([−H,H] minus 0) or positive ([1,H])."""

    kind: str
    H: int

    def __post_init__(self):
        if self.kind not in ("signed", "positive"):
            raise ValueError("domain kind must be 'signed' or 'positive'")
        if self.H < 1:
            raise ValueError("height bound H must be >= 1")


@dataclass
class CountReport:
    """Exact counts for one (spec, domain) pair.

    ``alpha`` is the caller's α, signs included.  ``by_rank`` maps each
    multiplicative rank met to its count, ascending and without zero counts,
    and sums to ``dependent_total``; ``degenerate`` flags all-zero α with
    J ≠ 0.  While a count runs, ``by_rank`` is a ``Counter`` that the
    classify stages add into, zero counts included.
    """

    alpha: tuple[int, ...]
    J: int
    domain: str
    H: int
    total_on_plane: int = 0
    by_rank: dict[int, int] = field(default_factory=Counter)

    @property
    def dependent_total(self) -> int:
        return sum(self.by_rank.values())

    @property
    def degenerate(self) -> bool:
        return not any(self.alpha) and self.J != 0


# ── lattice-point counting on boxes (no dependence condition) ────────────


def covolume_ratio(alpha) -> Fraction:
    """Squared covolume ‖α‖²/gcd(α)² of the lattice {ν : α·ν = 0}.

    The unsquared covolume is irrational in general and never materialized.
    """
    a = tuple(int(x) for x in alpha)
    if not a or all(x == 0 for x in a):
        raise ValueError("alpha must be a nonzero vector")
    g = arith.gcd_vec(a)
    return Fraction(sum(x * x for x in a), g * g)


def hyperplane_lattice_count(spec: HyperplaneSpec, box) -> int:
    """#{ν ∈ box ∩ Z^n : α·ν = J} for per-coordinate integer intervals.

    Zero coordinates are allowed inside the box; returns 0 whenever
    gcd(α) ∤ J.  The count is the coefficient of z**J in
    ∏_i Σ_{ν_i} z^{α_i·ν_i} (``arith.poly_product``).
    """
    box = [(int(lo), int(hi)) for lo, hi in box]
    if len(box) != spec.n:
        raise ValueError("box dimension must match alpha")
    for lo, hi in box:
        if lo > hi:
            return 0
    factor = 1
    factors = []
    for a, (lo, hi) in zip(spec.alpha, box):
        if a == 0:
            factor *= hi - lo + 1
        else:
            factors.append(range(a * lo, a * hi + (1 if a > 0 else -1), a))
    if not factors:
        return factor if spec.J == 0 else 0
    if spec.J % arith.gcd_vec(spec.alpha) != 0:
        return 0
    return factor * arith.poly_product(factors, at=spec.J)


# ── pivot coordinate ─────────────────────────────────────────────────────


def _pivot_index(alpha) -> int | None:
    """Coordinate solved from the linear equation: largest |α_i|, last wins;
    None when α = 0."""
    best = 0
    arg = None
    for i, a in enumerate(alpha):
        if abs(a) >= best and a != 0:
            best = abs(a)
            arg = i
    return arg


# ── dependence classification kernel ─────────────────────────────────────


def _axis(a_i: int, H: int, signed: bool) -> tuple[int, int]:
    """(lo, fold) for a free coordinate with coefficient a_i: it is swept over
    [lo, H] without 0, each value standing for ``fold`` vectors.  A signed
    coordinate off the plane (a_i = 0) folds onto [1, H] with fold 2."""
    if signed and a_i == 0:
        return 1, 2
    return (-H if signed else 1), 1


def _unit_or_pair(cols: list[np.ndarray], base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the rows the cascade settles without a rank test: ``unit``,
    some coordinate is 1 (rank 0), and ``pair``, two coordinates share a
    minimal power base (rank 1 where no coordinate is 1).  ``cols`` holds
    absolute values in [1, H], ``base`` the minimal-base table up to H."""
    unit = cols[0] == 1
    for c in cols[1:]:
        unit |= c == 1
    bases = [base[c] for c in cols]
    pair = np.zeros(len(unit), dtype=bool)
    for i in range(1, len(cols)):
        for j in range(i):
            pair |= bases[i] == bases[j]
    return unit, pair


def _classify_block(
    report: CountReport,
    cols: list[np.ndarray],
    weights: np.ndarray,
    base: np.ndarray,
    rad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Classify one block of solutions and add its settled counts to
    ``report``, whose ``by_rank`` is a ``Counter``.

    ``cols`` holds one array of absolute values per coordinate, each entry in
    [0, H]; row i is the solution (cols[0][i], cols[1][i], …) and stands for
    weights[i] vectors (int64).  A row with a 0 (a signed cell with c = 0 or
    p = 0) is off the box: it counts as weight 0 and is not handed on.
    ``base`` and ``rad`` are the minimal-base and radical tables up to H.
    Returns the rows the cascade leaves for the deep stage, each sorted
    ascending, as an (r, n) array, and their weights, for ``_rank_deep``.
    The cover filter counts each row's uncovered coordinates over all n of
    them, then takes one gather of the rows with at most n − 3, so none for
    n ≤ 2.
    """
    n = len(cols)
    off = np.logical_or.reduce([c == 0 for c in cols])
    weights = np.where(off, 0, weights)
    report.total_on_plane += int(weights.sum())
    unit, pair = _unit_or_pair(cols, base)
    pair &= ~unit
    report.by_rank[0] += int(weights @ unit)
    report.by_rank[1] += int(weights @ pair)
    # index gathers: numpy compresses by a boolean mask several times slower
    rest = np.flatnonzero(~(unit | pair | off))
    cols, weights = [c[rest] for c in cols], weights[rest]
    # cover filter: a dependent subset of size ≥ 3 needs each member's primes
    # to reappear among the other coordinates (else its exponent is forced 0).
    # A row drops when more than n − 3 of its coordinates are uncovered
    if report.H**n < 2**62:
        prod_all = math.prod(cols)
        miss = sum(prod_all // c % rad[c] != 0 for c in cols)
        keep = np.flatnonzero(miss <= n - 3)
        cols, weights = [c[keep] for c in cols], weights[keep]
    return np.sort(np.stack(cols, axis=1), axis=1), weights


def _deep_residue(cols: list[np.ndarray], base: np.ndarray, rad: np.ndarray) -> np.ndarray:
    """The deep-stage rows among one role's cells of a plane with three
    nonzero coefficients, whose total, rank 0 and rank 1 come from
    ``_strata``.

    ``cols`` holds the absolute values (e, d, p) in the order the strata
    pass yields them: the outer coordinate e, the dominant one d and the
    pivot p.  The sweep gives rad(e) | d and |e| ≥ 2, but also cells with
    d = 0 or p = 0, off the box, which are dropped first.  ``base`` and
    ``rad`` are tables, as for ``_classify_block``.  A row is kept when
    rad(p) | d, then rad(d) | e·p (so every coordinate is covered and
    rad(d) = rad(row)), it has no 1 and no shared base, and no other
    coordinate with rad(d) is larger than d, the role that keeps a row with
    several dominant coordinates (their values never tie, as equal values
    share a base).  Returns the kept rows, each sorted ascending: across the
    roles, exactly the cascade's rows that have a dominant coordinate, each
    once, which holds every dependent one.  e·p is a product of two values
    up to H ≤ 2²², so exact in int64.
    """
    e, d, p = cols
    # rad(0) = 0: the remainder by it is discarded with its cell
    with np.errstate(divide="ignore"):
        keep = np.flatnonzero((d % rad[p] == 0) & (d != 0) & (p != 0))
    e, d, p = cols = [x[keep] for x in cols]
    rd = rad[d]
    keep = np.flatnonzero(e * p % rd == 0)
    e, d, p = cols = [x[keep] for x in cols]
    rd = rd[keep]
    unit, pair = _unit_or_pair(cols, base)
    drop = unit | pair | (rad[e] == rd) & (e > d) | (rad[p] == rd) & (p > d)
    return np.sort(np.stack(cols, axis=1)[~drop], axis=1)


def _rank_deep(report: CountReport, rows: np.ndarray, weights: np.ndarray) -> None:
    """Rank the rows ``_classify_block`` or ``_deep_residue`` left for the
    deep stage, row i standing for weights[i] vectors (int64), and add the
    dependent ones to ``report``'s ``Counter``; ``rows`` may be empty.

    Equal rows are merged by summing their weights and ranked once, in
    stacks of ``_RANK_CELLS`` // n² distinct rows (Gram entries), each laid
    out by one ``relations.exponent_stack`` and ranked by one
    ``relations.rank_from_rows``.  They have no ±1 and no dependent pair, so
    subsets start at size 3, and the rank is below n exactly when the vector
    is dependent.
    """
    # order as opaque byte strings: equal rows become adjacent, which is all
    # the merge needs
    order = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().argsort()
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    start = np.flatnonzero(first)
    counts = np.add.reduceat(weights[order], start)
    n = rows.shape[1]
    step = max(1, _RANK_CELLS // (n * n))
    for lo in range(0, len(start), step):
        keys = rows[start[lo:lo + step]]
        ranks = relations.rank_from_rows(relations.exponent_stack(keys), smallest=3)
        part = counts[lo:lo + step]
        for r in range(2, n):
            report.by_rank[r] += int(part[ranks == r].sum())


# largest H for which a sweep builds its minimal-base and radical tables
# (H + 1 int64 entries each)
_TABLE_CAP = 1 << 22

# most cells in a sweep block, so also the most rows one ``_classify_block``
# or ``_deep_residue`` call gets, and the most outer combos whose congruence
# (and side class) is solved at once; each int64 column then stays at 64 KiB,
# so many combos share one block's numpy calls while peak memory barely moves
_BLOCK_ROWS = 1 << 13

# most Gram entries in one deep-stage stack, so n-coordinate rows are ranked
# _RANK_CELLS // n² at a time (2048 at n = 4) and a flush of one buffer takes
# one or two stacks; the exponent rows and int64 temporaries of a full stack
# add about 1.4 MiB to a 4-coordinate count's peak
_RANK_CELLS = 1 << 15


def count_S(spec: HyperplaneSpec, domain: DomainSpec) -> CountReport:
    """Exact count of multiplicatively dependent vectors on α·ν = J, by rank.

    ``by_rank`` maps each multiplicative rank met to its count, ascending
    and without zero counts, and ``dependent_total`` is their sum.  The
    all-zero α with J = 0 counts unconstrained dependent vectors in the box;
    all-zero α with J ≠ 0 has no solutions and returns a report flagged
    degenerate.  A signed count runs on the |α| plane (module docstring);
    the report keeps the caller's α.  A one-coordinate plane, α = (0,)
    included, is counted by ``_points`` with no table, at any H.
    """
    H = domain.H
    signed = domain.kind == "signed"
    report = CountReport(spec.alpha, spec.J, domain.kind, H)
    if report.degenerate:
        return report
    if signed:
        spec = HyperplaneSpec(tuple(map(abs, spec.alpha)), spec.J)
    alpha = spec.alpha

    if spec.n > 1:
        if H > _TABLE_CAP:
            raise RegimeError(f"height {H} needs lookup tables above the cap {_TABLE_CAP}")
        if sum(abs(a) for a in alpha) * H + abs(spec.J) >= 2**62:
            raise RegimeError("sum of |alpha_i|*H plus |J| reaches 2^62, beyond the sweep's int64 arithmetic")
        base = arith.power_base_table(H)
        rad = arith.radical_table(H)
        strata = spec.n == spec.nnz == 3
        if strata:
            report.total_on_plane, rank0, rank1 = _strata(spec, domain, base)
            report.by_rank.update({0: rank0, 1: rank1})
        _sweep(report, spec, signed, base, rad, strata)
    else:
        # one nonzero coordinate: N₁ points, N₁ − N₂ of rank 0, as in
        # ``_strata``; no table
        report.total_on_plane = _points([alpha], spec.J, 1, H, signed)
        report.by_rank[0] += report.total_on_plane - _points([alpha], spec.J, 2, H, signed)
    report.by_rank = {r: c for r, c in sorted(report.by_rank.items()) if c}
    return report


def _line_class(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) for a·c + b·d = m, b ≠ 0: g = gcd(a, b), s = |b|/g, u = (a/g)⁻¹
    mod s.  Integer points exist only when g | m, at c ≡ (m/g)·u (mod s); from
    one to the next c grows by s and d moves by −(a/g)·sign(b)."""
    g = math.gcd(a, b)
    s = abs(b) // g
    return g, s, pow(a // g, -1, s)


def _mod(x: np.ndarray, s) -> np.ndarray:
    """x % s for an int64 array x (the sign of s, as ``%``) by one floor
    division, which numpy runs several times faster than ``%`` when s is a
    scalar."""
    return x - x // s * s


def _class_residue(m: np.ndarray, g, s, u) -> np.ndarray:
    """(m/g)·u mod s for each entry of the int64 array m: the residue class of
    c on a·c + b·d = m, with (g, s, u) from ``_line_class`` (ints, or int64
    arrays that broadcast with m; meaningless where g ∤ m).  m/g is reduced
    mod s before the product with u < s, which takes Python ints once s²
    could pass 2⁶³."""
    r = _mod(m // g, s)
    if int(np.max(s, initial=1)) ** 2 < 2**63:
        return _mod(r * u, s)
    u, s = (np.asarray(x).astype(object) for x in (u, s))
    return (r.astype(object) * u % s).astype(np.int64)


def _inner_range(rem: np.ndarray, ac, ap, lo: int, H: int, p_lo: int):
    """(c_lo, c_hi) per entry of rem: the c in [lo, H] whose pivot
    p = (rem − ac·c)/ap, a rational here, lies in [p_lo, H]; empty where
    c_lo > c_hi.  ac and ap are ints, or int64 columns that broadcast with
    rem (a column ac must be positive).  With ac = 0, p is the same for
    every c, so the range is all of [lo, H] or nothing."""
    # ac·c = rem − ap·p runs over [low, high]
    low = rem - np.maximum(ap * p_lo, ap * H)
    high = rem - np.minimum(ap * p_lo, ap * H)
    if np.ndim(ac) == 0 and ac <= 0:
        if ac == 0:
            return np.full_like(rem, lo), np.where((low <= 0) & (high >= 0), H, lo - 1)
        low, high, ac = -high, -low, -ac
    return np.maximum(-(-low // ac), lo), np.minimum(high // ac, H)


def _side_class(r: np.ndarray, x: np.ndarray, s: int):
    """(ok, y, m): where ok, the d with d ≡ x (mod s) and d ≡ 0 (mod r) are
    those with d ≡ y (mod m), m = r·s/g₂ and g₂ = gcd(r, s); elsewhere
    (g₂ ∤ x) there are none.  r holds squarefree values, so r/g₂ is prime
    to s/g₂, and y = r·k with k ≡ (x/g₂)·(r/g₂)⁻¹ (mod s/g₂).

    As r mod s = g₂·(r/g₂ mod s/g₂), each distinct r mod s takes one
    ``pow``, and ``_class_residue`` forms the product, in Python ints once
    (s/g₂)² could pass 2⁶³."""
    t, at = np.unique(_mod(r, s), return_inverse=True)
    g2 = np.gcd(t, s)
    inv = np.array([pow(q // g, -1, s // g) for q, g in zip(t.tolist(), g2.tolist())], dtype=np.int64)
    g2, inv = g2[at], inv[at]
    s2 = s // g2
    return _mod(x, g2) == 0, r * _class_residue(x, g2, s2, inv), r * s2


def _sweep(report: CountReport, spec: HyperplaneSpec, signed: bool,
           base: np.ndarray, rad: np.ndarray, strata: bool) -> None:
    """Classify every solution, in blocks of at most ``_BLOCK_ROWS`` cells
    (``_solutions``); ``base`` and ``rad`` are the minimal-base and radical
    tables up to H.

    Without ``strata`` one pass solves the pivot (``_pivot_index``, none
    when α = 0) from the other coordinates, and the cascade
    (``_classify_block``) counts every cell, one per orbit, with its weight.
    With ``strata`` (three nonzero coefficients, whose total, rank 0 and
    rank 1 ``_strata`` counted) only rank 2 is left, and each of its rows
    has a dominant coordinate d (module docstring).  So there is one pass
    per role of d: the pivot p is the other coordinate with the larger |α|
    (``_pivot_index``), the third, e, is outer, and d runs along its side
    class; each pass yields its cells as (e, d, p), and ``_deep_residue``
    keeps each row the cascade would rank under its dominant coordinate of
    largest value, each row standing for one vector.  Either stage drops
    the signed cells with c = 0 or p = 0.  The deep-stage rows of every
    block and pass wait in one buffer of one block's size, with their
    weights, which ``_rank_deep`` ranks when it is full and once at the end.
    """
    if strata:
        passes = []
        for d in range(3):
            p = _pivot_index([0 if i == d else a for i, a in enumerate(spec.alpha)])
            passes.append((p, [3 - d - p, d]))
    else:
        pivot = _pivot_index(spec.alpha)
        passes = [(pivot, [i for i in range(spec.n) if i != pivot])]
    # deep-stage rows wait here, across blocks and passes, until the buffer
    # is full; one buffer for the whole count, so no small arrays outlive
    # their block.  Rows reach the deep stage only from three coordinates on
    deep = np.empty((_BLOCK_ROWS, spec.n), dtype=np.int64)
    deep_weights = np.empty(len(deep), dtype=np.int64)
    held = 0
    for pivot, free in passes:
        for cols, weights in _solutions(spec, report.H, signed, pivot, free, rad if strata else None):
            if strata:
                rows, weights = _deep_residue(cols, base, rad), 1
            else:
                rows, weights = _classify_block(report, cols, weights, base, rad)
            del cols  # freed before a flush of the deep buffer
            if held + len(rows) > len(deep):
                _rank_deep(report, deep[:held], deep_weights[:held])
                held = 0
            deep[held:held + len(rows)] = rows
            deep_weights[held:held + len(rows)] = weights
            held += len(rows)
    _rank_deep(report, deep[:held], deep_weights[:held])


def _solutions(spec: HyperplaneSpec, H: int, signed: bool, pivot, free, rad=None):
    """Yield (cols, weights) for the solutions, the pivot p (if any) solved
    from the ``free`` coordinates, at most ``_BLOCK_ROWS`` cells at a time:
    cols holds absolute values, one column per free coordinate, then p, and
    weights one int64 per cell.  Nothing is masked: the stage that
    classifies the cells drops a signed one with c = 0 or p = 0, off the box.

    The last free coordinate c is the inner one, the others are outer.  An
    outer combo leaves a_c·c + a_p·p = rem, rem = J − Σ a_o·o, with solutions
    only when g | rem ((g, s, u) from ``_line_class``), and then c lies in
    one class mod s (``_class_residue``).  Its range is c's axis cut to the
    values that keep p in its own (``_inner_range``).  Combos are decoded
    (``product`` order) and solved ``_BLOCK_ROWS`` at a time.

    Without ``rad`` each orbit is one cell (module docstring), its classes
    keyed by α_i in both domains: a combo is kept when ν is nondecreasing
    within each class, and c's range is cut to c ≥ ℓ, ℓ the last outer value
    of c's class.  A cell's weight, fold × ∏ k!/∏ r!, comes from adjacent
    comparisons: the t-th member of a class multiplies it by t and divides
    it by the length of the run of equal ν it ends, and each partial
    product is a multinomial, so an integer, and no larger than the vectors
    the cell stands for.  ``count_S`` hands a signed plane over as
    its |α| plane; on a signed plane with α_i < 0 the cells still cover it,
    in smaller orbits.

    Given ``rad``, the radical table (a strata pass), the fold is 1 and the
    classes are singletons, so every weight is 1; the one outer coordinate e
    runs over 2 ≤ |e| ≤ H, and c only over its side class, c ≡ 0
    (mod rad(e)): one class mod rad(e)·s/gcd(rad(e), s) (``_side_class``).

    The cells of all combos are laid out ragged, end to end, and cut into
    runs of ``_BLOCK_ROWS``: along its class c = first + k·m, and the pivot
    is p = (rem − a_c·c)/a_p, exact on c's class, so one floor division by
    the scalar a_p per cell.  Without a pivot (all-zero α) a unit stand-in
    for a_p makes the whole axis one class.

    Exact in int64 on the planes ``count_S`` lets through: |rem|, |a_c·c|
    and |a_p|·H stay below 2⁶², so |rem − a_c·c| = |a_p·p| < 2⁶² too; a
    class modulus is at most s·H, and ``first`` stays below 2⁶³ also on the
    combos its mask drops.
    """
    alpha = spec.alpha
    axes = [_axis(alpha[i], H, signed) for i in free]
    low = 1 if rad is None else 2
    outer_vals = [np.arange(start, H + 1, dtype=np.int64) for start, _ in axes[:-1]]
    outer_vals = [v[np.abs(v) >= low] for v in outer_vals]
    outer_coef = [alpha[i] for i in free[:-1]]
    ac, lo = alpha[free[-1]], axes[-1][0]
    ap = 1 if pivot is None else alpha[pivot]
    g, s, u = _line_class(ac, ap)
    # orbit classes; a strata pass keeps every coordinate apart, as its
    # roles break the symmetry
    key = free if rad is not None else [alpha[i] for i in free]
    fold = math.prod(f for _, f in axes)
    combos = math.prod(len(v) for v in outer_vals)
    cells = _BLOCK_ROWS
    for start in range(0, combos, cells):
        flat = np.arange(start, min(start + cells, combos))
        # a leading axis of length 1 gives a plane without outer coordinates
        # its one empty combo
        index = np.unravel_index(flat, (1, *map(len, outer_vals)))[1:]
        outer = [v[i] for v, i in zip(outer_vals, index)]
        rem = np.full(len(flat), spec.J, dtype=np.int64)
        for a, o in zip(outer_coef, outer):
            rem -= a * o
        if pivot is None:
            c_lo, c_hi = np.full_like(rem, lo), np.full_like(rem, H)
        else:
            c_lo, c_hi = _inner_range(rem, ac, ap, lo, H, -H if signed else 1)
        # per class: its last value so far, the run of equal values that
        # value ends, and the members seen
        weight, tail, ordered = np.full(len(rem), fold), {}, True
        for k, o in zip(key, outer):
            run, t = 1, 1
            if k in tail:
                last, run, t = tail[k]
                ordered &= last <= o
                run, t = np.where(last == o, run + 1, 1), t + 1
                weight = weight * t // run
            tail[k] = o, run, t
        cut = tail.get(key[-1])
        if cut:
            edge, run, t = cut  # edge = ℓ, the last outer value of c's class
            c_lo = np.maximum(c_lo, edge)
            weight, weight_eq = weight * (t + 1), weight * (t + 1) // (run + 1)
        ok, x, m = True, _class_residue(rem, g, s, u), s
        if rad is not None:
            ok, x, m = _side_class(rad[np.abs(outer[0])], x, s)
        # combos with a solution in range, the first one at c = ``first``
        first = c_lo + _mod(x - c_lo, m)
        live = np.flatnonzero((_mod(rem, g) == 0) & ok & ordered & (first <= c_hi))
        first, rem, outer = first[live], rem[live], [np.abs(o[live]) for o in outer]
        m = m[live] if np.ndim(m) else m
        weight = weight[live]
        if cut:
            edge, weight_eq = edge[live], weight_eq[live]
        edges = np.concatenate([[0], np.cumsum((c_hi[live] - first) // m + 1)])
        del flat, index, x, ok, c_lo, c_hi, live, ordered  # not needed past here
        for t0 in range(0, edges[-1], cells):
            t1 = min(t0 + cells, edges[-1])
            # combo r holds cells edges[r] to edges[r + 1] − 1
            r0 = int(np.searchsorted(edges, t0, "right")) - 1
            r1 = int(np.searchsorted(edges, t1 - 1, "right"))
            row = np.repeat(np.arange(r0, r1), np.minimum(edges[r0 + 1:r1 + 1], t1) - np.maximum(edges[r0:r1], t0))
            c = first[row] + (np.arange(t0, t1) - edges[row]) * (m[row] if np.ndim(m) else m)
            cols = [o[row] for o in outer] + [c]
            if pivot is not None:
                cols.append((rem[row] - ac * c) // ap)
            weights = np.where(c == edge[row], weight_eq[row], weight[row]) if cut else weight[row]
            if signed:
                for x in cols[len(outer):]:
                    np.abs(x, out=x)
            yield cols, weights


# ── rank-0/1 strata of three-coefficient planes ──────────────────────────


def _line_points(b, c, m: np.ndarray, lo: int, H: int, signed: bool) -> np.ndarray:
    """#{(y, z) : b_k·y + c_k·z = m_j} with lo ≤ |y|, |z| ≤ H (``signed``)
    or lo ≤ y, z ≤ H, as a (K, M) array: ``b`` and ``c`` list K nonzero
    coefficients, one line each, and m is a 1-D int64 array of M levels.

    Each sign pattern of (y, z) is a line on [lo, H]²: (±y, ±z) turns (b, c)
    into (b, ±c), or into (−b, ∓c), which on m is (b, ±c) on −m.  On such a
    line y lies in one residue class mod s (``_line_class``), and z ∈ [lo, H]
    bounds y to an interval (``_inner_range``, with the line negated where
    b < 0); the count is that of the class members in it.
    """
    K = len(b)
    if signed:
        b, c = [*b, *b], [*c, *(-x for x in c)]
        m = np.concatenate([m, -m])
    flip = [-1 if x < 0 else 1 for x in b]
    b, c = ([f * x for f, x in zip(flip, v)] for v in (b, c))
    shape = (len(b), len(m))
    # a parameter shared by every line stays an int: numpy divides far
    # faster by a scalar than by a column
    g, s, u, b, c, flip = (v[0] if len(set(v)) == 1 else np.array(v, dtype=np.int64)[:, None]
                           for v in (*zip(*map(_line_class, b, c)), b, c, flip))
    m = m * flip
    r = _class_residue(m, g, s, u)
    y_lo, y_hi = _inner_range(m, b, c, lo, H, lo)
    count = (y_hi - r) // s - (y_lo - 1 - r) // s
    count = np.broadcast_to(np.where(_mod(m, g) == 0, np.maximum(count, 0), 0), shape)
    if signed:
        count = count[:K] + count[K:]
        half = shape[1] // 2
        count = count[:, :half] + count[:, half:]
    return count


def _points(rows, J: int, lo: int, H: int, signed: bool) -> int:
    """Σ over the coefficient rows of #{ν : row·ν = J} with lo ≤ |ν_i| ≤ H
    (``signed``) or lo ≤ ν_i ≤ H, for rows of at most three nonzero entries.

    A zero coefficient leaves its coordinate free.  Rows with two nonzero
    entries are lines, all counted in one ``_line_points`` call; a row with
    three scans its first coordinate, ``_BLOCK_ROWS`` values at a time, and
    counts the line of the other two for each value.  Unlike
    ``hyperplane_lattice_count`` nothing is convolved, so no box is too wide
    (a signed (2, 3, 4) box at H = 10⁶ would need 1.8·10⁷ slots there).
    """
    width = (2 if signed else 1) * (H - lo + 1)
    total = 0
    lines = []
    for row in rows:
        nz = [a for a in row if a]
        weight = width ** (len(row) - len(nz))
        if len(nz) == 0:
            total += weight * (J == 0)
        elif len(nz) == 1:
            q, r = divmod(J, nz[0])
            total += weight * (r == 0 and lo <= (abs(q) if signed else q) <= H)
        elif len(nz) == 2:
            lines.append((weight, *nz))
        else:
            a0, b, c = nz
            for x0 in range(lo, H + 1, _BLOCK_ROWS):
                x = np.arange(x0, min(x0 + _BLOCK_ROWS, H + 1), dtype=np.int64)
                m = J - a0 * (np.concatenate([-x, x]) if signed else x)
                total += weight * int(_line_points([b], [c], m, lo, H, signed).sum())
    if lines:
        weights, b, c = zip(*lines)
        counts = _line_points(b, c, np.array([J], dtype=np.int64), lo, H, signed)
        total += sum(w * int(k) for w, k in zip(weights, counts[:, 0]))
    return total


def _power_pairs(base: np.ndarray, H: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, w): every ordered pair x = w^s, y = w^t ≤ H (s = t included)
    of powers of one non-power 2 ≤ w ≤ √H, read from the minimal-base table.
    A base above √H has no second power up to H, so its one value pairs only
    with itself."""
    w = np.arange(2, math.isqrt(H) + 1, dtype=np.int64)
    w = w[base[2:len(w) + 2] == w]
    # column t − 1 holds w^t, capped at H + 1; w[0] = 2 has the most powers
    powers = [w]
    while len(w) and powers[-1][0] * 2 <= H:
        powers.append(np.minimum(powers[-1] * w, H + 1))
    table = np.stack(powers, axis=1)
    x, y = np.broadcast_arrays(table[:, :, None], table[:, None, :])
    ok = (x <= H) & (y <= H)
    return x[ok], y[ok], np.broadcast_to(w[:, None, None], ok.shape)[ok]


def _strata(spec: HyperplaneSpec, domain: DomainSpec, base: np.ndarray) -> tuple[int, int, int]:
    """(total_on_plane, rank 0, rank 1) of a plane with three nonzero
    coefficients, in closed form; ``base`` is the minimal-base table up to H.

    N_ℓ counts the plane's points with ℓ ≤ |ν_i| ≤ H for every i, so the
    total is N₁ and rank 0 (some |ν_i| = 1) is N₁ − N₂.  Among points with
    every |ν_i| ≥ 2, sharing a minimal base is an equivalence relation on the
    coordinates, so by inclusion–exclusion over the three pair events rank 1
    is N₁₂ + N₁₃ + N₂₃ − 2·N₁₂₃: N_ij counts points with base(ν_i) =
    base(ν_j), N₁₂₃ those with one base for all three.  Where |ν_i| = |ν_j|,
    ν_j = ±ν_i merges their coefficients into a_i ± a_j, a lattice count on
    fewer coordinates (likewise all three equal).  Unequal values of one base
    w are w^s ≠ w^t with w ≤ √H (``_power_pairs``): each pair, with its signs,
    solves the third coordinate from the plane.

    The caller tests the sweep's regime first (H ≤ ``_TABLE_CAP``,
    Σ|a_i|·H + |J| < 2⁶²), which keeps every int64 value here exact.
    """
    a, J, H = spec.alpha, spec.J, domain.H
    signed = domain.kind == "signed"
    signs = (1, -1) if signed else (1,)
    total = _points([a], J, 1, H, signed)
    rank0 = total - _points([a], J, 2, H, signed)
    pairs = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
    same2 = _points([(a[i] + t * a[j], a[k]) for i, j, k in pairs for t in signs], J, 2, H, signed)
    same3 = _points([(a[0] + t * a[1] + v * a[2],) for t in signs for v in signs], J, 2, H, signed)
    x, y, w = _power_pairs(base, H)
    if signed:
        sx, sy = np.array([[1], [1], [-1], [-1]]), np.array([[1], [-1], [1], [-1]])
        vx, vy = (sx * x).ravel(), (sy * y).ravel()
        x, y, w = np.tile(x, 4), np.tile(y, 4), np.tile(w, 4)
    else:
        vx, vy = x, y
    for i, j, k in pairs:
        rem = J - a[i] * vx - a[j] * vy
        z = rem // a[k]
        if signed:
            z = np.abs(z)
        ok = (_mod(rem, a[k]) == 0) & (z >= 2) & (z <= H)
        same2 += int(np.count_nonzero(ok & (x != y)))
        if k == 2:
            # all three powers of w, not all equal in |ν| (those are in same3)
            ok[ok] = base[z[ok]] == w[ok]
            same3 += int(np.count_nonzero(ok & ((x != y) | (x != z))))
    return total, rank0, same2 - 2 * same3


# ── curve systems: one multiplicative and one linear equation ────────────

# variant → (side of each ν_i in the power equation, +1 with A and −1 with B;
# number of leading ν_i on the plane α·ν = J)
CURVE_VARIANTS = {
    "2var-a": ((1, 1, -1), 2),
    "2var-b": ((1, -1, 1), 2),
    "3var": ((1, 1, -1), 3),
    "4var": ((1, 1, -1, -1), 4),
}


@dataclass(frozen=True)
class CurveSystemSpec:
    """A power-product equation coupled with a linear equation.

    variant 2var-a:  A·ν1^k1·ν2^k2 = B·ν3^k3,  α1·ν1 + α2·ν2 = J
    variant 2var-b:  A·ν1^k1·ν3^k3 = B·ν2^k2,  α1·ν1 + α2·ν2 = J
    variant 3var:    A·ν1^k1·ν2^k2 = B·ν3^k3,  α·ν = J, α1ν1 ≠ J ≠ α2ν2
    variant 4var:    ν1^k1·ν2^k2 = ν3^k3·ν4^k4, α·ν = J (A = B = 1)
    """

    variant: str
    A: int
    B: int
    k: tuple[int, ...]
    alpha: tuple[int, ...]
    J: int


def _validate_curve(sys: CurveSystemSpec) -> None:
    if sys.variant not in CURVE_VARIANTS:
        raise RegimeError(f"unknown curve variant {sys.variant!r}")
    sides, na = CURVE_VARIANTS[sys.variant]
    if len(sys.k) != len(sides) or len(sys.alpha) != na:
        raise RegimeError(f"variant {sys.variant} needs {len(sides)} exponents and {na} coefficients")
    if any(e < 1 for e in sys.k):
        raise RegimeError("exponents k_i must be positive integers")
    if sys.J == 0:
        raise RegimeError("curve systems require J != 0")
    if sys.variant == "4var":
        if (sys.A, sys.B) != (1, 1):
            raise RegimeError("the 4-variable system fixes A = B = 1")
        if sum(1 for a in sys.alpha if a == 0) > 1:
            raise RegimeError("the 4-variable system allows at most one zero coefficient")
    else:
        if sys.A == 0 or sys.B == 0:
            raise RegimeError("A and B must be nonzero")
        if any(a == 0 for a in sys.alpha):
            raise RegimeError("linear coefficients must be nonzero for this variant")


def _iroot(m: int, k: int) -> int:
    """⌊m^(1/k)⌋ for m ≥ 0, by integer Newton steps from above."""
    if k == 1 or m < 2:
        return m
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def curve_counts(sys: CurveSystemSpec, H: int) -> tuple[int, int]:
    """(count, excluded) for the curve system with 0 < |ν_i| ≤ H.

    One loop for every variant.  The last two plane coordinates with nonzero
    α are the inner pair (c, d), the others the outer ones o, and the pair
    lies on α_c·c + α_d·d = m = J − Σ α_o·o.  Each candidate c solves d from
    that line, and both sides of the power equation are multiplied out as
    Python ints.  In the 2var variants ν3 is off the plane: a point adds the
    number of x with x^k3 equal to the quotient of the sides, 0 < |x| ≤ H.

    In 2var and where m = 0, c runs along the residue class that solves the
    line (``_line_class``; none when gcd(α_c, α_d) ∤ m), elsewhere only over
    ±(rad(A·B·∏o·m)-smooth integers in [1, H]).  Lemma: take m ≠ 0 and a
    prime p | c with p ∤ A·B·∏o.  In the power equation only d can carry p
    on the side opposite c, so p | d, and then p | α_c·c + α_d·d = m.  Hence
    rad(c) | rad(A·B·∏o·m); c = ±1 is the empty product.  ``excluded``
    counts the 3var solutions that α1ν1 ≠ J ≠ α2ν2 drops, 0 elsewhere.
    """
    _validate_curve(sys)
    if H < 1:
        raise ValueError("H must be >= 1")
    sides, na = CURVE_VARIANTS[sys.variant]
    k, alpha, J = sys.k, sys.alpha, sys.J
    ci, di = [i for i in range(na) if alpha[i]][-2:]
    outer = [i for i in range(na) if i not in (ci, di)]
    e = k[-1]
    fixed = [p for p, _ in arith._abs_exponents(abs(sys.A * sys.B))]
    axis = (*range(-H, 0), *range(1, H + 1)) if outer else ()
    g, step, u = _line_class(alpha[ci], alpha[di])
    count = excluded = 0
    for o in product(*[axis] * len(outer)):
        m = J - sum(alpha[i] * v for i, v in zip(outer, o))
        lhs = sys.A * math.prod(v ** k[i] for i, v in zip(outer, o) if sides[i] > 0)
        rhs = sys.B * math.prod(v ** k[i] for i, v in zip(outer, o) if sides[i] < 0)
        if na < len(sides) or m == 0:
            if m % g:
                continue
            cs = range(-H + (m // g * u + H) % step, H + 1, step)
        else:
            primes = fixed + [p for v in (m, *o) for p, _ in arith._abs_exponents(abs(v))]
            cs = [c for s in arith.smooth_numbers(H, primes) for c in (s, -s)]
        for c in cs:
            d, r = divmod(m - alpha[ci] * c, alpha[di])
            if r or not c or not d or abs(d) > H:
                continue
            cp, dp = c ** k[ci], d ** k[di]
            left = lhs * (cp if sides[ci] > 0 else 1) * (dp if sides[di] > 0 else 1)
            right = rhs * (1 if sides[ci] > 0 else cp) * (1 if sides[di] > 0 else dp)
            if na < len(sides):
                # x = ν3 joins the den side: x^k3 = num/den
                num, den = (left, right) if sides[na] < 0 else (right, left)
                q, r = divmod(num, den)
                if r or abs(q) > H**e:
                    continue
                x = _iroot(abs(q), e)
                if x**e == abs(q):
                    count += 1 if e % 2 else (2 if q > 0 else 0)
            elif left == right:
                nu = {**dict(zip(outer, o)), ci: c, di: d}
                if sys.variant == "3var" and J in (alpha[0] * nu[0], alpha[1] * nu[1]):
                    excluded += 1
                else:
                    count += 1
    return count, excluded
