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
p with it, by −(a_c/g)·sign(a_p) per step s of c, from one p solved per
combination, so every cell solves the plane with |c|, |p| ≤ H and none
divides; it classifies the cells exactly, at most ``_BLOCK_ROWS`` at a time,
and drops a signed cell with c = 0 or p = 0, off the box.

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
dominant coordinate d, and rad(d) = rad(row).  So one sweep streams the
cells of all three roles of d: in each, the third coordinate e is outer over
2 ≤ |e| ≤ H, and d steps along its side class, d ≡ 0 (mod rad(e)) within
the line's class mod s, one class mod rad(e)·s/gcd(rad(e), s) per combo
(``_side_class``).  As Σ 1/rad(e) over e ≤ H grows slower than any power of
H (28 at H = 2000, 141 at 10⁶), the cells number H^{1+o(1)}, not O(H²).
Then ``_deep_residue``, blind to a cell's role, tests the rest of the side
exactly, rad(p) | d and rad(d) | e·p, and keeps the rows the cascade would
hand on that have a dominant coordinate, each under the one of largest
value (equal values share a base, so two dominant values never tie).

``count_S`` picks the classify stage, the cascade (``_classify_block``) or,
with strata, ``_deep_residue``.  The deep stage is batched per count
(``_sweep``): survivors of every block wait in one buffer of one block's
size.  When it is full, and once at the end, each row is sorted, equal rows
are merged by summing their weights, and the distinct rows are ranked in
stacks of at most ``_RANK_CELLS`` Gram entries, each by one call of
``relations.rank_from_rows`` on its values; nothing is remembered between
flushes.  A Gram entry depends only on its pair of values, and a k = 4
sweep's rows are many while their values are few (a median of 28 distinct
values under 1162 rows per stack on the benchmark's k = 4 sweeps), so
``relations`` gathers each stack's Gram matrices from one table of its V
distinct values' inner products wherever V² ≤ m·n² for m rows of n values,
and lays out exponent rows where values are the more numerous, as in the
k = 3 strata residue (126 under 226).

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
classes and weight fold.  The strata roles break the symmetry, so there
every cell stands for itself.

Curve systems (one power-product equation with one linear equation) run one
loop for every variant, ``curve_counts``: it lists candidates for the inner
pair of plane coordinates, drawn by ``arith.smooth_numbers`` or from the
line's residue class where no smoothness holds (the lemma behind it is in
its docstring), and one kernel, ``_curve_block``, tests them ``_BLOCK_ROWS``
at a time: it solves the pair and tests the power equation in int64 where a
bound on the system keeps every value below 2⁶³ (``_curve_dtype``), in
Python ints otherwise, with integer roots from ``_iroot``.  A count that
sweeps refuses H above ``_TABLE_CAP``, planes whose int64 arithmetic could
wrap (Σ|α_i|·H + |J| ≥ 2⁶²) and 2⁶³ or more outer combos, too many to
number in int64, with RegimeError before any strata, sweep or table.
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


def _axis(a_i: int, H: int, signed: bool, low: int = 1) -> tuple[list[range], int]:
    """(ranges, fold) of a free coordinate with coefficient a_i: its values v,
    low ≤ |v| ≤ H, ascending, as ranges, each standing for ``fold`` vectors; a
    signed one off the plane (a_i = 0) folds onto [low, H] with fold 2.  Both
    ``count_S``'s combo count and ``_solutions``' sweep take them from here."""
    if signed and a_i == 0:
        return [range(low, H + 1)], 2
    return ([range(-H, 1 - low)] if signed else []) + [range(low, H + 1)], 1


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
    Returns the rows the cascade leaves for the deep stage, as an (r, n)
    array in column order, and their weights, for ``_rank_deep``.
    The cover filter counts each row's uncovered coordinates over all n of
    them, then takes one gather of the rows with at most n − 3, so none for
    n ≤ 2.  It runs only while H^n < 2⁶², so that a row's product is exact
    in int64; above, every unsettled row goes on to the deep stage.
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
    return np.stack(cols, axis=1), weights


def _deep_residue(cols: list[np.ndarray], base: np.ndarray, rad: np.ndarray) -> np.ndarray:
    """The deep-stage rows among the strata sweep's cells of a plane with
    three nonzero coefficients, whose total, rank 0 and rank 1 come from
    ``_strata``.

    ``cols`` holds the absolute values (e, d, p) of each cell in its role's
    order, whatever the role: the outer coordinate e, the dominant one d and
    the pivot p.  The sweep gives rad(e) | d and |e| ≥ 2, but also cells with
    d = 0 or p = 0, off the box, which are dropped first.  ``base`` and
    ``rad`` are tables, as for ``_classify_block``.  A row is kept when
    rad(p) | d, then rad(d) | e·p (so every coordinate is covered and
    rad(d) = rad(row)), it has no 1 and no shared base, and no other
    coordinate with rad(d) is larger than d, the role that keeps a row with
    several dominant coordinates (their values never tie, as equal values
    share a base).  Returns the kept rows, (e, d, p) each: across the
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
    return np.stack(cols, axis=1)[~drop]


def _rank_deep(report: CountReport, rows: np.ndarray, weights: np.ndarray) -> None:
    """Rank the rows ``_classify_block`` or ``_deep_residue`` left for the
    deep stage, row i standing for weights[i] vectors (int64), and add the
    dependent ones to ``report``'s ``Counter``; ``rows`` may be empty.

    Each row is sorted (rank depends only on the multiset), equal rows are
    merged by summing their weights and ranked once, in stacks of
    ``_RANK_CELLS`` // n² distinct rows (Gram entries), each by one
    ``relations.rank_from_rows`` on its values, which takes the Gram
    matrices from a table of value-pair inner products or from laid-out
    exponent rows by a rule on the stack's sizes (module docstring).  The
    rows have no ±1 and no dependent pair, so subsets start at size 3, and
    the rank is below n exactly when the vector is dependent.  The merge
    needs equal rows adjacent: a stable argsort of one int64 key per row,
    its n values less 1 in fields of b bits, b = ⌈log₂⌉ of the largest
    value, while n·b ≤ 63 (values up to 2¹⁵ at n = 4, 2²¹ at n = 3), and
    otherwise an argsort of the rows as opaque byte strings.
    """
    # any order that makes equal rows adjacent serves the merge
    rows = np.sort(rows, axis=1)
    n = rows.shape[1]
    bits = int(rows.max(initial=1) - 1).bit_length()
    if n * bits <= 63:
        key = rows[:, 0] - 1
        for j in range(1, n):
            key = key << bits | rows[:, j] - 1
        order = key.argsort(kind="stable")
    else:  # rows as opaque byte strings
        order = rows.view(np.dtype((np.void, rows.itemsize * n))).ravel().argsort()
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    start = np.flatnonzero(first)
    counts = np.add.reduceat(weights[order], start)
    step = max(1, _RANK_CELLS // (n * n))
    for lo in range(0, len(start), step):
        keys = rows[start[lo:lo + step]]
        ranks = relations.rank_from_rows(keys, smallest=3)
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
# one or two stacks; full stacks add 0.7–1 MiB to a 4-coordinate count's
# tracemalloc peak over 16-row ones (1.4–1.7 MiB when each stack's exponent
# rows were laid out)
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

    Here alone the stage that classifies the cells of ``_solutions`` is
    picked (module docstring), and ``_sweep`` ranks the rows it leaves.
    """
    H = domain.H
    signed = domain.kind == "signed"
    report = CountReport(spec.alpha, spec.J, domain.kind, H)
    if report.degenerate:
        report.by_rank = {}
        return report
    if signed:
        spec = HyperplaneSpec(tuple(map(abs, spec.alpha)), spec.J)
    alpha = spec.alpha

    if spec.n > 1:
        if H > _TABLE_CAP:
            raise RegimeError(f"height {H} needs lookup tables above the cap {_TABLE_CAP}")
        if sum(abs(a) for a in alpha) * H + abs(spec.J) >= 2**62:
            raise RegimeError("sum of |alpha_i|*H plus |J| reaches 2^62, beyond the sweep's int64 arithmetic")
        strata = spec.n == spec.nnz == 3
        if strata:  # one role per dominant coordinate d (module docstring)
            pivots = [_pivot_index([0 if i == d else a for i, a in enumerate(alpha)]) for d in range(3)]
            roles = [(p, [3 - d - p, d]) for d, p in enumerate(pivots)]
        else:
            pivot = _pivot_index(alpha)
            roles = [(pivot, [i for i in range(spec.n) if i != pivot])]
        combos = len(roles) * math.prod(sum(map(len, _axis(alpha[i], H, signed, 1 + strata)[0])) for i in roles[0][1][:-1])
        if combos >= 2**63:
            raise RegimeError(f"the sweep of {report.alpha}·nu = {spec.J} at H = {H} needs {combos} outer combinations, beyond int64")
        base, rad = arith.power_base_table(H), arith.radical_table(H)
        cells = _solutions(spec, H, signed, roles, rad if strata else None)
        if strata:
            report.total_on_plane, rank0, rank1 = _strata(spec, domain, base)
            report.by_rank.update({0: rank0, 1: rank1})
            blocks = ((_deep_residue(cols, base, rad), 1) for cols, _ in cells)
        else:
            blocks = (_classify_block(report, cols, weights, base, rad) for cols, weights in cells)
        _sweep(report, spec.n, blocks)
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
    c_lo > c_hi.  ac ≥ 0 and ap are ints, or int64 columns that broadcast
    with rem (a column ac must be positive).  With ac = 0, p is the same for
    every c, so the range is all of [lo, H] or nothing."""
    # ac·c = rem − ap·p runs over [low, high]
    low = rem - np.maximum(ap * p_lo, ap * H)
    high = rem - np.minimum(ap * p_lo, ap * H)
    if np.ndim(ac) == 0 and ac == 0:
        return np.full_like(rem, lo), np.where((low <= 0) & (high >= 0), H, lo - 1)
    return np.maximum(-(-low // ac), lo), np.minimum(high // ac, H)


def _side_class(r: np.ndarray, x: np.ndarray, s):
    """(ok, y, m): where ok, the d with d ≡ x (mod s) and d ≡ 0 (mod r) are
    those with d ≡ y (mod m), m = r·s/g₂ and g₂ = gcd(r, s); elsewhere
    (g₂ ∤ x) there are none.  r holds squarefree values, so r/g₂ is prime
    to s/g₂, and y = r·k with k ≡ (x/g₂)·(r/g₂)⁻¹ (mod s/g₂); s is an int
    or a column like r.  As r mod s = g₂·(r/g₂ mod s/g₂), each distinct
    (r mod s, s), keyed s·w + r mod s, w = max r + 1 (below 2⁶³: r ≤ H and
    s·H < 2⁶² on a sweep's planes), takes one ``pow``; ``_class_residue``
    forms the product, in Python ints once (s/g₂)² could pass 2⁶³."""
    w = int(r.max(initial=0)) + 1
    t, at = np.unique(s * w + _mod(r, s), return_inverse=True)
    q, t = t % w, t // w
    g2 = np.gcd(q, t)
    inv = np.array([pow(a // g, -1, b // g) for a, g, b in zip(q.tolist(), g2.tolist(), t.tolist())], dtype=np.int64)
    g2, inv = g2[at], inv[at]
    s2 = s // g2
    return _mod(x, g2) == 0, r * _class_residue(x, g2, s2, inv), r * s2


def _sweep(report: CountReport, n: int, blocks) -> None:
    """Rank the rows a classify stage leaves, one (rows, weights) per block
    of an n-coordinate count in ``blocks``: they wait in one buffer of
    ``_BLOCK_ROWS`` rows, which ``_rank_deep`` ranks when full and at the end."""
    # one buffer for the whole count, so no small arrays outlive their block
    deep = np.empty((_BLOCK_ROWS, n), dtype=np.int64)
    deep_weights = np.empty(len(deep), dtype=np.int64)
    held = 0
    for rows, weights in blocks:
        if held + len(rows) > len(deep):
            _rank_deep(report, deep[:held], deep_weights[:held])
            held = 0
        deep[held:held + len(rows)] = rows
        deep_weights[held:held + len(rows)] = weights
        held += len(rows)
    _rank_deep(report, deep[:held], deep_weights[:held])


def _solutions(spec: HyperplaneSpec, H: int, signed: bool, roles, rad=None):
    """Yield (cols, weights) for the solutions of every role (pivot, free)
    in ``roles``, at most ``_BLOCK_ROWS`` cells at a time: each role solves
    its pivot p (if any) from its ``free`` coordinates, cols holds absolute
    values, one column per free coordinate, then p, and weights one int64
    per cell.  The roles share their axes (several roles come only with no
    zero α).  Nothing is masked: the stage that classifies the cells drops
    a signed one with c = 0 or p = 0, off the box.

    The last free coordinate c is the inner one, the others are outer.  An
    outer combo of a role leaves a_c·c + a_p·p = rem, rem = J − Σ a_o·o,
    negated where a_c < 0, with solutions only when g | rem ((g, s, u) from
    ``_line_class``), and then c lies in one class mod s (``_class_residue``).
    Its range runs from the first value of c's axis (``_axis``) to H, 0
    included, cut to the values that keep p in its own (``_inner_range``).
    Combos are decoded (role, then ``product`` order) and solved
    ``_BLOCK_ROWS`` at a time, each with its role's line: a line parameter all
    roles share, or all in the block, stays an int.

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

    Given ``rad``, the radical table (a strata plane), the fold is 1 and the
    classes are singletons, so every weight is 1; the axes take low = 2, so the
    one outer coordinate e runs over 2 ≤ |e| ≤ H, and c only over its side
    class, c ≡ 0 (mod rad(e)): one class mod rad(e)·s/gcd(rad(e), s)
    (``_side_class``), which holds no ±1 as rad(e) ≥ 2.

    The cells of all combos are laid out ragged, end to end, and cut into
    runs of ``_BLOCK_ROWS``: the k-th cell of a combo has c = first + k·m
    and p = p₀ − k·(a_c/g)·sign(a_p)·(m/s), p₀ solved at c = first, so no
    cell divides.  Without a pivot (all-zero α) a unit stand-in for a_p
    makes the whole axis one class.

    Exact in int64 on the planes ``count_S`` lets through: |rem|, |a_c·c|
    and |a_p|·H stay below 2⁶², so |rem − a_c·c| = |a_p·p| < 2⁶² too; a
    class modulus is at most s·H, and ``first`` stays below 2⁶³ also on the
    combos its mask drops.
    """
    alpha = spec.alpha
    pivot, free = roles[0]
    axes = [_axis(alpha[i], H, signed, 1 + (rad is not None)) for i in free]
    outer_vals = [np.concatenate([np.arange(r.start, r.stop, dtype=np.int64) for r in rs]) for rs, _ in axes[:-1]]
    lo = axes[-1][0][0].start
    # each role's line (J, outer coefficients, a_c, a_p, g, s, u), a_c ≥ 0
    lines = []
    for p, f in roles:
        turn = -1 if alpha[f[-1]] < 0 else 1
        line = [turn * spec.J, *(turn * alpha[i] for i in f), turn * (1 if p is None else alpha[p])]
        lines.append((*line, *_line_class(*line[-2:])))
    # a parameter all roles share stays an int: numpy divides faster by it
    lines = [v[0] if len(set(v)) == 1 else np.array(v, dtype=np.int64) for v in zip(*lines)]
    # orbit classes; a strata plane's roles break the symmetry
    key = free if rad is not None else [alpha[i] for i in free]
    fold = math.prod(f for _, f in axes)
    combos = len(roles) * math.prod(len(v) for v in outer_vals)
    cells = _BLOCK_ROWS
    for start in range(0, combos, cells):
        flat = np.arange(start, min(start + cells, combos))
        # the role axis leads, which gives a plane without outer coordinates its one combo per role
        role, *index = np.unravel_index(flat, (len(roles), *map(len, outer_vals)))
        role = role[0] if role[0] == role[-1] else role  # one role: its line's ints
        J, *coef, ac, ap, g, s, u = (v[role] if isinstance(v, np.ndarray) else v for v in lines)
        outer = [v[i] for v, i in zip(outer_vals, index)]
        rem = np.zeros(len(flat), dtype=np.int64) + J
        for a, o in zip(coef, outer):
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
        ac, ap, g, s, m = (v[live] if isinstance(v, np.ndarray) else v for v in (ac, ap, g, s, m))
        weight = weight[live]
        if cut:
            edge, weight_eq = edge[live], weight_eq[live]
        edges = np.concatenate([[0], np.cumsum((c_hi[live] - first) // m + 1)])
        p_first = (rem - ac * first) // ap
        p_step = -(ac // g) * (m // s) * (ap // abs(ap))
        del flat, index, x, ok, c_lo, c_hi, live, ordered, rem  # not needed past here
        for t0 in range(0, edges[-1], cells):
            t1 = min(t0 + cells, edges[-1])
            # combo r holds cells edges[r] to edges[r + 1] − 1, and its values
            # are repeated over them (several times faster than a gather)
            r0 = int(np.searchsorted(edges, t0, "right")) - 1
            r1 = int(np.searchsorted(edges, t1 - 1, "right"))
            reps = np.minimum(edges[r0 + 1:r1 + 1], t1) - np.maximum(edges[r0:r1], t0)
            at, c, step, p, dp, w = (np.repeat(v[r0:r1], reps) if isinstance(v, np.ndarray) else v
                                     for v in (edges, first, m, p_first, p_step, weight))
            k = np.arange(t0, t1) - at
            c += k * step
            cols = [np.repeat(o[r0:r1], reps) for o in outer] + [c]
            if pivot is not None:
                cols.append(p + k * dp)
            weights = np.where(c == np.repeat(edge[r0:r1], reps), np.repeat(weight_eq[r0:r1], reps), w) if cut else w
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


def _curve_pair(alpha) -> list[int]:
    """Indices (c, d) of the inner pair: the last two plane coordinates with
    nonzero α."""
    return [i for i, a in enumerate(alpha) if a][-2:]


def _curve_dtype(sys: CurveSystemSpec, H: int) -> np.dtype:
    """int64 where ``_curve_block`` provably forms no value of 2⁶³ or more,
    Python ints (object) otherwise, as ``relations._gram`` picks.

    Either side of the power equation is its coefficient times powers of
    plane coordinates, so it is at most max(|A|, |B|)·H^Σk over the plane's
    exponents (in 2var only the inner pair's: ν3 is never multiplied out),
    and so is a quotient of the sides.  A 2var root test keeps quotients up
    to H^k3, and the line solve forms at most Σ|α_i|·H + |J|.
    """
    na = CURVE_VARIANTS[sys.variant][1]
    top = max(
        max(abs(sys.A), abs(sys.B)) * H ** sum(sys.k[:na]),
        H ** sys.k[-1],
        sum(map(abs, sys.alpha)) * H + abs(sys.J),
    )
    return np.dtype(np.int64 if top < 2**63 else object)


def _iroot(m: np.ndarray, k: int) -> np.ndarray:
    """⌊m^(1/k)⌋ for each entry of an int64 or object array m ≥ 0, in its dtype.

    Integer Newton steps from above, each entry from 2^⌈b/k⌉ for its bit
    length b, until no entry moves down.  The step x ↦ ⌊((k−1)·x + t)/k⌋,
    t = ⌊m/x^(k−1)⌋, is taken as x + ⌊(t − x)/k⌋, which moves down exactly
    when t < x, and t as k − 1 floor divisions by x (⌊⌊m/x⌋/x⌋ = ⌊m/x²⌋), so
    no intermediate passes max(m, 2^⌈b/k⌉) and int64 holds every one."""
    if k == 1:
        return m
    bits = np.searchsorted(np.array([1 << i for i in range(int(m.max(initial=0)).bit_length())], dtype=m.dtype), m, side="right")
    x = np.left_shift(np.ones_like(m), (-(-bits // k)).astype(m.dtype))
    n = np.maximum(m, 1)  # m = 0 starts at x = 1 and stays there
    while True:
        t = n
        for _ in range(k - 1):
            t = t // x
        down = t < x
        if not down.any():
            return np.where(bits > 0, x, 0).astype(m.dtype)
        x = np.where(down, x + (t - x) // k, x)


def _curve_block(sys: CurveSystemSpec, H: int, dtype: np.dtype, parts, scalars) -> tuple[int, int]:
    """(count, excluded) of one block of candidate rows: the int64 arrays of
    candidates c in ``parts``, each with its outer combo's (m, lhs, rhs) in
    ``scalars``, lhs and rhs the outer parts of the two sides of the power
    equation.  The block is formed in ``dtype`` (``_curve_dtype``).

    d is solved from α_c·c + α_d·d = m; rows with c = 0, with no integer d,
    d = 0 or |d| > H drop, and the rest multiply both sides out.  In 2var a
    row adds the x with x^k3 equal to the quotient of the sides, 0 < |x| ≤ H;
    elsewhere 1 when the sides are equal.  ν1 is 3var's one outer
    coordinate, so there α1·ν1 = J exactly where m = 0, and α2·ν2 = α_c·c.
    """
    sides, na = CURVE_VARIANTS[sys.variant]
    (ci, di), k = _curve_pair(sys.alpha), sys.k
    a_c, a_d = sys.alpha[ci], sys.alpha[di]
    c = np.concatenate(parts).astype(dtype, copy=False)
    m, lhs, rhs = (np.repeat(np.array(col, dtype), [len(x) for x in parts]) for col in zip(*scalars))
    r = m - a_c * c
    keep = (c != 0) & (r % a_d == 0)
    d = r // a_d
    keep &= (d != 0) & (np.abs(d) <= H)
    c, d, m, lhs, rhs = (x[keep] for x in (c, d, m, lhs, rhs))
    cp, dp = c ** k[ci], d ** k[di]
    left = lhs * (cp if sides[ci] > 0 else 1) * (dp if sides[di] > 0 else 1)
    right = rhs * (1 if sides[ci] > 0 else cp) * (1 if sides[di] > 0 else dp)
    if na < len(sides):
        # x = ν3 joins the den side: x^k3 = num/den
        e = k[na]
        num, den = (left, right) if sides[na] < 0 else (right, left)
        whole = num % den == 0
        q = num[whole] // den[whole]
        q = q[np.abs(q) <= H**e]
        hit = _iroot(np.abs(q), e) ** e == np.abs(q)
        if e % 2:
            return int(np.count_nonzero(hit)), 0
        return 2 * int(np.count_nonzero(hit & (q > 0))), 0
    eq = left == right
    if sys.variant != "3var":
        return int(np.count_nonzero(eq)), 0
    dropped = int(np.count_nonzero(eq & ((m == 0) | (a_c * c == sys.J))))
    return int(np.count_nonzero(eq)) - dropped, dropped


def _curve_blocks(segments):
    """Pack (candidates, m, lhs, rhs) segments, an int64 array and three ints
    each, into blocks (parts, scalars) of at most ``_BLOCK_ROWS`` candidate
    rows; a segment that overfills a block goes on in the next."""
    parts, scalars, rows = [], [], 0
    for c, *s in segments:
        while len(c):
            part, c = c[: _BLOCK_ROWS - rows], c[_BLOCK_ROWS - rows :]
            parts.append(part)
            scalars.append(s)
            rows += len(part)
            if rows == _BLOCK_ROWS:
                yield parts, scalars
                parts, scalars, rows = [], [], 0
    if rows:
        yield parts, scalars


def curve_counts(sys: CurveSystemSpec, H: int) -> tuple[int, int]:
    """(count, excluded) for the curve system with 0 < |ν_i| ≤ H.

    One loop over the outer combos for every variant.  The last two plane
    coordinates with nonzero α are the inner pair (c, d), the others the
    outer ones o, and the pair lies on α_c·c + α_d·d = m = J − Σ α_o·o.  In
    the 2var variants ν3 is off the plane: a point adds the number of x with
    x^k3 equal to the quotient of the sides, 0 < |x| ≤ H.

    In 2var and where m = 0, c runs along the residue class that solves the
    line (``_line_class``; none when gcd(α_c, α_d) ∤ m), elsewhere only over
    ±(rad(A·B·∏o·m)-smooth integers in [1, H]).  Lemma: take m ≠ 0 and a
    prime p | c with p ∤ A·B·∏o.  In the power equation only d can carry p
    on the side opposite c, so p | d, and then p | α_c·c + α_d·d = m.  Hence
    rad(c) | rad(A·B·∏o·m); c = ±1 is the empty product.  ``excluded``
    counts the 3var solutions that α1ν1 ≠ J ≠ α2ν2 drops, 0 elsewhere.

    The loop only lists each combo's candidates, with its m and the outer
    parts of both sides.  ``_curve_block`` tests them ``_BLOCK_ROWS`` rows
    at a time, solving d and multiplying both sides out in int64 where
    ``_curve_dtype`` bounds every value below 2⁶³ and in Python ints
    otherwise, so the count is exact either way and its memory stays one
    block's.
    """
    _validate_curve(sys)
    if H < 1:
        raise ValueError("H must be >= 1")
    sides, na = CURVE_VARIANTS[sys.variant]
    k, alpha, J = sys.k, sys.alpha, sys.J
    ci, di = _curve_pair(alpha)
    outer = [i for i in range(na) if i not in (ci, di)]
    fixed = [p for p, _ in arith._abs_exponents(abs(sys.A * sys.B))]
    axis = (*range(-H, 0), *range(1, H + 1)) if outer else ()
    g, step, u = _line_class(alpha[ci], alpha[di])

    def segments():
        for o in product(*[axis] * len(outer)):
            m = J - sum(alpha[i] * v for i, v in zip(outer, o))
            lhs = sys.A * math.prod(v ** k[i] for i, v in zip(outer, o) if sides[i] > 0)
            rhs = sys.B * math.prod(v ** k[i] for i, v in zip(outer, o) if sides[i] < 0)
            if na < len(sides) or m == 0:
                if m % g:
                    continue
                # the class in runs of one block, never the whole class at once
                run = step * _BLOCK_ROWS
                for lo in range(-H + (m // g * u + H) % step, H + 1, run):
                    yield np.arange(lo, min(lo + run, H + 1), step), m, lhs, rhs
            else:
                primes = fixed + [p for v in (m, *o) for p, _ in arith._abs_exponents(abs(v))]
                s = np.fromiter(arith.smooth_numbers(H, primes), np.int64)
                yield np.concatenate((s, -s)), m, lhs, rhs

    dtype = _curve_dtype(sys, H)
    count = excluded = 0
    for parts, scalars in _curve_blocks(segments()):
        n, x = _curve_block(sys, H, dtype, parts, scalars)
        count += n
        excluded += x
    return count, excluded
