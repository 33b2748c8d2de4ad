"""Exact enumeration and counting of integer vectors on hyperplanes.

The central object is the count of multiplicatively dependent vectors ν with
nonzero coordinates, 0 < |ν_i| ≤ H, lying on α·ν = J, optionally stratified
by multiplicative rank.  Counting is exhaustive: one coordinate with nonzero
α is solved from the others, the innermost free coordinate is swept as a
vector, and each visited solution is classified exactly.

Classification cascade per visited vector (cheapest first):
  rank 0   some coordinate is ±1;
  rank 1   two coordinates share the same minimal power base (a pair of
           values above 1 is dependent exactly when their bases coincide);
  deeper   a subset of size ≥ 3 can only be dependent if each of its members
           has every prime factor shared with another member, so vectors with
           fewer than three such "covered" coordinates are independent; the
           few survivors get an exact exponent-matrix rank test.

Sign symmetry: dependence and rank depend only on absolute values, so any
free coordinate with α_i = 0 is swept over [1, H] with multiplicity 2 in the
signed domain.  The linear constraint never involves those coordinates, so
the folding is exact, for the total count as well as per rank.
"""

from __future__ import annotations

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

    ``by_rank`` is filled only for stratified counts and then sums to
    ``dependent_total``.
    """

    alpha: tuple[int, ...]
    J: int
    domain: str
    H: int
    stratify: bool
    total_on_plane: int = 0
    dependent_total: int = 0
    by_rank: dict[int, int] = field(default_factory=dict)
    degenerate: bool = False


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


def _dp_solution_count(terms, target: int) -> int:
    """Exact #solutions of Σ a_i t_i = target with t_i in [lo_i, hi_i].

    ``terms`` is a list of (a, lo, hi, skip_zero); the count is the
    coefficient of z**target in ∏_i Σ_{t_i} z^{a_i·t_i} (``arith.poly_product``).
    """
    factors = []
    for a, lo, hi, skip in terms:
        f = range(a * lo, a * hi + (1 if a > 0 else -1), a)
        if skip and lo <= 0 <= hi:
            f = dict.fromkeys(f, 1)
            del f[0]
        factors.append(f)
    return arith.poly_product(factors, at=target)


def hyperplane_lattice_count(spec: HyperplaneSpec, box) -> int:
    """#{ν ∈ box ∩ Z^n : α·ν = J} for per-coordinate integer intervals.

    Zero coordinates are allowed inside the box; returns 0 whenever
    gcd(α) ∤ J.
    """
    box = [(int(lo), int(hi)) for lo, hi in box]
    if len(box) != spec.n:
        raise ValueError("box dimension must match alpha")
    for lo, hi in box:
        if lo > hi:
            return 0
    factor = 1
    terms = []
    for a, (lo, hi) in zip(spec.alpha, box):
        if a == 0:
            factor *= hi - lo + 1
        else:
            terms.append((a, lo, hi, False))
    if not terms:
        return factor if spec.J == 0 else 0
    g = arith.gcd_vec([t[0] for t in terms])
    if spec.J % g != 0:
        return 0
    return factor * _dp_solution_count(terms, spec.J)


# ── exhaustive enumeration ───────────────────────────────────────────────


def _pivot_index(alpha) -> int:
    """Coordinate solved from the linear equation: largest |α_i|, last wins.

    Solving the trailing coordinate keeps the visit order lexicographic in
    the leading ones.
    """
    best = 0
    arg = -1
    for i, a in enumerate(alpha):
        if abs(a) >= best and a != 0:
            best = abs(a)
            arg = i
    return arg


def enumerate_solutions(spec: HyperplaneSpec, domain: DomainSpec):
    """Yield every solution with all coordinates nonzero, exactly once.

    Deterministic lexicographic order over the free coordinates (ascending
    coordinate index, ascending value); the pivot coordinate is solved from
    the others with divisibility and range filtered before the yield.
    """
    H = domain.H
    signed = domain.kind == "signed"

    def axis():
        if signed:
            yield from range(-H, 0)
            yield from range(1, H + 1)
        else:
            yield from range(1, H + 1)

    n = spec.n
    if spec.nnz == 0:
        if spec.J != 0:
            return
        yield from product(*[tuple(axis()) for _ in range(n)])
        return
    p = _pivot_index(spec.alpha)
    ap = spec.alpha[p]
    free = [i for i in range(n) if i != p]
    for combo in product(*[tuple(axis()) for _ in free]):
        rem = spec.J - sum(spec.alpha[i] * v for i, v in zip(free, combo))
        q, r = divmod(rem, ap)
        if r != 0 or q == 0 or abs(q) > H or (not signed and q < 1):
            continue
        vec = [0] * n
        for i, v in zip(free, combo):
            vec[i] = v
        vec[p] = q
        yield tuple(vec)


# ── dependence classification kernel ─────────────────────────────────────


def _axis_values(a_i: int, H: int, signed: bool) -> tuple[np.ndarray, int]:
    """Sweep values and fold multiplicity for one free coordinate."""
    if signed and a_i == 0:
        return np.arange(1, H + 1, dtype=np.int64), 2
    if signed:
        return np.concatenate(
            [np.arange(-H, 0, dtype=np.int64), np.arange(1, H + 1, dtype=np.int64)]
        ), 1
    return np.arange(1, H + 1, dtype=np.int64), 1


def _classify_block(
    report: CountReport,
    outer_abs: tuple[int, ...],
    inner_abs: np.ndarray,
    pivot_abs: np.ndarray | None,
    valid: np.ndarray,
    weight: int,
    base: np.ndarray,
    rad: np.ndarray,
    memo: dict,
) -> None:
    """Classify one block of rows and add its counts to ``report``.

    ``base`` and ``rad`` are the minimal-base and radical tables up to H;
    ``memo`` maps sorted absolute values to their deep rank test result.
    """
    visited = int(valid.sum()) * weight
    if visited == 0:
        return
    report.total_on_plane += visited
    stratify = report.stratify
    n = len(outer_abs) + (2 if pivot_abs is not None else 1)

    if any(v == 1 for v in outer_abs):
        m0 = valid
    else:
        m0 = valid & (inner_abs == 1)
        if pivot_abs is not None:
            m0 = m0 | (valid & (pivot_abs == 1))
    c0 = int(m0.sum()) * weight
    report.dependent_total += c0
    if stratify and c0:
        report.by_rank[0] = report.by_rank.get(0, 0) + c0
    rest = valid & ~m0
    if not rest.any():
        return

    outer_base = [int(base[v]) for v in outer_abs]
    scalar_pair = any(
        outer_base[i] == outer_base[j]
        for i in range(len(outer_base))
        for j in range(i + 1, len(outer_base))
    )
    if scalar_pair:
        m1 = rest
    else:
        inner_base = base[inner_abs]
        m1 = np.zeros_like(rest)
        for b in outer_base:
            m1 |= inner_base == b
        if pivot_abs is not None:
            pivot_base = base[np.where(rest, pivot_abs, 1)]
            for b in outer_base:
                m1 |= pivot_base == b
            m1 |= inner_base == pivot_base
        m1 &= rest
    c1 = int(m1.sum()) * weight
    report.dependent_total += c1
    if stratify and c1:
        report.by_rank[1] = report.by_rank.get(1, 0) + c1
    rest = rest & ~m1
    if n < 3 or not rest.any():
        return

    # cover filter: a dependent subset of size ≥ 3 needs each member's primes
    # to reappear among the other coordinates (else its exponent is forced 0)
    if report.H**n < 2**62:
        prod_all = np.where(rest, inner_abs, 1).astype(np.int64)
        if pivot_abs is not None:
            prod_all = prod_all * np.where(rest, pivot_abs, 1)
        for v in outer_abs:
            prod_all = prod_all * v
        cov = np.zeros(rest.shape, dtype=np.int8)
        for v in outer_abs:
            cov += ((prod_all // v) % int(rad[v]) == 0).astype(np.int8)
        safe_inner = np.where(rest, inner_abs, 1)
        cov += ((prod_all // safe_inner) % rad[safe_inner] == 0).astype(np.int8)
        if pivot_abs is not None:
            safe_piv = np.where(rest, pivot_abs, 1)
            cov += ((prod_all // safe_piv) % rad[safe_piv] == 0).astype(np.int8)
        candidates = rest & (cov >= 3)
    else:
        candidates = rest

    for i in np.nonzero(candidates)[0]:
        vals = list(outer_abs)
        vals.append(int(inner_abs[i]))
        if pivot_abs is not None:
            vals.append(int(pivot_abs[i]))
        key = tuple(sorted(vals))
        r = memo.get(key)
        if r is None:
            # no ±1 and no dependent pair here, so subsets start at size 3;
            # an unstratified count needs only the full-rank test.  Either
            # result is below n exactly when the vector is dependent.
            rows = relations.exponent_matrix(key).rows
            if stratify:
                r = relations.rank_from_rows(rows, smallest=3)
            else:
                r = relations.rank_of_rows(rows)
            memo[key] = r
        if r < n:
            report.dependent_total += weight
            if stratify:
                report.by_rank[r] = report.by_rank.get(r, 0) + weight


def count_S(spec: HyperplaneSpec, domain: DomainSpec, stratify: bool = False) -> CountReport:
    """Exact count of multiplicatively dependent vectors on α·ν = J.

    With ``stratify`` the count splits by multiplicative rank.  The all-zero
    α with J = 0 counts unconstrained dependent vectors in the box; all-zero
    α with J ≠ 0 has no solutions and returns a report flagged degenerate.
    """
    H = domain.H
    signed = domain.kind == "signed"
    report = CountReport(spec.alpha, spec.J, domain.kind, H, stratify)
    if spec.nnz == 0 and spec.J != 0:
        report.degenerate = True
        return report

    n = spec.n
    alpha = spec.alpha

    if spec.nnz == 0:
        pivot = None
        free = list(range(n))
    else:
        pivot = _pivot_index(alpha)
        free = [i for i in range(n) if i != pivot]

    if not free:
        # n == 1 with a single constrained coordinate
        q, r = divmod(spec.J, alpha[pivot])
        if r == 0 and q != 0 and abs(q) <= H and (signed or q >= 1):
            report.total_on_plane = 1
            if abs(q) == 1:
                report.dependent_total = 1
                if stratify:
                    report.by_rank[0] = 1
        return report

    base = arith.power_base_table(H)
    rad = arith.radical_table(H)
    axes = {i: _axis_values(alpha[i], H, signed) for i in free}
    weight = 1
    for i in free:
        weight *= axes[i][1]
    inner, outers = free[-1], free[:-1]
    inner_vals = axes[inner][0]
    inner_abs = np.abs(inner_vals)
    memo: dict = {}
    # without a pivot (α = 0, J = 0) every row is a solution
    valid = np.ones(inner_vals.shape, dtype=bool)
    pivot_abs = None
    for combo in product(*[axes[i][0].tolist() for i in outers]):
        if pivot is not None:
            rem = spec.J - sum(alpha[i] * v for i, v in zip(outers, combo))
            num = rem - alpha[inner] * inner_vals
            pv = num // alpha[pivot]
            valid = num % alpha[pivot] == 0
            if signed:
                valid &= (pv != 0) & (np.abs(pv) <= H)
            else:
                valid &= (pv >= 1) & (pv <= H)
            if not valid.any():
                continue
            pivot_abs = np.where(valid, np.abs(pv), 1)
        _classify_block(report, tuple(abs(v) for v in combo), inner_abs, pivot_abs,
                        valid, weight, base, rad, memo)
    return report


# ── curve systems: one multiplicative and one linear equation ────────────

CURVE_VARIANTS = ("2var-a", "2var-b", "3var", "4var")


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
    arity = {"2var-a": (3, 2), "2var-b": (3, 2), "3var": (3, 3), "4var": (4, 4)}
    nk, na = arity[sys.variant]
    if len(sys.k) != nk or len(sys.alpha) != na:
        raise RegimeError(f"variant {sys.variant} needs {nk} exponents and {na} coefficients")
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


def _exp_of(m: int) -> dict[int, int]:
    return dict(arith._abs_exponents(abs(m)))


def _combine(*scaled_maps) -> dict[int, int]:
    """Sum of exponent maps, each given as (coefficient, map)."""
    out: dict[int, int] = {}
    for c, m in scaled_maps:
        for p, e in m.items():
            out[p] = out.get(p, 0) + c * e
    return {p: e for p, e in out.items() if e != 0}


def _root_solutions(emap: dict[int, int], sign: int, k: int, H: int) -> int:
    """#integers x with x**k = sign·∏ p^e and 0 < |x| ≤ H."""
    if any(e < 0 or e % k for e in emap.values()):
        return 0
    root = 1
    for p, e in emap.items():
        root *= p ** (e // k)
        if root > H:
            return 0
    if k % 2 == 1:
        return 1
    return 2 if sign == 1 else 0


def _sgn(x: int) -> int:
    return 1 if x > 0 else -1


def _curve_counts(sys: CurveSystemSpec, H: int) -> tuple[int, int]:
    """(count, excluded-by-precondition) for the curve system in [−H,H]."""
    _validate_curve(sys)
    if H < 1:
        raise ValueError("H must be >= 1")
    eA, eB = _exp_of(sys.A), _exp_of(sys.B)
    sA, sB = _sgn(sys.A), _sgn(sys.B)
    k = sys.k
    total = 0
    excluded = 0

    def signed_range():
        yield from range(-H, 0)
        yield from range(1, H + 1)

    if sys.variant in ("2var-a", "2var-b"):
        a1, a2 = sys.alpha
        for v1 in signed_range():
            num = sys.J - a1 * v1
            if num == 0 or num % a2:
                continue
            v2 = num // a2
            if abs(v2) > H:
                continue
            e1, e2 = _exp_of(v1), _exp_of(v2)
            if sys.variant == "2var-a":
                emap = _combine((1, eA), (k[0], e1), (k[1], e2), (-1, eB))
                sign = sA * sB * _sgn(v1) ** k[0] * _sgn(v2) ** k[1]
                total += _root_solutions(emap, sign, k[2], H)
            else:
                emap = _combine((1, eB), (k[1], e2), (-1, eA), (-k[0], e1))
                sign = sA * sB * _sgn(v1) ** k[0] * _sgn(v2) ** k[1]
                total += _root_solutions(emap, sign, k[2], H)
        return total, 0

    if sys.variant == "3var":
        a1, a2, a3 = sys.alpha
        for v1 in signed_range():
            e1 = _exp_of(v1)
            lhs1 = a1 * v1
            rem1 = sys.J - lhs1
            for v2 in signed_range():
                num = rem1 - a2 * v2
                if num == 0 or num % a3:
                    continue
                v3 = num // a3
                if abs(v3) > H:
                    continue
                if sA * _sgn(v1) ** k[0] * _sgn(v2) ** k[1] != sB * _sgn(v3) ** k[2]:
                    continue
                lhs = _combine((1, eA), (k[0], e1), (k[1], _exp_of(v2)))
                rhs = _combine((1, eB), (k[2], _exp_of(v3)))
                if lhs != rhs:
                    continue
                if lhs1 == sys.J or a2 * v2 == sys.J:
                    excluded += 1
                else:
                    total += 1
        return total, excluded

    # 4var
    alpha = sys.alpha
    piv = max(i for i in range(4) if alpha[i] != 0)
    free = [i for i in range(4) if i != piv]
    ap = alpha[piv]
    for combo in product(list(signed_range()), repeat=3):
        vals = [0, 0, 0, 0]
        for i, v in zip(free, combo):
            vals[i] = v
        num = sys.J - sum(alpha[i] * vals[i] for i in free)
        if num % ap:
            continue
        q = num // ap
        if q == 0 or abs(q) > H:
            continue
        vals[piv] = q
        if _sgn(vals[0]) ** k[0] * _sgn(vals[1]) ** k[1] != _sgn(vals[2]) ** k[2] * _sgn(vals[3]) ** k[3]:
            continue
        lhs = _combine((k[0], _exp_of(vals[0])), (k[1], _exp_of(vals[1])))
        rhs = _combine((k[2], _exp_of(vals[2])), (k[3], _exp_of(vals[3])))
        if lhs == rhs:
            total += 1
    return total, 0


def count_curve_system(sys: CurveSystemSpec, H: int) -> int:
    """Exact solution count with 0 < |ν_i| ≤ H, variant exclusions applied."""
    return _curve_counts(sys, H)[0]


def count_curve_system_excluded(sys: CurveSystemSpec, H: int) -> int:
    """Side count: 3var solutions dropped by the α1ν1 ≠ J ≠ α2ν2 exclusion."""
    return _curve_counts(sys, H)[1]
