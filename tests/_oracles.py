"""Independent oracles used by the test suite.

Deliberately share no code with the package: slice densities come from exact
piecewise-polynomial convolution of box densities, from the signed vertex sum
over all 2^n cube vertices, and, for all-ones α, from Eulerian numbers; ranks
and kernel bases from plain Fraction Gaussian elimination, dependence from a
bounded exponent search, the n = 2 same-base pair count from integer roots
and repeated multiplication, and the S'₂ line pairs from a walk over every
base w ≤ |J|.  Plane points come from ``enumerate_solutions``, a plain walk
over the free coordinates that the tests check against a brute
product-and-filter of the box; it borrows only the package's pivot choice.
The curve-system oracle walks the plane with it and reads the variants'
sides from ``CURVE_VARIANTS``.  Two references do use the package:
``factor_table`` is the per-value loop over ``arith._abs_exponents`` that
``relations.exponent_stack`` factorized with before the numpy sieve peel of
``arith.factor_table``, and ``curve_loop_oracle`` is the per-candidate loop
of ``latticecount.curve_counts`` before its block kernel, on the same
smooth walk and factorization.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd, lcm, prod

import numpy as np

from multdep import arith
from multdep.latticecount import CURVE_VARIANTS, DomainSpec, HyperplaneSpec, _pivot_index


# ── exact piecewise-polynomial convolution of box densities ──────────────


class StepPoly:
    """Piecewise polynomial on the real line, zero outside [breaks[0], breaks[-1]].

    ``pieces[i]`` holds coefficients (c0, c1, ...) of the polynomial valid on
    [breaks[i], breaks[i+1]].
    """

    def __init__(self, breaks, pieces):
        self.breaks = [Fraction(b) for b in breaks]
        self.pieces = [tuple(Fraction(c) for c in p) for p in pieces]

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if t < self.breaks[0] or t > self.breaks[-1]:
            return Fraction(0)
        for i in range(len(self.pieces)):
            if t <= self.breaks[i + 1]:
                return _poly_eval(self.pieces[i], t)
        return Fraction(0)


def _poly_eval(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_shift(coeffs, s: Fraction):
    """Coefficients of p(t + s) given those of p(t)."""
    out = [Fraction(0)] * len(coeffs)
    for k, c in enumerate(coeffs):
        # c·(t + s)^k expanded
        binom = 1
        power = Fraction(1)
        for j in range(k, -1, -1):
            out[j] += c * binom * power
            binom = binom * j // (k - j + 1) if j else binom
            power *= s
    return tuple(out)


def _poly_integral(coeffs):
    return (Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(coeffs))


class _Antiderivative:
    """F(t) = ∫_{-∞}^t f, for a StepPoly f; constant outside the support."""

    def __init__(self, f: StepPoly):
        self.breaks = f.breaks
        self.pieces = []
        self.level = [Fraction(0)]
        for i, p in enumerate(f.pieces):
            ip = _poly_integral(p)
            lo, hi = f.breaks[i], f.breaks[i + 1]
            base = self.level[-1] - _poly_eval(ip, lo)
            self.pieces.append((ip, base))
            self.level.append(base + _poly_eval(ip, hi))
        self.total = self.level[-1]

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if t <= self.breaks[0]:
            return Fraction(0)
        if t >= self.breaks[-1]:
            return self.total
        for i in range(len(self.pieces)):
            if t <= self.breaks[i + 1]:
                ip, base = self.pieces[i]
                return base + _poly_eval(ip, t)
        return self.total

    def piece_on(self, lo: Fraction, hi: Fraction):
        """Polynomial coefficients of F on the open interval (lo, hi)."""
        mid = (lo + hi) / 2
        if mid <= self.breaks[0]:
            return (Fraction(0),)
        if mid >= self.breaks[-1]:
            return (self.total,)
        for i in range(len(self.pieces)):
            if mid <= self.breaks[i + 1]:
                ip, base = self.pieces[i]
                return (base + ip[0],) + ip[1:]
        return (self.total,)


def _convolve_box(f: StepPoly, lo, hi) -> StepPoly:
    """f ⋆ uniform density on [lo, hi] (height 1/(hi−lo)), exactly."""
    lo, hi = Fraction(lo), Fraction(hi)
    width = hi - lo
    F = _Antiderivative(f)
    pts = sorted({b + lo for b in f.breaks} | {b + hi for b in f.breaks})
    breaks = []
    pieces = []
    for u, v in zip(pts, pts[1:]):
        # on (u, v): g(t) = (F(t − lo) − F(t − hi)) / width
        pa = _poly_shift(F.piece_on(u - lo, v - lo), -lo)
        pb = _poly_shift(F.piece_on(u - hi, v - hi), -hi)
        m = max(len(pa), len(pb))
        coeffs = tuple(
            (pa[k] if k < len(pa) else 0) - (pb[k] if k < len(pb) else 0) for k in range(m)
        )
        coeffs = tuple(Fraction(c) / width for c in coeffs)
        if not breaks:
            breaks.append(u)
        breaks.append(v)
        pieces.append(coeffs)
    return StepPoly(breaks, pieces)


def _projected_density(intervals) -> StepPoly:
    """Density of Σ X_i with X_i uniform on intervals[i], exact."""
    (lo0, hi0), *rest = intervals
    f = StepPoly([lo0, hi0], [(Fraction(1, 1) / (Fraction(hi0) - Fraction(lo0)),)])
    for lo, hi in rest:
        f = _convolve_box(f, lo, hi)
    return f


def unit_cube_Q_oracle(alpha, r) -> Fraction:
    """Vol_{n−1}({x ∈ [0,1]^n : α·x = r}) / ‖α‖ by exact convolution.

    The pushforward of Lebesgue measure on the cube under x ↦ α·x has density
    f = ⋆_i uniform[min(0,α_i), max(0,α_i)], and the slice volume is ‖α‖·f(r).
    """
    intervals = [(min(0, a), max(0, a)) for a in alpha]
    return _projected_density(intervals)(r)


def half_cube_Q_oracle(alpha, r) -> Fraction:
    intervals = [(-Fraction(abs(a), 2), Fraction(abs(a), 2)) for a in alpha]
    return _projected_density(intervals)(r)


def cube_vertex_Q_oracle(alpha, r, centered: bool = False) -> Fraction:
    """Q of the unit cube (or [−1/2, 1/2]^n when ``centered``) by the
    Marichal–Mossinghoff signed sum, visiting each of the 2^n vertices (n ≥ 2)."""
    n = len(alpha)
    corners = (-1, 1) if centered else (0, 1)
    shift = 2 * Fraction(r) if centered else Fraction(r)
    total = Fraction(0)
    for c in product(corners, repeat=n):
        arg = shift - sum(a * x for a, x in zip(alpha, c))
        if arg > 0:
            total += (-1) ** c.count(1) * arg ** (n - 1)
    scale = factorial(n - 1) * (2 ** (n - 1) if centered else 1)
    for a in alpha:
        scale *= a
    return total / scale


def eulerian(m: int, j: int) -> int:
    """Eulerian number A(m, j): permutations of m items with j descents.

    Recurrence A(m, j) = (j + 1)·A(m − 1, j) + (m − j)·A(m − 1, j − 1), A(0, 0) = 1.
    """
    row = [1]  # A(0, ·)
    for mm in range(1, m + 1):
        row = [
            (i + 1) * (row[i] if i < len(row) else 0) + (mm - i) * (row[i - 1] if i >= 1 else 0)
            for i in range(mm)
        ]
    return row[j] if 0 <= j < len(row) else 0


def irwin_hall_Q_oracle(n: int, k: int) -> Fraction:
    """Q_unit((1,)^n, k) for integer k: the Irwin–Hall density at k,
    A(n − 1, k − 1)/(n − 1)!."""
    return Fraction(eulerian(n - 1, k - 1), factorial(n - 1))


# ── independent linear algebra and dependence oracles ────────────────────


def _rref(rows, ncols):
    """Reduced row echelon form over Q by plain fraction Gaussian
    elimination: (nonzero rows, pivot column of each)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat[:len(pivots)], pivots


def rref_rank(rows) -> int:
    """Rank over Q by plain fraction Gaussian elimination."""
    return len(_rref(rows, len(rows[0]) if rows else 0)[1])


def kernel_basis_oracle(rows, ncols):
    """Integer basis of {x : M x = 0} from the fraction RREF: for each free
    column f, ascending, the vector that is 1 at f and 0 at the other free
    columns, cleared of denominators, divided by its content and signed so
    its first nonzero entry is positive."""
    mat, pivots = _rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, col in zip(mat, pivots):
            x[col] = -row[f]
        den = lcm(*(q.denominator for q in x))
        k = [int(q * den) for q in x]
        g = gcd(*k) * (-1 if next(a for a in k if a) < 0 else 1)
        basis.append(tuple(a // g for a in k))
    return basis


def _exponent_rows(values):
    facts = []
    for v in values:
        m = abs(v)
        f = {}
        d = 2
        while d * d <= m:
            while m % d == 0:
                f[d] = f.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            f[m] = f.get(m, 0) + 1
        facts.append(f)
    primes = sorted({p for f in facts for p in f})
    return [[f.get(p, 0) for p in primes] for f in facts]


def factor_table(vals):
    """(primes, exps) as ``arith.factor_table`` gives them, by the loop its
    sieve peel replaced: ``arith._abs_exponents`` on each value, padded to
    the widest."""
    facts = [arith._abs_exponents(v) for v in vals.tolist()]
    w = max(1, *map(len, facts))
    table = np.array([f + ((0, 0),) * (w - len(f)) for f in facts], dtype=vals.dtype)
    return table[:, :, 0], table[:, :, 1]


def subset_rank_oracle(nu) -> int:
    """Multiplicative rank by exhaustive subset scan with Fraction RREF."""
    if any(abs(x) == 1 for x in nu):
        return 0
    rows = _exponent_rows(nu)
    n = len(nu)
    for size in range(2, n + 1):
        for sub in combinations(range(n), size):
            if rref_rank([rows[i] for i in sub]) < size:
                return size - 1
    return n


def dependent_oracle(nu) -> bool:
    if any(abs(x) == 1 for x in nu):
        return True
    rows = _exponent_rows(nu)
    return rref_rank(rows) < len(nu)


def search_relation(nu, cap: int) -> tuple[int, ...] | None:
    """Bounded exponent search (heuristic: complete only up to |k_i| ≤ cap)."""
    for k in product(range(-cap, cap + 1), repeat=len(nu)):
        if not any(k):
            continue
        val = Fraction(1)
        for x, e in zip(nu, k):
            val *= Fraction(x) ** e
        if val == 1:
            return k
    return None


def count_dependent(vectors) -> int:
    """Number of vectors for which ``dependent_oracle`` holds.

    The verdict is cached per sorted tuple of absolute values: the oracle
    reads only absolute values, and the rank of the exponent rows does not
    depend on their order, so the count equals calling it on every vector.
    """
    verdicts: dict[tuple[int, ...], bool] = {}
    total = 0
    for v in vectors:
        key = tuple(sorted(abs(x) for x in v))
        if key not in verdicts:
            verdicts[key] = dependent_oracle(key)
        total += verdicts[key]
    return total


# ── same-base pairs behind the n = 2 box count ───────────────────────────


def _iroot(x: int, k: int) -> int:
    """Largest r ≥ 0 with r^k ≤ x, by integer bisection."""
    lo, hi = 0, 1
    while hi**k <= x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid
    return lo


def _is_perfect_power(b: int) -> bool:
    """Whether b = a^k for integers a ≥ 2, k ≥ 2 (then k < b.bit_length())."""
    return any(_iroot(b, k) ** k == b for k in range(2, b.bit_length()))


def same_base_pairs(H: int) -> int:
    """P(H) = Σ_b m_b(m_b − 1), m_b = #{s ≥ 1 : b^s ≤ H}, over minimal bases b.

    A minimal base is an integer b ≥ 2 that is not a perfect power; each
    integer in [2, H] is a power of exactly one.  P(H) counts ordered pairs of
    distinct powers of one base in [2, H]; only b ≤ √H contribute.  The
    dependent pairs with 0 < |ν_i| ≤ H number 12H − 8 + 4·P(H): 8H − 4 with
    some |ν_i| = 1, and 4·Σ_b m_b² = 4(H − 1) + 4·P(H) with both |ν_i| powers
    of one base.
    """
    total = 0
    b = 2
    while b * b <= H:
        if not _is_perfect_power(b):
            m, power = 0, b
            while power <= H:
                m += 1
                power *= b
            total += m * (m - 1)
        b += 1
    return total


def s2prime_oracle(J: int, a1: int, a2: int) -> list[tuple[int, int]]:
    """``constants.S2prime`` by a walk over every w in 2..|J|: each w^m | J,
    with both signs, fixed in either role, keeps the pair when the other
    coordinate is ± a power of w.  O(|J|) steps."""

    def power_of(m: int, w: int) -> bool:
        while m % w == 0:
            m //= w
        return m == 1

    found: set[tuple[int, int]] = set()
    aJ = abs(J)
    for w in range(2, aJ + 1):
        pw = w
        while aJ % pw == 0:
            for fixed in (pw, -pw):
                for role_x in (True, False):
                    if role_x:
                        num = J - a1 * fixed
                        if num % a2:
                            continue
                        x, y = fixed, num // a2
                    else:
                        num = J - a2 * fixed
                        if num % a1:
                            continue
                        x, y = num // a1, fixed
                    if abs(x) <= 1 or abs(y) <= 1 or abs(x) == abs(y):
                        continue
                    if power_of(abs(y) if role_x else abs(x), w):
                        found.add((x, y))
            pw *= w
    return sorted(found)


# ── plane points by a walk over the free coordinates ─────────────────────

def enumerate_solutions(spec: HyperplaneSpec, domain: DomainSpec):
    """Yield every solution with all coordinates nonzero, exactly once.

    Deterministic lexicographic order over the free coordinates (ascending
    coordinate index, ascending value); the pivot coordinate is solved from
    the others with divisibility and range filtered before the yield.  The
    pivot is ``_pivot_index``'s (largest |α_i|, last wins); when it is the
    trailing coordinate, whole vectors come out in lexicographic order.
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


# ── curve systems by a sweep over the whole plane ────────────────────────

def curve_sweep_points(sys, H: int):
    """Yield (ν, solutions, excluded) for every point ν of the plane α·ν = J
    with 0 < |ν_i| ≤ H that gives at least one solution of the curve system.

    Each side of the power equation is multiplied out in integers.  In the
    2var variants ν3 is off the plane, and a point gives the number of x with
    x^k3 equal to the quotient of the two sides and 0 < |x| ≤ H; otherwise it
    gives 1 when the sides are equal.  ``excluded`` marks the 3var points that
    α1ν1 ≠ J ≠ α2ν2 drops.
    """
    sides, na = CURVE_VARIANTS[sys.variant]
    k, e = sys.k, sys.k[-1]
    plane = enumerate_solutions(HyperplaneSpec(sys.alpha, sys.J), DomainSpec("signed", H))
    for nu in plane:
        lhs, rhs = sys.A, sys.B
        for s, v, ki in zip(sides, nu, k):
            if s > 0:
                lhs *= v**ki
            else:
                rhs *= v**ki
        if na < len(sides):
            num, den = (lhs, rhs) if sides[na] < 0 else (rhs, lhs)
            q, r = divmod(num, den)
            if r or abs(q) > H**e or _iroot(abs(q), e) ** e != abs(q):
                continue
            sols = 1 if e % 2 else (2 if q > 0 else 0)
            if sols:
                yield nu, sols, False
        elif lhs == rhs:
            yield nu, 1, sys.variant == "3var" and sys.J in (sys.alpha[0] * nu[0], sys.alpha[1] * nu[1])


def curve_sweep_oracle(sys, H: int) -> tuple[int, int]:
    """(count, excluded) of a curve system by ``curve_sweep_points``."""
    count = excluded = 0
    for _, sols, dropped in curve_sweep_points(sys, H):
        if dropped:
            excluded += sols
        else:
            count += sols
    return count, excluded


def curve_loop_oracle(sys, H: int) -> tuple[int, int]:
    """(count, excluded) of a curve system by the candidate loop that
    ``latticecount.curve_counts`` ran before its block kernel: the same
    outer combos and candidates c (the line's residue class, or
    ±(rad(A·B·∏o·m)-smooth values from ``arith.smooth_numbers``), each
    tested on its own in Python ints."""
    sides, na = CURVE_VARIANTS[sys.variant]
    k, alpha, J = sys.k, sys.alpha, sys.J
    ci, di = [i for i in range(na) if alpha[i]][-2:]
    outer = [i for i in range(na) if i not in (ci, di)]
    e = k[-1]
    fixed = [p for p, _ in arith._abs_exponents(abs(sys.A * sys.B))]
    axis = (*range(-H, 0), *range(1, H + 1)) if outer else ()
    g = gcd(alpha[ci], alpha[di])
    step = abs(alpha[di]) // g
    u = pow(alpha[ci] // g, -1, step)
    count = excluded = 0
    for o in product(*[axis] * len(outer)):
        m = J - sum(alpha[i] * v for i, v in zip(outer, o))
        lhs = sys.A * prod(v ** k[i] for i, v in zip(outer, o) if sides[i] > 0)
        rhs = sys.B * prod(v ** k[i] for i, v in zip(outer, o) if sides[i] < 0)
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
                if _iroot(abs(q), e) ** e == abs(q):
                    count += 1 if e % 2 else (2 if q > 0 else 0)
            elif left == right:
                nu = {**dict(zip(outer, o)), ci: c, di: d}
                if sys.variant == "3var" and J in (alpha[0] * nu[0], alpha[1] * nu[1]):
                    excluded += 1
                else:
                    count += 1
    return count, excluded
