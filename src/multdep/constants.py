"""Exact main-term constants for dependent-vector counts on hyperplanes.

The count of multiplicatively dependent vectors on α·ν = J in [−H,H]^n grows
like C·H^e with an exact rational C and an exponent e depending on k, the
number of nonzero entries of α.  The rank-0 and rank-1 populations give

    C⁰ = 2^{n−2} Σ_i [δ_{α*_i}(J−α_i) + δ_{α*_i}(J+α_i)] · V_{α*_i}(half box; 0)
    C¹ = 2^{n−2} Σ_{i1<i2} [δ_{α⁻}(J)·V_{α⁻}(half box; 0) + δ_{α⁺}(J)·V_{α⁺}(half box; 0)]

where α*_i drops coordinate i, α∓ drops i1, i2 and appends α_{i1} ∓ α_{i2},
δ_β(J) = 1 iff gcd(β) | J, and V is the slice density from ``slicevol``.
Smaller k needs corrections: k = 3 adds a rank-2 family and removes forced
rank-0 collisions; k = 2 adds the finite set of dependent pairs on the line
(S'₂) and removes a double count; k = 1 is affine in ⌊log H / log f(|J|)⌋
with f the minimal power base; k = 0 is the unconstrained box law
2^{n−1}·n·(n+1) on H^{n−1}.

Positive-orthant variants drop the sign factors and use unit-cube densities;
with all coefficients positive they collapse to closed forms on J^{n−2}.

All arithmetic is exact; floors of log ratios are found by repeated integer
multiplication, never with floating logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import arith, slicevol
from .errors import RegimeError


@dataclass(frozen=True)
class ConstantBreakdown:
    """Rank-resolved constant: the parts c0, c1, c2, each ≥ 0, and their sum
    ``total``, derived from them.

    Any regime's correction is already folded into its part; ``h_exponent``
    is the power of the growth variable the total multiplies, and ``regime``
    names the validity regime, including which variable grows (H, or J for
    the all-positive case).
    """

    k: int
    c0: Fraction
    c1: Fraction
    c2: Fraction
    h_exponent: int
    regime: str

    def __post_init__(self):
        if self.c0 < 0 or self.c1 < 0 or self.c2 < 0:
            raise ValueError(f"negative constant part: c0={self.c0}, c1={self.c1}, c2={self.c2}")

    @property
    def total(self) -> Fraction:
        return self.c0 + self.c1 + self.c2


def alpha_star(alpha, i: int) -> tuple[int, ...]:
    """Remove the i-th coordinate (1-based)."""
    a = tuple(int(x) for x in alpha)
    if not 1 <= i <= len(a):
        raise ValueError("index out of range")
    return a[: i - 1] + a[i:]


def alpha_pm(alpha, i1: int, i2: int, sign: str) -> tuple[int, ...]:
    """Remove coordinates i1 < i2 (1-based), append α_{i1} ∓ α_{i2}."""
    a = tuple(int(x) for x in alpha)
    if not 1 <= i1 < i2 <= len(a):
        raise ValueError("indices must satisfy 1 <= i1 < i2 <= n")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    tail = a[i1 - 1] + a[i2 - 1] if sign == "plus" else a[i1 - 1] - a[i2 - 1]
    rest = tuple(x for j, x in enumerate(a, start=1) if j not in (i1, i2))
    return rest + (tail,)


def delta(alpha, J: int) -> int:
    """1 iff gcd(α) divides J (gcd 0 divides only 0)."""
    g = arith.gcd_vec(alpha)
    if g == 0:
        return 1 if J == 0 else 0
    return 1 if J % g == 0 else 0


def _V_half(beta) -> Fraction:
    return slicevol.V_alpha(beta, "half", 0)


def _V_unit(beta) -> Fraction:
    return slicevol.V_alpha(beta, "unit", 0)


def _V_simplex(beta) -> Fraction:
    return slicevol.V_alpha_positive(beta, 1, 1)


def _rank0_families(a: tuple[int, ...], J: int, signs) -> list:
    """(α*_i, levels J − s·α_i) for each i: ν_i is pinned to s.  ``signs``
    lists the s taken: ±1 in the signed domain, +1 in the positive orthant."""
    return [(alpha_star(a, i), [J - s * a[i - 1] for s in signs]) for i in range(1, len(a) + 1)]


def _rank1_families(a: tuple[int, ...], J: int, signs) -> list:
    """(α±, [J]) for each pair i1 < i2 and s in ``signs``: ν_{i1} = s·ν_{i2},
    and α± appends α_{i1} + s·α_{i2}."""
    n = len(a)
    return [
        (alpha_pm(a, i1, i2, "plus" if s > 0 else "minus"), [J])
        for i1 in range(1, n + 1) for i2 in range(i1 + 1, n + 1) for s in signs
    ]


def _sorted(beta) -> tuple[int, ...]:
    """Every density here is a box-slice volume and the boxes are cubes, so
    permuting β's coordinates leaves it unchanged."""
    return tuple(sorted(beta))


def _sorted_abs(beta) -> tuple[int, ...]:
    """The half box is also symmetric under x_i → −x_i, so a level-0 slice
    does not change when one β_i changes sign."""
    return tuple(sorted(abs(b) for b in beta))


def _family_sum(families, density, degenerate: str = "a family has no nonzero coefficient", key=_sorted):
    """Σ δ·density(β) over (β, levels) families, δ counting the levels on
    which β is solvable.  Raises RegimeError(degenerate) when a counted β is
    all zero.  The density is evaluated once per distinct ``key(β)``, on
    that key, which must leave its value unchanged."""
    total = Fraction(0)
    seen: dict[tuple[int, ...], Fraction] = {}
    for beta, levels in families:
        d = sum(delta(beta, level) for level in levels)
        if d:
            if not any(beta):
                raise RegimeError(degenerate)
            k = key(beta)
            if k not in seen:
                seen[k] = density(k)
            total += d * seen[k]
    return total


def _signed_constant(name: str, families, alpha, J: int, degenerate: str) -> Fraction:
    """2^{n−2}·Σ δ·V_β(half box; 0) over the ±1 ``families`` of α on level J."""
    a = tuple(int(x) for x in alpha)
    if len(a) < 2:
        raise RegimeError(f"{name} requires dimension n >= 2")
    return Fraction(2) ** (len(a) - 2) * _family_sum(families(a, J, (1, -1)), _V_half, degenerate, _sorted_abs)


def C0(alpha, J: int) -> Fraction:
    """Rank-0 constant: families with one coordinate pinned to ±1."""
    return _signed_constant("C0", _rank0_families, alpha, J, "C0 needs a second nonzero coefficient (k >= 2)")


def C1(alpha, J: int) -> Fraction:
    """Rank-1 constant: families with a coordinate pair ν_{i1} = ±ν_{i2}."""
    return _signed_constant("C1", _rank1_families, alpha, J, "C1 with J = 0 needs a third nonzero coefficient")


def _nonzero_indices(alpha) -> list[int]:
    return [i for i, x in enumerate(alpha) if x != 0]


def _regime(name: str, alpha, J: int, k: int) -> tuple[tuple[int, ...], list[int]]:
    """(α, its nonzero indices) for a constant that needs exactly k nonzero
    coefficients and J ≠ 0; RegimeError otherwise."""
    a = tuple(int(x) for x in alpha)
    nz = _nonzero_indices(a)
    if len(nz) != k:
        raise RegimeError(f"{name} requires exactly {('two', 'three')[k - 2]} nonzero coefficients")
    if J == 0:
        raise RegimeError(f"{name} requires J != 0")
    return a, nz


def C2_k3(alpha, J: int) -> Fraction:
    """Rank-2 constant for k = 3: lines forced by α_j ν_j = J.

    Sums |α_{j'}/α_{j''}|^{-1} over permutations (j, j', j'') of the three
    nonzero indices where |J/α_j| is an integer > 1 and |α_{j'}/α_{j''}| is
    an integer > 1 that is a rational power of |J/α_j|.
    """
    a, nz = _regime("C2_k3", alpha, J, 3)
    n = len(a)
    total = Fraction(0)
    for j in nz:
        if abs(J) % abs(a[j]) != 0:
            continue
        x = abs(J) // abs(a[j])
        if x <= 1:
            continue
        others = [i for i in nz if i != j]
        for jp, jpp in (others, others[::-1]):
            if abs(a[jp]) % abs(a[jpp]) != 0:
                continue
            y = abs(a[jp]) // abs(a[jpp])
            if y > 1 and arith.f_base(y) == arith.f_base(x):
                total += Fraction(1, y)
    return Fraction(2) ** (n - 2) * total


def C1_k3(alpha, J: int) -> Fraction:
    """Rank-1 constant for k = 3: C1 minus the pairs forced to rank 0.

    Removes 2^{n−2} per index j with |α_j| = |J| and the other two nonzero
    entries of equal absolute value (the pinned coordinate is then ±1).
    """
    a, nz = _regime("C1_k3", alpha, J, 3)
    x_size = 0
    for j in nz:
        jp, jpp = (i for i in nz if i != j)
        if abs(a[j]) == abs(J) and abs(a[jp]) == abs(a[jpp]):
            x_size += 1
    if x_size not in (0, 1, 3):
        raise ArithmeticError(f"C1_k3: {x_size} pinned indices (expected 0, 1 or 3)")
    n = len(a)
    out = C1(a, J) - Fraction(2) ** (n - 2) * x_size
    if out < 0:
        raise ArithmeticError(f"C1_k3: negative rank-1 constant {out}")
    return out


def S2prime(J: int, a1: int, a2: int) -> list[tuple[int, int]]:
    """All pairs (x, y) with a1·x + a2·y = J, |x|,|y| > 1, |x| ≠ |y|, and
    (x, y) multiplicatively dependent.  The set is finite: such a pair has
    |x| = w^s, |y| = w^t for a common base w ≥ 2, and w^{min(s,t)} | J.

    Fixes each divisor d > 1 of |J| as ±d in either role and solves the
    other coordinate from the line; the pair is kept when the other is ± a
    power of f(d), the minimal base of d.  That is every pair: the one of
    smaller exponent is ±w^m with w^m | J, and f(d) = f(w).  Returned sorted
    for determinism.
    """
    if J == 0 or a1 == 0 or a2 == 0:
        raise ValueError("S2prime requires nonzero J, a1, a2")

    def power_of(m: int, w: int) -> bool:
        while m % w == 0:
            m //= w
        return m == 1

    divisors = [1]
    for p, e in arith.factorize(J).exponents.items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    found: set[tuple[int, int]] = set()
    for d in divisors[1:]:
        w = arith.f_base(d)
        for fixed in (d, -d):
            for a_fixed, a_other, fixed_is_x in ((a1, a2, True), (a2, a1, False)):
                num = J - a_fixed * fixed
                if num % a_other:
                    continue
                other = num // a_other
                if abs(other) > 1 and abs(other) != d and power_of(abs(other), w):
                    found.add((fixed, other) if fixed_is_x else (other, fixed))
    return sorted(found)


def C_k2(alpha, J: int) -> ConstantBreakdown:
    """Constant for exactly two nonzero coefficients (J ≠ 0, H → ∞).

    Both the rank-0 and rank-1 parts lose 2^{n−2} when J = ±(α_{j1} + α_{j2})
    or ±(α_{j1} − α_{j2}); the rank-1 part gains 2^{n−2} per pair in S'₂.
    """
    a, nz = _regime("C_k2", alpha, J, 2)
    n = len(a)
    a1, a2 = a[nz[0]], a[nz[1]]
    unit = Fraction(2) ** (n - 2)
    boundary = J in (a1 + a2, -(a1 + a2), a1 - a2, -(a1 - a2))
    s2 = len(S2prime(J, a1, a2))
    c0 = C0(a, J) - (unit if boundary else 0)
    c1 = C1(a, J) + unit * s2 - (unit if boundary else 0)
    return ConstantBreakdown(
        k=2, c0=c0, c1=c1, c2=Fraction(0), h_exponent=n - 2,
        regime=f"fixed J != 0, H -> infinity; {s2} dependent line pairs",
    )


def floor_log(H: int, f: int) -> int:
    """⌊log H / log f⌋ via exact multiplication (largest t with f**t ≤ H)."""
    if H < 1 or f < 2:
        raise ValueError("floor_log requires H >= 1 and f >= 2")
    t = 0
    v = f
    while v <= H:
        t += 1
        v *= f
    return t


def C_e1(J: int, H: int, n: int) -> Fraction:
    """H-dependent constant for a single nonzero unit coefficient, |J| > 1:

        2^{n−2}(n−1) · (n + 2·⌊log H / log f(|J|)⌋ + 2(n−2)/(f(|J|)−1)).
    """
    if abs(J) <= 1:
        raise RegimeError("C_e1 requires |J| > 1; |J| = 1 follows the exact box law")
    if n < 3:
        raise RegimeError("C_e1 requires dimension n >= 3")
    if H < 1:
        raise ValueError("H must be >= 1")
    f = arith.f_base(abs(J))
    t = floor_log(H, f)
    return Fraction(2) ** (n - 2) * (n - 1) * (n + 2 * t + Fraction(2 * (n - 2), f - 1))


def _breakdown_e1(m: int, H: int, n: int) -> ConstantBreakdown:
    f = arith.f_base(abs(m))
    t = floor_log(H, f)
    unit = Fraction(2) ** (n - 2)
    c0 = 2 * unit * (n - 1)
    c1 = unit * (n - 1) * (n - 2 + 2 * t)
    c2 = 2 * unit * Fraction((n - 1) * (n - 2), f - 1)
    total = c0 + c1 + c2
    if total != C_e1(m, H, n):
        raise ArithmeticError(f"C_e1: parts sum to {total}, closed form gives {C_e1(m, H, n)}")
    return ConstantBreakdown(
        k=1, c0=c0, c1=c1, c2=c2, h_exponent=n - 2,
        regime=f"single nonzero coefficient a, |J/a| > 1; affine in floor(log H/log {f}), here H = {H}",
    )


def C_total(alpha, J: int, H: int | None = None) -> ConstantBreakdown:
    """Dispatch on k = #nonzero coefficients.

    k ≥ 4: C0 + C1 on H^{n−2}.   k = 3: C0 + C1_k3 + C2_k3 (J ≠ 0).
    k = 2: line corrections (J ≠ 0).   k = 1, coefficient a: the plane
    fixes that coordinate at m = J/a, so the affine-in-log law in f(|m|)
    (needs H), and |m| = 1 follows the exact law (2H)^{n−1}; a ∤ J and
    m = 0 admit no solutions.  k = 0 with J = 0: the unconstrained box
    constant 2^{n−1}·n·(n+1) on H^{n−1}.  A given H must be at least 1.
    """
    if H is not None and H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    a = tuple(int(x) for x in alpha)
    n = len(a)
    nz = _nonzero_indices(a)
    k = len(nz)
    if k == 0:
        if J != 0:
            raise RegimeError("all-zero alpha admits no solutions for J != 0 (degenerate)")
        unit = Fraction(2) ** (n - 1)
        return ConstantBreakdown(
            k=0, c0=unit * 2 * n, c1=unit * n * (n - 1), c2=Fraction(0),
            h_exponent=n - 1, regime="no linear constraint (box law)",
        )
    if k == 1:
        if H is None:
            raise RegimeError("k = 1 constant depends on H; pass H")
        m, r = divmod(J, a[nz[0]])
        if r:
            raise RegimeError(f"coefficient {a[nz[0]]} does not divide J = {J}: no solutions (degenerate)")
        if m == 0:
            raise RegimeError(f"J = 0 pins coordinate {nz[0] + 1} at 0, outside 0 < |nu_i| <= H: no solutions (degenerate)")
        if abs(m) == 1:
            return ConstantBreakdown(
                k=1, c0=Fraction(2) ** (n - 1), c1=Fraction(0), c2=Fraction(0),
                h_exponent=n - 1,
                regime="single nonzero coefficient a, |J/a| = 1: exact count (2H)^(n-1)",
            )
        return _breakdown_e1(m, H, n)
    if k == 2:
        return C_k2(a, J)
    if k == 3:
        return ConstantBreakdown(
            k=3, c0=C0(a, J), c1=C1_k3(a, J), c2=C2_k3(a, J), h_exponent=n - 2,
            regime="three nonzero coefficients, J != 0, H >> |J|",
        )
    note = "" if k >= 5 else "; error term established for J != 0"
    return ConstantBreakdown(
        k=k, c0=C0(a, J), c1=C1(a, J), c2=Fraction(0), h_exponent=n - 2,
        regime=f"{k} nonzero coefficients, H >> |J|" + note,
    )


def C_positive(alpha, J: int) -> ConstantBreakdown:
    """Positive-orthant constants c0 + c1 on the (growth variable)^{n−2}.

    All coefficients positive: simplex densities, closed forms in J (the
    height bound is implied by the plane, so J is the growth variable).
    Mixed signs (≥ 2 positive and ≥ 2 negative coefficients): unit-cube
    densities, growth in H.  Other sign patterns are unsupported regimes.
    """
    a = tuple(int(x) for x in alpha)
    n = len(a)
    if n < 3:
        raise RegimeError("positive-orthant constants require n >= 3")
    pos = sum(1 for x in a if x > 0)
    neg = sum(1 for x in a if x < 0)
    if pos == n:
        density, regime = _V_simplex, "all-positive coefficients, positive orthant; growth in J (J > max alpha_i)"
    elif pos >= 2 and neg >= 2:
        density, regime = _V_unit, "mixed-sign coefficients (>=2 positive, >=2 negative), positive orthant, H >> |J|"
    else:
        raise RegimeError(
            "positive-orthant constants support only all-positive coefficients or "
            ">=2 positive and >=2 negative coefficients"
        )
    return ConstantBreakdown(
        k=pos + neg,
        c0=_family_sum(_rank0_families(a, J, (1,)), density),
        c1=_family_sum(_rank1_families(a, J, (1,)), density),
        c2=Fraction(0), h_exponent=n - 2, regime=regime,
    )
