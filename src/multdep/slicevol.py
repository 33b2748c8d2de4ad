"""Exact rational volumes of hyperplane sections of cubes.

The (n−1)-volume of {ν ∈ box : α·ν = r} always carries the irrational factor
‖α‖, so only the rational part Q = Vol / ‖α‖ is ever materialized.  For the
unit cube the signed inclusion–exclusion over the 2**n vertices gives

    Q = (1 / ((n−1)!·∏ α_i)) · Σ_{c ∈ {0,1}^n} (−1)^{#{c_i = 1}} max(r − α·c, 0)^{n−1}

The vertex sum is grouped by dot value d: the signed number of vertices with
α·c = d is the coefficient of z^d in ∏(1 − z^{α_i}), computed by
``arith.poly_product``, so the cost is pseudo-polynomial in Σ|α_i| rather
than 2^n.

Every other box is a scaled translate s·[0,1]^n + c·(1, …, 1), and
ν ↦ (ν − c)/s carries its level-r slice onto the unit cube's slice at level
(r − c·Σα_i)/s with Vol scaled by s^{n−1}.  The centered cube [−1/2, 1/2]^n
(s = 1, c = −1/2) thus reads the unit-cube Q at r + Σα_i/2.

The density V_α(B; J) = gcd(α)·Vol_{n−1}(B ∩ {α·ν = J}) / ‖α‖ is the exact
per-slice count of lattice points per unit of box growth; coordinates where
α_i = 0 are reduced away (each contributes one box side length s).

Degenerate dimension 1 uses counting measure: a section that is a single
point inside the box has Vol_0 = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from . import arith

BOXES = ("unit", "half", "scaled-positive", "scaled-symmetric")


def _validate_nonzero(alpha) -> tuple[int, ...]:
    a = tuple(int(x) for x in alpha)
    if not a:
        raise ValueError("alpha must have dimension >= 1")
    if any(x == 0 for x in a):
        raise ValueError("alpha must have all coordinates nonzero here")
    return a


def mm_unit_cube_Q(alpha, r) -> Fraction:
    """Q with Vol_{n−1}({ν ∈ [0,1]^n : α·ν = r}) = Q·‖α‖ (α all nonzero)."""
    alpha = _validate_nonzero(alpha)
    r = Fraction(r)
    n = len(alpha)
    if n == 1:
        t = r / alpha[0]
        return Fraction(1, abs(alpha[0])) if 0 <= t <= 1 else Fraction(0)
    # Σ_d c_d·max(r − d, 0)^{n−1} over r = num/den, kept in integers
    num, den = r.numerator, r.denominator
    total = 0
    for d, c in arith.poly_product([{0: 1, a: -1} for a in alpha]).items():
        arg = num - d * den
        if arg > 0:
            total += c * arg ** (n - 1)
    q = Fraction(total, den ** (n - 1) * factorial(n - 1) * prod(alpha))
    if q < 0:
        raise ArithmeticError(f"negative slice volume {q} for alpha={alpha}, r={r}")
    return q


def mm_half_cube_Q(alpha, r) -> Fraction:
    """Q for the centered cube [−1/2, 1/2]^n (α all nonzero)."""
    alpha = _validate_nonzero(alpha)
    return mm_unit_cube_Q(alpha, Fraction(r) + Fraction(sum(alpha), 2))


def simplex_Q(alpha, r) -> Fraction:
    """Q for the positive orthant: Vol_{n−1}({ν ≥ 0 : α·ν = r}) = Q·‖α‖.

    Requires all α_i > 0; Q = max(r, 0)^{n−1} / ((n−1)!·∏ α_i).
    """
    alpha = tuple(int(x) for x in alpha)
    if not alpha or any(a <= 0 for a in alpha):
        raise ValueError("simplex slice requires strictly positive coefficients")
    r = Fraction(r)
    n = len(alpha)
    if n == 1:
        return Fraction(1, alpha[0]) if r >= 0 else Fraction(0)
    if r <= 0:
        return Fraction(0)
    return r ** (n - 1) / Fraction(factorial(n - 1) * prod(alpha))


def V_alpha(alpha, box: str, level, H: int | None = None) -> Fraction:
    """Exact V_α(B; level) = gcd(α)·Vol_{n−1}(B ∩ {α·ν = level}) / ‖α‖.

    ``box`` is one of "unit" ([0,1]^n), "half" ([−1/2,1/2]^n),
    "scaled-positive" ([0,H]^n) or "scaled-symmetric" ([−H,H]^n); the scaled
    boxes require ``H`` and an exact rational ``level``.  Zero coordinates of
    α are allowed and reduced away.
    """
    a = tuple(int(x) for x in alpha)
    if not a or all(x == 0 for x in a):
        raise ValueError("alpha must be a nonzero vector")
    if box not in BOXES:
        raise ValueError(f"unknown box kind {box!r}")
    # B = scale·[0,1]^n + corner·(1, …, 1)
    if box == "unit":
        scale, corner = 1, 0
    elif box == "half":
        scale, corner = 1, Fraction(-1, 2)
    elif H is None or H < 1:
        raise ValueError("scaled boxes require a positive height H")
    elif box == "scaled-positive":
        scale, corner = H, 0
    else:
        scale, corner = 2 * H, -H
    nz = tuple(x for x in a if x != 0)
    level = (Fraction(level) - corner * sum(nz)) / scale
    return arith.gcd_vec(a) * scale ** (len(a) - 1) * mm_unit_cube_Q(nz, level)


def V_alpha_positive(alpha, J: int, H: int) -> Fraction:
    """gcd(α)·simplex_Q(α, J) for positive α, 0 ≤ J ≤ H.

    Valid exactly in the regime 0 ≤ J ≤ H, where the simplex slice lies
    inside the box [0,H]^n.
    """
    a = tuple(int(x) for x in alpha)
    if not a or any(x <= 0 for x in a):
        raise ValueError("positive-orthant density requires strictly positive alpha")
    if not 0 <= J <= H:
        raise ValueError("positive-orthant density requires 0 <= J <= H")
    return arith.gcd_vec(a) * simplex_Q(a, J)
