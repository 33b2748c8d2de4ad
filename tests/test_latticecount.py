import dataclasses
import math
import time
from fractions import Fraction as F
from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as orc
from multdep import arith
from multdep import latticecount as lc
from multdep import slicevol
from multdep.errors import RegimeError
from multdep.latticecount import (
    CurveSystemSpec,
    DomainSpec,
    HyperplaneSpec,
    count_S,
    covolume_ratio,
    curve_counts,
    hyperplane_lattice_count,
)


def test_covolume_ratio_examples():
    assert covolume_ratio((1, 1)) == 2
    assert covolume_ratio((2, 2)) == 2
    assert covolume_ratio((3, 0, 0)) == 1
    with pytest.raises(ValueError):
        covolume_ratio((0, 0))


# ── hyperplane lattice counts ─────────────────────────────────────────────


def brute_lattice_count(alpha, J, box):
    n = len(alpha)
    count = 0
    for v in product(*[range(lo, hi + 1) for lo, hi in box]):
        if sum(a * x for a, x in zip(alpha, v)) == J:
            count += 1
    return count


def test_lattice_count_examples():
    assert hyperplane_lattice_count(HyperplaneSpec((2, 2), 1), [(-9, 9)] * 2) == 0
    for H in (3, 7):
        assert hyperplane_lattice_count(HyperplaneSpec((1, 1), 0), [(-H, H)] * 2) == 2 * H + 1
    assert hyperplane_lattice_count(HyperplaneSpec((1, 1, 1), 0), [(-1, 1)] * 3) == 7


def test_lattice_count_brute_random(rng):
    for _ in range(60):
        n = rng.randint(1, 4)
        alpha = tuple(rng.randint(-4, 4) for _ in range(n))
        J = rng.randint(-8, 8)
        box = []
        for _ in range(n):
            lo = rng.randint(-5, 2)
            box.append((lo, lo + rng.randint(0, 6)))
        assert hyperplane_lattice_count(HyperplaneSpec(alpha, J), box) == brute_lattice_count(
            alpha, J, box
        )


def test_lattice_count_oversized_box_raises_at_once():
    # 6·10^9 possible sums: refused before any array or term list is built
    t0 = time.perf_counter()
    with pytest.raises(RegimeError):
        hyperplane_lattice_count(HyperplaneSpec((1, 2), 1), [(-10**9, 10**9)] * 2)
    assert time.perf_counter() - t0 < 1
    # a level outside the reachable sums is still an exact 0
    assert hyperplane_lattice_count(HyperplaneSpec((1, 2), 10**10), [(-10**9, 10**9)] * 2) == 0


def test_lattice_count_is_linear_in_box_width():
    # each range factor is one running sum, not one slice-add per value
    H = 10**5
    t0 = time.perf_counter()
    got = hyperplane_lattice_count(HyperplaneSpec((1, 1, 1), 0), [(-H, H)] * 3)
    assert time.perf_counter() - t0 < 1
    assert got == 3 * H * H + 3 * H + 1
    # a one-point coordinate with a huge coefficient is a single shift
    t0 = time.perf_counter()
    assert hyperplane_lattice_count(HyperplaneSpec((10**12, 1), 10**12 + 3), [(1, 1), (-5, 5)]) == 1
    assert time.perf_counter() - t0 < 1


def test_lattice_count_all_zero_alpha():
    assert hyperplane_lattice_count(HyperplaneSpec((0, 0), 0), [(-2, 2)] * 2) == 25
    assert hyperplane_lattice_count(HyperplaneSpec((0, 0), 3), [(-2, 2)] * 2) == 0


def test_lattice_count_approximated_by_density(rng):
    # |count − V_α| stays bounded by a fitted multiple of H^{n-2}
    for _ in range(10):
        n = rng.randint(2, 3)
        alpha = tuple(rng.randint(-4, 4) for _ in range(n))
        if not any(alpha):
            continue
        g = lc.arith.gcd_vec(alpha)
        J = g * rng.randint(-2, 2)
        ratios = {}
        for H in (20, 60):
            cnt = hyperplane_lattice_count(HyperplaneSpec(alpha, J), [(-H, H)] * n)
            v = slicevol.V_alpha(alpha, "scaled-symmetric", J, H=H)
            ratios[H] = abs(F(cnt) - v) / H ** (n - 2)
        assert ratios[60] <= 2 * ratios[20] + 2


# ── enumeration ───────────────────────────────────────────────────────────


def test_enumeration_examples():
    got = list(orc.enumerate_solutions(HyperplaneSpec((1, 0), 1), DomainSpec("signed", 3)))
    assert got == [(1, -3), (1, -2), (1, -1), (1, 1), (1, 2), (1, 3)]
    got = list(orc.enumerate_solutions(HyperplaneSpec((1, 1), 0), DomainSpec("signed", 1)))
    assert got == [(-1, 1), (1, -1)]
    got = list(orc.enumerate_solutions(HyperplaneSpec((1, 1, 1), 3), DomainSpec("positive", 1)))
    assert got == [(1, 1, 1)]


def test_enumeration_exact_and_unique(rng):
    # fixed cases first: J = 0, a zero α in either position, all-zero α
    cases = [((1, 1), 0), ((0, 2), 4), ((3, 0), -3), ((0, 0), 0), ((2, -1, 0), 0), ((0, 1, -1), 2)]
    cases += [
        (tuple(rng.randint(-3, 3) for _ in range(rng.randint(2, 3))), rng.randint(-5, 5))
        for _ in range(30)
    ]
    for alpha, J in cases:
        n = len(alpha)
        spec = HyperplaneSpec(alpha, J)
        for dom in ("signed", "positive"):
            H = rng.randint(1, 5)
            sols = list(orc.enumerate_solutions(spec, DomainSpec(dom, H)))
            axis = [x for x in range(-H, H + 1) if x] if dom == "signed" else range(1, H + 1)
            brute = [v for v in product(axis, repeat=n) if sum(a * x for a, x in zip(alpha, v)) == J]
            assert sorted(sols) == brute, (alpha, J, dom, H)
            # the number of points: a lattice count of the box, less the
            # points with a zero coordinate by inclusion–exclusion
            if dom == "positive":
                want = hyperplane_lattice_count(spec, [(1, H)] * n)
            else:
                want = sum(
                    (-1) ** sum(pinned)
                    * hyperplane_lattice_count(spec, [(0, 0) if z else (-H, H) for z in pinned])
                    for pinned in product((False, True), repeat=n)
                )
            assert len(sols) == want, (alpha, J, dom, H)


# ── dependent-vector counting ─────────────────────────────────────────────


def test_count_examples():
    rep = count_S(HyperplaneSpec((1, 0, 0), 1), DomainSpec("signed", 5))
    assert rep.dependent_total == 100 and rep.total_on_plane == 100
    rep = count_S(HyperplaneSpec((1, 1, 1), 6), DomainSpec("positive", 6))
    assert rep.dependent_total == 10
    assert rep.by_rank == {0: 9, 1: 1}
    rep = count_S(HyperplaneSpec((0, 0), 0), DomainSpec("signed", 1))
    assert rep.dependent_total == 4


def test_count_degenerate():
    rep = count_S(HyperplaneSpec((0, 0), 3), DomainSpec("signed", 5))
    assert rep.degenerate and rep.dependent_total == 0 and rep.total_on_plane == 0
    # the report stores what a count measures; the sum and the flag are derived
    assert [f.name for f in dataclasses.fields(lc.CountReport)] == [
        "alpha", "J", "domain", "H", "total_on_plane", "by_rank"]


def _oracle_report(spec, ds):
    """(total, by_rank) by plain enumeration and the brute-force rank oracle."""
    total, by_rank = 0, {}
    for v in orc.enumerate_solutions(spec, ds):
        total += 1
        if orc.dependent_oracle(v):
            r = orc.subset_rank_oracle(v)
            by_rank[r] = by_rank.get(r, 0) + 1
    return total, by_rank


def _nonzero(by_rank):
    """``by_rank`` after the drop ``count_S`` applies to its tally: ranks
    ascending, zero counts left out."""
    return {r: c for r, c in sorted(by_rank.items()) if c}


@st.composite
def repeated_planes(draw, n):
    """(α, J, domain, H): n coefficients drawn from two values of [−3, 3], so
    some α (or |α|, after the signed domain's sign flips) repeats, α = 0
    included; H small enough for the brute-force oracle."""
    dom = draw(st.sampled_from(("signed", "positive")))
    palette = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    alpha = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    if dom == "signed":
        alpha = [a * draw(st.sampled_from((1, -1))) for a in alpha]
    top = {2: 40, 3: 16, 4: 9, 5: 4}[n]
    return tuple(alpha), draw(st.integers(-6, 6)), dom, draw(st.integers(top // 2, top))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@given(data=st.data())
def test_orbit_counts_match_brute_enumeration(n, data):
    # count_S visits one cell per orbit of interchangeable coordinates; the
    # oracle walks every vector and ranks each by brute force
    alpha, J, dom, H = plane = data.draw(repeated_planes(n))
    spec, ds = HyperplaneSpec(alpha, J), DomainSpec(dom, H)
    rep = count_S(spec, ds)
    if spec.nnz == 0 and J != 0:
        assert rep.degenerate
        return
    assert (rep.total_on_plane, rep.by_rank) == _oracle_report(spec, ds), plane


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@given(data=st.data())
def test_signed_counts_ignore_signs_and_order_of_alpha(n, data):
    # ν_i ↦ sign(α_i)·ν_i, a permutation of the coordinates and ν ↦ −ν
    # (which turns J into −J) each carry the signed plane's points onto
    # another plane's, keeping every |ν_i|, so the count and its ranks agree
    alpha = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    J = data.draw(st.integers(-8, 8))
    H = data.draw(st.integers(1, {2: 40, 3: 20, 4: 8, 5: 4}[n]))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    order = data.draw(st.permutations(range(n)))
    moved = tuple(t * alpha[i] for t, i in zip(signs, order))
    ds = DomainSpec("signed", H)
    got = set()
    for a, j in ((alpha, J), (moved, J), (moved, -J)):
        rep = count_S(HyperplaneSpec(a, j), ds)
        assert (rep.alpha, rep.J) == (a, j)
        assert list(rep.by_rank) == sorted(rep.by_rank) and all(rep.by_rank.values()), rep.by_rank
        got.add((rep.total_on_plane, tuple(rep.by_rank.items()), rep.degenerate))
    assert len(got) == 1, (alpha, moved, J, H, got)


def test_count_matches_brute_enumeration(rng):
    for _ in range(50):
        n = rng.randint(1, 4)
        alpha = tuple(rng.randint(-3, 3) for _ in range(n))
        J = rng.randint(-6, 6)
        H = rng.randint(1, 6)
        dom = rng.choice(["signed", "positive"])
        spec, ds = HyperplaneSpec(alpha, J), DomainSpec(dom, H)
        total, by_rank = _oracle_report(spec, ds)
        rep = count_S(spec, ds)
        if spec.nnz == 0 and J != 0:
            assert rep.degenerate
            continue
        assert rep.total_on_plane == total
        assert rep.dependent_total == sum(by_rank.values())
        assert rep.by_rank == by_rank


def test_count_rank_sum_identity(rng):
    for _ in range(10):
        alpha = tuple(rng.randint(-2, 2) for _ in range(3))
        J = rng.randint(-4, 4)
        spec = HyperplaneSpec(alpha, J)
        rep = count_S(spec, DomainSpec("signed", 8))
        if rep.degenerate:
            continue
        assert sum(rep.by_rank.values()) == rep.dependent_total
        assert all(0 <= r <= spec.n - 1 for r in rep.by_rank)


def test_positive_signed_consistency_unit_level():
    # every signed solution with ν_1 = 1 is a sign pattern of a positive one
    n = 3
    for H in (4, 9):
        pos = count_S(HyperplaneSpec((1, 0, 0), 1), DomainSpec("positive", H))
        sgn = count_S(HyperplaneSpec((1, 0, 0), 1), DomainSpec("signed", H))
        assert pos.dependent_total * 2 ** (n - 1) == sgn.dependent_total


def test_total_on_plane_matches_dp(rng):
    for _ in range(20):
        n = rng.randint(2, 3)
        alpha = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(alpha):
            continue
        J = rng.randint(-5, 5)
        H = rng.randint(2, 7)
        spec = HyperplaneSpec(alpha, J)
        rep = count_S(spec, DomainSpec("signed", H))
        # inclusion–exclusion over the coordinates pinned to 0
        nonzero = 0
        for pinned in product((False, True), repeat=n):
            box = [(0, 0) if z else (-H, H) for z in pinned]
            nonzero += (-1) ** sum(pinned) * hyperplane_lattice_count(spec, box)
        assert rep.total_on_plane == nonzero


# ── curve systems ─────────────────────────────────────────────────────────


def brute_curve(sys: CurveSystemSpec, H: int):
    count = excluded = 0
    k = sys.k
    nvar = 3 if sys.variant != "4var" else 4
    for v in product(*[[x for x in range(-H, H + 1) if x != 0]] * nvar):
        if sys.variant in ("2var-a", "2var-b"):
            lin = sys.alpha[0] * v[0] + sys.alpha[1] * v[1] == sys.J
        else:
            lin = sum(a * x for a, x in zip(sys.alpha, v)) == sys.J
        if not lin:
            continue
        if sys.variant == "2var-a":
            mult = sys.A * v[0] ** k[0] * v[1] ** k[1] == sys.B * v[2] ** k[2]
        elif sys.variant == "2var-b":
            mult = sys.A * v[0] ** k[0] * v[2] ** k[2] == sys.B * v[1] ** k[1]
        elif sys.variant == "3var":
            mult = sys.A * v[0] ** k[0] * v[1] ** k[1] == sys.B * v[2] ** k[2]
        else:
            mult = v[0] ** k[0] * v[1] ** k[1] == v[2] ** k[2] * v[3] ** k[3]
        if not mult:
            continue
        if sys.variant == "3var" and (sys.alpha[0] * v[0] == sys.J or sys.alpha[1] * v[1] == sys.J):
            excluded += 1
        else:
            count += 1
    return count, excluded


def test_curve_examples():
    assert curve_counts(CurveSystemSpec("2var-a", 1, 1, (1, 1, 1), (1, 1), 2), 1)[0] == 1
    assert curve_counts(CurveSystemSpec("3var", 1, 1, (1, 1, 1), (1, 1, 1), 50), 5)[0] == 0
    assert curve_counts(CurveSystemSpec("4var", 1, 1, (1, 1, 1, 1), (1, 1, 1, 1), 4), 1)[0] == 1


def test_curve_preconditions():
    with pytest.raises(RegimeError, match="J != 0"):
        curve_counts(CurveSystemSpec("2var-a", 1, 1, (1, 1, 1), (1, 1), 0), 5)
    with pytest.raises(RegimeError, match="nonzero"):
        curve_counts(CurveSystemSpec("2var-a", 0, 1, (1, 1, 1), (1, 1), 2), 5)
    with pytest.raises(RegimeError, match="exponents"):
        curve_counts(CurveSystemSpec("2var-a", 1, 1, (1, 0, 1), (1, 1), 2), 5)
    with pytest.raises(RegimeError, match="at most one zero"):
        curve_counts(CurveSystemSpec("4var", 1, 1, (1, 1, 1, 1), (1, 0, 0, 1), 2), 5)
    with pytest.raises(RegimeError, match="A = B = 1"):
        curve_counts(CurveSystemSpec("4var", 2, 1, (1, 1, 1, 1), (1, 1, 1, 1), 2), 5)
    with pytest.raises(RegimeError, match="unknown curve variant"):
        curve_counts(CurveSystemSpec("5var", 1, 1, (1,), (1,), 2), 5)


def _root_branches(sys: CurveSystemSpec, H: int) -> set[str]:
    """Which ways a 2var line point can fail to give ν3 with ν3^k3 = num/den."""
    (a1, a2), k, out = sys.alpha, sys.k, set()
    for v1 in [x for x in range(-H, H + 1) if x != 0]:
        v2, r = divmod(sys.J - a1 * v1, a2)
        if r or v2 == 0 or abs(v2) > H:
            continue
        if sys.variant == "2var-a":
            num, den = sys.A * v1 ** k[0] * v2 ** k[1], sys.B
        else:
            num, den = sys.B * v2 ** k[1], sys.A * v1 ** k[0]
        if num % den:
            out.add("not integral")
        elif k[2] % 2 == 0 and num // den < 0:
            out.add("even root of a negative")
        elif orc._iroot(abs(num // den), k[2]) ** k[2] == abs(num // den) > H ** k[2]:
            out.add("root above H")
    return out


def test_curve_brute_random(rng):
    # composite |A|, |B| and k <= 4 drive the 2var root count through each way
    # a quotient can fail to be a k3-th power in range
    branches = set()
    for _ in range(60):
        variant = rng.choice(["2var-a", "2var-b", "3var", "4var"])
        if variant == "4var":
            A = B = 1
            k = tuple(rng.randint(1, 4) for _ in range(4))
            alpha = tuple(rng.randint(-2, 2) for _ in range(4))
            if sum(1 for a in alpha if a == 0) > 1:
                alpha = (1, 1, 1, 1)
            H = rng.randint(1, 4)
        else:
            A, B = (rng.choice([1, 2, 4, 8, 9, 12]) * rng.choice([-1, 1]) for _ in range(2))
            k = tuple(rng.randint(1, 4) for _ in range(3))
            alpha = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(2 if variant != "3var" else 3))
            H = rng.randint(1, 7)
        J = rng.choice([-3, -2, -1, 1, 2, 3])
        sys = CurveSystemSpec(variant, A, B, k, alpha, J)
        if variant.startswith("2var"):
            branches |= _root_branches(sys, H)
        assert curve_counts(sys, H) == brute_curve(sys, H), (sys, H)
    assert branches == {"not integral", "even root of a negative", "root above H"}


def _curve_cases(rng):
    """Systems for the differential test, with the hand-picked ones first.

    The 2var heights reach 300, 3var 60 and 4var 12, beyond
    ``test_curve_brute_random``; the last case is the benchmark's
    4var (1, 1, −1, 2) shape at H = 28.
    """
    cases = [
        # m = 0 along ν1 = 2: every point of ν2 = ν3 solves, and is excluded
        (CurveSystemSpec("3var", 1, 2, (1, 1, 1), (1, 1, -1), 2), 40),
        (CurveSystemSpec("3var", -6, 12, (1, 2, 2), (2, 1, -1), 4), 60),
        (CurveSystemSpec("2var-a", -12, 9, (2, 1, 2), (1, -2), 3), 300),
        (CurveSystemSpec("2var-b", 4, -6, (1, 2, 1), (2, 1), -4), 300),
        # gcd(α1, α2) = 2: ν1 steps by 3 along its class, or no class at all
        (CurveSystemSpec("2var-a", 3, -2, (1, 2, 1), (-4, 6), 2), 300),
        (CurveSystemSpec("2var-b", 1, 1, (1, 1, 1), (4, 6), 3), 300),
    ]
    for z in range(4):
        alpha = [1, -1, 2, 1]
        alpha[z] = 0
        cases.append((CurveSystemSpec("4var", 1, 1, (1, 1, 1, 1), tuple(alpha), 2), 12))
    for _ in range(36):
        variant = rng.choice(["2var-a", "2var-b", "3var", "4var"])
        J = rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12])
        if variant == "4var":
            alpha = [rng.choice([-2, -1, 1, 2]) for _ in range(4)]
            if rng.random() < 0.3:
                alpha[rng.randrange(4)] = 0
            k = tuple(rng.randint(1, 3) for _ in range(4))
            cases.append((CurveSystemSpec(variant, 1, 1, k, tuple(alpha), J), rng.randint(1, 12)))
        else:
            A, B = (rng.choice([1, 2, 4, 6, 9, 12]) * rng.choice([-1, 1]) for _ in range(2))
            alpha = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2 if variant != "3var" else 3))
            k = tuple(rng.randint(1, 4) for _ in range(3))
            H = rng.randint(1, 60 if variant == "3var" else 300)
            cases.append((CurveSystemSpec(variant, A, B, k, alpha, J), H))
    cases.append((CurveSystemSpec("4var", 1, 1, (1, 1, 3, 1), (1, 1, -1, 2), -3), 28))
    return cases


def test_curve_matches_sweep_oracle(rng):
    seen = set()
    for sys, H in _curve_cases(rng):
        points = list(orc.curve_sweep_points(sys, H))
        assert curve_counts(sys, H) == orc.curve_sweep_oracle(sys, H), (sys, H)
        if not points:
            continue
        # the inner pair is the last two plane coordinates with nonzero α;
        # on m = 0 its line passes through the origin
        c, d = [i for i, a in enumerate(sys.alpha) if a][-2:]
        if len(sys.alpha) > 2 and any(sys.alpha[c] * v[c] + sys.alpha[d] * v[d] == 0 for v, _, _ in points):
            seen.add("m = 0")
        if 0 in sys.alpha:
            seen.add(f"zero alpha at {sys.alpha.index(0)}")
        if math.gcd(sys.alpha[c], sys.alpha[d]) > 1:
            seen.add("gcd > 1")
        for name, v in (("A", sys.A), ("B", sys.B)):
            if v < 0 and sum(arith.factorize(v).exponents.values()) > 1:
                seen.add(f"negative composite {name}")
        if any(e % 2 == 0 for e in sys.k):
            seen.add("even exponent")
        if any(dropped for _, _, dropped in points):
            seen.add("excluded")
        seen.add(sys.variant)
    assert seen == {
        "m = 0", "gcd > 1", "even exponent", "excluded", "negative composite A", "negative composite B",
        "2var-a", "2var-b", "3var", "4var", *(f"zero alpha at {z}" for z in range(4)),
    }


def test_iroot_is_exact():
    for k in range(1, 6):
        for m in range(2000):
            assert lc._iroot(m, k) == orc._iroot(m, k), (m, k)
        for r in (10**6, 3**40, 2**90 + 1):
            for m in (r**k - 1, r**k, r**k + 1):
                assert lc._iroot(m, k) == orc._iroot(m, k), (m, k)


def test_curve_excluded_side_count():
    # (1, x, x) solves ν1·ν2 = ν3 with J·ν1 + ν2 − ν3 = J but is excluded
    sys = CurveSystemSpec("3var", 1, 1, (1, 1, 1), (3, 1, -1), 3)
    assert curve_counts(sys, 10)[1] > 0


def test_curve_even_exponent_sign_pairs():
    # ν3² = ν1·ν2 counts both square roots
    sys = CurveSystemSpec("2var-a", 1, 1, (1, 1, 2), (1, 1), 5)
    want, _ = brute_curve(sys, 12)
    assert curve_counts(sys, 12)[0] == want


def test_count_single_coordinate():
    rep = count_S(HyperplaneSpec((3,), 3), DomainSpec("signed", 5))
    assert (rep.total_on_plane, rep.dependent_total, rep.by_rank) == (1, 1, {0: 1})
    rep = count_S(HyperplaneSpec((3,), 6), DomainSpec("signed", 5))
    assert (rep.total_on_plane, rep.dependent_total) == (1, 0)
    rep = count_S(HyperplaneSpec((3,), -3), DomainSpec("positive", 5))
    assert rep.total_on_plane == 0
    # no table is built for one coordinate, so H may pass the sweep's cap
    rep = count_S(HyperplaneSpec((-3,), 3), DomainSpec("signed", 10**12))
    assert (rep.total_on_plane, rep.by_rank) == (1, {0: 1})
    # α = (0,): every ν in the box is on the plane, and only ±1 is dependent
    for dom, want in (("signed", (2 * 10**12, {0: 2})), ("positive", (10**12, {0: 1}))):
        rep = count_S(HyperplaneSpec((0,), 0), DomainSpec(dom, 10**12))
        assert (rep.total_on_plane, rep.by_rank) == want, dom


def test_scaled_positive_density_matches_closed_form():
    for alpha in [(1, 1), (1, 2, 3), (2, 2, 2)]:
        for H in (5, 9):
            for J in range(0, H + 1):
                assert slicevol.V_alpha(alpha, "scaled-positive", J, H=H) == (
                    slicevol.V_alpha_positive(alpha, J, H)
                )


def test_count_matches_brute_high_dimension(rng):
    # exercises the cover filter and exact fallback in dimensions 5 and 6
    for n in (5, 6):
        for alpha in [(1,) * n, (1, -1, 2, 0, 1, -2)[:n], (0, 1, 1, 0, 2, 1)[:n]]:
            J = rng.randint(-3, 3)
            H = 3
            spec, ds = HyperplaneSpec(alpha, J), DomainSpec("signed", H)
            total, by_rank = _oracle_report(spec, ds)
            rep = count_S(spec, ds)
            assert rep.total_on_plane == total
            assert rep.dependent_total == sum(by_rank.values())
            assert rep.by_rank == by_rank


def test_cover_filter_boundary_on_hand_built_blocks(rng, monkeypatch):
    # the cover filter runs while H**3 < 2**62 and is off from H = 1664511 on;
    # either way the block's ranks equal the oracle's, and only the filter
    # keeps rows out of the deep test
    top = 2000
    base, rad = arith.power_base_table(top), arith.radical_table(top)
    inner = np.arange(1, 301, dtype=np.int64)
    pivot = np.array([rng.choice([6 * i, 36 * i, 6 * i * i, rng.randint(1, top)]) for i in range(1, 301)])
    valid = (pivot <= top) & (np.array([rng.random() for _ in range(300)]) < 0.9)
    inner, pivot = inner[valid], pivot[valid]
    outer = np.full(len(inner), 6, dtype=np.int64)
    want = {}
    for i, p in zip(inner.tolist(), pivot.tolist()):
        if orc.dependent_oracle((6, i, p)):
            r = orc.subset_rank_oracle((6, i, p))
            want[r] = want.get(r, 0) + 2
    assert want.get(2, 0) > 0
    ranked = []  # rows of each stack the deep stage hands to relations
    rank_from_rows = lc.relations.rank_from_rows

    def counting(rows, smallest=2):
        ranked.append(len(rows))
        return rank_from_rows(rows, smallest)

    monkeypatch.setattr(lc.relations, "rank_from_rows", counting)
    deep_tests = []
    for H in (1664510, 1664511):
        assert (H**3 >= 2**62) == (H == 1664511)
        rep = lc.CountReport((1, 1, 1), 0, "signed", H)
        ranked.clear()
        lc._rank_deep(rep, *lc._classify_block(rep, [outer, inner, pivot], np.full(len(inner), 2), base, rad))
        assert rep.total_on_plane == 2 * len(inner)
        assert _nonzero(rep.by_rank) == want
        deep_tests.append(sum(ranked))
    assert 0 < deep_tests[0] < deep_tests[1]


def _deep_candidate(row, base, rad):
    """Whether the cascade hands ``row`` to the deep stage: no ±1, no two
    equal power bases, and at least three coordinates whose primes all
    divide the other coordinates."""
    bases = [int(base[x]) for x in row]
    if 1 in row or len(set(bases)) < len(bases):
        return False
    prod_all = math.prod(row)
    return sum((prod_all // x) % int(rad[x]) == 0 for x in row) >= 3


def _cover_rule_by_row(cols, base, rad):
    """The cascade's deep-stage rows, one row at a time, each sorted."""
    return [sorted(row) for row in zip(*(c.tolist() for c in cols)) if _deep_candidate(row, base, rad)]


def test_cover_filter_matches_the_covered_count_rule(rng):
    # hand-built blocks, mostly smooth values so that many rows survive; the
    # filter is on (H**n < 2**62) for every n here.  Each block ends with a
    # copy of its rows with a 0 in the last column, as a signed sweep yields
    # them at c = 0 or p = 0: off the box, they add nothing
    top = 1000
    base, rad = arith.power_base_table(top), arith.radical_table(top)
    smooth = [x for x in range(2, top + 1) if max(arith._abs_exponents(x))[0] <= 7]
    for n in range(2, 7):
        cols = [np.array([rng.choice(smooth) if rng.random() < 0.8 else rng.randint(1, top)
                          for _ in range(400)], dtype=np.int64) for _ in range(n)]
        zeroed = [np.tile(c, 2) for c in cols]
        zeroed[-1][400:] = 0
        # distinct weights, so each kept row must carry its own
        weights = np.arange(1, 801, dtype=np.int64)
        rep = lc.CountReport((1,) * n, 0, "signed", top)
        rows, kept = lc._classify_block(rep, zeroed, weights, base, rad)
        got = list(zip(rows.tolist(), kept.tolist()))
        block = list(zip(zip(*(c.tolist() for c in cols)), weights.tolist()))
        want = [(sorted(row), w) for row, w in block if _deep_candidate(row, base, rad)]
        assert got == want, n
        unit = [w for row, w in block if 1 in row]
        pair = [w for row, w in block if 1 not in row and len({int(base[x]) for x in row}) < n]
        assert rep.total_on_plane == int(weights[:400].sum())
        assert (rep.by_rank.get(0, 0), rep.by_rank.get(1, 0)) == (sum(unit), sum(pair)), n
        passed_ranks = 400 - len(unit) - len(pair)
        # two coordinates hand no row on: a deep subset needs three
        assert (len(want) > 0) == (n >= 3) and len(want) < passed_ranks, (n, len(want), passed_ranks)


def test_line_class_is_the_solving_residue_class():
    for a in range(-6, 7):
        for b in (-6, -4, -3, -1, 1, 2, 5, 6):
            g, s, u = lc._line_class(a, b)
            for m in range(-12, 13):
                solving = [c for c in range(-20, 21) if (m - a * c) % b == 0]
                want = [] if m % g else [c for c in range(-20, 21) if (c - m // g * u) % s == 0]
                assert solving == want, (a, b, m)
                # from one point to the next c grows by s, d by −(a/g)·sign(b)
                if len(solving) > 1:
                    d0, d1 = ((m - a * c) // b for c in solving[:2])
                    assert solving[1] - solving[0] == s
                    assert d1 - d0 == -(a // g) * (1 if b > 0 else -1)


def test_count_exact_with_huge_coefficients():
    # the residue of the inner coordinate needs (rem/g)·u mod s with s near
    # 2^40: in int64 that product wraps, so the sweep would lose solutions
    cases = [
        ((1, 3, 2**38 + 1), 2**38 + 6, 3, (2, 2), (1, 1)),
        ((4, 6, 2**40 + 3), 2**40 + 23, 2, (1, 1), (1, 1)),
        ((2**39, 3, 2**40 + 1), 2**41 - 2, 2, (1, 1), (0, 0)),
    ]
    for alpha, J, H, signed, positive in cases:
        spec = HyperplaneSpec(alpha, J)
        for dom, want in (("signed", signed), ("positive", positive)):
            ds = DomainSpec(dom, H)
            sols = list(orc.enumerate_solutions(spec, ds))
            assert (len(sols), sum(orc.dependent_oracle(v) for v in sols)) == want
            rep = count_S(spec, ds)
            assert (rep.total_on_plane, rep.dependent_total) == want, (alpha, dom)


def test_count_pinned_at_moderate_heights():
    # |α_pivot| ≥ 3, or gcd(α_inner, α_pivot) > 1 so that some outer combos
    # have no solutions; counts taken from a sweep that divided on every cell
    # of the full (combos × axis) grid
    for alpha, J, H, dom, total, by_rank in [
        ((-2, 3, -4), 3, 758, "signed", 550183, {0: 3278, 1: 3554, 2: 146}),  # 6978 dependent
        ((-1, -1, -2), -12, 407, "signed", 330463, {0: 3218, 1: 4855, 2: 470}),
        ((3, 2, -1), 10, 1016, "positive", 87376, {0: 847, 1: 411, 2: 51}),
        ((3, 4, 6), 7, 500, "signed", 163263, {0: 1662, 1: 1353, 2: 43}),
        # one class of three free coordinates; measured on the sweep that
        # visited every cell
        ((1, 1, 1, 1), 1, 100, "signed", 5293596, {0: 232892, 1: 509800, 2: 173064, 3: 38640}),
    ]:
        rep = count_S(HyperplaneSpec(alpha, J), DomainSpec(dom, H))
        assert (rep.total_on_plane, rep.by_rank) == (total, by_rank), alpha
        assert rep.dependent_total == sum(by_rank.values())


def test_count_pinned_at_larger_heights():
    # counts taken from a sweep that visited every cell of the residue grid
    # (H = 10⁴ took it 6 s); the side classes visit about ×85 fewer
    for alpha, J, H, dom, total, by_rank in [
        ((1, 1, 1), 1, 10**4, "signed", 299970003, {0: 119982, 1: 35661, 2: 2250}),
        ((1, 1, 1), 5000, 5000, "positive", 12492501, {0: 14991, 1: 8538, 2: 150}),
        # measured with the sweep that stepped p along c's class; blocks split
        # long runs of cells here, and p reaches its largest values
        ((1, 1, 1), 1, 10**5, "signed", 29999700003, {0: 1199982, 1: 314013, 2: 5514}),
        ((2, 3, 4), 5, 10**5, "signed", 9583274999, {0: 433325, 1: 288677, 2: 173}),
        ((1, 1, 1), 10**5, 10**5, "positive", 4999850001, {0: 299991, 1: 153486, 2: 168}),
    ]:
        rep = count_S(HyperplaneSpec(alpha, J), DomainSpec(dom, H))
        assert (rep.total_on_plane, rep.by_rank) == (total, by_rank), (alpha, dom)


# planes whose free coordinates repeat |α| (signed) or α (positive), with
# mixed signs, α = 0 coordinates beside them and the pivot's |α| repeated
REPEAT_GRID = [
    ((1, 1, 2), 3), ((1, -1, 2), 0), ((0, 0, 3), 3), ((2, 2, -2, 3), 1), ((1, 1, 1, 1), 1), ((1, -1, 1, 2), 2),
    ((0, 1, 0, 1), 2), ((0, 0, 1, -1), 0), ((1, 1, -1, -1, 2), 1), ((0, 2, 2, 0, 3), 4), ((1, 1, 1, 1, 1), 0),
]

# n = 1..5; J = 0, α = 0 boxes, zero coefficients (inner one included, as in
# (2, 3, 0)) and composite α, some with gcd(α_inner, α_pivot) > 1
BLOCK_GRID = [
    ((3,), 6), ((0,), 0), ((2, -4), 0), ((0, 0), 0), ((0, 6), 12), ((4, 6), 10),
    ((1, 1, 1), 1), ((2, 3, 4), 5), ((0, 0, 0), 0), ((6, 0, -4), 2), ((1, -1, 9), 0),
    ((2, 3, 0), 4), ((1, 2, -1, 1), 3), ((0, 4, 6, 1), 0), ((0, 0, 0, 0), 0), ((1, 1, 1, 2), -1),
    ((1, 1, 1, 1, 1), 1), ((0, 2, -2, 3, 0), 0), ((6, 4, 1, -9, 2), 4),
]


def test_block_boundaries_do_not_change_counts(monkeypatch):
    # every count is the same whatever the block size (and so the deep
    # stage's flush points) and the deep stage's stack budget, by rank, and
    # at small H it equals plain enumeration with the brute-force rank
    # oracle.  A budget of 1 Gram entry ranks one row per stack; 40 ranks
    # 1 to 4 rows, so each flush makes many stacks with a short last one
    default, cells = lc._BLOCK_ROWS, lc._RANK_CELLS
    for alpha, J in BLOCK_GRID:
        spec = HyperplaneSpec(alpha, J)
        n = len(alpha)
        for dom in ("signed", "positive"):
            for H in ((1, 3, 7) if n <= 3 else (1, 3) if n == 4 else (1, 2)):
                ds = DomainSpec(dom, H)
                got = set()
                for rows, budget in ((1, 1), (7, 40), (default, cells)):
                    monkeypatch.setattr(lc, "_BLOCK_ROWS", rows)
                    monkeypatch.setattr(lc, "_RANK_CELLS", budget)
                    rep = count_S(spec, ds)
                    got.add((rep.total_on_plane, rep.dependent_total,
                             tuple(sorted(rep.by_rank.items())), rep.degenerate))
                assert len(got) == 1, (alpha, J, dom, H, got)
                total, by_rank = _oracle_report(spec, ds)
                assert got.pop()[:3] == (total, sum(by_rank.values()), tuple(sorted(by_rank.items())))
    # and at heights where blocks hold many combos and the inner axis splits,
    # one row per stack against the default budget, whose 2048-row stacks
    # (n = 4) take one flush of (1, −2, −3, 4) in two
    for alpha, J, H, dom in [
        ((1, 1, 1), 1, 600, "signed"), ((2, 3, 4), 5, 300, "signed"), ((1, 2, -1, 1), 3, 20, "signed"),
        ((0, 0, 0), 0, 40, "signed"), ((1, 1, 1, 1), 1, 30, "signed"), ((1, -2, -3, 4), 5, 45, "positive"),
    ]:
        spec, ds = HyperplaneSpec(alpha, J), DomainSpec(dom, H)
        got = set()
        for rows, budget in ((997, 1), (default, cells)):
            monkeypatch.setattr(lc, "_BLOCK_ROWS", rows)
            monkeypatch.setattr(lc, "_RANK_CELLS", budget)
            rep = count_S(spec, ds)
            got.add((rep.total_on_plane, tuple(sorted(rep.by_rank.items()))))
        assert len(got) == 1, (alpha, J, H, got)


def _yielded(spec, H, signed, pivot, free, rad=None):
    """Every row ``_solutions`` yields, one (tuple, weight) pair each, after
    checking that no block passes ``_BLOCK_ROWS``, that the weights are one
    int64 per row, all 1 on a strata pass (``rad`` given), and that only a
    signed sweep's last two columns, c and p, hold zeros."""
    rows = []
    for cols, weights in lc._solutions(spec, H, signed, pivot, free, rad):
        assert len(cols) == len(free) + (pivot is not None) and len(cols[0]) <= lc._BLOCK_ROWS
        assert weights.dtype == np.int64 and weights.shape == cols[0].shape
        assert rad is None or (weights == 1).all()
        for i, c in enumerate(cols):
            assert (c != 0).all() or (signed and i >= len(free) - 1), (i, c)
        rows.extend(zip(zip(*(c.tolist() for c in cols)), weights.tolist()))
    return rows


def test_solutions_yield_the_oracle_cells(monkeypatch):
    # the cell layer alone, at block sizes that split every run of cells:
    # in cascade mode the rows without a zero, sorted and absolute, each
    # counted with its weight, are the plane's solutions (the classify stage
    # drops a signed sweep's cells with c = 0 or p = 0); the grid's planes
    # with repeated |α| put many cells into one orbit.  In strata mode each
    # role's cells (e, d, p) are the solutions with |e| ≥ 2 and rad(e) | d,
    # and, signed, the points with d = 0 or p = 0 that ``_deep_residue``
    # drops
    sizes = (1, 7, lc._BLOCK_ROWS)
    for alpha, J in BLOCK_GRID + REPEAT_GRID:
        spec, n = HyperplaneSpec(alpha, J), len(alpha)
        pivot = lc._pivot_index(alpha) if spec.nnz else None
        free = [i for i in range(n) if i != pivot]
        if not free:
            continue
        for dom in ("signed", "positive"):
            signed = dom == "signed"
            for H in ((1, 3, 7) if n <= 3 else (1, 3) if n == 4 else (1, 2)):
                want = Counter(tuple(sorted(map(abs, v))) for v in orc.enumerate_solutions(spec, DomainSpec(dom, H)))
                for rows in sizes:
                    monkeypatch.setattr(lc, "_BLOCK_ROWS", rows)
                    got = Counter()
                    for r, w in _yielded(spec, H, signed, pivot, free):
                        if 0 not in r:
                            got[tuple(sorted(r))] += w
                    assert got == want, (rows, alpha, J, dom, H)
    rad = arith.radical_table(30)
    for alpha in CLASS_PLANES:
        for J, dom, H in product((0, 1, -7, 30), ("signed", "positive"), (1, 7, 30)):
            spec = HyperplaneSpec(alpha, J)
            sols = [tuple(map(abs, v)) for v in orc.enumerate_solutions(spec, DomainSpec(dom, H))]
            for d in range(3):
                p = lc._pivot_index([0 if i == d else a for i, a in enumerate(alpha)])
                e = 3 - d - p
                want = Counter((v[e], v[d], v[p]) for v in sols if v[e] >= 2 and v[d] % rad[v[e]] == 0)
                for ve, vd in product(range(-H, H + 1), repeat=2):
                    q, r = divmod(J - alpha[e] * ve - alpha[d] * vd, alpha[p])
                    if dom == "signed" and abs(ve) >= 2 and not r and abs(q) <= H and 0 in (vd, q) \
                            and vd % rad[abs(ve)] == 0:
                        want[abs(ve), abs(vd), abs(q)] += 1
                for rows in sizes:
                    monkeypatch.setattr(lc, "_BLOCK_ROWS", rows)
                    got = Counter(r for r, _ in _yielded(spec, H, dom == "signed", p, [e, d], rad))
                    assert got == want, (rows, alpha, J, dom, H, d)


def test_orbit_cells_cut_the_sweep():
    # (1, 1, 1, 2)/J = 12: the pivot is the 2, and the three free coordinates
    # form one class, so most orbits hold 3! = 6 vectors
    spec, H = HyperplaneSpec((1, 1, 1, 2), 12), 32
    rows = _yielded(spec, H, True, 3, [0, 1, 2])
    total = count_S(spec, DomainSpec("signed", H)).total_on_plane
    assert total == sum(w for r, w in rows if 0 not in r) == 120259
    assert 5 * len(rows) <= total


def test_count_refuses_int64_overflow():
    # the eight solutions (t, t, −t) exist, but α·ν wraps in int64 here and
    # the sweep would count 2 of them
    spec = HyperplaneSpec((1, 6917529027641081856, 6917529027641081857), 0)
    assert sum(1 for _ in orc.enumerate_solutions(spec, DomainSpec("signed", 4))) == 8
    with pytest.raises(RegimeError, match="2\\^62"):
        count_S(spec, DomainSpec("signed", 4))
    # the bound is on Σ|α_i|·H + |J|: 2^62 − 2 still runs, 2^62 is refused
    rep = count_S(HyperplaneSpec((1, 2**61 - 2), 2**61 - 1), DomainSpec("positive", 1))
    assert (rep.total_on_plane, rep.by_rank) == (1, {0: 1})
    with pytest.raises(RegimeError):
        count_S(HyperplaneSpec((1, 2**61 - 1), 2**61), DomainSpec("positive", 1))
    with pytest.raises(RegimeError):
        count_S(HyperplaneSpec((2**61, 0), 0), DomainSpec("signed", 2))


# ── oracle recounts behind acceptance criteria 02–04 ──────────────────────


def test_n2_same_base_identity_matches_oracle():
    # 12H − 8 + 4·P(H) is the closed form acceptance criterion 02 checks
    for H in range(1, 61):
        coords = [x for x in range(-H, H + 1) if x]
        expected = 12 * H - 8 + 4 * orc.same_base_pairs(H)
        assert orc.count_dependent(product(coords, repeat=2)) == expected
        rep = count_S(HyperplaneSpec((0, 0), 0), DomainSpec("signed", H))
        assert rep.dependent_total == expected


def _triples_summing_to(J, coords):
    allowed = set(coords)
    return [(a, b, J - a - b) for a in coords for b in coords if J - a - b in allowed]


def test_criteria_03_04_counts_match_oracle():
    # the smallest pinned point of each failing criterion, recounted by plain
    # enumeration and the Fraction-RREF dependence oracle
    positive = _triples_summing_to(500, range(1, 501))
    rep = count_S(HyperplaneSpec((1, 1, 1), 500), DomainSpec("positive", 500))
    assert rep.total_on_plane == len(positive)
    assert rep.dependent_total == orc.count_dependent(positive) == 2667

    signed = _triples_summing_to(1, [x for x in range(-200, 201) if x])
    rep = count_S(HyperplaneSpec((1, 1, 1), 1), DomainSpec("signed", 200))
    assert rep.total_on_plane == len(signed)
    assert rep.dependent_total == orc.count_dependent(signed) == 4365


# ── closed-form rank-0/1 strata of three-coefficient planes ───────────────

# merged coefficients that vanish: a1 − a2 in (1, 1, 2), a1 + a2 in
# (1, −1, 3), both in (2, −2, 4) (solutions only for even J), a1 + a2 − a3
# in (1, 1, 2) and (−2, 3, 1); composite and negative α in the others
STRATA_PLANES = [(1, 1, 1), (1, 1, 2), (1, -1, 3), (2, -2, 4), (-2, 3, 1), (-2, 3, -4), (4, 6, 9), (-6, 10, 15)]


def _cascade_strata(spec, ds, base, rad):
    """(total, rank 0, rank 1) from the cascade, ``_classify_block``, run on
    every solution of the plane as one block."""
    sols = np.array(list(orc.enumerate_solutions(spec, ds)), dtype=np.int64).reshape(-1, 3)
    rep = lc.CountReport(spec.alpha, spec.J, ds.kind, ds.H)
    lc._classify_block(rep, list(np.abs(sols).T), np.ones(len(sols), dtype=np.int64), base, rad)
    return rep.total_on_plane, rep.by_rank.get(0, 0), rep.by_rank.get(1, 0)


def test_strata_match_brute_force_and_the_cascade():
    base, rad = arith.power_base_table(200), arith.radical_table(200)
    for alpha in STRATA_PLANES:
        for J in (0, 1, -1, 7, -7, 2, -6):
            for dom in ("signed", "positive"):
                for H in (1, 2, 3, 7, 30, 200):
                    if H == 200 and (J, dom) not in ((-6, "signed"), (7, "positive")):
                        continue
                    spec, ds = HyperplaneSpec(alpha, J), DomainSpec(dom, H)
                    got = lc._strata(spec, ds, base)
                    assert got == _cascade_strata(spec, ds, base, rad), (alpha, J, dom, H)
                    if H <= 7:
                        total, by_rank = _oracle_report(spec, ds)
                        assert got == (total, by_rank.get(0, 0), by_rank.get(1, 0)), (alpha, J, dom, H)


def test_strata_alone_at_large_heights():
    # no sweep: these heights would need O(H²) cells.  Rank 0 of the signed
    # (1, 1, 1)/J = 1 plane is 12H − 18; (2, 3, 4) needs 9H exponent slots on
    # one orthant box, beyond poly_product's cap, and runs on lines instead
    H = 10**6
    base = arith.power_base_table(H)
    total, rank0, rank1 = lc._strata(HyperplaneSpec((1, 1, 1), 1), DomainSpec("signed", H), base)
    assert rank0 == 12 * H - 18 and 0 < rank1 < total
    total, rank0, rank1 = lc._strata(HyperplaneSpec((2, 3, 4), 5), DomainSpec("signed", H), base)
    assert 0 < rank0 + rank1 < total


def _largest_dominant(row, rad):
    """Index of the largest coordinate d with rad(x) | d for every x, so
    rad(d) = rad(row), or None."""
    dominant = [i for i, d in enumerate(row) if all(d % int(rad[x]) == 0 for x in row)]
    return max(dominant, key=lambda i: row[i], default=None)


def _dominant(rows, rad):
    """Mask of the (r, 3) rows that have a dominant coordinate."""
    return (rows[:, :, None] % rad[rows][:, None, :] == 0).all(axis=2).any(axis=1)


# s = |a_p|/gcd(a_d, a_p) > 1 under some role in most planes, and
# gcd(rad(e), s) > 1 for even e in (3, 1, 6), (−10, 4, 6) and (1, 1, 2)
CLASS_PLANES = [*STRATA_PLANES, (3, 1, 6), (5, 6, 7), (-10, 4, 6), (1, -15, 14)]


def test_class_sweep_deep_rows_match_the_covered_count_rule(monkeypatch):
    # the rows the sweep hands to the deep stage are the cascade's rows (run
    # on every plane point) that have a dominant coordinate, each once, and
    # they hold every dependent row.  J = 21 and 36 on (1, 1, 1) put
    # (3, 6, 12), with two dominant coordinates, and (6, 12, 18), with
    # three, on the plane
    handed, sides = [], set()

    def handing(report, rows, weights):
        assert (weights == 1).all()
        handed.extend(map(tuple, rows.tolist()))

    monkeypatch.setattr(lc, "_rank_deep", handing)
    side_class = lc._side_class

    def recording(r, x, s):
        sides.add((s > 1, bool((np.gcd(r, s) > 1).any())))
        return side_class(r, x, s)

    monkeypatch.setattr(lc, "_side_class", recording)
    base, rad = arith.power_base_table(200), arith.radical_table(200)
    seen = set()
    for i, alpha in enumerate(CLASS_PLANES):
        for J in (0, 1, -1, 7, -7, 2, -6, 30, 21, 36):
            for dom in ("signed", "positive"):
                for H in (1, 2, 3, 7, 30, 200):
                    # the oracle enumerates O(H²) combos: H = 200 once per plane
                    if H == 200 and (J, dom) != ((-6, "signed"), (30, "positive"))[i % 2]:
                        continue
                    spec, ds = HyperplaneSpec(alpha, J), DomainSpec(dom, H)
                    handed.clear()
                    count_S(spec, ds)
                    got = sorted(handed)
                    seen.update(got)
                    sols = np.abs(np.array(list(orc.enumerate_solutions(spec, ds)), dtype=np.int64).reshape(-1, 3))
                    rep = lc.CountReport(alpha, J, dom, H)
                    cascade, _ = lc._classify_block(rep, list(sols.T), np.ones(len(sols), dtype=np.int64), base, rad)
                    assert got == sorted(map(tuple, cascade[_dominant(cascade, rad)].tolist())), (alpha, J, dom, H)
                    if H <= 30:
                        want = [row for row in _cover_rule_by_row(list(sols.T), base, rad)
                                if _largest_dominant(row, rad) is not None]
                        assert got == sorted(map(tuple, want)), (alpha, J, dom, H)
                        dependent = [row for row in map(tuple, cascade.tolist()) if orc.dependent_oracle(row)]
                        assert not Counter(dependent) - Counter(got), (alpha, J, dom, H)
    assert {(3, 6, 12), (6, 12, 18)} <= seen
    assert (True, True) in sides and (True, False) in sides


def test_deep_residue_tests_every_cover():
    # per role, d dominant and p the pivot (every ordered pair, not only the
    # sweep's), on the solutions of the side class rad(e) | d, given as
    # (e, d, p) columns like a strata pass yields them: the rows kept are the
    # cascade's rows whose largest dominant coordinate is d.  Rows like
    # (6, 12, 18), dominant in all three coordinates, are kept under one role.
    # Cells with d = 0 or p = 0, which the sweep yields, are dropped
    base, rad = arith.power_base_table(30), arith.radical_table(30)
    kept, several = 0, 0
    for alpha in [(1, 2, -4), (3, 5, 6), (2, 3, 4), (1, 1, 1)]:
        for J in (0, 1, -1, 7, 12, -30, 21, 36):
            for dom in ("signed", "positive"):
                for H in (7, 30):
                    spec, ds = HyperplaneSpec(alpha, J), DomainSpec(dom, H)
                    sols = np.abs(np.array(list(orc.enumerate_solutions(spec, ds)), dtype=np.int64).reshape(-1, 3))
                    for d, p in permutations(range(3), 2):
                        e = 3 - d - p
                        side = sols[sols[:, d] % rad[sols[:, e]] == 0]
                        off = np.repeat(side, 3, axis=0)
                        off[0::3, d] = off[1::3, p] = off[2::3, d] = off[2::3, p] = 0
                        cells = np.concatenate([off, side])
                        got = lc._deep_residue([cells[:, e], cells[:, d], cells[:, p]], base, rad).tolist()
                        want = [sorted(row) for row in side.tolist()
                                if _deep_candidate(row, base, rad) and _largest_dominant(row, rad) == d]
                        assert sorted(got) == sorted(want), (alpha, J, dom, H, d, p)
                        kept += len(got)
                        several += sum(sum(x % rad[y] == 0 for y in row) == 3 for row in got for x in row) > 1
    assert kept > 0 and several > 0


def test_side_classes_are_exact_above_the_sieve_limit():
    # the radical table sieves its own primes, checked against trial
    # division past arith.SIEVE_LIMIT.  For e there, each combo's side class
    # (ok, first d, step) is the d in one period, [0, lcm(rad e, s)), with
    # d ≡ x (mod s) and rad(e) | d: one member, or none when not ok
    H = 2 * 1_000_003
    rad = arith.radical_table(H)
    es = [*range(H - 40, H + 1, 4), 1_000_003, 1_000_033, 1009 * 1013, 2 * 999_983]
    for e in es:
        assert e > arith.SIEVE_LIMIT and rad[e] == arith.radical(e), e
    es = np.array([H, H - 4, 1_999_998, 1_000_003, 1009 * 1013, 2 * 999_983], dtype=np.int64)
    for ac, ap in [(3, 1), (1, 4), (6, 5), (2, 7), (4, -9), (5, 12), (7, 30)]:
        g, s, u = lc._line_class(ac, ap)
        for rem in (g, 5 * g, -35 * g):
            r = rad[es]
            x = lc._class_residue(np.full(len(es), rem, dtype=np.int64), g, s, u)
            ok, y, m = lc._side_class(r, x, s)
            for r1, x1, ok1, y1, m1 in zip(*(v.tolist() for v in (r, x, ok, y, m))):
                period = r1 * s // math.gcd(r1, s)
                d = np.arange(x1, period, s, dtype=np.int64)
                want = d[d % r1 == 0].tolist()
                assert want == ([y1] if ok1 else []), (ac, ap, rem, r1)
                assert m1 == period, (ac, ap, rem, r1)


def test_side_class_counts_match_the_cascade(rng):
    # by rank, count_S against the cascade (``_classify_block`` on every
    # solution, then ``_rank_deep``) on random three-coefficient planes
    base, rad = arith.power_base_table(60), arith.radical_table(60)
    deep = 0
    for _ in range(80):
        alpha = tuple(rng.choice((-1, 1)) * rng.randint(1, 12) for _ in range(3))
        J, H, dom = rng.randint(-60, 60), rng.randint(1, 60), rng.choice(("signed", "positive"))
        spec, ds = HyperplaneSpec(alpha, J), DomainSpec(dom, H)
        sols = np.abs(np.array(list(orc.enumerate_solutions(spec, ds)), dtype=np.int64).reshape(-1, 3))
        want = lc.CountReport(alpha, J, dom, H)
        lc._rank_deep(want, *lc._classify_block(want, list(sols.T), np.ones(len(sols), dtype=np.int64), base, rad))
        got = count_S(spec, ds)
        assert (got.total_on_plane, got.by_rank) == (want.total_on_plane, _nonzero(want.by_rank)), (alpha, J, dom, H)
        deep += want.by_rank.get(2, 0)
    assert deep > 0
