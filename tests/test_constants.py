import dataclasses
import math
from fractions import Fraction as F

import pytest

import _oracles as orc
from multdep import constants as cn
from multdep.errors import RegimeError
from multdep.latticecount import DomainSpec, HyperplaneSpec, count_S


def test_alpha_star():
    assert cn.alpha_star((1, 2, 3), 2) == (1, 3)
    assert cn.alpha_star((5,), 1) == ()
    assert cn.alpha_star((1, 1, 1), 1) == (1, 1)
    with pytest.raises(ValueError):
        cn.alpha_star((1, 2), 3)


def test_alpha_pm():
    assert cn.alpha_pm((1, 1, 1), 1, 2, "minus") == (1, 0)
    assert cn.alpha_pm((1, 1, 1), 1, 2, "plus") == (1, 2)
    assert cn.alpha_pm((2, -3, 5), 2, 3, "plus") == (2, 2)
    with pytest.raises(ValueError):
        cn.alpha_pm((1, 2, 3), 2, 2, "plus")
    with pytest.raises(ValueError):
        cn.alpha_pm((1, 2, 3), 1, 2, "times")


def test_delta():
    assert cn.delta((2, 4), 3) == 0
    assert cn.delta((2, 4), 6) == 1
    assert cn.delta((0, 0), 0) == 1
    assert cn.delta((0, 0), 5) == 0


def test_C0_examples():
    assert cn.C0((1, 1, 1), 1) == 12
    assert cn.C0((2, 2, 2), 1) == 0
    # n = 2: four pinned families, each of density 1 (value fixed from the
    # rank-0 census: (1,1), (-1,3), (3,-1) plus the double-counted (1,1))
    assert cn.C0((1, 1), 2) == 4


def test_C1_examples():
    assert cn.C1((1, 1, 1), 1) == 9
    assert cn.C1((1, 1, 1), 0) == 9
    assert cn.C1((2, 2), 1) == 0


def test_C2_k3_examples():
    assert cn.C2_k3((1, 1, 1), 1) == 0
    assert cn.C2_k3((1, 1, 2), 4) == 2
    assert cn.C2_k3((3, 5, 7), 2) == 0
    with pytest.raises(RegimeError):
        cn.C2_k3((1, 1, 1), 0)
    with pytest.raises(RegimeError):
        cn.C2_k3((1, 1, 1, 1), 1)


def test_C2_k3_empirical_rank2_mass():
    # α = (1,1,2), J = 4 carries rank-2 mass 2·H + o(H): the forced lines
    # (4, -2t, t) and (-2t, 4, t) with t not a power of two contribute
    # exactly 2·(#t) vectors, and everything else is a √H·log H fringe
    H = 400
    rep = count_S(HyperplaneSpec((1, 1, 2), 4), DomainSpec("signed", H))
    powers = {2**e for e in range(1, 10)}
    per_family = 2 * sum(1 for t in range(2, H // 2 + 1) if t not in powers)
    forced = 2 * per_family
    got = rep.by_rank.get(2, 0)
    assert got >= forced
    assert got - forced <= 8 * math.sqrt(H) * math.log(H)


def test_C1_k3_examples():
    assert cn.C1_k3((1, 1, 1), 1) == 3
    assert cn.C1_k3((1, 1, 5), 5) == cn.C1((1, 1, 5), 5) - 2
    assert cn.C1_k3((1, 2, 3), 7) == cn.C1((1, 2, 3), 7)


def test_S2prime_examples():
    assert cn.S2prime(6, 1, 1) == [(-3, 9), (-2, 8), (2, 4), (4, 2), (8, -2), (9, -3)]
    assert cn.S2prime(5, 1, 1) == []
    with pytest.raises(ValueError):
        cn.S2prime(0, 1, 1)
    with pytest.raises(ValueError):
        cn.S2prime(3, 0, 1)


def test_S2prime_brute_force(rng):
    from multdep.arith import f_base

    def brute(J, a1, a2, bound):
        out = set()
        for x in range(-bound, bound + 1):
            num = J - a1 * x
            if num % a2:
                continue
            y = num // a2
            if abs(x) <= 1 or abs(y) <= 1 or abs(x) == abs(y) or abs(y) > bound:
                continue
            if f_base(abs(x)) == f_base(abs(y)):
                out.add((x, y))
        return out

    for _ in range(20):
        J = rng.choice([j for j in range(-50, 51) if j != 0])
        a1 = rng.choice([-3, -2, -1, 1, 2, 3])
        a2 = rng.choice([-3, -2, -1, 1, 2, 3])
        full = set(cn.S2prime(J, a1, a2))
        inside = {p for p in full if abs(p[0]) <= 2000 and abs(p[1]) <= 2000}
        assert brute(J, a1, a2, 2000) == inside


def test_S2prime_matches_the_walk_over_every_base():
    for J in range(-400, 401):
        for a1 in (-3, -1, 2):
            for a2 in (-2, 1, 3):
                if J:
                    assert cn.S2prime(J, a1, a2) == orc.s2prime_oracle(J, a1, a2), (J, a1, a2)
    # 2^6·3^4·5^2 = 129600 has 105 divisors; 2^20 ± 2^10 lie near 10^6
    for J, a1, a2 in ((-129600, 1, 2), (2**20 + 2**10, 1, 1), (2**20 - 2**10, 1, -1)):
        pairs = cn.S2prime(J, a1, a2)
        assert pairs and pairs == orc.s2prime_oracle(J, a1, a2), (J, a1, a2)
    assert (1024, 1048576) in cn.S2prime(2**20 + 2**10, 1, 1)


def test_C_k2_examples():
    bd = cn.C_k2((1, 1, 0), 6)
    assert bd.c1 == cn.C1((1, 1, 0), 6) + 2 * 6  # 2^{n-2}·S'_2 with n = 3
    bd = cn.C_k2((1, 1), 2)
    assert (bd.c0, bd.c1, bd.total) == (3, 2, 5)
    bd = cn.C_k2((1, 1), 5)
    assert bd.c0 == cn.C0((1, 1), 5) and bd.c1 == cn.C1((1, 1), 5)
    with pytest.raises(RegimeError):
        cn.C_k2((1, 1), 0)
    with pytest.raises(RegimeError):
        cn.C_k2((1, 1, 1), 2)


def test_C_k2_empirical_n2():
    # pairs on x + y = 2 in [-H,H]^2: exactly 3 rank-0 pairs, 0 equal pairs,
    # and S'_2(2;1,1) = {(4,-2),(-2,4)} for all H >= 4, so the count is 5
    rep = count_S(HyperplaneSpec((1, 1), 2), DomainSpec("signed", 50))
    assert rep.dependent_total == cn.C_k2((1, 1), 2).total == 5


def test_C_e1_examples():
    assert cn.C_e1(2, 1024, 3) == 100
    assert cn.C_e1(4, 1024, 3) == 100  # f(4) = 2: same base, same value
    assert cn.C_e1(-2, 1024, 3) == 100
    with pytest.raises(RegimeError):
        cn.C_e1(1, 100, 3)
    with pytest.raises(RegimeError):
        cn.C_e1(5, 100, 2)


def test_C_e1_floor_jumps_exactly_at_powers():
    f = 2
    for t in (3, 7, 10):
        at = cn.C_e1(2, f**t, 3)
        below = cn.C_e1(2, f**t - 1, 3)
        above = cn.C_e1(2, f**t + 1, 3)
        assert at == above == below + 8  # 2^{n-2}(n-1)·2 per floor step
    assert cn.floor_log(1, 2) == 0
    assert cn.floor_log(1023, 2) == 9


def test_C_total_dispatch():
    bd = cn.C_total((1, 1, 1), 1)
    assert (bd.k, bd.total, bd.h_exponent) == (3, 15, 1)
    assert (bd.c0, bd.c1, bd.c2) == (12, 3, 0)
    bd = cn.C_total((0, 0, 0), 0)
    assert (bd.total, bd.h_exponent) == (48, 2)
    bd = cn.C_total((1, 0, 0), 1, H=100)
    assert (bd.total, bd.h_exponent) == (4, 2)  # exact law (2H)^{n-1}
    bd = cn.C_total((1, 0, 0), 2, H=1024)
    assert (bd.total, bd.h_exponent) == (100, 1)
    assert (bd.c0, bd.c1, bd.c2) == (8, 84, 8)
    bd = cn.C_total((1, 1, 1, 1), 3)
    assert bd.k == 4 and bd.total == bd.c0 + bd.c1
    with pytest.raises(RegimeError):
        cn.C_total((1, 1), 0)
    with pytest.raises(RegimeError):
        cn.C_total((0, 0), 5)
    with pytest.raises(RegimeError):
        cn.C_total((1, 0, 0), 2)  # k = 1 needs H


def test_C_total_k1_follows_J_over_a():
    # a single coefficient a fixes its coordinate at m = J/a: the constant is
    # that of the unit coefficient on level m, and a ∤ J has no solutions
    for H in (5, 64, 1024):
        assert cn.C_total((2, 0, 0), 4, H) == cn.C_total((1, 0, 0), 2, H)
        assert cn.C_total((0, -3, 0), 3, H) == cn.C_total((0, 1, 0), -1, H)
    for H in (64, 256):
        bd = cn.C_total((2, 0, 0), 2, H)
        rep = count_S(HyperplaneSpec((2, 0, 0), 2), DomainSpec("signed", H))
        assert bd.total * H**bd.h_exponent == rep.dependent_total == (2 * H) ** 2
    with pytest.raises(RegimeError, match="does not divide"):
        cn.C_total((3, 0, 0), 1, H=64)


def test_C_total_k1_at_J_zero_has_no_solutions():
    # J = 0 pins the one constrained coordinate at 0, outside 0 < |ν_i| ≤ H;
    # without H the H check still comes first
    for alpha in [(0, 0, 1), (0, 0, 3), (0, 2)]:
        with pytest.raises(RegimeError, match=r"no solutions \(degenerate\)$"):
            cn.C_total(alpha, 0, H=5)
        with pytest.raises(RegimeError, match="pass H"):
            cn.C_total(alpha, 0)
        assert count_S(HyperplaneSpec(alpha, 0), DomainSpec("signed", 5)).total_on_plane == 0


def test_guard_messages():
    # the messages the shared helpers build, one per guard
    guards = [
        (cn.C0, (1,), 1, "C0 requires dimension n >= 2"),
        (cn.C1, (1,), 1, "C1 requires dimension n >= 2"),
        (cn.C0, (1, 0), 1, "C0 needs a second nonzero coefficient (k >= 2)"),
        (cn.C1, (1, 1), 0, "C1 with J = 0 needs a third nonzero coefficient"),
        (cn.C_k2, (1, 1, 1), 2, "C_k2 requires exactly two nonzero coefficients"),
        (cn.C_k2, (1, 0, 1), 0, "C_k2 requires J != 0"),
        (cn.C1_k3, (1, 1, 0), 2, "C1_k3 requires exactly three nonzero coefficients"),
        (cn.C1_k3, (1, 1, 1), 0, "C1_k3 requires J != 0"),
        (cn.C2_k3, (1, 1, 1, 1), 2, "C2_k3 requires exactly three nonzero coefficients"),
        (cn.C2_k3, (1, 2, 3), 0, "C2_k3 requires J != 0"),
    ]
    for f, alpha, J, message in guards:
        with pytest.raises(RegimeError) as info:
            f(alpha, J)
        assert str(info.value) == message


def test_breakdown_rejects_a_negative_part():
    parts = {"c0": F(1), "c1": F(2), "c2": F(0)}
    for name in parts:
        with pytest.raises(ValueError, match="negative constant part"):
            cn.ConstantBreakdown(k=2, h_exponent=1, regime="", **{**parts, name: F(-1, 3)})


def test_C_total_rejects_a_height_below_one():
    for alpha, J in [((1,), 1), ((1, 1), 1), ((1, 1, 1), 1), ((1, 0, 0), 2), ((0, 0), 0)]:
        for H in (0, -5):
            with pytest.raises(ValueError, match="H must be >= 1"):
                cn.C_total(alpha, J, H)
        cn.C_total(alpha, J, 1)


def test_breakdown_stores_only_its_parts(monkeypatch):
    names = [f.name for f in dataclasses.fields(cn.ConstantBreakdown)]
    assert names == ["k", "c0", "c1", "c2", "h_exponent", "regime"]
    breakdowns = [
        cn.C_total((0, 0, 0), 0),  # k = 0
        cn.C_total((1, 0, 0), 1, H=100),  # k = 1, |J| = 1
        cn.C_total((1, 0, 0), 2, H=1024),  # k = 1, |J| > 1
        cn.C_total((1, 2, 0), 5),  # k = 2
        cn.C_total((1, 1, 2), 3),  # k = 3
        cn.C_total((1, 1, 1, 1), 3),  # k = 4
        cn.C_positive((1, 1, 1), 7),  # all positive
        cn.C_positive((1, -1, 1, -1), 1),  # mixed signs
    ]
    assert [bd.k for bd in breakdowns] == [0, 1, 1, 2, 3, 4, 3, 4]
    for bd in breakdowns:
        assert bd.total == bd.c0 + bd.c1 + bd.c2
    calls = []
    c1 = cn.C1
    monkeypatch.setattr(cn, "C1", lambda a, J: calls.append(a) or c1(a, J))
    assert cn.C_total((1, 1, 2), 3).total == breakdowns[4].total
    assert len(calls) == 1  # C1_k3 computes the plain C1; nothing else does


def test_C_positive_examples():
    assert cn.C_positive((1, 1, 1), 7).total == F(9, 2)
    assert cn.C_positive((1, 1, 1, 1), 9).total == F(7, 2)
    bd = cn.C_positive((1, -1, 1, -1), 1)
    assert (bd.c0, bd.c1, bd.total) == (2, 5, 7)
    with pytest.raises(RegimeError):
        cn.C_positive((1, 1, -1), 1)  # one negative coordinate: unsupported
    with pytest.raises(RegimeError):
        cn.C_positive((1, 1), 1)


def test_C_positive_all_one_identity():
    for n in (3, 4, 5, 6):
        total = cn.C_positive((1,) * n, 2 * n + 1).total
        assert total == F(n * (n + 3), 4 * math.factorial(n - 2))


def test_nonnegative_components(rng):
    for _ in range(60):
        n = rng.randint(2, 5)
        alpha = tuple(rng.randint(-4, 4) for _ in range(n))
        J = rng.randint(-10, 10)
        try:
            bd = cn.C_total(alpha, J, H=64)
        except RegimeError:
            continue
        assert bd.c0 >= 0 and bd.c1 >= 0 and bd.c2 >= 0
        assert bd.total == bd.c0 + bd.c1 + bd.c2


def test_family_sum_evaluates_each_density_key_once(rng):
    # the memo keys on sorted β (sorted |β| for the half box); the sums equal
    # one density evaluation per family, and each key is evaluated once
    for _ in range(30):
        a = [1, 1, 2, 1, 3, 1, -2, 1, 1, 2][: rng.randint(3, 10)]
        rng.shuffle(a)
        a = tuple(x * rng.choice([1, -1]) for x in a)
        J = rng.randint(-4, 4)
        half = cn._sorted_abs, lambda b: tuple(sorted(abs(x) for x in b))
        unit = cn._sorted, lambda b: tuple(sorted(b))
        for families, density, (key, expect) in [
            (cn._rank0_families(a, J, (1, -1)), cn._V_half, half),
            (cn._rank1_families(a, J, (1, -1)), cn._V_half, half),
            (cn._rank0_families(a, J, (1,)), cn._V_unit, unit),
            (cn._rank1_families(a, J, (1,)), cn._V_unit, unit),
        ]:
            counted = [(b, sum(cn.delta(b, lv) for lv in levels)) for b, levels in families]
            counted = [(b, d) for b, d in counted if d and any(b)]
            direct = sum((d * density(b) for b, d in counted), F(0))
            calls = []

            def counting(b):
                calls.append(b)
                return density(b)

            assert cn._family_sum(families, counting, key=key) == direct
            assert len(calls) == len({expect(b) for b, _ in counted})


def test_sign_invariance(rng):
    for _ in range(40):
        n = rng.randint(2, 4)
        alpha = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
        J = rng.randint(-6, 6)
        neg = tuple(-a for a in alpha)
        assert cn.C0(alpha, J) == cn.C0(neg, J)
        try:
            c1 = cn.C1(alpha, J)
        except RegimeError:
            # J = 0 with an equal pair collapses a family; both signs agree
            with pytest.raises(RegimeError):
                cn.C1(neg, J)
            continue
        assert c1 == cn.C1(neg, J)
        if n >= 3 and J != 0:
            k = sum(1 for a in alpha if a)
            if k == 3:
                aa = tuple(abs(a) for a in alpha)
                assert cn.C2_k3(alpha, J) == cn.C2_k3(aa, abs(J))
                assert cn.C2_k3(alpha, J) == cn.C2_k3(neg, J)


def test_C_k2_abs_invariance(rng):
    for _ in range(30):
        a1 = rng.choice([-3, -2, -1, 1, 2, 3])
        a2 = rng.choice([-3, -2, -1, 1, 2, 3])
        J = rng.choice([j for j in range(-8, 9) if j])
        t1 = cn.C_k2((a1, a2), J).total
        t2 = cn.C_k2((abs(a1), abs(a2)), abs(J)).total
        assert t1 == t2


def test_convergence_to_constant_spot():
    # one modest empirical confirmation per regime beyond the acceptance runs
    H = 300
    rep = count_S(HyperplaneSpec((1, 1, 2), 3), DomainSpec("signed", H))
    pred = cn.C_total((1, 1, 2), 3).total
    assert abs(rep.dependent_total / H - float(pred)) < max(2.0, 0.5 * float(pred))


def test_C_positive_mixed_empirical():
    # S^+ for α with two positive and two negative entries approaches
    # total·H² (wide band: the main term dominates by H = 60)
    alpha = (1, -1, 1, -1)
    H = 60
    rep = count_S(HyperplaneSpec(alpha, 1), DomainSpec("positive", H))
    ratio = rep.dependent_total / H**2
    assert 0.5 * 7 < ratio < 1.6 * 7
