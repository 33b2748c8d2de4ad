import time
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as orc
from multdep import arith
from multdep.errors import RegimeError

nonzero_ints = st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0)


def test_factorize_examples():
    f = arith.factorize(12)
    assert (f.sign, f.exponents) == (1, {2: 2, 3: 1})
    f = arith.factorize(-18)
    assert (f.sign, f.exponents) == (-1, {2: 1, 3: 2})
    f = arith.factorize(1)
    assert (f.sign, f.exponents) == (1, {})
    f = arith.factorize(-1)
    assert (f.sign, f.exponents) == (-1, {})


def test_factorize_zero_rejected():
    with pytest.raises(ValueError, match="zero has no factorization"):
        arith.factorize(0)


def test_factorize_beyond_sieve_uses_trial_division():
    # a value far above any reasonable sieve limit
    m = 10**12 + 39
    f = arith.factorize(m)
    assert f.value() == m
    assert all(e >= 1 for e in f.exponents.values())
    big_semiprime = 1_000_003 * 999_983
    f = arith.factorize(big_semiprime)
    assert f.exponents == {999_983: 1, 1_000_003: 1}


@given(nonzero_ints)
def test_factorize_round_trip(m):
    assert arith.factorize(m).value() == m


@given(nonzero_ints, nonzero_ints)
def test_factorize_multiplicative(a, b):
    fa, fb, fab = arith.factorize(a), arith.factorize(b), arith.factorize(a * b)
    assert fab.sign == fa.sign * fb.sign
    merged = dict(fa.exponents)
    for p, e in fb.exponents.items():
        merged[p] = merged.get(p, 0) + e
    assert fab.exponents == merged


def test_radical_examples():
    assert arith.radical(12) == 6
    assert arith.radical(-8) == 2
    assert arith.radical(1) == 1
    with pytest.raises(ValueError):
        arith.radical(0)


def test_smooth_numbers_yield_each_smooth_integer_once():
    def brute(x, primes):
        out = []
        for m in range(1, x + 1):
            r = m
            for p in primes:
                while r % p == 0:
                    r //= p
            if r == 1:
                out.append(m)
        return out

    cases = [(50, ()), (1, (2, 3)), (0, (2,)), (97, (2, 3, 5)), (200, (3, 7, 11, 13)),
             (60, (2, 61, 67)), (30, (31, 37)), (500, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
             (64, (2, 2, 3))]
    for x, primes in cases:
        got = list(arith.smooth_numbers(x, primes))
        assert len(got) == len(set(got)), (x, primes)
        assert sorted(got) == brute(x, set(primes)), (x, primes)
    assert list(arith.smooth_numbers(10, ())) == [1]
    assert list(arith.smooth_numbers(10, (11, 13))) == [1]
    # 1 (or 0) as a "prime" would extend a value by itself forever
    for bad in ((1,), (0, 2), (-3,)):
        with pytest.raises(ValueError):
            next(arith.smooth_numbers(10, bad))


def test_psi0_examples():
    assert arith.psi0(100, 6) == 20
    assert arith.psi0(10, 2) == 4
    assert arith.psi0(12345, 1) == 1


def test_psi0_brute_force():
    def brute(x, y):
        count = 0
        for m in range(1, x + 1):
            mm = m
            for p in range(2, m + 1):
                while mm % p == 0:
                    if y % p != 0:
                        break
                    mm //= p
                else:
                    continue
                break
            if mm == 1:
                count += 1
        return count

    for x, y in [(50, 12), (80, 30), (64, 10), (1, 7), (100, 210)]:
        assert arith.psi0(x, y) == brute(x, y)


def test_psi0_large_x_is_cheap():
    # DFS over products, never a scan of 1..x
    assert arith.psi0(10**12, 2) == 40  # powers of two up to 2^40
    assert arith.psi0(10**10, 6) > 0


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=500))
def test_psi0_radical_collapse(x, y):
    assert arith.psi0(x, y) == arith.psi0(x, arith.radical(y))


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=300))
def test_psi0_monotone_in_x(x, y):
    assert arith.psi0(x + 1, y) >= arith.psi0(x, y)


def test_f_base_examples():
    assert arith.f_base(8) == 2
    assert arith.f_base(36) == 6
    for p in (2, 3, 5, 97, 101):
        assert arith.f_base(p) == p
    with pytest.raises(ValueError):
        arith.f_base(1)


def test_f_base_brute_force():
    def brute(A):
        for b in range(2, A + 1):
            v = b
            while v < A:
                v *= b
            if v == A:
                return b
        return A

    for A in range(2, 600):
        assert arith.f_base(A) == brute(A)


@given(st.integers(min_value=2, max_value=10**6))
def test_f_base_idempotent(A):
    b = arith.f_base(A)
    assert arith.f_base(b) == b


def test_gcd_vec():
    assert arith.gcd_vec((4, 6, 10)) == 2
    assert arith.gcd_vec((0, 0)) == 0
    assert arith.gcd_vec((7,)) == 7
    assert arith.gcd_vec((-4, 6)) == 2
    assert arith.gcd_vec(()) == 0


def test_power_base_table_matches_f_base():
    # 4096 = 64² = 16³ is the last entry of one table and the next-to-last
    # of the other
    for limit in [*range(71), 400, 4096, 4097]:
        t = arith.power_base_table(limit)
        assert t[:2].tolist() == [0, 1][: limit + 1]
        assert t[2:].tolist() == [arith.f_base(m) for m in range(2, limit + 1)]


def test_radical_table_matches_radical():
    # limits that are squares, primes and their neighbours, so the cofactor
    # left above √limit is checked at every kind of boundary
    for limit in [*range(1, 50), 300, 4096, 4097]:
        t = arith.radical_table(limit)
        assert t[0] == 0
        assert t[1:].tolist() == [arith.radical(m) for m in range(1, limit + 1)]


def test_tables_are_built_for_each_call():
    # a table built after a larger one is its own array with the same values
    for build in (arith.power_base_table, arith.radical_table):
        big = build(500)
        small = build(120)
        assert small.shape == (121,) and not np.shares_memory(small, big)
        assert (small == big[:121]).all()


@pytest.fixture
def fresh_sieve(monkeypatch):
    """No SPF table yet; the module's table and cache come back after the test."""
    monkeypatch.setattr(arith, "_spf_table", None)
    arith._abs_exponents.cache_clear()
    yield
    arith._abs_exponents.cache_clear()


def test_sieve_starts_small_and_doubles_on_demand(fresh_sieve):
    assert arith.factorize(12).exponents == {2: 2, 3: 1}
    assert arith._spf_table.shape[0] == 4096
    assert arith.factorize(5003 * 2).exponents == {2: 1, 5003: 1}
    assert arith._spf_table.shape[0] == 16384
    assert arith.factorize(4093).exponents == {4093: 1}  # no regrowth below the end
    assert arith._spf_table.shape[0] == 16384


def test_sieve_stops_at_the_limit(fresh_sieve, monkeypatch):
    monkeypatch.setattr(arith, "SIEVE_LIMIT", 20000)
    m = 1_000_003 * 999_983
    assert arith.factorize(m).exponents == {999_983: 1, 1_000_003: 1}
    assert arith._spf_table.shape[0] == 20001
    assert arith.factorize(40_000).exponents == {2: 6, 5: 4}  # trial division
    assert arith._spf_table.shape[0] == 20001
    for v in range(2, 3000):
        assert arith.factorize(v).value() == v


def test_factor_table_matches_the_per_value_loop(monkeypatch):
    # from the 4096-entry first sieve, which 1..5000 makes grow; values just
    # past SIEVE_LIMIT take arith._abs_exponents, as do Python ints past int64
    monkeypatch.setattr(arith, "_spf_table", None)
    top = arith.SIEVE_LIMIT
    for vals in (np.arange(1, 5001), np.arange(top - 30, top + 30), np.array([1]),
                 np.array([1, 6, top + 1, 2**64 * 3], dtype=object)):
        for got, want in zip(arith.factor_table(vals), orc.factor_table(vals)):
            assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all(), vals
    assert len(arith._spf_table) > 5000


def test_trial_division_stops_at_its_bound(fresh_sieve):
    # every value up to 10**14 factors, also a prime just below it and a
    # product of two primes near 10**7; a cofactor whose least prime is past
    # the bound is refused, at once and with the whole value named
    assert arith.factorize(100000000000031).exponents == {100000000000031: 1}
    assert arith.factorize(9999991 * 9999973).exponents == {9999973: 1, 9999991: 1}
    assert arith.factorize(-(2**64) * 3).exponents == {2: 64, 3: 1}
    for m in (10**18 + 3, 2**61 - 1, 12 * (2**61 - 1), 10000019 * 10000079, (2**61 - 1) * (2**89 - 1)):
        start = time.perf_counter()
        with pytest.raises(RegimeError, match=f"^factorizing {m} needs trial division past 10000000$"):
            arith.factorize(m)
        assert time.perf_counter() - start < 5


def test_refusal_names_a_huge_value_by_its_size(monkeypatch):
    # past 10**100 the value is named by its bit length: a 5001-digit one
    # would not even convert to a string
    monkeypatch.setattr(arith, "_TRIAL_LIMIT", 100)
    m = 10**5000 + 1
    with pytest.raises(RegimeError, match=f"^factorizing a {m.bit_length()}-bit value needs trial division past 100$"):
        arith.factorize(m)
    with pytest.raises(RegimeError, match=f"^factorizing {10**99 + 1} needs trial division past 100$"):
        arith.factorize(10**99 + 1)


# ── signed convolution kernel ─────────────────────────────────────────────


def _expand(factors):
    """Coefficients of ∏ factors by expanding every choice of one term per factor."""
    out = {}
    terms = [list(f.items()) if isinstance(f, dict) else [(e, 1) for e in f] for f in factors]
    for choice in product(*terms):
        e = sum(t[0] for t in choice)
        w = 1
        for t in choice:
            w *= t[1]
        out[e] = out.get(e, 0) + w
    return {e: c for e, c in out.items() if c}


def test_poly_product_matches_expansion(rng):
    for _ in range(80):
        factors = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.3:
                step = rng.choice([-7, -3, -1, 1, 2, 5])
                start = rng.randint(-6, 6)
                factors.append(range(start, start + step * rng.randint(1, 5), step))
            else:
                factors.append({rng.randint(-6, 6): rng.randint(-3, 3) or 1 for _ in range(rng.randint(1, 4))})
        want = _expand(factors)
        assert arith.poly_product(factors) == want
        assert arith._sparse_product(factors) == want
        for at in range(-40, 41):
            assert arith.poly_product(factors, at=at) == want.get(at, 0)
        if factors:
            low = sum(min(f) for f in factors)
            dense = arith._dense_product(factors)
            assert {low + i: int(c) for i, c in enumerate(dense) if c} == want
    # range factors of step |a| > 1, some applied to a product shorter than
    # their length times their step
    for factors in ([range(3, 13, 5)], [range(0, -22, -7)], [{0: 1, 1: -2}, range(4, -5, -4)],
                    [range(0, 3), range(1, 40, 9), {0: 2, 5: 1}], [range(2, 3, 6), range(-1, 2)],
                    [range(-1, 2), range(5, 6, 10**12), range(0, -10**12, -10**12)]):
        want = _expand(factors)
        assert arith.poly_product(factors) == want
        low = sum(min(f) for f in factors)
        dense = arith._dense_product(factors)
        assert {low + i: int(c) for i, c in enumerate(dense) if c} == want


def test_poly_product_int64_switch_boundary(monkeypatch):
    # ∏ Σ|weights| = 2**k: int64 arrays below 2**62, Python ints from there on,
    # and both give the binomial coefficients on either side of the switch
    calls = []
    sparse = arith._sparse_product
    monkeypatch.setattr(arith, "_sparse_product", lambda fs: calls.append(len(fs)) or sparse(fs))
    for k, want_sparse in ((61, False), (62, True), (63, True)):
        factors = [{0: 1, 1: 1}] * k
        calls.clear()
        got = arith.poly_product(factors)
        assert bool(calls) == want_sparse
        assert got == {j: comb(k, j) for j in range(k + 1)}
        if k <= 62:  # comb(62, 31) < 2**63: the int64 path still holds it
            assert [int(c) for c in arith._dense_product(factors)] == [comb(k, j) for j in range(k + 1)]
    # signed weights: Σ|w| = 3 per factor, 3**39 < 2**62 <= 3**40
    for k in (39, 40):
        factors = [{0: 2, 1: -1}] * k
        calls.clear()
        got = arith.poly_product(factors, at=k // 2)
        assert bool(calls) == (k == 40)
        assert got == comb(k, k // 2) * 2 ** (k - k // 2) * (-1) ** (k // 2)


def test_poly_product_caps_its_allocation():
    t0 = time.perf_counter()
    with pytest.raises(RegimeError):
        arith.poly_product([range(-10**9, 10**9 + 1)] * 2, at=1)
    assert time.perf_counter() - t0 < 1
    # a wide but sparse product keeps few coefficients and runs
    assert arith.poly_product([{0: 1, 10**12: -1}, {0: 1, 1: -1}]) == {0: 1, 1: -1, 10**12: -1, 10**12 + 1: 1}
