from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as orc
from multdep.relations import (
    exponent_matrix,
    fatal_triple,
    full_support_relation,
    has_full_support_relation,
    is_dependent,
    mult_rank,
    relation,
    verify_relation,
)

coords = st.integers(min_value=-50, max_value=50).filter(lambda x: x != 0)
vectors = st.lists(coords, min_size=1, max_size=5).map(tuple)


def test_exponent_matrix_examples():
    em = exponent_matrix((2, 3, 12))
    assert em.primes == (2, 3)
    assert em.rows == ((1, 0), (0, 1), (2, 1))
    assert em.signs == (1, 1, 1)
    em = exponent_matrix((-2,))
    assert em.primes == (2,) and em.rows == ((1,),) and em.signs == (-1,)
    em = exponent_matrix((1, 1))
    assert em.primes == () and em.rows == ((), ()) and em.signs == (1, 1)


def test_vector_validation():
    with pytest.raises(ValueError):
        is_dependent((2, 0, 3))
    with pytest.raises(ValueError):
        mult_rank(())


def test_is_dependent_examples():
    assert is_dependent((2, 3, 12))
    assert not is_dependent((2, 3, 5))
    assert is_dependent((-2, 4, 9))


def test_relation_examples():
    assert relation((2, 3, 12)) == (2, 1, -1)
    assert relation((4, 8)) == (3, -2)
    assert relation((-1, 7)) == (2, 0)
    assert relation((2, 3, 5)) is None


def test_relation_preference_unit_first():
    # a coordinate equal to 1 wins over everything else
    assert relation((4, 1, 8)) == (0, 1, 0)
    # -1 gives twice a unit vector when no +1 exists
    assert relation((4, -1, 8)) == (0, 2, 0)


def test_relation_sign_doubling():
    # (-2, 2): the only primitive kernel direction has sign product -1
    k = relation((-2, 2))
    assert k == (2, -2)
    assert verify_relation((-2, 2), k)


def test_verify_relation_rejects():
    assert not verify_relation((2, 3), (0, 0))
    assert not verify_relation((2, 3, 12), (1, 1, -1))
    assert not verify_relation((-2, 4, 9), (1, 0, 0))  # sign product -1
    assert verify_relation((-2, 4, 9), (2, -1, 0))


def test_mult_rank_examples():
    assert mult_rank((1, 2, 3)) == 0
    assert mult_rank((2, 3, 12)) == 2
    assert mult_rank((2, 3, 5)) == 3


def test_full_support_examples():
    assert has_full_support_relation((2, 3, 12))
    assert has_full_support_relation((1, 4, 16))
    assert not has_full_support_relation((1, 2, 3))
    k = full_support_relation((1, 4, 16))
    assert all(k) and verify_relation((1, 4, 16), k)


def test_full_support_implies_dependent(rng):
    for _ in range(200):
        n = rng.randint(1, 4)
        v = tuple(rng.choice([1, -1]) * rng.randint(1, 30) for _ in range(n))
        if has_full_support_relation(v):
            assert is_dependent(v)


def test_soundness_random_witnesses(rng):
    # every positive answer carries a witness that verifies symbolically
    for _ in range(300):
        n = rng.randint(2, 5)
        v = tuple(rng.choice([1, -1]) * rng.randint(1, 40) for _ in range(n))
        if is_dependent(v):
            k = relation(v)
            assert k is not None and verify_relation(v, k)
        else:
            assert relation(v) is None


def test_completeness_constructed_dependent(rng):
    # products over a common base list are dependent by construction
    for _ in range(150):
        bases = [rng.randint(2, 9) for _ in range(rng.randint(1, 2))]
        n = rng.randint(len(bases) + 1, len(bases) + 3)
        v = []
        for _ in range(n):
            x = 1
            for b in bases:
                x *= b ** rng.randint(0, 3)
            v.append(rng.choice([1, -1]) * x)
        assert is_dependent(tuple(v))


def test_independence_distinct_primes():
    assert not is_dependent((2, 3, 5, 7, 11))
    assert mult_rank((2, 3, 5, 7, 11)) == 5


def test_rank_matches_exhaustive_oracle(rng):
    for _ in range(250):
        n = rng.randint(1, 6)
        v = tuple(rng.choice([1, -1]) * rng.randint(1, 50) for _ in range(n))
        assert mult_rank(v) == orc.subset_rank_oracle(v)


def test_rank_definition_consistency(rng):
    # every subset of size rank is independent; some subset of size rank+1 is not
    for _ in range(120):
        n = rng.randint(2, 6)
        v = tuple(rng.choice([1, -1]) * rng.randint(2, 30) for _ in range(n))
        if any(abs(x) == 1 for x in v):
            continue
        s = mult_rank(v)
        from itertools import combinations

        for size in range(2, s + 1):
            for sub in combinations(range(n), size):
                assert not orc.dependent_oracle([v[i] for i in sub])
        if s < n:
            assert any(
                orc.dependent_oracle([v[i] for i in sub])
                for sub in combinations(range(n), s + 1)
            )


def test_dependent_rank_below_dimension(rng):
    for _ in range(200):
        n = rng.randint(1, 5)
        v = tuple(rng.choice([1, -1]) * rng.randint(1, 40) for _ in range(n))
        if is_dependent(v):
            assert 0 <= mult_rank(v) <= n - 1
        else:
            assert mult_rank(v) == n


@given(vectors)
def test_permutation_invariance(v):
    base_dep = is_dependent(v)
    base_rank = mult_rank(v)
    base_full = has_full_support_relation(v)
    perms = list(permutations(range(len(v))))[:6]
    for p in perms:
        w = tuple(v[i] for i in p)
        assert is_dependent(w) == base_dep
        assert mult_rank(w) == base_rank
        assert has_full_support_relation(w) == base_full


@given(vectors)
def test_dependence_ignores_signs(v):
    # the decision rule sees only absolute values: ±1 triggers directly, and
    # any kernel vector is sign-repaired by doubling
    assert is_dependent(v) == is_dependent(tuple(abs(x) for x in v))
    assert mult_rank(v) == mult_rank(tuple(abs(x) for x in v))


def test_search_oracle_agrees_on_small_heights(rng):
    # bounded exponent search (heuristic cap): every hit must be declared
    # dependent, and small-height dependencies are found within the cap
    for _ in range(60):
        n = rng.randint(2, 3)
        v = tuple(rng.choice([1, -1]) * rng.randint(1, 12) for _ in range(n))
        hit = orc.search_relation(v, cap=6)
        if hit is not None:
            assert is_dependent(v)
        if is_dependent(v):
            k = relation(v)
            assert verify_relation(v, k)


def test_huge_exponents_never_evaluated():
    # witness verification happens in factorization space; these powers would
    # overflow any direct evaluation strategy that is not arbitrary precision
    v = (2**30, 2**29)
    k = relation(v)
    assert k == (29, -30)
    assert verify_relation(v, k)


def test_exponent_matrix_reconstructs(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        v = tuple(rng.choice([1, -1]) * rng.randint(1, 200) for _ in range(n))
        em = exponent_matrix(v)
        for x, row, s in zip(v, em.rows, em.signs):
            rebuilt = s
            for p, e in zip(em.primes, row):
                rebuilt *= p**e
            assert rebuilt == x


def test_rank_girth_four_cycle():
    # pairwise-coprime-base values whose supports form a 4-cycle: the whole
    # vector is the smallest dependent subset
    v = (6, 15, 35, 14)
    assert is_dependent(v)
    assert mult_rank(v) == 3
    k = relation(v)
    assert verify_relation(v, k) and all(k)


def test_rank_girth_five_breaks_odd_cycle():
    # an odd support cycle is nonsingular, so this vector is independent
    v = (6, 15, 35, 77, 22)
    assert not is_dependent(v)
    assert mult_rank(v) == 5


def test_rank_embedded_circuit():
    # (6, 10, 15) is independent (cube-corner supports); adding 30 closes a
    # circuit of size 4
    assert not is_dependent((6, 10, 15))
    assert mult_rank((6, 10, 15, 30)) == 3
    assert mult_rank((6, 10, 15, 7)) == 4


def test_fatal_triple_first_hit():
    assert fatal_triple(16) is None
    a, b, c, k = fatal_triple(17)
    assert (a, b, c) == (2, 3, 12)
    assert all(k) and verify_relation((a, b, c), k)
    assert fatal_triple(3) is None
