import hashlib
import math
import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as orc
from multdep import arith, relations
from multdep.relations import (
    exponent_stack,
    fatal_triple,
    full_support_relation,
    has_full_support_relation,
    is_dependent,
    mult_rank,
    rank_from_rows,
    relation,
    right_kernel_basis,
    verify_relation,
)

coords = st.integers(min_value=-50, max_value=50).filter(lambda x: x != 0)
vectors = st.lists(coords, min_size=1, max_size=5).map(tuple)


def test_exponent_stack_examples():
    # w = 2 slots per value; 2 owns column 0 and 3 column 2 (first slots)
    assert exponent_stack([[2, 3, 12]]).tolist() == [
        [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [2, 0, 1, 0, 0, 0]]]
    # a 1 has an all-zero row, and an all-ones key keeps one slot per value
    assert exponent_stack([[1, 4, 6]]).tolist() == [
        [[0, 0, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0], [0, 0, 1, 0, 0, 1]]]
    assert exponent_stack([[1, 1]]).tolist() == [[[0, 0], [0, 0]]]
    assert exponent_stack([[1]]).tolist() == [[[0]]]
    assert exponent_stack([[2, 3, 12], [1, 1, 1]]).shape == (2, 3, 6)


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
    for _ in range(3000):
        n = rng.randint(1, 6)
        v = tuple(rng.choice([1, -1]) * rng.randint(1, 64) for _ in range(n))
        assert mult_rank(v) == orc.subset_rank_oracle(v), v
        assert is_dependent(v) == orc.dependent_oracle(v), v


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


def test_exponent_stack_reconstructs(rng):
    # column (j, t) holds the t-th prime of value j, so each row multiplies
    # back to its value; 1s and all-ones keys included
    for _ in range(100):
        n = rng.randint(1, 5)
        key = [rng.choice([1, 1, rng.randint(1, 200)]) for _ in range(n)]
        rows = exponent_stack([key])[0].tolist()
        w = len(rows[0]) // n
        col_primes = []
        for x in key:
            ps = [p for p in range(2, x + 1) if x % p == 0 and all(p % q for q in range(2, p))]
            col_primes += ps + [1] * (w - len(ps))
        for x, row in zip(key, rows):
            assert math.prod(p**e for p, e in zip(col_primes, row)) == x, key


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


def _row_stack(vectors):
    """Oracle exponent rows of equal-length vectors, zero-padded to one
    width and stacked."""
    rows = [orc._exponent_rows(v) for v in vectors]
    width = max(len(r[0]) for r in rows)
    return np.array([[row + [0] * (width - len(row)) for row in r] for r in rows], dtype=np.int64)


def _rank_over_q(rows):
    """Rank over Q of one matrix of rows (an int) or of a stack (..., n, k)
    of them (an array of the batch shape), from the Gram kernel under
    ``rank_from_rows``: ``relations._gram`` and ``relations._psd_rank``."""
    g = relations._gram(rows)
    rank = relations._psd_rank(g.reshape((math.prod(g.shape[:-2]),) + g.shape[-2:])).reshape(g.shape[:-2])
    return rank if rank.ndim else int(rank)


def test_stacked_rank_over_q_matches_rref_oracle(rng):
    # one stack per shape, compared element by element; width 0, all-zero
    # rows, negative entries and repeated rows included
    for _ in range(150):
        n, k, m = rng.randint(1, 6), rng.randint(0, 6), rng.randint(1, 12)
        stack = [[[rng.choice([0, 0, 0, 1, -1, 2, 3, -5]) for _ in range(k)] for _ in range(n)] for _ in range(m)]
        for rows in stack:
            if n > 1 and rng.random() < 0.3:
                rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
        got = _rank_over_q(stack)
        assert got.shape == (m,)
        for rows, r in zip(stack, got):
            assert r == (orc.rref_rank(rows) if k else 0)
            assert _rank_over_q(rows) == r
    # entries whose Gram passes int64, and entries past int64 themselves
    for big in (2**40, 2**70):
        rows = [[big, 3 * big, 1], [2 * big, 6 * big, 2], [big, 0, 7]]
        assert _rank_over_q(rows) == 2 and _rank_over_q([rows, rows[:2] + [[0, 0, 0]]]).tolist() == [2, 1]
    assert _rank_over_q(np.zeros((3, 4, 0), dtype=np.int64)).tolist() == [0, 0, 0]
    assert _rank_over_q([[0, 0], [0, 0]]) == 0
    assert _rank_over_q([[], [], []]) == 0


def test_stacked_rank_from_rows_matches_subset_oracle(rng):
    for n in range(1, 7):
        vectors = [tuple(rng.randint(2, 60) for _ in range(n)) for _ in range(120)]
        ranks = rank_from_rows(vectors)
        assert ranks.shape == (len(vectors),)
        for v, r in zip(vectors, ranks):
            assert r == orc.subset_rank_oracle(v), v
    # 1s have all-zero exponent rows: dependent at every size from 2 on
    assert rank_from_rows(np.ones((2, 3), dtype=np.int64)).tolist() == [1, 1]
    assert rank_from_rows([1, 1, 1]) == 1
    assert rank_from_rows([2, 3], smallest=3) == 2


def test_large_exponents_take_the_python_int_path():
    # exponents up to 48 put Gram diagonals past 441, so the product M of all
    # diagonal entries but the smallest has M² ≥ 2^62 at n = 5, and these
    # stacks are eliminated in Python ints because of their data; their
    # 4-minors reach ~10^13, so int64 products would wrap
    vectors = [
        (2**21, 3**13, 2**10 * 3**7, 6**6, 5**9),
        (2**48, 3**40, 5**35, 7**30, 2**12 * 3**10 * 5**9 * 7**8),
        (2**44 * 3, 3**41, 5**33 * 2, 7**29 * 3, 11**27),
        (2**47, 3**43, 6**20 * 5**30, 5**31 * 7**25, 2**17 * 7**29),
        (2**45 * 5**3, 3**39 * 7, 5**36, 7**31 * 2**9, 2**36 * 3**29 * 5**27 * 7**23),
        (2**19, 3**11, 5**8, 7**7, 11**6),
    ]
    stack = _row_stack(vectors)
    gram = np.einsum("bik,bjk->bij", stack, stack)
    assert max(math.prod(sorted(d)[1:]) for d in np.diagonal(gram, axis1=1, axis2=2).tolist()) ** 2 >= 2**62
    for v, r, d in zip(vectors, rank_from_rows(vectors), _rank_over_q(stack)):
        assert r == orc.subset_rank_oracle(v) == mult_rank(v)
        assert d == orc.rref_rank(orc._exponent_rows(v))
        assert (d < 5) == orc.dependent_oracle(v)


def test_int64_elimination_is_exact_on_both_sides_of_the_switch(rng):
    # entries from 2 to 2^13 put the stacks on both sides of the switch to
    # Python ints; dependent rows included, the rank equals the echelon rank
    for _ in range(600):
        n, k = rng.randint(2, 6), rng.randint(1, 6)
        top = 2 ** rng.randint(1, 13)
        rows = [[rng.randint(-top, top) for _ in range(k)] for _ in range(n)]
        if rng.random() < 0.5:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        assert _rank_over_q(rows) == orc.rref_rank(rows), rows


def _first_zero_pivot_at(rng, s, p, top, how):
    """s rows of width s + 1, entries up to ``top``, whose Gram elimination
    in natural order meets its first zero pivot at step p: row p is zero
    (``how`` "zero"), every row up to p is zero ("zeros first"), or row p is
    a combination of the rows before it ("dependent"), so that its pivot is
    nonzero until those rows are eliminated.  The rows after p are random."""
    rows = [[rng.randint(-top, top) for _ in range(s + 1)] for _ in range(s)]
    if how == "zero":
        rows[p] = [0] * (s + 1)
    elif how == "zeros first":
        rows[:p + 1] = [[0] * (s + 1) for _ in range(p + 1)]
    else:
        a, b = rng.randint(1, 3), rng.randint(-3, 3)
        rows[p] = [a * x + b * y for x, y in zip(rows[0], rows[p - 1])]
    return rows


def _kernel_bound(rows) -> int:
    """M², M the product of every Gram diagonal entry but the smallest
    (each at least 1): ``_gram`` leaves a stack in int64 for ``_psd_rank``
    only while it is below 2⁶²."""
    diag = sorted(max(1, sum(x * x for x in r)) for r in rows)
    return math.prod(diag[1:]) ** 2


def test_zero_pivots_at_every_step_on_both_sides_of_the_switch(rng):
    # the natural-order elimination skips a zero pivot and keeps going, so
    # independent rows after it still count; stacks of small entries stay in
    # int64, stacks of large ones pass the bound and take Python ints
    for top in (3, 2**16):
        for s in range(1, 7):
            stack = []
            for p in range(s):
                for how in ("zero", "zeros first", "dependent") if p else ("zero",):
                    rows = _first_zero_pivot_at(rng, s, p, top, how)
                    # rows before p independent, row p dependent on them
                    assert orc.rref_rank(rows[:p]) == orc.rref_rank(rows[:p + 1]) == (p if how != "zeros first" else 0)
                    stack.append(rows)
            if top == 3:
                assert max(map(_kernel_bound, stack)) < 2**62
            elif s > 1:
                assert max(map(_kernel_bound, stack)) >= 2**62
            got = _rank_over_q(stack)
            for rows, r in zip(stack, got.tolist()):
                assert r == _rank_over_q(rows) == orc.rref_rank(rows), rows


def _kernel_grid():
    """Seeded (rows, ncols): no rows, zero rows, rows combining earlier
    rows, columns left without a pivot, entries up to ±60 and past 2⁶³."""
    rng = random.Random(14)
    for t in range(1500):
        ncols, nrows = rng.randint(1, 7), rng.randint(0, 7)
        top = 2**70 if t % 10 == 0 else 60
        rows = [[rng.choice((0, rng.randint(-top, top))) for _ in range(ncols)] for _ in range(nrows)]
        zero_col = rng.randrange(ncols) if rng.random() < 0.3 else None
        for i, row in enumerate(rows):
            if zero_col is not None:
                row[zero_col] = 0
            if rng.random() < 0.15:
                rows[i] = [0] * ncols
            elif i >= 2 and rng.random() < 0.3:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[i] = [a * x + b * y for x, y in zip(rows[rng.randrange(i)], rows[rng.randrange(i)])]
        yield rows, ncols


def test_right_kernel_basis_matches_fraction_oracle():
    for rows, ncols in _kernel_grid():
        basis = right_kernel_basis(rows, ncols)
        assert basis == orc.kernel_basis_oracle(rows, ncols), rows
        for k in basis:
            assert all(sum(a * x for a, x in zip(row, k)) == 0 for row in rows), (rows, k)
            assert math.gcd(*k) == 1 and next(x for x in k if x) > 0, (rows, k)
    assert right_kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert right_kernel_basis([[2, 4, 6], [0, 0, 0]], 3) == [(2, -1, 0), (3, 0, -1)]


def test_exponent_stack_has_the_gram_of_the_exponent_matrix(rng):
    for n in range(1, 6):
        keys = [[rng.choice([1, rng.randint(2, 5000)]) for _ in range(n)] for _ in range(50)]
        stack = exponent_stack(keys)
        for key, rows in zip(keys, stack):
            e = np.array(orc._exponent_rows(key), dtype=np.int64)
            assert (rows @ rows.T == e @ e.T).all(), key
    # values past int64 keep Python ints
    big = exponent_stack([[2**64 * 3, 5, 6]])
    assert big.tolist() == [[[64, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0]]]


def test_exponent_stack_is_byte_equal_under_the_per_value_loop(rng, monkeypatch):
    # the layout does not depend on how the values were factorized
    stacks = [[[rng.choice([1, rng.randint(1, top)]) for _ in range(n)] for _ in range(rng.randint(1, 30))]
              for n in (1, 2, 3, 4, 5) for top in (12, 5000, 10**6 + 9, 10**9) for _ in range(5)]
    for keys in stacks + [[[2**64 * 3, 5, 6]]]:
        got = exponent_stack(keys)
        with monkeypatch.context() as patch:
            patch.setattr(arith, "factor_table", orc.factor_table)
            want = exponent_stack(keys)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), keys


def _value_stacks(rng):
    """Seeded (m, n) stacks of values up to 2²², n = 3..6, on both sides of
    ``relations._table_pays``: few distinct values under many rows, or many
    under few.  Pools mix small values, values past 10⁶ (trial division in
    ``arith.factor_table``), 1s and high powers, whose Gram diagonals put
    some stacks past the int64 bound of ``_psd_rank``."""
    powers = [2**22, 3**13, 5**9, 7**7, 6**8, 2**11 * 3**6, 10**6]
    for n in range(3, 7):
        for top in (60, 5000, 2**22):
            for m, V in ((300, 8), (40, 150)):
                pool = [rng.choice([1, rng.randint(2, top), rng.choice(powers), rng.randint(10**6, 2**22)])
                        for _ in range(V)]
                yield np.array([[rng.choice(pool) for _ in range(n)] for _ in range(m)], dtype=np.int64)


def test_value_table_gram_equals_the_layout_gram(rng, monkeypatch):
    # a Gram entry ⟨e(x), e(y)⟩ depends only on the pair of values, so the
    # table of the distinct values' inner products gives _gram of the laid
    # out exponent rows, in values and dtype, whichever way the rule goes
    sides, dtypes = set(), set()
    for keys in _value_stacks(rng):
        want = relations._gram(exponent_stack(keys))
        sides.add(relations._table_pays(len(np.unique(keys)), *keys.shape))
        dtypes.add(want.dtype)
        for force in (True, False):
            with monkeypatch.context() as patch:
                patch.setattr(relations, "_table_pays", lambda V, m, n: force)
                got = relations._value_gram(keys)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (force, keys)
            assert (got == want).all(), (force, keys)
    assert sides == {True, False} and dtypes == {np.dtype(np.int64), np.dtype(object)}
    # products formed in Python ints (exponents near 2³¹ would need it), and
    # values past int64
    keys = [[2**64 * 3, 5, 6], [6, 2**70, 15], [5, 6, 15]]
    monkeypatch.setattr(relations, "_wide", lambda top, k: True)
    want = relations._gram(exponent_stack(keys))
    for force in (True, False):
        monkeypatch.setattr(relations, "_table_pays", lambda V, m, n: force)
        got = relations._value_gram(relations._as_ints(keys))
        assert got.dtype == want.dtype == object and got.tolist() == want.tolist()


def test_is_dependent_scans_no_subset_of_a_long_vector():
    # 23 primes and their product: only the whole set is dependent, so
    # mult_rank's subset scan would pass its 2²⁰ budget; is_dependent asks
    # about the whole set alone, at any length
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    assert len(primes) == 25
    assert is_dependent(primes[:23] + [math.prod(primes[:23])])
    assert not is_dependent(primes[:24])
    assert not is_dependent([-p for p in primes[:24]])


def test_long_vector_subset_scan_runs_in_bounded_chunks():
    # 15 primes and their product: only the whole vector is dependent, so
    # the scan tests all 32 766 subsets of sizes 2 to 15 and finds none.
    # Size 8 alone is C(16, 8)·8·8 int64 entries (6.6 MB), so the scan
    # must not hold one size's blocks at once
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    v = primes + (math.prod(primes),)
    assert mult_rank(v) == 15  # factorization tables are built here
    tracemalloc.start()
    try:
        assert mult_rank(v) == 15
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# (ν, relation(ν), full_support_relation(ν)) as computed when the witnesses
# were solved from a per-vector prime-sorted exponent matrix: ±1 coordinates,
# all-±1 vectors and values past int64
_WITNESSES = [
    ((1,), (1,), (1,)),
    ((-1,), (2,), (2,)),
    ((1, 1), (1, 0), (1, 3)),
    ((-1, -1, -1), (2, 0, 0), (2, 8, 32)),
    ((1, -1, 1, -1), (1, 0, 0, 0), (1, 5, 25, 125)),
    ((-1, 2), (2, 0), None),
    ((2, 1, 3), (0, 1, 0), None),
    ((1, 4, 16), (1, 0, 0), (1, 14, -7)),
    ((4, -1, 8), (0, 2, 0), (60, 2, -40)),
    ((-2, 2), (2, -2), (2, -2)),
    ((-2, 4, 9), (2, -1, 0), None),
    ((6, 15, 35, 14), (1, -1, 1, -1), (1, -1, 1, -1)),
    ((2**64 * 3, 2**70, 6), (10, -9, -10), (10, -9, -10)),
    ((-2**70, 2**64 * 3, 3**45), (288, -315, 7), (288, -315, 7)),
    ((6**30, -2, -3), (1, -30, -30), (1, -30, -30)),
    ((1, 2**64 * 3, 5), (1, 0, 0), None),
    ((-3**45, 9, -1), (0, 0, 2), (2, -45, 136)),
    ((2**70, 2**69), (69, -70), (69, -70)),
    ((5, 7, 11), None, None),
]


def _witness_grid():
    rng = random.Random(11)
    big = (2**64 * 3, 2**70, 3**45, 6**30)
    for _ in range(600):
        v = []
        for _ in range(rng.randint(1, 5)):
            r = rng.random()
            if r < 0.1:
                x = 1
            elif r < 0.15:
                x = rng.choice(big)
            elif r < 0.35:
                x = rng.choice((2, 3, 6, 12)) ** rng.randint(1, 5)
            else:
                x = rng.randint(2, 100)
            v.append(rng.choice((1, -1)) * x)
        yield tuple(v)


def test_witnesses_are_pinned():
    for v, rel, full in _WITNESSES:
        assert relation(v) == rel and full_support_relation(v) == full, v
    assert [fatal_triple(N) for N in (16, 18, 23, 43, 97, 120)] == [
        None, None, (2, 3, 18, (1, 2, -1)), (1, 6, 36, (1, 14, -7)),
        (1, 32, 64, (1, 114, -95)), (6, 18, 96, (9, -4, -1))]
    # a seeded grid of 600 vectors (224 dependent, 21 with a full-support
    # relation), pinned by the digest of every output
    out = [(relation(v), full_support_relation(v)) for v in _witness_grid()]
    assert sum(k is not None for k, _ in out) == 224 and sum(k is not None for _, k in out) == 21
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "2023a944ca98afd87c5f96528141d0f98eed9a7b28ab76ad40106ea2cd548a7c")
