import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as orc
from multdep.slicevol import (
    V_alpha,
    V_alpha_positive,
    mm_half_cube_Q,
    mm_unit_cube_Q,
    simplex_Q,
)

entries = st.integers(min_value=-5, max_value=5).filter(lambda x: x != 0)
alphas = st.lists(entries, min_size=1, max_size=5).map(tuple)
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


# ── frozen examples (values fixed from the exact convolution oracle) ──────


def test_unit_cube_examples():
    # full diagonal of the unit square: length √2, so Q = 1
    assert mm_unit_cube_Q((1, 1), 1) == 1
    assert mm_unit_cube_Q((1, 1), 3) == 0
    # central hexagon of the unit cube: area 3√3/4, Q = 3/4
    assert mm_unit_cube_Q((1, 1, 1), F(3, 2)) == F(3, 4)


def test_half_cube_examples():
    assert mm_half_cube_Q((1, 1), 0) == 1
    assert mm_half_cube_Q((1, 1, 1), 0) == F(3, 4)
    assert mm_half_cube_Q((1, 1), 1) == 0


def test_simplex_examples():
    # triangle with vertices e_1, e_2, e_3: area √3/2, Q = 1/2
    assert simplex_Q((1, 1, 1), 1) == F(1, 2)
    assert simplex_Q((1, 1, 1), 0) == 0
    # segment from (2,0) to (0,1): length √5, Q = 1
    assert simplex_Q((1, 2), 2) == 1
    with pytest.raises(ValueError):
        simplex_Q((1, -2), 1)


def test_zero_coordinate_rejected_by_kernels():
    with pytest.raises(ValueError):
        mm_unit_cube_Q((1, 0), 1)
    with pytest.raises(ValueError):
        mm_half_cube_Q((0,), 0)


def test_V_alpha_examples():
    assert V_alpha((1, 1), "half", 0) == 1
    assert V_alpha((2, 2), "half", 0) == 1
    assert V_alpha((1, 1, 0), "half", 0) == 1
    with pytest.raises(ValueError):
        V_alpha((0, 0), "half", 0)


def test_V_alpha_positive_examples():
    assert V_alpha_positive((1, 1, 1), 4, 10) == 8
    assert V_alpha_positive((1, 1), 0, 5) == 0
    assert V_alpha_positive((2, 2), 4, 4) == 2
    with pytest.raises(ValueError):
        V_alpha_positive((1, 1), 7, 5)  # J > H leaves the formula's regime


def test_dimension_one_uses_counting_measure():
    assert mm_unit_cube_Q((3,), 2) == F(1, 3)  # point 2/3 inside [0,1]
    assert mm_unit_cube_Q((3,), 4) == 0
    assert mm_half_cube_Q((-2,), F(1, 2)) == F(1, 2)  # point -1/4
    assert mm_half_cube_Q((2,), 2) == 0
    assert simplex_Q((4,), 1) == F(1, 4)
    assert simplex_Q((4,), -1) == 0


# ── oracle equivalence (dual route: signed vertex sums vs convolution) ────


@given(alphas.filter(lambda a: len(a) >= 2), rationals)
def test_unit_cube_matches_convolution_oracle(alpha, r):
    assert mm_unit_cube_Q(alpha, r) == orc.unit_cube_Q_oracle(alpha, r)


@given(alphas.filter(lambda a: len(a) >= 2), rationals)
def test_half_cube_matches_convolution_oracle(alpha, r):
    assert mm_half_cube_Q(alpha, r) == orc.half_cube_Q_oracle(alpha, r)


def test_cube_kernels_match_vertex_enumeration(rng):
    # every Q equals the plain 2^n vertex sum, Fraction for Fraction
    for _ in range(40):
        n = rng.randint(2, 12)
        alpha = tuple(rng.choice([-1, 1]) * rng.randint(1, rng.choice([1, 3, 7])) for _ in range(n))
        den = rng.randint(1, 6)
        span = sum(abs(a) for a in alpha) * den
        r = F(rng.randint(-span, span), den)
        assert mm_unit_cube_Q(alpha, r) == orc.cube_vertex_Q_oracle(alpha, r)
        assert mm_half_cube_Q(alpha, r / 2) == orc.cube_vertex_Q_oracle(alpha, r / 2, centered=True)


@pytest.mark.parametrize("n", [12, 20, 24])
def test_all_ones_slices_match_eulerian_numbers(n):
    # Q_unit((1,)^n, k) is the Irwin–Hall density A(n−1, k−1)/(n−1)!; the
    # centered cube is the same slice moved by n/2
    ones = (1,) * n
    for k in range(n + 1):
        q = orc.irwin_hall_Q_oracle(n, k)
        assert mm_unit_cube_Q(ones, k) == q
        assert mm_half_cube_Q(ones, k - F(n, 2)) == q


def test_monte_carlo_agreement(rng):
    nprng = np.random.default_rng(777)
    for _ in range(8):
        n = rng.randint(2, 4)
        alpha = tuple(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for _ in range(n))
        x0 = nprng.random(n)
        r = F(round(float(np.dot(alpha, x0)) * 4), 4)
        q = mm_unit_cube_Q(alpha, r)
        norm = math.sqrt(sum(a * a for a in alpha))
        N = 200_000
        X = nprng.random((N, n))
        dots = X @ np.array(alpha)
        h = 0.02 * norm
        p = float(((dots >= float(r) - h) & (dots <= float(r) + h)).mean())
        est = p * norm / (2 * h)
        se = math.sqrt(max(p * (1 - p), 1e-12) / N) * norm / (2 * h)
        assert abs(est - float(q) * norm) <= 4 * se + 0.01


# ── structural properties ─────────────────────────────────────────────────


@given(alphas, rationals)
def test_half_cube_symmetric_in_level(alpha, r):
    assert mm_half_cube_Q(alpha, r) == mm_half_cube_Q(alpha, -r)


@given(alphas)
def test_nonnegative(alpha):
    for r in (F(0), F(1, 3), F(-5, 2), F(7)):
        assert mm_unit_cube_Q(alpha, r) >= 0
        assert mm_half_cube_Q(alpha, r) >= 0


def test_continuity_near_zero_level(rng):
    # |Q(r) − Q(0)| ≤ c·|r| with a stable fitted c, and ≤ c·r² with at least
    # three nonzero coordinates
    for _ in range(25):
        n = rng.randint(2, 5)
        alpha = tuple(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(n))
        q0 = mm_half_cube_Q(alpha, 0)
        fit = F(0)
        grid = [F(1, 64), F(1, 32), F(1, 16)]
        for r in grid:
            diff = abs(mm_half_cube_Q(alpha, r) - q0)
            fit = max(fit, diff / r)
        for r in (F(1, 128), F(3, 128)):
            assert abs(mm_half_cube_Q(alpha, r) - q0) <= fit * r + F(1, 10**6)
        if n >= 3:
            fit2 = max(abs(mm_half_cube_Q(alpha, r) - q0) / r**2 for r in grid)
            assert abs(mm_half_cube_Q(alpha, F(1, 128)) - q0) <= fit2 * F(1, 128) ** 2 + F(1, 10**6)


@given(alphas, st.integers(min_value=1, max_value=20))
def test_scaled_symmetric_matches_scaling_law(alpha, H):
    n = len(alpha)
    assert V_alpha(alpha, "scaled-symmetric", 0, H=H) == (2 * H) ** (n - 1) * V_alpha(
        alpha, "half", 0
    )


@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=6)
    .filter(lambda a: sum(x != 0 for x in a) >= 2)
    .map(tuple),
    rationals.filter(lambda r: r != 0),
    st.integers(min_value=1, max_value=20),
)
def test_V_alpha_matches_oracles_on_every_box(alpha, t, H):
    # [0,H]^n and [−H,H]^n are the unit and centered cubes scaled by H and 2H:
    # the level shrinks by the scale and the volume grows by scale^{n−1}
    nz = tuple(x for x in alpha if x)
    g, n = math.gcd(*alpha), len(alpha)
    assert V_alpha(alpha, "unit", t) == g * orc.unit_cube_Q_oracle(nz, t)
    assert V_alpha(alpha, "half", t) == g * orc.half_cube_Q_oracle(nz, t)
    want = g * H ** (n - 1) * orc.unit_cube_Q_oracle(nz, t)
    assert V_alpha(alpha, "scaled-positive", t * H, H=H) == want
    want = g * (2 * H) ** (n - 1) * orc.half_cube_Q_oracle(nz, t / 2)
    assert V_alpha(alpha, "scaled-symmetric", t * H, H=H) == want


def test_zero_coordinate_reduction_matches_side_factor(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        alpha = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
        spots = rng.randint(0, 2)
        padded = list(alpha)
        for _ in range(spots):
            padded.insert(rng.randint(0, len(padded)), 0)
        assert V_alpha(tuple(padded), "half", 0) == V_alpha(tuple(alpha), "half", 0)


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=5).map(tuple),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)
def test_simplex_matches_unit_cube_oracle(alpha, u):
    # for 0 ≤ r ≤ min α_i the simplex slice lies inside the unit cube
    r = u * min(alpha)
    assert simplex_Q(alpha, r) == orc.unit_cube_Q_oracle(alpha, r)


def test_unknown_box_rejected():
    with pytest.raises(ValueError):
        V_alpha((1, 1), "cube", 0)
    with pytest.raises(ValueError):
        V_alpha((1, 1), "scaled-symmetric", 0)  # missing H
