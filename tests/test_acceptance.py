"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is pinned here exactly as specified; nothing is calibrated at
run time.

Criterion 2 checks the n = 2 box count against its exact closed form
12H − 8 + 4·P(H), with no tolerance.  No envelope around the main term 12H
would do: the same-base pairs (b^s, b^t) put the count at least about 8·√H
above 12H (measured: about 20·√H for H ≤ 2000), beyond any c·log H and beyond
a 2% band at H = 2000.

Criteria 3 and 4 are implemented faithfully and are expected to fail: the
measured J^{-1/2} and H^{-1/2} error terms carry constants far above the
pinned tolerances at the pinned points.  Measured with the same counter,
criterion 4's law first holds between H = 10⁴ and 1.5·10⁴, and criterion 3's
between J = 5·10⁴ and 10⁵.  The counts themselves match an independent oracle
recount (``test_latticecount.test_criteria_03_04_counts_match_oracle``).  The
failures are deliberate and documented; see the assertion messages for the
exact numbers.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

import _oracles as orc
from multdep import arith, constants, relations, report, slicevol
from multdep.latticecount import (
    CurveSystemSpec,
    DomainSpec,
    HyperplaneSpec,
    count_S,
)


def _line(num: int, name: str, ok: bool, detail: str) -> str:
    msg = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(msg)
    return msg


def test_criterion_01_unit_level_exact_law():
    t0 = time.perf_counter()
    results = {}
    for H in (5, 50, 200):
        rep = count_S(HyperplaneSpec((1, 0, 0), 1), DomainSpec("signed", H))
        results[H] = rep.dependent_total
    elapsed = time.perf_counter() - t0
    ok = results == {5: 100, 50: 10000, 200: 160000} and elapsed < 10
    msg = _line(1, "unit-level exact law", ok, f"counts {results}, {elapsed:.2f}s")
    assert ok, msg


def test_criterion_02_n2_baseline_log_error():
    # a pair is dependent iff some |ν_i| = 1 or both |ν_i| are powers of one
    # minimal base; _oracles.same_base_pairs derives the closed form
    t0 = time.perf_counter()
    base = constants.C_total((0, 0), 0)  # 12 on H^1
    slope = base.total
    grid = (200, 500, 1000, 2000)
    counts = {}
    closed = {}
    for H in grid:
        counts[H] = count_S(HyperplaneSpec((0, 0), 0), DomainSpec("signed", H)).dependent_total
        closed[H] = slope * H - 8 + 4 * orc.same_base_pairs(H)
    elapsed = time.perf_counter() - t0
    ratios = [counts[H] / (slope * H) for H in grid]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:])) and ratios[-1] > 1
    ok = (
        slope == 12
        and base.h_exponent == 1
        and all(counts[H] == closed[H] for H in grid)
        and decreasing
        and elapsed < 120
    )
    detail = (
        f"C_total={slope} on H^{base.h_exponent}, counts {counts}, 12H-8+4P(H) "
        + "{" + ", ".join(f"{H}: {v}" for H, v in closed.items()) + "}"
        + ", (count-12H)/sqrt(H) "
        + str({H: round((counts[H] - float(slope) * H) / math.sqrt(H), 2) for H in grid})
        + f", count/(12H) {[round(float(r), 4) for r in ratios]} decreasing={decreasing}"
        + f", {elapsed:.1f}s"
    )
    msg = _line(2, "n=2 exact count 12H-8+4P(H)", ok, detail)
    assert ok, msg


def test_criterion_03_all_one_positive_law():
    t0 = time.perf_counter()
    rep6 = count_S(HyperplaneSpec((1, 1, 1), 6), DomainSpec("positive", 6))
    exact6 = rep6.dependent_total
    target = constants.C_positive((1, 1, 1), 6).total  # 9/2
    devs = {}
    allowed = {}
    for J in (500, 2000, 5000):
        rep = count_S(HyperplaneSpec((1, 1, 1), J), DomainSpec("positive", J))
        devs[J] = abs(rep.dependent_total / J - float(target))
        allowed[J] = 1.0 * J**-0.5 * (1 + math.log(J))
    elapsed = time.perf_counter() - t0
    ok = (
        exact6 == 10
        and target == F(9, 2)
        and all(devs[J] <= allowed[J] for J in devs)
        and elapsed < 120
    )
    detail = (
        f"S(6)={exact6}, |S/J - 4.5| = "
        + str({J: round(v, 4) for J, v in devs.items()})
        + ", allowed "
        + str({J: round(v, 4) for J, v in allowed.items()})
        + f", {elapsed:.1f}s"
    )
    msg = _line(3, "all-one positive law", ok, detail)
    assert ok, msg


def test_criterion_04_k3_convergence():
    t0 = time.perf_counter()
    bd = constants.C_total((1, 1, 1), 1)
    devs = {}
    for H in (200, 2000):
        rep = count_S(HyperplaneSpec((1, 1, 1), 1), DomainSpec("signed", H))
        devs[H] = abs(rep.dependent_total / H - float(bd.total))
    elapsed = time.perf_counter() - t0
    decreasing = devs[2000] < devs[200]
    tol = float(bd.total) * 0.05
    ok = bd.total == 15 and decreasing and devs[2000] <= tol and elapsed < 300
    detail = (
        f"C_total={bd.total}, |S/H - 15|: H=200 -> {devs[200]:.4f}, "
        f"H=2000 -> {devs[2000]:.4f} (tolerance {tol}), decreasing={decreasing}, {elapsed:.1f}s"
    )
    msg = _line(4, "k>=3 convergence", ok, detail)
    assert ok, msg


def test_criterion_05_k1_affine_log_law():
    t0 = time.perf_counter()
    pinned = constants.C_e1(2, 1024, 3)
    checks = {}
    for H in (512, 1024, 4096):
        c = constants.C_e1(2, H, 3)
        rep = count_S(HyperplaneSpec((1, 0, 0), 2), DomainSpec("signed", H))
        dev = abs(rep.dependent_total / H - float(c))
        checks[H] = (dev, 2 * H**-0.5 * float(c))
    elapsed = time.perf_counter() - t0
    ok = pinned == 100 and all(d <= a for d, a in checks.values()) and elapsed < 180
    detail = (
        f"C(2,1024,3)={pinned}, dev/allowed "
        + str({H: (round(d, 3), round(a, 3)) for H, (d, a) in checks.items()})
        + f", {elapsed:.1f}s"
    )
    msg = _line(5, "k=1 affine-log law", ok, detail)
    assert ok, msg


def test_criterion_06_lattice_volume_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250806)
    cases = []
    while len(cases) < 20:
        n = int(rng.integers(2, 5))
        alpha = tuple(int(x) for x in rng.integers(-5, 6, size=n))
        if not any(alpha):
            continue
        g = arith.gcd_vec(alpha)
        J = g * int(rng.integers(-3, 4))
        cases.append((alpha, J))
    stable = True
    worst = (0.0, 0.0)
    for alpha, J in cases:
        # |count − V_α| / H^{n−2} per H, from the evidence table
        study = report.verify_lattice_approx(alpha, J, (50, 200))
        ratios = {row["H"]: float(row["ratio"]) for row in study["rows"]}
        fitted = ratios[50]
        if ratios[200] > 2 * fitted + 1:
            stable = False
        worst = max(worst, (ratios[50], ratios[200]))
    elapsed = time.perf_counter() - t0
    ok = stable and elapsed < 120
    msg = _line(
        6, "lattice/volume consistency", ok,
        f"20 cases, worst (fit@50, ratio@200) = ({worst[0]:.2f}, {worst[1]:.2f}), {elapsed:.1f}s",
    )
    assert ok, msg


def test_criterion_07_volume_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250807)
    hexagon = slicevol.mm_half_cube_Q((1, 1, 1), 0)
    failures = 0
    for case in range(50):
        half = case % 2 == 1
        n = int(rng.integers(2, 6))
        alpha = rng.integers(-5, 6, size=n)
        while (alpha == 0).any():
            alpha = rng.integers(-5, 6, size=n)
        alpha_t = tuple(int(a) for a in alpha)
        norm = math.sqrt(float((alpha * alpha).sum()))
        if half:
            x0 = rng.random(n) * 0.6 - 0.3
            r = F(2 * round(4 * float(alpha @ x0)) + 1, 8)
            q = slicevol.mm_half_cube_Q(alpha_t, r)
            samples = rng.random((10**6, n)) - 0.5
        else:
            x0 = rng.random(n) * 0.6 + 0.2
            r = F(2 * round(4 * float(alpha @ x0)) + 1, 8)
            q = slicevol.mm_unit_cube_Q(alpha_t, r)
            samples = rng.random((10**6, n))
        dots = samples @ alpha
        h = 0.02 * norm
        inside = (dots >= float(r) - h) & (dots <= float(r) + h)
        p = float(inside.mean())
        est = p * norm / (2 * h)
        se = math.sqrt(max(p * (1 - p), 1e-12) / 10**6) * norm / (2 * h)
        if abs(est - float(q) * norm) > 3 * se:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = hexagon == F(3, 4) and failures == 0 and elapsed < 60
    msg = _line(
        7, "slice-volume Monte Carlo", ok,
        f"hexagon Q={hexagon}, {failures}/50 outside 3 standard errors, {elapsed:.1f}s",
    )
    assert ok, msg


def test_criterion_08_rank_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250808)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        v = []
        for _ in range(n):
            x = int(rng.integers(1, 51))
            v.append(x if rng.random() < 0.5 else -x)
        v = tuple(v)
        if relations.mult_rank(v) != orc.subset_rank_oracle(v):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    msg = _line(8, "rank oracle equivalence", ok, f"{mismatches}/1000 mismatches, {elapsed:.1f}s")
    assert ok, msg


def test_criterion_09_fatal_triples():
    t0 = time.perf_counter()

    def witness(N):
        for a in range(1, N // 3 + 1):
            for b in range(a + 1, (N - a) // 2 + 1):
                c = N - a - b
                if c <= b:
                    continue
                k = relations.full_support_relation((a, b, c))
                if k is not None:
                    return (a, b, c), k
        return None

    n16 = witness(16)
    missing = []
    bad_witness = []
    for N in range(17, 101):
        if N % 6 == 0:
            continue
        got = witness(N)
        if got is None:
            missing.append(N)
            continue
        triple, k = got
        if not (all(k) and relations.verify_relation(triple, k)):
            bad_witness.append(N)
    elapsed = time.perf_counter() - t0
    ok = n16 is None and not missing and not bad_witness and elapsed < 30
    msg = _line(
        9, "fatal-triple reproduction", ok,
        f"16 -> none: {n16 is None}, missing {missing}, bad witnesses {bad_witness}, {elapsed:.1f}s",
    )
    assert ok, msg


def test_criterion_10_dependent_line_pairs():
    t0 = time.perf_counter()
    six = constants.S2prime(6, 1, 1)
    expect6 = [(-3, 9), (-2, 8), (2, 4), (4, 2), (8, -2), (9, -3)]
    bound = 10**4
    table = arith.power_base_table(bound)
    rng = np.random.default_rng(20250810)
    extras = 0
    for _ in range(20):
        J = int(rng.integers(1, 51)) * (1 if rng.random() < 0.5 else -1)
        a1 = int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
        a2 = int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
        full = set(constants.S2prime(J, a1, a2))
        brute = set()
        for x in range(-bound, bound + 1):
            if x == 0:
                continue
            num = J - a1 * x
            if num % a2:
                continue
            y = num // a2
            ax, ay = abs(x), abs(y)
            if ax <= 1 or ay <= 1 or ax == ay or ay > bound:
                continue
            if table[ax] == table[ay]:
                brute.add((x, y))
        inside = {p for p in full if abs(p[0]) <= bound and abs(p[1]) <= bound}
        if brute != inside:
            extras += 1
    elapsed = time.perf_counter() - t0
    ok = six == expect6 and extras == 0 and elapsed < 60
    msg = _line(
        10, "dependent line pairs", ok,
        f"S2'(6;1,1) = {six}, scan disagreements {extras}/20, {elapsed:.1f}s",
    )
    assert ok, msg


def test_criterion_11_curve_bound_trend():
    t0 = time.perf_counter()
    sys = CurveSystemSpec("2var-a", 1, 1, (1, 1, 1), (1, 1), 2)
    # count / (H^{1/2}·(log H + 2)) per H, from the evidence table
    study = report.curve_bound_study(sys, (100, 1000, 10000))
    ratios = {row["H"]: row["ratio"] for row in study["rows"]}
    elapsed = time.perf_counter() - t0
    fitted = ratios[100]
    ok = all(ratios[H] <= fitted for H in (1000, 10000)) and elapsed < 60
    msg = _line(
        11, "curve-count envelope", ok,
        f"ratios {dict((H, round(v, 4)) for H, v in ratios.items())} vs fit {fitted:.4f}, {elapsed:.1f}s",
    )
    assert ok, msg
