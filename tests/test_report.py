import json
from fractions import Fraction as F

import pytest

from multdep import report
from multdep.latticecount import CurveSystemSpec


def test_convergence_exact_box_law():
    rows = report.convergence_study((1, 0, 0), 1, [5, 10])
    assert [r.grid for r in rows] == [5, 10]
    assert [r.count for r in rows] == [100, 400]
    assert all(r.residual == 0 for r in rows)  # exact law, zero residual


def test_convergence_rows_are_exact():
    rows = report.convergence_study((1, 1, 1), 1, [20, 40])
    for r in rows:
        assert r.normalized == F(r.count, r.grid)
        assert r.residual == r.normalized - r.predicted
        assert r.predicted == 15


def test_convergence_positive_reads_grid_as_level():
    rows = report.convergence_study((1, 1, 1), 0, [30, 60], domain="positive")
    # all-positive study: grid entries are the plane level
    assert rows[0].predicted == F(9, 2)
    assert rows[0].normalized == F(rows[0].count, 30)


def test_convergence_empty_grid():
    assert report.convergence_study((1, 1, 1), 1, []) == []


def test_convergence_grid_must_ascend():
    with pytest.raises(ValueError):
        report.convergence_study((1, 1, 1), 1, [10, 10])
    with pytest.raises(ValueError, match="domain kind"):
        report.convergence_study((1, 1, 1), 1, [10, 20], domain="both")


def test_residual_decay_smoke():
    rows = report.convergence_study((1, 1, 1), 1, [150, 600])
    assert abs(rows[-1].residual) <= 2 * abs(rows[0].residual)


def test_byte_identical_tables():
    mk = lambda: report.rows_to_csv(report.convergence_study((1, 1, 2), 3, [25, 50]))
    assert mk() == mk()
    a = report.rows_to_json(report.convergence_study((1, 1, 2), 3, [25, 50]))
    b = report.rows_to_json(report.convergence_study((1, 1, 2), 3, [25, 50]))
    assert a == b


def test_csv_shape():
    out = report.rows_to_csv(report.convergence_study((1, 0, 0), 1, [5]))
    lines = out.split("\n")
    assert lines[0] == "grid,count,normalized,predicted,residual,residual_scaled"
    assert lines[1].startswith("5,100,")
    assert out.endswith("\n") and "\r" not in out


def test_json_shape():
    out = report.rows_to_json(report.convergence_study((1, 0, 0), 1, [5]))
    data = json.loads(out)
    assert isinstance(data, list) and list(data[0]) == report.CSV_HEADER


def test_verify_lattice_approx_gcd_branch():
    table = report.verify_lattice_approx((2, 2), 1, [10, 100])
    assert all(row["count"] == 0 and row["V"] == 0 for row in table["rows"])
    assert table["fitted_constant"] == 0


def test_verify_lattice_approx_bounded():
    table = report.verify_lattice_approx((1, 1), 0, [10, 100])
    # n = 2: |count − V| stays O(1)
    assert all(row["difference"] <= 4 for row in table["rows"])
    table = report.verify_lattice_approx((1, 1, 1), 0, [10, 50])
    assert table["fitted_constant"] <= 10


def test_curve_bound_study():
    sys = CurveSystemSpec("2var-a", 1, 1, (1, 1, 1), (1, 1), 2)
    table = report.curve_bound_study(sys, [10, 100, 1000])
    assert len(table["rows"]) == 3
    assert table["max_ratio"] <= 1.0
    with pytest.raises(Exception):
        report.curve_bound_study(
            CurveSystemSpec("2var-a", 1, 1, (1, 1, 1), (1, 1), 0), [10]
        )


def test_render_is_12_significant_digits():
    assert report.render(F(1, 3)) == "0.333333333333"
    assert report.render(F(15)) == "15"


def test_convergence_positive_mixed_sign_uses_positive_constants():
    rows = report.convergence_study((1, -1, 1, -1), 1, [8, 16], domain="positive")
    assert all(r.predicted == 7 for r in rows)
    assert rows[0].normalized == F(rows[0].count, 8**2)


def test_convergence_k1_prediction_tracks_height():
    rows = report.convergence_study((1, 0, 0), 2, [512, 1024])
    assert [r.predicted for r in rows] == [92, 100]


def test_residual_scaled_comparable_across_rows():
    rows = report.convergence_study((1, 1, 1), 1, [50, 100])
    a, b = (abs(r.residual_scaled) for r in rows)
    assert b <= 3 * a and a <= 3 * b
