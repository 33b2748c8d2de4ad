"""Convergence studies and machine-readable evidence tables.

Links empirical counts to the predicted constants and slice densities:
normalized counts count/H^e against the exact constant, lattice counts
against V_α with the residual measured in units of H^{n−2}, and curve-system
counts against the H^{1/2}·(log H + 2) envelope.

Exact rationals are kept internally; CSV/JSON render decimals at 12
significant digits, so identical inputs give byte-identical tables.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith, constants, latticecount, slicevol
from .latticecount import CurveSystemSpec, DomainSpec, HyperplaneSpec

RENDER_DIGITS = 12


def render(x) -> str:
    """Decimal rendering at 12 significant digits (exact values kept upstream)."""
    return f"{float(x):.{RENDER_DIGITS}g}"


@dataclass
class ConvergenceRow:
    """One grid point of a convergence study.

    ``grid`` is H (or J for all-positive studies); ``normalized`` is
    count/grid^e exactly; ``residual`` = normalized − predicted exactly;
    ``residual_scaled`` multiplies by the error-shape factor grid^{1/2}.
    """

    grid: int
    count: int
    normalized: Fraction
    predicted: Fraction
    residual: Fraction
    residual_scaled: float

    def as_dict(self) -> dict:
        return {
            "grid": self.grid,
            "count": self.count,
            "normalized": render(self.normalized),
            "predicted": render(self.predicted),
            "residual": render(self.residual),
            "residual_scaled": render(self.residual_scaled),
        }


def convergence_study(alpha, J: int, grid, domain: str = "signed") -> list[ConvergenceRow]:
    """One row per grid value, ascending.

    For all-positive α in the positive domain the grid is read as J values
    (the plane caps the height, so H = J); otherwise the grid is H values at
    fixed J.  Predictions come from the exact constants of the matching
    regime.
    """
    grid = [int(g) for g in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    a = tuple(int(x) for x in alpha)
    j_mode = domain == "positive" and all(x > 0 for x in a)
    rows = []
    for g in grid:
        level = g if j_mode else J
        spec = HyperplaneSpec(a, level)
        dom = DomainSpec(domain, g)
        bd = constants.C_positive(a, level) if domain == "positive" else constants.C_total(a, J, H=g)
        rep = latticecount.count_S(spec, dom)
        normalized = Fraction(rep.dependent_total, g**bd.h_exponent)
        predicted = bd.total
        residual = normalized - predicted
        rows.append(
            ConvergenceRow(g, rep.dependent_total, normalized, predicted,
                           residual, float(residual) * math.sqrt(g))
        )
    return rows


def verify_lattice_approx(alpha, J: int, grid) -> dict:
    """Lattice count vs V_α over [−H,H]^n per grid H.

    Returns rows (H, count, V, |difference|, |difference|/H^{n−2}) plus the
    fitted constant = max of the last column.
    """
    a = tuple(int(x) for x in alpha)
    n = len(a)
    rows = []
    fitted = Fraction(0)
    g_alpha = arith.gcd_vec(a)
    for H in (int(g) for g in grid):
        spec = HyperplaneSpec(a, J)
        count = latticecount.hyperplane_lattice_count(spec, [(-H, H)] * n)
        if g_alpha != 0 and J % g_alpha == 0:
            v = slicevol.V_alpha(a, "scaled-symmetric", J, H=H)
        else:
            v = Fraction(0)
        diff = abs(Fraction(count) - v)
        ratio = diff / H ** (n - 2) if n >= 2 else diff
        fitted = max(fitted, ratio)
        rows.append({"H": H, "count": count, "V": v, "difference": diff, "ratio": ratio})
    return {"rows": rows, "fitted_constant": fitted}


def curve_bound_study(sys: CurveSystemSpec, grid) -> dict:
    """Counts against the H^{1/2}(log H + 2) envelope; reports the max ratio."""
    rows = []
    max_ratio = 0.0
    for H in (int(g) for g in grid):
        count = latticecount.curve_counts(sys, H)[0]
        ratio = count / (math.sqrt(H) * (math.log(H) + 2))
        max_ratio = max(max_ratio, ratio)
        rows.append({"H": H, "count": count, "ratio": ratio})
    return {"rows": rows, "max_ratio": max_ratio}


# ── serialization ────────────────────────────────────────────────────────

CSV_HEADER = ["grid", "count", "normalized", "predicted", "residual", "residual_scaled"]


def rows_to_csv(rows: list[ConvergenceRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        d = r.as_dict()
        w.writerow([d[c] for c in CSV_HEADER])
    return buf.getvalue()


def rows_to_json(rows: list[ConvergenceRow]) -> str:
    return json.dumps([r.as_dict() for r in rows], indent=2) + "\n"
