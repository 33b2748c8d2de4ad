"""Output checks behind the benchmark's ``failed`` count.

Every op is checked after the timed loop: its stdout bytes against outputs
recorded for the default seed (``golden/<workload>.json``; pinned ops carry
the same key in every seed), and its invariants for any seed.  Each check
returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_golden(workload: str) -> dict[str, str]:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["outputs"]


def render(x) -> str:
    """The 12-significant-digit decimal rendering the multdep reports use."""
    return f"{float(x):.12g}"


# ── independent lattice-point recounts ───────────────────────────────────


def box_count(alpha, J: int, box) -> int:
    """#{ν ∈ Z^n ∩ box : α·ν = J} by inclusion–exclusion over upper bounds.

    Each coordinate is shifted to t ∈ [0, w] with a positive coefficient
    (ν = lo + t for α > 0, ν = hi − t for α < 0).  Dropping the upper bounds
    leaves an unbounded coin-change count N(m); the bounded count is
    Σ_S (−1)^|S| N(m − Σ_{i∈S} c_i (w_i + 1)).  This shares no code with the
    convolution DP in multdep.
    """
    factor = 1
    coeffs, widths = [], []
    target = J
    for a, (lo, hi) in zip(alpha, box):
        if lo > hi:
            return 0
        if a == 0:
            factor *= hi - lo + 1
            continue
        target -= a * (lo if a > 0 else hi)
        coeffs.append(abs(a))
        widths.append(hi - lo)
    if not coeffs:
        return factor if target == 0 else 0
    if target < 0:
        return 0
    ways = [1] + [0] * target
    for c in coeffs:
        for m in range(c, target + 1):
            ways[m] += ways[m - c]
    total = 0
    for mask in range(1 << len(coeffs)):
        shift = 0
        sign = 1
        for i, c in enumerate(coeffs):
            if mask >> i & 1:
                shift += c * (widths[i] + 1)
                sign = -sign
        if shift <= target:
            total += sign * ways[target - shift]
    return factor * total


def nonzero_plane_count(alpha, J: int, H: int) -> int:
    """#{ν : α·ν = J, 0 < |ν_i| ≤ H}: inclusion–exclusion over zero coordinates."""
    n = len(alpha)
    total = 0
    for mask in range(1 << n):
        box = [(0, 0) if mask >> i & 1 else (-H, H) for i in range(n)]
        sign = -1 if bin(mask).count("1") % 2 else 1
        total += sign * box_count(alpha, J, box)
    return total


# ── per-kind invariants ──────────────────────────────────────────────────


def _lines(out: str) -> dict[str, str]:
    pairs = [line.split(" ", 1) for line in out.splitlines()]
    return {p[0]: p[1] for p in pairs if len(p) == 2}


def parse_count(out: str) -> tuple[int, int, dict[int, int]]:
    """(total_on_plane, dependent, by_rank) from ``multdep count`` text output."""
    total = dependent = None
    by_rank: dict[int, int] = {}
    for line in out.splitlines():
        parts = line.split()
        if parts[0] == "total_on_plane":
            total = int(parts[1])
        elif parts[0] == "dependent":
            dependent = int(parts[1])
        elif parts[0] == "rank":
            by_rank[int(parts[1])] = int(parts[2])
    if total is None or dependent is None:
        raise ValueError("missing total_on_plane or dependent line")
    return total, dependent, by_rank


def _check_count(op, out: str) -> list[str]:
    p = op.params
    total, dependent, by_rank = parse_count(out)
    problems = []
    if not 0 <= dependent <= total:
        problems.append(f"dependent {dependent} outside [0, total {total}]")
    if p["by_rank"]:
        if sum(by_rank.values()) != dependent:
            problems.append(f"by_rank sums to {sum(by_rank.values())}, dependent is {dependent}")
        if any(not 0 <= r < len(p["alpha"]) for r in by_rank):
            problems.append(f"rank out of range in {sorted(by_rank)}")
    elif by_rank:
        problems.append("rank lines in an unstratified count")
    return problems


def _check_converge(op, out: str) -> list[str]:
    p = op.params
    lines = out.splitlines()
    if lines[0] != "grid,count,normalized,predicted,residual,residual_scaled":
        return [f"bad header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if [int(r[0]) for r in rows] != list(p["grid"]):
        problems.append("grid column differs from the requested grid")
    exponent = len(p["alpha"]) - 2
    for r in rows:
        g, count = int(r[0]), int(r[1])
        if r[2] != render(Fraction(count, g**exponent)):
            problems.append(f"normalized {r[2]} is not count/H^{exponent} at H={g}")
    if len({r[3] for r in rows}) != 1:
        problems.append("predicted constant changes along the grid")
    return problems


def _check_constant(op, out: str) -> list[str]:
    p = op.params
    f = _lines(out)
    c0, c1, c2, total = (Fraction(f[k]) for k in ("c0", "c1", "c2", "total"))
    problems = []
    if total != c0 + c1 + c2:
        problems.append(f"total {total} != c0 + c1 + c2 = {c0 + c1 + c2}")
    if int(f["k"]) != sum(1 for a in p["alpha"] if a):
        problems.append(f"k {f['k']} is not the number of nonzero coefficients")
    if int(f["exponent"]) != len(p["alpha"]) - 2:
        problems.append(f"exponent {f['exponent']} is not n - 2")
    return problems


def _check_volume(op, out: str) -> list[str]:
    p = op.params
    f = _lines(out)
    q = Fraction(f["Q"])
    problems = []
    if q < 0:
        problems.append(f"negative Q {q}")
    norm = math.sqrt(sum(a * a for a in p["alpha"]))
    if f["volume"] != render(float(q) * norm):
        problems.append(f"volume {f['volume']} is not Q·|alpha|")
    return problems


def _check_curve(op, out: str) -> list[str]:
    f = _lines(out)
    problems = []
    if int(f["count"]) < 0:
        problems.append("negative count")
    if (op.params["variant"] == "3var") != ("excluded" in f):
        problems.append("excluded line present exactly for 3var expected")
    return problems


def _check_hlc(op, out: str) -> list[str]:
    return [] if int(out) >= 0 else ["negative lattice count"]


INVARIANTS = {
    "count": _check_count,
    "converge": _check_converge,
    "constant": _check_constant,
    "volume": _check_volume,
    "curve": _check_curve,
    "hlc": _check_hlc,
}


def check_op(op, rc: int, out: str, err: str, golden: dict[str, str]) -> list[str]:
    """Problems with one op's result: exit code, stderr, golden bytes, invariants."""
    if rc != 0:
        return [f"exit {rc}: {err.strip()}"]
    if err:
        return [f"unexpected stderr: {err.strip()}"]
    problems = []
    want = golden.get(op.key)
    if want is not None and out != want:
        problems.append("stdout differs from the recorded output")
    try:
        problems += INVARIANTS[op.kind](op, out)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"unparsable output: {exc!r}")
    return problems
