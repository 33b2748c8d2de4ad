import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import _oracles as orc
import multdep
from multdep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_depcheck(capsys):
    code, out, _ = run(capsys, "depcheck", "--vector", "2,3,12", "--witness")
    assert code == 0 and out == "dependent k=(2,1,-1)\n"
    code, out, _ = run(capsys, "depcheck", "--vector", "2,3,5")
    assert code == 0 and out == "independent\n"
    code, out, _ = run(capsys, "depcheck", "--vector", "1,2,3", "--full-support")
    assert code == 0 and out == "no full-support relation\n"
    code, out, _ = run(capsys, "depcheck", "--vector", "2,3,12", "--full-support", "--witness")
    assert code == 0 and out.startswith("full-support dependent k=(")
    code, out, _ = run(capsys, "depcheck", "--vector", "2,3,12")
    assert code == 0 and out == "dependent\n"
    code, out, _ = run(capsys, "depcheck", "--vector", "2,3,12", "--full-support")
    assert code == 0 and out == "full-support dependent\n"


def test_rank(capsys):
    code, out, _ = run(capsys, "rank", "--vector", "2,3,12")
    assert code == 0 and out == "rank 2\n"


def test_rank_of_a_long_vector_fails_fast(capsys):
    # 29 primes and their product: only the whole vector is dependent, so
    # the subset scan would test about 2³⁰ subsets; it stops at its budget
    primes = [p for p in range(2, 110) if all(p % q for q in range(2, p))]
    assert len(primes) == 29
    vector = primes + [math.prod(primes)]
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", "--vector", ",".join(map(str, vector)))
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert time.perf_counter() - start < 10
    # the same length with a dependent pair stops at size 2
    code, out, _ = run(capsys, "rank", "--vector", ",".join(map(str, [2, 4, *vector[2:]])))
    assert (code, out) == (0, "rank 1\n")


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "--alpha", "1,0,0", "--J", "1", "--H", "5")
    assert code == 0
    assert out == "total_on_plane 100\ndependent 100\n"
    code, out, _ = run(capsys, "count", "--alpha=0,0", "--J", "1", "--H", "5")
    assert code == 0 and out == "degenerate: all-zero alpha with J != 0 has no solutions\n"


def test_count_by_rank_json(capsys):
    code, out, _ = run(
        capsys, "count", "--alpha", "1,1,1", "--J", "6", "--H", "6",
        "--positive", "--by-rank", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["dependent"] == 10 and data["by_rank"] == {"0": 9, "1": 1}


def test_count_prints_ranks_only_with_by_rank(capsys):
    argv = ("count", "--alpha", "1,1,1", "--J", "6", "--H", "6", "--positive", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == (
        '{\n  "alpha": [\n    1,\n    1,\n    1\n  ],\n  "J": 6,\n  "H": 6,\n'
        '  "domain": "positive",\n  "total_on_plane": 10,\n  "dependent": 10,\n'
        '  "by_rank": {},\n  "degenerate": false\n}\n'
    )
    code, out, _ = run(capsys, "count", "--alpha", "1,2,3", "--J", "1", "--H", "9")
    assert code == 0 and out == "total_on_plane 99\ndependent 68\n"


def test_count_csv(capsys):
    code, out, _ = run(
        capsys, "count", "--alpha", "1,1", "--J", "2", "--H", "12", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "H,J,total_on_plane,dependent"
    assert lines[1].startswith("12,2,")


def test_constant(capsys):
    code, out, _ = run(capsys, "constant", "--alpha", "1,1,1", "--J", "1")
    assert code == 0
    assert "total 15" in out and "exponent 1" in out


def test_constant_rejects_a_height_below_one(capsys):
    for argv in (["--alpha=1", "--J", "1", "--H", "-5"], ["--alpha=1,1", "--J", "1", "--H", "0"]):
        code, out, err = run(capsys, "constant", *argv)
        assert (code, out) == (1, "") and err == f"error: H must be >= 1, got {argv[-1]}\n", argv


def test_converge_k1_follows_the_fixed_coordinate(capsys):
    # (2, 0, 0)·ν = 2 fixes ν₁ = 1, so every one of the (2H)² vectors is
    # dependent and the exact law predicts each count
    code, out, _ = run(capsys, "converge", "--alpha=2,0,0", "--J", "2", "--grid", "64,256")
    assert code == 0
    assert out.splitlines()[1:] == ["64,16384,4,4,0,0", "256,262144,4,4,0,0"]
    code, out, err = run(capsys, "converge", "--alpha=3,0,0", "--J", "1", "--grid", "64")
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1


def test_constant_positive(capsys):
    code, out, _ = run(capsys, "constant", "--alpha", "1,1,1", "--J", "9", "--positive")
    assert code == 0 and "total 9/2" in out


def test_constant_at_twenty_coefficients(capsys):
    ones = ",".join(["1"] * 20)
    code, out, _ = run(capsys, "constant", f"--alpha={ones}", "--J", "1")
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.splitlines())
    assert Fraction(fields["total"]) == Fraction(fields["c0"]) + Fraction(fields["c1"])
    assert Fraction(fields["total"]) > 0 and fields["c2"] == "0"
    assert fields["exponent"] == "18"


def test_volume_at_twenty_four_coefficients(capsys):
    ones = ",".join(["1"] * 24)
    for k in (1, 5, 12):
        code, out, _ = run(capsys, "volume", f"--alpha={ones}", "--box", "unit", "--r", str(k))
        assert code == 0
        assert out.splitlines()[0] == f"Q {orc.irwin_hall_Q_oracle(24, k)}"


def test_volume(capsys):
    code, out, _ = run(capsys, "volume", "--alpha", "1,1,1", "--box", "half", "--r", "0")
    assert code == 0 and out.splitlines()[0] == "Q 3/4"
    code, out, _ = run(capsys, "volume", "--alpha", "1,2", "--box", "unit", "--r", "3/2")
    assert code == 0 and out.startswith("Q ")


def test_converge_csv(capsys):
    code, out, _ = run(capsys, "converge", "--alpha", "1,0,0", "--J", "1", "--grid", "5,10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("grid,count,")
    assert lines[1].split(",")[1] == "100"


def test_curve(capsys):
    code, out, _ = run(
        capsys, "curve", "--variant", "2var-a", "--A", "1", "--B", "1",
        "--k", "1,1,1", "--alpha", "1,1", "--J", "2", "--H", "1",
    )
    assert code == 0 and out == "count 1\n"
    code, out, _ = run(
        capsys, "curve", "--variant", "3var", "--k", "1,1,1",
        "--alpha", "3,1,-1", "--J", "3", "--H", "5",
    )
    assert code == 0 and out == "count 0\nexcluded 11\n"
    code, out, _ = run(
        capsys, "curve", "--variant", "3var", "--A", "2", "--k", "1,1,2",
        "--alpha=-3,-1,3", "--J", "1", "--H", "20",
    )
    assert code == 0 and out == "count 3\nexcluded 1\n"


CACHE_PROBES = [
    ["count", "--alpha", "1,-2,3", "--J", "2", "--H", "12", "--by-rank"],
    ["curve", "--variant", "2var-a", "--A", "4", "--B", "-2", "--k", "1,2,2",
     "--alpha", "1,-1", "--J", "3", "--H", "300"],
    ["curve", "--variant", "2var-b", "--A", "-3", "--B", "12", "--k", "2,1,1",
     "--alpha", "2,1", "--J", "5", "--H", "300"],
    ["curve", "--variant", "3var", "--A", "2", "--k", "1,1,2", "--alpha=-3,-1,3",
     "--J", "1", "--H", "20"],
    ["curve", "--variant", "4var", "--k", "1,2,1,1", "--alpha", "1,-2,1,2", "--J", "3",
     "--H", "8"],
    ["constant", "--alpha", "1,2,3", "--J", "6"],
]


def _clear_package_caches():
    """Empty every lru_cache and private module-level dict of the package."""
    for name, mod in list(sys.modules.items()):
        if name != "multdep" and not name.startswith("multdep."):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
            elif attr.startswith("_") and not attr.startswith("__") and isinstance(obj, dict):
                obj.clear()


def test_outputs_survive_cleared_caches(capsys):
    first = [run(capsys, *argv) for argv in CACHE_PROBES]
    assert all(code == 0 and out for code, out, _ in first)
    _clear_package_caches()
    again = [run(capsys, *argv) for argv in CACHE_PROBES]
    assert again == first


def test_count_height_above_table_cap_exits_1_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "count", "--alpha", "1,1", "--J", "1", "--H", "1000000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # a one-coordinate plane builds no tables, so its height is not capped
    code, out, _ = run(capsys, "count", "--alpha", "3", "--J", "3", "--H", "2000000")
    assert code == 0 and out == "total_on_plane 1\ndependent 1\n"


def test_count_int64_overflow_exits_1(capsys):
    # α·ν wraps in int64 here; the sweep would print total_on_plane 2, not 8
    code, out, err = run(capsys, "count", "--alpha=1,6917529027641081856,6917529027641081857",
                         "--J", "0", "--H", "4")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "2^62" in err and err.count("\n") == 1


def test_psi0_fbase(capsys):
    code, out, _ = run(capsys, "psi0", "--x", "100", "--y", "6")
    assert code == 0 and out == "20\n"
    code, out, _ = run(capsys, "fbase", "--A", "36")
    assert code == 0 and out == "6\n"


def test_fatal(capsys):
    code, out, _ = run(capsys, "fatal", "--range", "16..16")
    assert code == 0 and out == "16: none\n"
    code, out, _ = run(capsys, "fatal", "--range", "17..17")
    assert code == 0 and out.startswith("17: (2,3,12)")


def test_byte_identical_stdout(capsys):
    _, out1, _ = run(capsys, "converge", "--alpha", "1,1,1", "--J", "1", "--grid", "10:30:10")
    _, out2, _ = run(capsys, "converge", "--alpha", "1,1,1", "--J", "1", "--grid", "10:30:10")
    assert out1 == out2


def test_regime_errors_exit_1(capsys):
    code, out, err = run(capsys, "constant", "--alpha", "1,1", "--J", "0")
    assert code == 1 and out == "" and err.startswith("error: ")
    code, _, err = run(capsys, "curve", "--variant", "2var-a", "--k", "1,1,1",
                       "--alpha", "1,1", "--J", "0", "--H", "5")
    assert code == 1 and "J != 0" in err
    code, _, err = run(capsys, "psi0", "--x", "0", "--y", "5")
    assert code == 1
    code, _, err = run(capsys, "fbase", "--A", "1")
    assert code == 1
    code, _, err = run(capsys, "depcheck", "--vector", "2,0,3")
    assert code == 1 and "nonzero" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "count", "--alpha", "1,1")[0] == 2  # missing required
    assert run(capsys, "depcheck", "--vector", "2,x,3")[0] == 2
    assert run(capsys, "volume", "--alpha", "1,1", "--box", "sphere", "--r", "1")[0] == 2
    assert run(capsys, "converge", "--alpha", "1,1", "--J", "1", "--grid", "bad")[0] == 2
    code, _, err = run(capsys, "converge", "--alpha", "1,1", "--J", "1", "--grid", "1:5")
    assert code == 2 and "grid must be start:stop:step or a comma list" in err
    code, _, err = run(capsys, "converge", "--alpha", "1,1", "--J", "1", "--grid", "1:x:2")
    assert code == 2 and "grid bounds must be integers" in err
    assert run(capsys, "nonsense")[0] == 2
    # a top-level error after a subcommand still names every subcommand
    code, _, err = run(capsys, "rank", "--vector", "2,4", "extra")
    assert code == 2 and err.startswith("usage: multdep [-h]")
    assert "{depcheck,rank,count,constant,volume,converge,curve,psi0,fbase,fatal}" in err


FUZZ_CORPUS = [
    ["depcheck", "--vector", "0"],
    ["depcheck", "--vector", ""],
    ["rank", "--vector", "1,0"],
    ["count", "--alpha", "1,1", "--J", "2", "--H", "0"],
    ["count", "--alpha", "", "--J", "2", "--H", "5"],
    ["constant", "--alpha", "0,0", "--J", "1"],
    ["constant", "--alpha", "1,0,0", "--J", "2"],
    ["constant", "--alpha", "1,-1,1", "--J", "2", "--positive"],
    ["volume", "--alpha", "1,0", "--box", "unit", "--r", "1"],
    ["volume", "--alpha", "1,1", "--box", "unit", "--r", "1/0"],
    ["converge", "--alpha", "1,1", "--J", "1", "--grid", "50:10:10"],
    ["curve", "--variant", "4var", "--A", "2", "--B", "1", "--k", "1,1,1,1",
     "--alpha", "1,1,1,1", "--J", "4", "--H", "2"],
    ["curve", "--variant", "2var-a", "--k", "1,1", "--alpha", "1,1", "--J", "2", "--H", "2"],
    ["psi0", "--x", "-3", "--y", "2"],
    ["fatal", "--range", "10..5"],
    ["fatal", "--range", "x..y"],
    ["fbase", "--A", "-8"],
]


@pytest.mark.parametrize("argv", FUZZ_CORPUS, ids=[" ".join(a)[:40] for a in FUZZ_CORPUS])
def test_fuzz_corpus_never_crashes(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (1, 2)
    diag = captured.err.strip()
    if code == 1:
        assert diag.startswith("error: ") and "\n" not in diag


NEGATIVE_VALUES = [
    (["count", "--J", "1", "--H", "12", "--by-rank"], "--alpha", "-2,3,-1"),
    (["rank"], "--vector", "-2,-4"),
    (["volume", "--alpha", "1,2", "--box", "half"], "--r", "-1/2"),
]


@pytest.mark.parametrize("head,opt,value", NEGATIVE_VALUES)
def test_value_with_leading_minus_as_own_token(capsys, head, opt, value):
    code1, out1, _ = run(capsys, *head, opt, value)
    code2, out2, _ = run(capsys, *head, f"{opt}={value}")
    assert code1 == code2 == 0 and out1 == out2 != ""


def test_threads_flag_removed(capsys):
    code, _, err = run(capsys, "count", "--alpha", "1,1,1", "--J", "1", "--H", "5",
                       "--threads", "2")
    assert code == 2 and "--threads" in err


def _python_O(*args):
    """Run a fresh interpreter under -O with this checkout's package."""
    src = str(Path(multdep.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_guards_and_output_under_python_O(capsys):
    bad = ("from fractions import Fraction as F\n"
           "from multdep.constants import ConstantBreakdown\n"
           "assert False, 'asserts are on'\n"
           "ConstantBreakdown(k=3, c0=F(1), c1=F(-1), c2=F(0), h_exponent=1, regime='x')\n")
    proc = _python_O("-c", bad)
    assert proc.returncode == 1
    assert "ValueError: negative constant part: c0=1, c1=-1, c2=0" in proc.stderr
    # three-coefficient planes, whose rank 0 and rank 1 are closed-form
    # strata, and four-coefficient ones whose sweep weighs orbits of
    # coordinates with equal |α|; the JSON echoes the signed α that the
    # count maps to |α|
    for argv in (["count", "--alpha", "1,1,1", "--J", "1", "--H", "30", "--by-rank"],
                 ["count", "--alpha=2,-1,3", "--J", "7", "--H", "60", "--positive", "--by-rank"],
                 ["converge", "--alpha=1,-1,3", "--J", "2", "--grid", "20,40"],
                 ["count", "--alpha=1,-1,1,2", "--J", "3", "--H", "20", "--by-rank"],
                 ["count", "--alpha=-2,1,-1,0", "--J=-3", "--H", "12", "--by-rank", "--format", "json"],
                 ["count", "--alpha=0", "--J", "0", "--H", "100000000", "--by-rank"]):
        proc = _python_O("-m", "multdep", *argv)
        code, out, _ = run(capsys, *argv)
        assert proc.returncode == code == 0 and proc.stderr == ""
        assert proc.stdout == out, argv
        if argv[-1] == "json":
            assert json.loads(out)["alpha"] == [-2, 1, -1, 0]
    # α = (0,) counts in closed form, with no table, at any height
    assert out == "total_on_plane 200000000\ndependent 2\nrank 0 2\n"


def test_converge_positive_level_grid(capsys):
    code, out, _ = run(capsys, "converge", "--alpha", "1,1,1", "--J", "0",
                       "--grid", "24,48", "--positive")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert all(r.split(",")[3] == "4.5" for r in rows)
