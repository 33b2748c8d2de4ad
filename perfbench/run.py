#!/usr/bin/env python3
"""multdep benchmark: seeded closed-loop workloads, checked outputs, metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-k3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

One client issues one op at a time in a single process (threads=1).  An op
is one ``multdep`` CLI command run in-process through ``multdep.cli.main``
with stdout captured, or one direct ``hyperplane_lattice_count`` call.  The
loop starts ops until ``--seconds`` have passed, then checks every op's
output (see checks.py) outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
other op (see spans.py) and prints the per-layer split.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.  The program
is imported from ``src/`` next to this directory; without it the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
HLC_RECOUNTS = 3

# Set-up is timed in fresh interpreters, interpreter start-up excluded (it
# does not depend on the program): import multdep and build the process-wide
# smallest-prime-factor sieve (first factorize).  Each sample is paired with
# a reference import, in a fresh interpreter of its own, that runs no
# multdep code: numpy, the program's one dependency, and a fixed set of
# standard-library modules, so it does the same kind of work (unmarshalling
# bytecode, loading shared libraries).  The host's speed moves set-up by up
# to 2.5x for minutes at a time; the ratio of a pair cancels that, while
# work the program adds to set-up moves it in full.  setup_s is the median
# ratio times SETUP_REF_S: seconds on a host where the reference import
# takes SETUP_REF_S, about its median on the 2-vCPU host the benchmark was
# built on (NOTES.md).
SETUP_SAMPLES = 15
SETUP_REF_S = 0.15
_TIMED = "import sys, time\nt0 = time.perf_counter()\n{}\nprint(repr(time.perf_counter() - t0))\n"
SETUP_CODE = _TIMED.format("sys.path.insert(0, sys.argv[1])\nimport multdep\nmultdep.arith.factorize(2)")
SETUP_REF_CODE = _TIMED.format(
    "import numpy\n"
    "import asyncio, csv, decimal, email.mime.multipart, fractions, json, sqlite3, unittest, xml.etree.ElementTree"
)

# The metrics of the result line, by name and unit: BENCHMARK.json's
# end_to_end list for an untraced run, its per_layer list for a traced one.
# Op times there are in units of the reference task's median time (see
# reference_time) and per-layer times are shares of the traced ops' summed
# latency; the seconds are printed above the result line.
SPEC = ROOT / "BENCHMARK.json"


@dataclass
class Result:
    index: int
    op: workloads.Op
    latency: float
    rc: int
    out: str
    err: str
    traced: bool
    problems: list


def run_op(op, md) -> tuple[float, int, str, str]:
    """Run one op; returns (latency, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    rc = 0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.kind == "hlc":
                p = op.params
                spec = md.latticecount.HyperplaneSpec(p["alpha"], p["J"])
                print(md.latticecount.hyperplane_lattice_count(spec, p["box"]))
            else:
                rc = md.cli.main(list(op.argv))
    except Exception:  # an op that raises is a failed op, not a failed run
        rc = -1
        err.write(traceback.format_exc())
    latency = time.perf_counter() - t0
    return latency, rc, out.getvalue(), err.getvalue()


def reference_time() -> float:
    """Seconds for a fixed task that runs no multdep code.

    The shared host's speed drifts by tens of percent between runs and
    within one.  This time, taken around each op, is the unit of the gated
    op-time metrics, so host drift cancels while a change to multdep does
    not.  The task mixes what the workloads do: Fraction and int
    arithmetic in Python and many NumPy calls on short arrays, as the
    count_S sweep makes.  It runs after every op of an untraced run,
    outside the op's latency.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i * i + 1, i + 7)
    x = 0
    for i in range(20000):
        x += i * i % 7
    a = numpy.arange(1, 81, dtype=numpy.int64)
    for k in range(300):
        m = (a % 3 == 0) & (a > 5)
        a = numpy.where(m, a // 3, a + k)
    return time.perf_counter() - t0


def import_program():
    if not (SRC / "multdep" / "__init__.py").is_file():
        raise FileNotFoundError(f"no multdep package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import multdep
    import multdep.cli

    multdep.arith.factorize(2)  # build the sieve before timing
    return multdep


def clear_caches(md) -> None:
    """Empty the program's process-wide caches, so each op starts cold as a
    CLI call does while caching within an op is still measured.

    The package keeps them as lru_cache'd functions and private module-level
    dicts (arith's power-base and radical tables).  The SPF sieve, an array,
    stays: building it is set-up, measured by setup_s.
    """
    for name in spans.LAYERS:
        for attr, obj in vars(getattr(md, name)).items():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
            elif attr.startswith("_") and not attr.startswith("__") and isinstance(obj, dict):
                obj.clear()


def measure_setup() -> list[tuple[float, float]]:
    """(set-up, reference import) seconds of SETUP_SAMPLES fresh-interpreter pairs."""
    def timed(code: str) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.strip().splitlines()[-1])

    return [(timed(SETUP_CODE), timed(SETUP_REF_CODE)) for _ in range(SETUP_SAMPLES)]


def closed_loop(workload: str, seed: int, seconds: float, md, tracer) -> tuple[list[Result], list[float]]:
    """Issue ops one at a time until ``seconds`` pass, and at least one op
    after the pinned one, which the end-to-end figures leave out.

    Returns the results and, for an untraced run, the reference times
    measured after every op.
    """
    results = []
    refs = []
    stream = workloads.stream(workload, seed)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < 2:
        op = next(stream)
        clear_caches(md)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        try:
            latency, rc, out, err = run_op(op, md)
        finally:
            if traced:
                tracer.uninstall()
        results.append(Result(i, op, latency, rc, out, err, traced, []))
        if tracer is None:
            refs.append(reference_time())
        i += 1
    return results, refs


def check_results(workload: str, seed: int, results: list[Result], md) -> None:
    """Fill in each result's problems; all work here is outside the timed loop."""
    golden = checks.load_golden(workload)
    for r in results:
        r.problems = checks.check_op(r.op, r.rc, r.out, r.err, golden)

    # stratified and plain totals agree: recount the smallest by-rank count
    # of each domain without --by-rank
    smallest = {}
    for r in results:
        p = r.op.params
        if r.op.kind == "count" and p["by_rank"] and not r.problems:
            dom = p["positive"]
            if dom not in smallest or p["H"] < smallest[dom].op.params["H"]:
                smallest[dom] = r
    for r in smallest.values():
        plain = [a for a in r.op.argv if a != "--by-rank"]
        _, rc, out, err = run_op(workloads.Op("count", tuple(plain), {}), md)
        try:
            agree = rc == 0 and checks.parse_count(out)[:2] == checks.parse_count(r.out)[:2]
        except (ValueError, IndexError):
            agree = False
        if not agree:
            r.problems.append("stratified and plain counts disagree")

    # hyperplane_lattice_count against an independent inclusion–exclusion
    hlc = [r for r in results if r.op.kind == "hlc" and not r.problems]
    rng = random.Random(f"recount:{seed}")
    for r in rng.sample(hlc, min(HLC_RECOUNTS, len(hlc))):
        p = r.op.params
        want = checks.box_count(p["alpha"], p["J"], p["box"])
        if int(r.out) != want:
            r.problems.append(f"lattice count {r.out.strip()} != recount {want}")


def solutions(r: Result) -> int:
    """Plane solutions an op counted: total_on_plane, lattice count, or plane points swept."""
    if r.op.kind == "count":
        return checks.parse_count(r.out)[0]
    if r.op.kind == "hlc":
        return int(r.out)
    if r.op.kind == "curve":
        p = r.op.params
        return checks.nonzero_plane_count(p["alpha"], p["J"], p["H"])
    return 0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ops beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(results, refs, setup, rss_kib) -> dict[str, tuple[float, str, str]]:
    """Every end-to-end figure: name -> (value, unit, note).

    The ``*_ref`` figures measure each op in units of the reference task's
    median time over the five runs of it nearest the op (see
    reference_time), which tracks the host's speed through the run.  The
    pinned op is left out: it is one op, several times the cost of any
    other, so its own noise would move the sums; its latency is printed
    by name.
    """
    rel = [r.latency / statistics.median(refs[max(0, i - 2): i + 3]) for i, r in enumerate(results)]
    rel = [x for x, r in zip(rel, results) if not r.op.pinned]
    results = [r for r in results if not r.op.pinned]
    n = len(results)
    lat = [r.latency for r in results]
    counting = [i for i, r in enumerate(results) if r.op.kind in ("count", "hlc", "curve") and not r.problems]
    sol = sum(solutions(results[i]) for i in counting)
    busy = sum(lat[i] for i in counting)
    busy_rel = sum(rel[i] for i in counting)
    tail_s, pct = tail(lat)
    tail_rel, _ = tail(rel)
    return {
        "setup_s": (SETUP_REF_S * statistics.median(t / r for t, r in setup), "s",
                    f"median of {len(setup)} set-up / reference-import ratios times {SETUP_REF_S} s"),
        "setup_raw_s": (statistics.median(t for t, _ in setup), "s", f"median of {len(setup)}, unscaled"),
        "setup_ref_s": (statistics.median(r for _, r in setup), "s", f"median of {len(setup)} reference imports"),
        "latency_p50_s": (statistics.median(lat), "s", f"n={n}"),
        "latency_tail_s": (tail_s, "s", f"p{pct:.1f}, n={n}"),
        "throughput_ops_s": (n / sum(lat), "ops/s", "per second of op time"),
        "solutions_per_s": (sol / busy if busy > 0 else 0.0, "1/s", ""),
        "reference_s": (statistics.median(refs), "s", f"median of {len(refs)}"),
        "latency_p50_ref": (statistics.median(rel), "ref", f"n={n}"),
        "latency_tail_ref": (tail_rel, "ref", f"p{pct:.1f}, n={n}"),
        "throughput_ref": (n / sum(rel), "ops/ref", ""),
        "solutions_per_ref": (sol / busy_rel if busy_rel > 0 else 0.0, "1/ref", ""),
        "peak_rss_mb": (rss_kib / 1024, "MiB", ""),
    }


def trace_overhead(results: list[Result], workload: str) -> float:
    """Traced over untraced time per cycle, minus 1, on slots seen both ways."""
    period = workloads.cycle_length(workload)
    by_slot: dict[int, tuple[list, list]] = {}
    for r in results:
        if r.op.pinned:
            continue
        traced, plain = by_slot.setdefault((r.index - 1) % period, ([], []))
        (traced if r.traced else plain).append(r.latency)
    pairs = [(statistics.mean(t), statistics.mean(p)) for t, p in by_slot.values() if t and p]
    if not pairs:
        return 0.0
    return sum(t for t, _ in pairs) / sum(p for _, p in pairs) - 1


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads(SPEC.read_text())
    try:
        md = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    setup = [] if trace else measure_setup()
    tracer = None
    if trace:
        tracer = spans.Tracer({name: getattr(md, name) for name in spans.LAYERS})
    start = time.perf_counter()
    results, refs = closed_loop(workload, seed, seconds, md, tracer)
    elapsed = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_results(workload, seed, results, md)

    failed = [r for r in results if r.problems]
    print(f"# perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
          f"client=closed-loop threads=1")
    print(f"ops {len(results)} in {elapsed:.3f} s")
    for r in failed[:10]:
        print(f"FAILED op {r.index} {r.op.key}: {'; '.join(r.problems)}", file=sys.stderr)
    print(f"fail_frac {len(failed) / len(results)} ratio ({len(failed)}/{len(results)})")
    for r in results:
        if r.op.pinned:
            print(f"pinned {r.op.key} latency_s {r.latency!r} s")

    if trace:
        traced = [r for r in results if r.traced]
        layer = tracer.layer_metrics(sum(r.latency for r in traced))
        layer["trace.overhead_frac"] = (trace_overhead(results, workload), "ratio")
        print(f"traced ops {len(traced)}")
        for name, (value, unit) in sorted(layer.items()):
            print(f"{name} {value!r} {unit}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.csv.gz")
        metrics = {m["name"]: {"value": layer[m["name"]][0], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        e2e = end_to_end(results, refs, setup, rss_kib)
        for name, (value, unit, note) in e2e.items():
            print(f"{name} {value!r} {unit}" + (f" ({note})" if note else ""))
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}

    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload != "all":
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for w in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
