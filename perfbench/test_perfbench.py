"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _keys(workload, seed, n):
    return "\n".join(op.key for op in itertools.islice(workloads.stream(workload, seed), n)).encode()


def test_same_seed_gives_identical_op_lists():
    for w in workloads.WORKLOADS:
        n = 1 + 3 * workloads.cycle_length(w)
        assert _keys(w, 7, n) == _keys(w, 7, n)


def test_other_seed_gives_other_op_lists():
    for w in workloads.WORKLOADS:
        n = 1 + 3 * workloads.cycle_length(w)
        assert _keys(w, 7, n) != _keys(w, 8, n)


def test_ops_never_repeat_and_pinned_op_leads_every_seed():
    for w in workloads.WORKLOADS:
        firsts = set()
        for seed in range(4):
            keys = _keys(w, seed, 400).decode().split("\n")
            assert len(set(keys)) == len(keys)
            firsts.add(keys[0])
        assert len(firsts) == 1


def test_every_generated_op_exits_zero_and_passes_its_checks():
    md = run.import_program()
    for w in workloads.WORKLOADS:
        golden = checks.load_golden(w)
        for seed in (1, 2):
            ops = itertools.islice(workloads.stream(w, seed), 1, 1 + workloads.cycle_length(w))
            for op in ops:
                _, rc, out, err = run.run_op(op, md)
                assert checks.check_op(op, rc, out, err, golden) == [], op.key


def test_box_count_matches_brute_force():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        alpha = [rng.randint(-3, 3) for _ in range(n)]
        box = [tuple(sorted((rng.randint(-4, 4), rng.randint(-4, 4)))) for _ in range(n)]
        J = rng.randint(-6, 6)
        brute = sum(
            1 for v in itertools.product(*[range(lo, hi + 1) for lo, hi in box])
            if sum(a * x for a, x in zip(alpha, v)) == J
        )
        assert checks.box_count(alpha, J, box) == brute, (alpha, J, box)
        nonzero = sum(
            1 for v in itertools.product(*[[x for x in range(-3, 4) if x] for _ in alpha])
            if sum(a * x for a, x in zip(alpha, v)) == J
        )
        assert checks.nonzero_plane_count(alpha, J, 3) == nonzero


def test_tracer_sees_internal_calls_and_restores_modules():
    md = run.import_program()
    mods = {name: getattr(md, name) for name in spans.LAYERS}
    before = {name: vars(m).copy() for name, m in mods.items()}
    tracer = spans.Tracer(mods)
    op = workloads.count_op((1, 2, 3), 1, 40, by_rank=True)
    tracer.install(0)
    try:
        latency, rc, out, _ = run.run_op(op, md)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert {name: vars(m) for name, m in mods.items()} == before
    layer = tracer.layer_metrics(latency)
    assert layer["latticecount.count_S.calls"][0] == 1
    assert layer["latticecount.solutions"][0] == checks.parse_count(out)[0]
    assert layer["arith.tables.calls"][0] == 2
    assert layer["relations.rank_of_rows.calls"][0] > 0
    assert 0 < layer["latticecount.count_S.self_share"][0] < 1



def test_clear_caches_empties_caches_and_keeps_the_sieve():
    md = run.import_program()
    _, rc, _, _ = run.run_op(workloads.count_op((1, 2, 3), 1, 40), md)
    assert rc == 0 and md.arith._base_tables
    run.clear_caches(md)
    assert md.arith._abs_exponents.cache_info().currsize == 0
    assert not md.arith._base_tables and not md.arith._radical_tables
    assert md.arith._spf_table is not None
    assert run.run_op(workloads.count_op((1, 2, 3), 1, 40), md)[1] == 0
