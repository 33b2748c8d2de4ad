#!/usr/bin/env python3
"""Record the default seed's op outputs into golden/<workload>.json.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record_golden.py

Each workload's default-seed stream runs for RECORD_SECONDS, about twice
what one benchmark run reaches.  Every op must exit 0, print nothing on
stderr and pass its invariants; its stdout is then stored under its key.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import run
import workloads

RECORD_SECONDS = 50


def record(workload: str, md) -> dict[str, str]:
    outputs = {}
    stream = workloads.stream(workload, run.DEFAULT_SEED)
    deadline = time.perf_counter() + RECORD_SECONDS
    while time.perf_counter() < deadline:
        op = next(stream)
        _, rc, out, err = run.run_op(op, md)
        problems = checks.check_op(op, rc, out, err, {})
        if problems:
            raise SystemExit(f"{workload}: {op.key}: {'; '.join(problems)}")
        outputs[op.key] = out
    return outputs


def main() -> int:
    md = run.import_program()
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    for w in workloads.WORKLOADS:
        outputs = record(w, md)
        path = checks.GOLDEN_DIR / f"{w}.json"
        path.write_text(json.dumps({"seed": run.DEFAULT_SEED, "outputs": outputs}, indent=1) + "\n")
        print(f"{w}: {len(outputs)} outputs -> {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
