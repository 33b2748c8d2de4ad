"""Traced runs: spans around every public function of the multdep modules.

The tracer replaces each module's public functions by wrappers, as module
attributes, only while an op is traced.  Calls between functions of the
package resolve through those attributes (``relations.rank_of_rows`` inside
``latticecount``, ``C0`` inside ``constants.C_total``), so the wrappers see
them.  Spans (name, start, end, parent, op id) stay in memory and are
written when the run ends; layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time

LAYERS = ("arith", "relations", "slicevol", "latticecount", "constants", "report", "cli")

# function groups whose busy time (wall time with at least one span of the
# group open) and call counts are reported
GROUPS = {
    "latticecount.count_S": ("latticecount.count_S",),
    "relations.exponent_matrix": ("relations.exponent_matrix",),
    "relations.rank_of_rows": ("relations.rank_of_rows",),
    "slicevol.Q": ("slicevol.mm_unit_cube_Q", "slicevol.mm_half_cube_Q"),
    "latticecount.hyperplane_lattice_count": ("latticecount.hyperplane_lattice_count",),
    "latticecount.count_curve_system": ("latticecount.count_curve_system",),
    "arith.tables": ("arith.power_base_table", "arith.radical_table"),
    "report.convergence_study": ("report.convergence_study",),
}


def _public_functions(mod):
    for name, f in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(f)
                and f.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(f)):
            yield name, f


class Tracer:
    """Span recorder for the package modules passed in (by layer name)."""

    def __init__(self, modules: dict):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.solutions = 0
        self.rank_tests_dependent = 0
        self.table_bytes = 0
        self._tables_seen: set[int] = set()
        self._originals = []
        self._wrappers = []
        for layer, mod in modules.items():
            for name, f in _public_functions(mod):
                qual = f"{layer}.{name}"
                self._originals.append((mod, name, f))
                self._wrappers.append((mod, name, self._wrap(qual, f)))

    def install(self, op_id: int) -> None:
        self.op = op_id
        self._tables_seen.clear()  # tables are rebuilt in every op (run.clear_caches)
        for mod, name, w in self._wrappers:
            setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, f in self._originals:
            setattr(mod, name, f)

    def _after(self, qual: str, args, result) -> None:
        if qual == "latticecount.count_S":
            self.solutions += result.total_on_plane
        elif qual == "relations.rank_of_rows":
            if result < len(args[0]):
                self.rank_tests_dependent += 1
        elif qual in GROUPS["arith.tables"]:
            if id(result) not in self._tables_seen:
                self._tables_seen.add(id(result))
                self.table_bytes += result.nbytes

    def _wrap(self, qual: str, f):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counted = qual in ("latticecount.count_S", "relations.rank_of_rows") or \
            qual in GROUPS["arith.tables"]

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = f(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (qual, t0, t1, parent, self.op)
            if counted:
                self._after(qual, args, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Spans as gzip'd CSV: op,span,parent,name,start_s,end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for sid, (qual, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{sid},{parent},{qual},{t0!r},{t1!r}\n")

    def layer_metrics(self, traced_op_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures: absolute seconds and counts, plus shares.

        ``traced_op_s`` is the summed latency of the traced ops, the base of
        every ``*_share``.  Self time of a span is its duration minus its
        child spans; busy time of a group counts only spans with no ancestor
        in the group.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for qual, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        self_by_name: dict[str, float] = {}
        group_of = {q: g for g, quals in GROUPS.items() for q in quals}
        busy = dict.fromkeys(GROUPS, 0.0)
        calls = dict.fromkeys(GROUPS, 0)
        in_group: list = [None] * len(spans)  # groups open around each span
        under_count = [False] * len(spans)
        em_under_count = 0
        for sid, (qual, t0, t1, parent, _) in enumerate(spans):
            dur = t1 - t0
            own = dur - child[sid]
            self_by_layer[qual.split(".", 1)[0]] += own
            self_by_name[qual] = self_by_name.get(qual, 0.0) + own
            outer = in_group[parent] if parent >= 0 else frozenset()
            g = group_of.get(qual)
            if g is not None:
                calls[g] += 1
                if g not in outer:
                    busy[g] += dur
                    outer = outer | {g}
            in_group[sid] = outer
            under = parent >= 0 and (under_count[parent] or spans[parent][0] == "latticecount.count_S")
            under_count[sid] = under
            if under and qual == "relations.exponent_matrix":
                em_under_count += 1

        def share(x: float) -> float:
            return x / traced_op_s if traced_op_s > 0 else 0.0

        rank_calls = calls["relations.rank_of_rows"]
        out: dict[str, tuple[float, str]] = {
            "latticecount.count_S.calls": (calls["latticecount.count_S"], "count"),
            "latticecount.count_S.self_s": (self_by_name.get("latticecount.count_S", 0.0), "s"),
            "latticecount.solutions": (self.solutions, "count"),
            "latticecount.deep_test_frac": (em_under_count / self.solutions if self.solutions else 0.0, "ratio"),
            "relations.exponent_matrix.calls": (calls["relations.exponent_matrix"], "count"),
            "relations.exponent_matrix.busy_s": (busy["relations.exponent_matrix"], "s"),
            "relations.rank_of_rows.calls": (rank_calls, "count"),
            "relations.rank_of_rows.busy_s": (busy["relations.rank_of_rows"], "s"),
            "relations.rank_of_rows.dependent_frac": (self.rank_tests_dependent / rank_calls if rank_calls else 0.0, "ratio"),
            "slicevol.Q.calls": (calls["slicevol.Q"], "count"),
            "slicevol.Q.busy_s": (busy["slicevol.Q"], "s"),
            "constants.self_s": (self_by_layer["constants"], "s"),
            "latticecount.hyperplane_lattice_count.busy_s": (busy["latticecount.hyperplane_lattice_count"], "s"),
            "latticecount.count_curve_system.self_s": (self_by_name.get("latticecount.count_curve_system", 0.0), "s"),
            "arith.tables.calls": (calls["arith.tables"], "count"),
            "arith.tables.busy_s": (busy["arith.tables"], "s"),
            "arith.tables.bytes": (self.table_bytes, "bytes"),
            "cli.self_s": (self_by_layer["cli"], "s"),
            "report.convergence_study.self_s": (self_by_name.get("report.convergence_study", 0.0), "s"),
        }
        for layer in LAYERS:
            out.setdefault(f"{layer}.self_s", (self_by_layer[layer], "s"))
        for name, (value, unit) in list(out.items()):
            if unit == "s":
                stem = name[: -len("_s")]
                out[f"{stem}_share"] = (share(value), "ratio")
        out["trace.spans"] = (len(spans), "count")
        return out
