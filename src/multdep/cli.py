"""Command-line front end.

Subcommands expose the library operations with reproducible, scriptable
output: identical invocations print identical bytes.  Exit codes: 0 success,
2 usage error, 1 regime/domain error (one-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import arith, constants, latticecount, relations, report, slicevol
from .errors import RegimeError
from .latticecount import CurveSystemSpec, DomainSpec, HyperplaneSpec


def _vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 3/4, got {text!r}")


def _grid(text: str) -> list[int]:
    """start:stop:step, or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("grid must be start:stop:step or a comma list")
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError("grid bounds must be integers")
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("grid needs stop >= start and step > 0")
        return list(range(start, stop + 1, step))
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a grid, got {text!r}")


def _span(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a range like 10..100, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reads a token such as -2,3,-1 or -1/2 as a value, not as an option.

    argparse takes a token after an option for a value only when it looks
    like a plain negative number; vectors and rationals may start with '-'
    too.  No option string of this CLI looks like one, so nothing else
    changes.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d[-\d,./]*$")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="multdep",
        description="Multiplicative dependence of integer vectors on hyperplanes: "
        "exact decisions, counts, volumes, and asymptotic constants.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("depcheck", help="decide multiplicative dependence")
    d.add_argument("--vector", type=_vector, required=True)
    d.add_argument("--full-support", action="store_true",
                   help="require a relation with every exponent nonzero")
    d.add_argument("--witness", action="store_true", help="print a verified relation")

    r = sub.add_parser("rank", help="multiplicative rank")
    r.add_argument("--vector", type=_vector, required=True)

    c = sub.add_parser("count", help="count dependent vectors on a hyperplane")
    c.add_argument("--alpha", type=_vector, required=True)
    c.add_argument("--J", type=int, required=True)
    c.add_argument("--H", type=int, required=True)
    c.add_argument("--positive", action="store_true")
    c.add_argument("--by-rank", action="store_true")
    c.add_argument("--format", choices=("text", "csv", "json"), default="text")

    k = sub.add_parser("constant", help="exact asymptotic constant")
    k.add_argument("--alpha", type=_vector, required=True)
    k.add_argument("--J", type=int, required=True)
    k.add_argument("--H", type=int)
    k.add_argument("--positive", action="store_true")

    v = sub.add_parser("volume", help="cube slice volume (rational part Q)")
    v.add_argument("--alpha", type=_vector, required=True)
    v.add_argument("--box", choices=("unit", "half"), required=True)
    v.add_argument("--r", type=_rational, required=True)

    g = sub.add_parser("converge", help="convergence study against the constant")
    g.add_argument("--alpha", type=_vector, required=True)
    g.add_argument("--J", type=int, required=True)
    g.add_argument("--grid", type=_grid, required=True)
    g.add_argument("--positive", action="store_true")
    g.add_argument("--format", choices=("csv", "json"), default="csv")

    u = sub.add_parser("curve", help="count solutions of a curve system")
    u.add_argument("--variant", choices=latticecount.CURVE_VARIANTS, required=True)
    u.add_argument("--A", type=int, default=1)
    u.add_argument("--B", type=int, default=1)
    u.add_argument("--k", type=_vector, required=True)
    u.add_argument("--alpha", type=_vector, required=True)
    u.add_argument("--J", type=int, required=True)
    u.add_argument("--H", type=int, required=True)

    s = sub.add_parser("psi0", help="integers <= x with all prime factors dividing y")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--y", type=int, required=True)

    f = sub.add_parser("fbase", help="minimal base B with A = B^t")
    f.add_argument("--A", type=int, required=True)

    t = sub.add_parser("fatal", help="per N: a triple a<b<c, a+b+c=N with a full-support relation")
    t.add_argument("--range", type=_span, required=True, dest="span")

    return p


def _cmd_depcheck(args) -> None:
    if args.full_support:
        k = relations.full_support_relation(args.vector)
        if k is None:
            print("no full-support relation")
        elif args.witness:
            print(f"full-support dependent k=({','.join(str(e) for e in k)})")
        else:
            print("full-support dependent")
        return
    if relations.is_dependent(args.vector):
        if args.witness:
            k = relations.relation(args.vector)
            print(f"dependent k=({','.join(str(e) for e in k)})")
        else:
            print("dependent")
    else:
        print("independent")


def _cmd_count(args) -> None:
    spec = HyperplaneSpec(args.alpha, args.J)
    dom = DomainSpec("positive" if args.positive else "signed", args.H)
    rep = latticecount.count_S(spec, dom)
    ranks = sorted(rep.by_rank) if args.by_rank else []
    if args.format == "text":
        if rep.degenerate:
            print("degenerate: all-zero alpha with J != 0 has no solutions")
            return
        print(f"total_on_plane {rep.total_on_plane}")
        print(f"dependent {rep.dependent_total}")
        for r in ranks:
            print(f"rank {r} {rep.by_rank[r]}")
    elif args.format == "csv":
        cols = ["H", "J", "total_on_plane", "dependent"] + [f"rank{r}" for r in ranks]
        vals = [rep.H, rep.J, rep.total_on_plane, rep.dependent_total]
        vals += [rep.by_rank[r] for r in ranks]
        print(",".join(cols))
        print(",".join(str(x) for x in vals))
    else:
        import json

        print(json.dumps({
            "alpha": list(rep.alpha), "J": rep.J, "H": rep.H, "domain": rep.domain,
            "total_on_plane": rep.total_on_plane, "dependent": rep.dependent_total,
            "by_rank": {str(r): rep.by_rank[r] for r in ranks},
            "degenerate": rep.degenerate,
        }, indent=2))


def _cmd_constant(args) -> None:
    if args.positive:
        bd = constants.C_positive(args.alpha, args.J)
    else:
        bd = constants.C_total(args.alpha, args.J, H=args.H)
    print(f"k {bd.k}")
    print(f"c0 {bd.c0}")
    print(f"c1 {bd.c1}")
    print(f"c2 {bd.c2}")
    print(f"total {bd.total}")
    print(f"exponent {bd.h_exponent}")
    print(f"regime {bd.regime}")


def _cmd_volume(args) -> None:
    if args.box == "unit":
        q = slicevol.mm_unit_cube_Q(args.alpha, args.r)
    else:
        q = slicevol.mm_half_cube_Q(args.alpha, args.r)
    norm_sq = sum(a * a for a in args.alpha)
    print(f"Q {q}")
    print(f"volume {report.render(float(q) * norm_sq**0.5)}")


def _cmd_converge(args) -> None:
    rows = report.convergence_study(
        args.alpha, args.J, args.grid,
        domain="positive" if args.positive else "signed",
    )
    out = report.rows_to_csv(rows) if args.format == "csv" else report.rows_to_json(rows)
    sys.stdout.write(out)


def _cmd_curve(args) -> None:
    sysspec = CurveSystemSpec(args.variant, args.A, args.B, tuple(args.k),
                              tuple(args.alpha), args.J)
    count, excluded = latticecount.curve_counts(sysspec, args.H)
    print(f"count {count}")
    if args.variant == "3var":
        print(f"excluded {excluded}")


def _cmd_fatal(args) -> None:
    lo, hi = args.span
    if lo < 1 or hi < lo:
        raise ValueError("fatal range needs 1 <= lo <= hi")
    for N in range(lo, hi + 1):
        hit = relations.fatal_triple(N)
        if hit:
            a, b, c, k = hit
            print(f"{N}: ({a},{b},{c}) k=({','.join(str(e) for e in k)})")
        else:
            print(f"{N}: none")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.cmd == "depcheck":
            _cmd_depcheck(args)
        elif args.cmd == "rank":
            print(f"rank {relations.mult_rank(args.vector)}")
        elif args.cmd == "count":
            _cmd_count(args)
        elif args.cmd == "constant":
            _cmd_constant(args)
        elif args.cmd == "volume":
            _cmd_volume(args)
        elif args.cmd == "converge":
            _cmd_converge(args)
        elif args.cmd == "curve":
            _cmd_curve(args)
        elif args.cmd == "psi0":
            print(arith.psi0(args.x, args.y))
        elif args.cmd == "fbase":
            print(arith.f_base(args.A))
        elif args.cmd == "fatal":
            _cmd_fatal(args)
    except (RegimeError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
