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


# subcommand, handler (called with the parsed arguments), help, and options
# as (flag, add_argument keywords)
_COMMANDS = (
    ("depcheck", _cmd_depcheck, "decide multiplicative dependence", (
        ("--vector", {"type": _vector, "required": True}),
        ("--full-support", {"action": "store_true",
                            "help": "require a relation with every exponent nonzero"}),
        ("--witness", {"action": "store_true", "help": "print a verified relation"}),
    )),
    ("rank", lambda args: print(f"rank {relations.mult_rank(args.vector)}"), "multiplicative rank", (
        ("--vector", {"type": _vector, "required": True}),
    )),
    ("count", _cmd_count, "count dependent vectors on a hyperplane", (
        ("--alpha", {"type": _vector, "required": True}),
        ("--J", {"type": int, "required": True}),
        ("--H", {"type": int, "required": True}),
        ("--positive", {"action": "store_true"}),
        ("--by-rank", {"action": "store_true"}),
        ("--format", {"choices": ("text", "csv", "json"), "default": "text"}),
    )),
    ("constant", _cmd_constant, "exact asymptotic constant", (
        ("--alpha", {"type": _vector, "required": True}),
        ("--J", {"type": int, "required": True}),
        ("--H", {"type": int}),
        ("--positive", {"action": "store_true"}),
    )),
    ("volume", _cmd_volume, "cube slice volume (rational part Q)", (
        ("--alpha", {"type": _vector, "required": True}),
        ("--box", {"choices": ("unit", "half"), "required": True}),
        ("--r", {"type": _rational, "required": True}),
    )),
    ("converge", _cmd_converge, "convergence study against the constant", (
        ("--alpha", {"type": _vector, "required": True}),
        ("--J", {"type": int, "required": True}),
        ("--grid", {"type": _grid, "required": True}),
        ("--positive", {"action": "store_true"}),
        ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    )),
    ("curve", _cmd_curve, "count solutions of a curve system", (
        ("--variant", {"choices": latticecount.CURVE_VARIANTS, "required": True}),
        ("--A", {"type": int, "default": 1}),
        ("--B", {"type": int, "default": 1}),
        ("--k", {"type": _vector, "required": True}),
        ("--alpha", {"type": _vector, "required": True}),
        ("--J", {"type": int, "required": True}),
        ("--H", {"type": int, "required": True}),
    )),
    ("psi0", lambda args: print(arith.psi0(args.x, args.y)),
     "integers <= x with all prime factors dividing y", (
        ("--x", {"type": int, "required": True}),
        ("--y", {"type": int, "required": True}),
    )),
    ("fbase", lambda args: print(arith.f_base(args.A)), "minimal base B with A = B^t", (
        ("--A", {"type": int, "required": True}),
    )),
    ("fatal", _cmd_fatal, "per N: a triple a<b<c, a+b+c=N with a full-support relation", (
        ("--range", {"type": _span, "dest": "span", "required": True}),
    )),
)
_NAMES = tuple(name for name, *_ in _COMMANDS)


def _build_parser(cmd: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``cmd`` alone.

    Building a subcommand's parser costs more than parsing with it (argparse
    looks up message translations and the terminal size for every option)
    and leaves reference cycles for the garbage collector, so ``main``
    builds only the one it runs.  The usage line names all of them.
    """
    p = _Parser(
        prog="multdep",
        description="Multiplicative dependence of integer vectors on hyperplanes: "
        "exact decisions, counts, volumes, and asymptotic constants.",
    )
    metavar = None if cmd is None else "{" + ",".join(_NAMES) + "}"
    sub = p.add_subparsers(dest="cmd", required=True, metavar=metavar)
    for name, run, help_, options in _COMMANDS:
        if cmd in (None, name):
            s = sub.add_parser(name, help=help_)
            s.set_defaults(run=run)
            for flag, kw in options:
                s.add_argument(flag, **kw)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _NAMES else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.run(args)
    except (RegimeError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
