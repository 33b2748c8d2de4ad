"""Seeded operation streams for the four benchmark workloads.

Each workload is one pinned baseline op, then a fixed cycle of operation
*slots* repeated without end.  A slot fixes what sets an op's cost (command,
dimension, coefficient magnitudes and sweep order, the signs that matter,
the height H up to a 2% jitter); the seed picks the rest (free signs, the
pivot's position, the level J, the jitter, |A| and |B|, the level of a
slice).  So every seed runs the same cost profile in the same order, which
keeps run medians comparable across seeds, while no two ops of one stream
are equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("sweep-k3", "sweep-k4", "slices", "curves")


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``argv`` is a ``multdep`` command line; an op with ``kind == "hlc"`` has
    no subcommand and calls ``latticecount.hyperplane_lattice_count``
    directly with ``params["alpha"]``, ``params["J"]`` and ``params["box"]``.
    """

    kind: str
    argv: tuple[str, ...]
    params: dict = field(compare=False)
    pinned: bool = False

    @property
    def key(self) -> str:
        if self.kind == "hlc":
            p = self.params
            box = ";".join(f"{lo}..{hi}" for lo, hi in p["box"])
            return f"hyperplane_lattice_count alpha={_vec(p['alpha'])} J={p['J']} box={box}"
        return "multdep " + " ".join(self.argv)


def _vec(v) -> str:
    return ",".join(str(x) for x in v)


# Vectors are passed as --alpha=-2,3,-1: with a separate token argparse
# reads a leading minus as an option and exits 2 (see NOTES.md).


def count_op(alpha, J, H, positive=False, by_rank=False, pinned=False) -> Op:
    argv = ["count", f"--alpha={_vec(alpha)}", "--J", str(J), "--H", str(H)]
    if positive:
        argv.append("--positive")
    if by_rank:
        argv.append("--by-rank")
    params = {"alpha": tuple(alpha), "J": J, "H": H, "positive": positive, "by_rank": by_rank}
    return Op("count", tuple(argv), params, pinned)


def converge_op(alpha, J, grid) -> Op:
    argv = ("converge", f"--alpha={_vec(alpha)}", "--J", str(J), "--grid", _vec(grid))
    return Op("converge", argv, {"alpha": tuple(alpha), "J": J, "grid": tuple(grid)})


def constant_op(alpha, J, positive=False, pinned=False) -> Op:
    argv = ["constant", f"--alpha={_vec(alpha)}", "--J", str(J)]
    if positive:
        argv.append("--positive")
    return Op("constant", tuple(argv), {"alpha": tuple(alpha), "J": J, "positive": positive}, pinned)


def volume_op(alpha, box, r) -> Op:
    argv = ("volume", f"--alpha={_vec(alpha)}", "--box", box, f"--r={r}")
    return Op("volume", argv, {"alpha": tuple(alpha), "box": box, "r": Fraction(r)})


def hlc_op(alpha, J, H) -> Op:
    box = tuple((-H, H) for _ in alpha)
    return Op("hlc", (), {"alpha": tuple(alpha), "J": J, "box": box})


def curve_op(variant, A, B, k, alpha, J, H, pinned=False) -> Op:
    argv = ("curve", "--variant", variant, "--A", str(A), "--B", str(B),
            f"--k={_vec(k)}", f"--alpha={_vec(alpha)}", "--J", str(J), "--H", str(H))
    params = {"variant": variant, "A": A, "B": B, "k": tuple(k),
              "alpha": tuple(alpha), "J": J, "H": H}
    return Op("curve", argv, params, pinned)


# ── seeded choices ───────────────────────────────────────────────────────


def _J(rng: random.Random, wide: int) -> int:
    """A nonzero level; |J| <= 12, widened only when a slot runs out of new ops."""
    top = 12 * wide
    return rng.choice([j for j in range(-top, top + 1) if j != 0])


def _H(rng: random.Random, base: int) -> int:
    return base + rng.randrange(base // 50 + 1)


def _signed(rng: random.Random, mags) -> tuple[int, ...]:
    """The magnitudes in order, each with a random sign."""
    return tuple(a if rng.random() < 0.5 else -a for a in mags)


def _shuffled(rng: random.Random, coeffs) -> tuple[int, ...]:
    m = list(coeffs)
    rng.shuffle(m)
    return tuple(m)


def _plane(rng: random.Random, coeffs, signed: bool) -> tuple[int, ...]:
    """Coefficients for a count: ``coeffs`` lists the swept coordinates in
    sweep order, then the solved (pivot) one, which has the strictly largest
    magnitude.  The seed inserts the pivot anywhere, keeping the sweep order
    (which sets the cost through divisibility by the pivot), and flips signs
    when ``signed``.  Both leave the count unchanged in the signed domain;
    in the positive domain the slot's signs are kept.
    """
    if signed:
        coeffs = _signed(rng, [abs(c) for c in coeffs])
    free, pivot = list(coeffs[:-1]), coeffs[-1]
    free.insert(rng.randrange(len(coeffs)), pivot)
    return tuple(free)


# ── workloads: pinned op plus a cycle of slots ───────────────────────────
#
# Cycle lengths are odd, so the traced run (which traces every other op)
# traces each slot in alternate cycles.

# sweep-k3: 3-coefficient count_S sweeps, where the rank-0/1 classify pass
# dominates.  |alpha_i| <= 4, gcd 1, so every J is in regime.
_K3_PINNED = count_op((1, 1, 1), 1, 2000, pinned=True)

_K3_SLOTS = (
    lambda rng, wide: count_op(_plane(rng, (1, 2, 3), True), _J(rng, wide), _H(rng, 200)),
    lambda rng, wide: count_op(_plane(rng, (1, 1, 2), True), _J(rng, wide), _H(rng, 400), by_rank=True),
    lambda rng, wide: count_op(_plane(rng, (1, -3, 4), False), _J(rng, wide), _H(rng, 400), positive=True),
    lambda rng, wide: converge_op(_plane(rng, (1, 1, 3), True), _J(rng, wide), [_H(rng, 150), _H(rng, 225), _H(rng, 300)]),
    lambda rng, wide: count_op(_plane(rng, (2, 3, 4), True), _J(rng, wide), _H(rng, 750)),
    lambda rng, wide: count_op(_plane(rng, (2, -1, 3), False), _J(rng, wide), _H(rng, 1000), positive=True, by_rank=True),
    lambda rng, wide: count_op(_plane(rng, (1, 2, 4), True), _J(rng, wide), _H(rng, 150), by_rank=True),
)


# sweep-k4: 4-coefficient stratified counts with large rank >= 2 strata and
# many deep exponent-matrix rank tests.
_K4_PINNED = count_op((1, 1, 1, 1), 1, 60, by_rank=True, pinned=True)

_K4_SLOTS = (
    lambda rng, wide: count_op(_plane(rng, (1, 1, 2, 3), True), _J(rng, wide), _H(rng, 19), by_rank=True),
    lambda rng, wide: count_op(_plane(rng, (1, 2, 2, 3), True), _J(rng, wide), _H(rng, 29), by_rank=True),
    lambda rng, wide: count_op(_plane(rng, (1, -1, 2, -3), False), _J(rng, wide), _H(rng, 32), positive=True, by_rank=True),
    lambda rng, wide: count_op(_plane(rng, (1, 1, 1, 2), True), _J(rng, wide), _H(rng, 32), by_rank=True),
    lambda rng, wide: count_op(_plane(rng, (1, -2, -3, 4), False), _J(rng, wide), _H(rng, 45), positive=True, by_rank=True),
)


# slices: exact constants and slice volumes (2^n vertex walks in slicevol)
# plus the convolution DP of hyperplane_lattice_count; no sweep runs.
_SLICES_PINNED = constant_op((1,) * 12, 1, pinned=True)


def _volume(rng, mags, box, den):
    """A slice volume at a level within 1 of the box's middle level.

    How many vertices the signed sum keeps, and so its cost, depends on where
    r sits in the range of alpha·c, and the Fraction sizes on r's
    denominator, so a slot fixes both up to that offset."""
    alpha = _signed(rng, mags)
    middle = Fraction(sum(alpha), 2) if box == "unit" else Fraction(0)
    num = rng.choice([x for x in range(-den, den + 1) if x % den])
    return volume_op(alpha, box, middle + Fraction(num, den))


_SLICES_SLOTS = (
    lambda rng, wide: hlc_op(_signed(rng, (1, 2, 3, 1)), _J(rng, wide), _H(rng, 100)),
    lambda rng, wide: constant_op(_signed(rng, (1, 1, 2, 1, 3, 1)), _J(rng, wide)),
    lambda rng, wide: _volume(rng, (1, 2, 1, 3, 1, 2, 1, 1, 2, 3, 1, 1), "half", 3),
    lambda rng, wide: hlc_op(_signed(rng, (1, 2, 1, 3, 1, 2)), _J(rng, wide), _H(rng, 60)),
    lambda rng, wide: constant_op(_shuffled(rng, (1, 1, 2, 1, 3, -1, -2, -1, -1, -2)), _J(rng, wide), positive=True),
    lambda rng, wide: _volume(rng, (1, 2, 1, 3, 1, 2, 1, 1, 2, 3, 1, 1, 2, 1, 1), "unit", 5),
    lambda rng, wide: hlc_op(_signed(rng, (1, 2, 1, 3, 1, 2, 1, 1)), _J(rng, wide), _H(rng, 40)),
    lambda rng, wide: constant_op(_signed(rng, (1, 1, 2, 1, 3, 1, 2, 1, 1, 2)), _J(rng, wide)),
    lambda rng, wide: _volume(rng, (1, 2, 1, 3, 1, 2, 1, 1, 2, 3, 1, 1, 2, 1, 1, 2), "half", 2),
)


# curves: pure-Python factorization loops of count_curve_system.
_CURVES_PINNED = curve_op("4var", 1, 1, (1, 1, 1, 1), (1, 1, 1, 1), 1, 40, pinned=True)


def _curve(rng, wide, variant, k, sign_AB, alpha, H):
    """A curve system.  The exponents k, alpha and the sign of A·B set how
    many points pass the count's sign and divisibility filters, so a slot
    fixes them; the seed picks |A|, |B|, J and H."""
    if variant == "4var":
        A = B = 1
    else:
        A = rng.choice((1, 2, 3)) * rng.choice((1, -1))
        B = rng.choice((1, 2, 3)) * (1 if A > 0 else -1) * sign_AB
    return curve_op(variant, A, B, k, alpha, _J(rng, wide), _H(rng, H))


_CURVES_SLOTS = (
    lambda rng, wide: _curve(rng, wide, "2var-a", (1, 2, 1), 1, (1, -2), 20000),
    lambda rng, wide: _curve(rng, wide, "3var", (1, 1, 2), -1, (1, -1, 2), 90),
    lambda rng, wide: _curve(rng, wide, "4var", (1, 2, 1, 1), 1, (1, -2, 1, 2), 16),
    lambda rng, wide: _curve(rng, wide, "2var-b", (2, 1, 1), 1, (1, 1), 30000),
    lambda rng, wide: _curve(rng, wide, "3var", (2, 1, 3), 1, (-1, 2, 3), 140),
    lambda rng, wide: _curve(rng, wide, "4var", (1, 1, 3, 1), 1, (1, 1, -1, 2), 28),
    lambda rng, wide: _curve(rng, wide, "2var-a", (3, 1, 1), -1, (3, -1), 40000),
)


_SPECS = {
    "sweep-k3": (_K3_PINNED, _K3_SLOTS),
    "sweep-k4": (_K4_PINNED, _K4_SLOTS),
    "slices": (_SLICES_PINNED, _SLICES_SLOTS),
    "curves": (_CURVES_PINNED, _CURVES_SLOTS),
}


def cycle_length(workload: str) -> int:
    return len(_SPECS[workload][1])


def stream(workload: str, seed: int):
    """Endless op stream: the pinned op, then cycles of distinct seeded ops."""
    pinned, slots = _SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen = {pinned.key}
    yield pinned
    while True:
        for slot in slots:
            # a slot draws again until its op is new, so no op repeats
            for attempt in range(1000):
                op = slot(rng, 1 + attempt // 100)
                if op.key not in seen:
                    break
            else:
                raise RuntimeError(f"{workload}: cannot draw a new op")
            seen.add(op.key)
            yield op
