"""Shared exact integer arithmetic.

Factorization (smallest-prime-factor sieve with deterministic trial division
beyond the sieve bound), radicals, the smooth-number walk and its count ψ₀,
minimal perfect power bases, vector gcds, and the signed convolution kernel
that multiplies sparse integer polynomials.  Everything here is exact;
nothing uses floats or probabilistic primality.

The sieve is this module's alone: ``factorize`` and ``factor_table`` read it
through ``_grow_spf``, the one rule for its size.  It starts at 4096 entries
on first use and doubles when a value past its end is factorized, up to
``SIEVE_LIMIT`` (10**6).  Larger values take trial division up to
``_TRIAL_LIMIT`` (10**7), so every value up to 10**14 factors; a value left
with a cofactor above 10**14 and no prime up to 10**7 raises RegimeError,
naming it (by bit length from 10**100 on).  A regrown table replaces the
old one, which is never modified.  The factorization cache is bounded, at
most ``_FACTOR_CACHE`` factorizations, and it is the only state besides the
sieve: the power-base and radical lookup tables are built for each caller
and not kept.  The radical table sieves its own primes with ``_sieve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain, cycle, repeat

import numpy as np

from .errors import RegimeError

SIEVE_LIMIT = 10**6
_SIEVE_START = 4096
_TRIAL_LIMIT = 10**7
_FACTOR_CACHE = 1 << 16

_spf_table: np.ndarray | None = None


def _sieve(size: int) -> np.ndarray:
    """Smallest-prime-factor table over [0, size); slots 0 and 1 hold 0 and 1."""
    spf = np.zeros(size, dtype=np.int32)
    for p in range(2, math.isqrt(size - 1) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    untouched = np.nonzero(spf == 0)[0]
    spf[untouched] = untouched  # primes, plus the 0 and 1 slots
    return spf


def _grow_spf(a: int) -> np.ndarray:
    """The sieve if it covers ``a`` or reached SIEVE_LIMIT, else a new one,
    doubled from it (or 4096) until it covers ``a`` or reaches SIEVE_LIMIT."""
    global _spf_table
    if _spf_table is not None and (a < _spf_table.shape[0] or _spf_table.shape[0] > SIEVE_LIMIT):
        return _spf_table
    size = _SIEVE_START if _spf_table is None else 2 * _spf_table.shape[0]
    while size <= a:
        size *= 2
    _spf_table = _sieve(min(size, SIEVE_LIMIT + 1))
    return _spf_table


@dataclass(frozen=True)
class SignedFactorization:
    """Sign together with the prime-exponent map of a nonzero integer.

    ``1`` maps to ``(+1, {})`` and ``-1`` to ``(-1, {})``.  ``value()``
    reconstructs the original integer exactly.
    """

    sign: int
    exponents: dict[int, int]

    def value(self) -> int:
        m = self.sign
        for p, e in self.exponents.items():
            m *= p**e
        return m


@lru_cache(maxsize=_FACTOR_CACHE)
def _abs_exponents(a: int) -> tuple[tuple[int, int], ...]:
    """Prime-exponent pairs of ``a`` ≥ 1, ascending primes."""
    pairs = []
    spf = _grow_spf(a)
    if a < spf.shape[0]:
        while a > 1:
            p = int(spf[a])
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            pairs.append((p, e))
    else:
        # 2,3,5-wheel trial division; deterministic for any size
        wheel = accumulate(cycle((4, 2, 4, 2, 4, 6, 2, 6)), initial=7)
        for d in chain((2, 3, 5), wheel):
            if d * d > a:
                break
            if d > _TRIAL_LIMIT:  # the primes found times the cofactor a give the value
                m = math.prod(p**e for p, e in pairs) * a
                raise RegimeError(f"factorizing {m if m < 10**100 else f'a {m.bit_length()}-bit value'} needs trial division past {_TRIAL_LIMIT}")
            if a % d == 0:
                e = 0
                while a % d == 0:
                    a //= d
                    e += 1
                pairs.append((d, e))
        if a > 1:  # no factor below d and a < d², so a is a prime ≥ d
            pairs.append((a, 1))
    return tuple(pairs)


def factor_table(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(primes, exps), each (V, w), of distinct ascending values ≥ 1: row i
    holds the primes of vals[i], ascending, and their exponents, zero-padded
    to w, the most primes of one value (at least 1).  Values up to
    ``SIEVE_LIMIT`` are peeled together, one smallest prime factor off the
    sieve per step; each larger one takes ``_abs_exponents``."""
    cut = int(np.searchsorted(vals, SIEVE_LIMIT, "right"))
    big = [_abs_exponents(v) for v in vals[cut:].tolist()]
    rest = vals[:cut].astype(np.int64)
    spf = _grow_spf(int(rest[-1]) if cut else 1)
    # each value's primes with multiplicity, ascending, between 1s (spf[1] = 1)
    peel = [np.ones(cut, dtype=np.int64)]
    while rest.max(initial=1) > 1:
        peel.append(spf[rest])
        rest = rest // peel[-1]
    peel = np.stack(peel, axis=1)
    prime = peel[:, 1:] > 1
    slot = np.cumsum(prime & (peel[:, 1:] != peel[:, :-1]), axis=1) - 1
    w = max(1, int(slot.max(initial=-1)) + 1, *map(len, big))
    i, j = np.nonzero(prime)
    exps = np.bincount(i * w + slot[i, j], minlength=cut * w).reshape(cut, w)
    primes = np.zeros((cut, w), dtype=np.int64)
    primes[i, slot[i, j]] = peel[i, j + 1]
    table = np.array([f + ((0, 0),) * (w - len(f)) for f in big], dtype=vals.dtype).reshape(-1, w, 2)
    return np.concatenate([primes, table[:, :, 0]]), np.concatenate([exps, table[:, :, 1]])


def factorize(m: int) -> SignedFactorization:
    """Exact factorization of a nonzero integer."""
    if m == 0:
        raise ValueError("zero has no factorization")
    sign = 1 if m > 0 else -1
    return SignedFactorization(sign, dict(_abs_exponents(abs(m))))


def radical(m: int) -> int:
    """Product of the distinct primes dividing |m|; radical(±1) = 1."""
    if m == 0:
        raise ValueError("zero has no radical")
    r = 1
    for p, _ in _abs_exponents(abs(m)):
        r *= p
    return r


def smooth_numbers(x: int, primes):
    """Yield each integer in [1, x] whose primes all lie in ``primes``, once
    each, in no set order; 1 (the empty product) always comes.  A depth-first
    walk: a value is extended only by primes at least its largest, so the
    cost follows the values yielded, never a scan of [1, x]."""
    ps = sorted(set(primes))
    if ps and ps[0] < 2:
        raise ValueError("smooth_numbers needs primes >= 2")
    stack = [(1, 0)] if x >= 1 else []
    while stack:
        cur, i = stack.pop()
        yield cur
        for j in range(i, len(ps)):
            v = cur * ps[j]
            if v > x:
                break
            stack.append((v, j))


def psi0(x: int, y: int) -> int:
    """Number of integers in [1, x] whose prime factors all divide y.

    Counts the ``smooth_numbers`` walk over the distinct primes of y, so it
    stays cheap even for x up to ~10**12; 1 always counts.
    """
    if x < 1 or y < 1:
        raise ValueError("psi0 requires x >= 1 and y >= 1")
    return sum(1 for _ in smooth_numbers(x, (p for p, _ in _abs_exponents(y))))


def f_base(A: int) -> int:
    """Smallest B with A = B**t for some t >= 1; equals A when A is no perfect power."""
    if A <= 1:
        raise ValueError("minimal power base requires A > 1")
    pairs = _abs_exponents(A)
    g = reduce(math.gcd, (e for _, e in pairs), 0)
    b = 1
    for p, e in pairs:
        b *= p ** (e // g)
    return b


def gcd_vec(v) -> int:
    """gcd of absolute values; the all-zero vector has gcd 0."""
    return reduce(math.gcd, (abs(int(x)) for x in v), 0)


# ── signed convolution of sparse integer polynomials ────────────────────

# Most coefficient slots a product may need (exponent range, or number of
# term combinations when smaller); one int64 array of this size is 32 MiB.
_CONV_CAP = 1 << 22


def _terms(f):
    return zip(f, repeat(1)) if isinstance(f, range) else f.items()


def _extent(f) -> tuple[int, int]:
    if isinstance(f, range):
        return min(f[0], f[-1]), max(f[0], f[-1])
    return min(f), max(f)


def _dense_product(factors) -> np.ndarray:
    """int64 coefficients of ∏ factors, index 0 holding the lowest exponent.

    Exact only while ∏ Σ|weights| < 2**63 (the caller checks).  A range
    factor of length L and step ±s is a window sum of width L along each
    residue class mod s: a running sum less the same sum L·s back, so it
    costs O(length of the product), not L slice-adds.
    """
    acc = np.ones(1, dtype=np.int64)
    for f in factors:
        flo, fhi = _extent(f)
        n = acc.shape[0]
        size = n + fhi - flo
        if isinstance(f, range):
            # a one-term range spans nothing, so its step may dwarf the
            # product; clamping keeps the rows within it (one row, no lag)
            s = min(abs(f.step), size)
            back = len(f) * s
            rows = -(-size // s)
            run = np.zeros(rows * s, dtype=np.int64)
            run[:n] = acc
            new = np.cumsum(run.reshape(rows, s), axis=0).ravel()[:size]
            if size > back:  # numpy reads overlapping operands as copies
                new[back:] -= new[: size - back]
        else:
            new = np.zeros(size, dtype=np.int64)
            for e, w in f.items():
                pos = e - flo
                if w == 1:  # no temporary for the common unit weight
                    new[pos : pos + n] += acc
                else:
                    new[pos : pos + n] += w * acc
        acc = new
    return acc


def _sparse_product(factors) -> dict[int, int]:
    """Exponent → coefficient of ∏ factors in Python ints (zeros dropped)."""
    acc = {0: 1}
    for f in factors:
        new: dict[int, int] = {}
        for s, c in acc.items():
            for e, w in _terms(f):
                k = s + e
                new[k] = new.get(k, 0) + c * w
        acc = new
    return {k: c for k, c in acc.items() if c}


def poly_product(factors, at: int | None = None):
    """Exact coefficients of the product of sparse integer polynomials.

    Each factor maps exponents (any sign) to integer weights: a dict, or a
    range whose exponents all have weight 1.  Returns {exponent: coefficient}
    over the nonzero coefficients or, given ``at``, the coefficient of z**at.

    Convolves int64 arrays when ∏ Σ|weights| < 2**62, which bounds every
    partial coefficient, and Python-int dicts otherwise.  Raises RegimeError,
    before allocating, when the product needs more than 2**22 coefficient
    slots (its exponent range, or its number of term combinations if fewer).
    """
    factors = list(factors)
    if not all(factors):
        return {} if at is None else 0
    low = high = 0
    bound = combos = 1
    for f in factors:
        flo, fhi = _extent(f)
        low += flo
        high += fhi
        bound *= len(f) if isinstance(f, range) else sum(abs(w) for w in f.values())
        combos *= len(f)
    if at is not None and not low <= at <= high:
        return 0
    slots = min(high - low + 1, combos)
    if slots > _CONV_CAP:
        raise RegimeError(f"convolution needs {slots} coefficient slots, above the cap {_CONV_CAP}")
    if bound >= 2**62 or high - low >= _CONV_CAP:
        coeffs = _sparse_product(factors)
        return coeffs if at is None else coeffs.get(at, 0)
    acc = _dense_product(factors)
    if at is not None:
        return int(acc[at - low])
    return {low + int(i): int(acc[i]) for i in np.flatnonzero(acc)}


# ── lookup tables for the counting kernels ───────────────────────────────

def power_base_table(limit: int) -> np.ndarray:
    """table[m] = f_base(m) for 2 <= m <= limit; table[1] = 1, table[0] = 0.

    Two values above 1 are multiplicatively dependent as a pair exactly when
    their table entries coincide.
    """
    # a value above √limit has no power in the table, so it is its own base
    t = np.arange(limit + 1, dtype=np.int64)
    for b in range(2, math.isqrt(limit) + 1):
        if t[b] == b:
            v = b * b
            while v <= limit:
                t[v] = b
                v *= b
    return t


def radical_table(limit: int) -> np.ndarray:
    """table[m] = radical(m) for 1 <= m <= limit (table[0] = 0)."""
    # each prime p ≤ √limit, read off the sieve, multiplies into rad and is
    # divided out of rest with every power p^k; the cofactor left in rest is
    # then 1 or one prime above √limit (two such primes would exceed limit)
    spf = _sieve(math.isqrt(limit) + 1)
    rad = np.ones(limit + 1, dtype=np.int64)
    rest = np.arange(limit + 1, dtype=np.int64)
    for p in map(int, np.flatnonzero(spf == np.arange(spf.shape[0]))[2:]):
        rad[p::p] *= p
        q = p
        while q <= limit:
            rest[q::q] //= p
            q *= p
    rad *= rest  # rest[0] = 0 keeps rad[0] = 0
    return rad
