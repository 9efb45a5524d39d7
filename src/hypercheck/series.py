"""The truncated series F(x; N) in exact and modular engines, plus the four
quadratic-character families and their central-binomial reformulation.

The paper studies one series,

    F(x; N) = sum_{k<N} t_k(x),   t_k(x) = (x)_k (1-x)_k / (k!)^2,

and a `SeriesSpec` is the pair (x, N); ``two_f_one(x, N)`` builds it.
Every suite sums F(a; N) with a = x or a = -x, for x with a denominator
prime to p.  For such x every term is a p-adic integer, because
t_k(x) = C(x+k-1, k) C(k-x, k) and a binomial C(Y, k) maps Z_p into Z_p;
so every window sum is p-integral, and both engines treat a sum that is
not as an engine fault (`InternalError`), not as a domain error.  The
term ratio (x+k)(1-x+k) / (k+1)^2 has no pole, and a zero factor, which
happens only when x is an integer, ends the sum: every later term is 0.

The modular engine walks the term recurrence with valuation-tracked
units, once per series and p^e, resuming from checkpoints at the stops
already asked for (see ``_kernel``).  The exact engine is the independent
oracle: it evaluates a window as exact integers by binary splitting over
the term ratio and reduces the result once mod p^e
(`window_residue_exact`).  `window_sum_exact` sums a window term by term
as one exact rational, for the tests and the conjecture oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import _kernel
from .errors import InternalError, NonUnitDenominator
from .padic import (
    PadicInput,
    PrimePower,
    Residue,
    as_fraction,
    residue_from_rational,
    split_p_power,
)


@dataclass(frozen=True)
class SeriesSpec:
    """F(x; terms): the sum of t_k(x) over 0 <= k < terms."""

    x: Fraction
    terms: int

    def __post_init__(self):
        if self.terms < 0:
            raise ValueError("terms must be >= 0")


def two_f_one(x: PadicInput, terms: int) -> SeriesSpec:
    """F(x; terms), the truncated 2F1(x, 1-x; 1; 1) sum."""
    return SeriesSpec(as_fraction(x), terms)


def _check_x(spec: SeriesSpec, p: int) -> None:
    if spec.x.denominator % p == 0:
        raise NonUnitDenominator(f"series parameter {spec.x} has denominator divisible by {p}")


# --- exact engine ----------------------------------------------------------


def window_sum_exact(spec: SeriesSpec, k_start: int, k_stop: int) -> Fraction:
    """Sum of terms k_start <= k < k_stop as one exact rational.

    The running term and the accumulator share a common denominator that
    only ever gets multiplied, so no per-step normalization happens; the
    single Fraction reduction is at the end.
    """
    if k_stop <= k_start:
        return Fraction(0)
    xn, xd = spec.x.numerator, spec.x.denominator
    yn = xd - xn  # 1 - x = yn / xd
    acc = 0  # acc / den
    term = 1  # term / den
    den = 1
    for k in range(k_stop):
        if k >= k_start:
            acc += term
        if k + 1 >= k_stop:
            break
        num_step = (xn + k * xd) * (yn + k * xd)
        if num_step == 0:
            break  # later terms are all exactly zero
        den_step = (xd * (k + 1)) ** 2
        term *= num_step
        acc *= den_step
        den *= den_step
    return Fraction(acc, den)


def truncated_series_exact(spec: SeriesSpec) -> Fraction:
    return window_sum_exact(spec, 0, spec.terms)


# Below this many ratio factors, `_split` folds them sequentially.
_LEAF = 16


def _ratio_factors(x: Fraction, stop: int) -> tuple[list[int], list[int]]:
    """Integer numerators and denominators of t_{k+1} / t_k for 0 <= k < stop."""
    xn, xd = x.numerator, x.denominator
    yn = xd - xn
    ks = range(stop)
    return [(xn + k * xd) * (yn + k * xd) for k in ks], [(xd * (k + 1)) ** 2 for k in ks]


def _split(
    nums: list[int], dens: list[int], lo: int, hi: int, need_p: bool = True
) -> tuple[int | None, int, int]:
    """Binary splitting over the ratio factors lo <= i < hi.

    Returns (P, Q, T): P and Q are the products of the numerators and of
    the denominators, and T / Q is the sum over lo < j <= hi of
    prod_{lo <= i < j} nums[i] / dens[i], so 1 + T / Q sums the terms
    from lo to hi relative to term lo.  Two halves merge as
    (P1 P2, Q1 Q2, T1 Q2 + P1 T2), so no right half needs its P, and
    without ``need_p`` the largest products are skipped and P is None.
    """
    if hi - lo <= _LEAF:
        p, q, t = 1, 1, 0
        for i in range(lo, hi):
            t = t * dens[i] + p * nums[i]
            p *= nums[i]
            q *= dens[i]
        return p, q, t
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(nums, dens, lo, mid)
    p2, q2, t2 = _split(nums, dens, mid, hi, need_p)
    return p1 * p2 if need_p else None, q1 * q2, t1 * q2 + p1 * t2


def window_residue_exact(
    spec: SeriesSpec, k_start: int, k_stop: int, ctx: PrimePower
) -> Residue:
    """Sum of terms k_start <= k < k_stop, evaluated exactly, reduced mod p^e.

    With the ratio factors of the steps below k_stop - 1, the sum is
    P0 (Q1 + T1) / (Q0 Q1): P0 / Q0 is term k_start, and (Q1, T1) come
    from binary splitting over the window, both by `_split` (Haible and
    Papanikolaou, "Fast multiprecision evaluation of series of rational
    numbers", ANTS-III, 1998).  The p-power of Q0 Q1 is split off once, the
    numerator is taken mod p^(v+e) once, and the p-free part of the
    denominator is inverted once.  For an integer x a zero factor zeroes
    every later product exactly, so the window needs no early end.  Agrees
    with ``residue_from_rational(window_sum_exact(...))``.
    """
    _check_x(spec, ctx.p)
    if k_stop <= k_start:
        return Residue(0, ctx)
    nums, dens = _ratio_factors(spec.x, k_stop - 1)
    p0, q0, _ = _split(nums, dens, 0, k_start)
    _, q1, t1 = _split(nums, dens, k_start, k_stop - 1, need_p=False)
    p, m = ctx.p, ctx.modulus
    v0, u0 = split_p_power(q0, p)
    v1, u1 = split_p_power(q1, p)
    pv = p ** (v0 + v1)
    wide = pv * m
    num = p0 % wide * ((q1 + t1) % wide) % wide
    if num % pv:
        raise InternalError(f"F({spec.x}) over [{k_start}, {k_stop}) is not {p}-integral")
    # the sum is (num / p^v) / (u0 u1) with a unit denominator
    return residue_from_rational(Fraction(num // pv, u0 * u1 % m), ctx)


# --- modular engine --------------------------------------------------------


def window_sum_mod(spec: SeriesSpec, k_start: int, k_stop: int, ctx: PrimePower) -> Residue:
    """Sum of terms k_start <= k < k_stop reduced mod p^e."""
    _check_x(spec, ctx.p)
    xn, xd = spec.x.numerator, spec.x.denominator
    return Residue(_kernel.series_window_mod(xn, xd, ctx.p, ctx.e, k_start, k_stop), ctx)


def truncated_series_mod(spec: SeriesSpec, ctx: PrimePower) -> Residue:
    return window_sum_mod(spec, 0, spec.terms, ctx)


# --- factorials with the p-power split off ---------------------------------

# The table of the latest (p, p^e) only, since lemma4 and lemma5 finish one
# prime before the next: entry n is n! = p^v * u as the integers
# (v, u mod p^e), so a p-divisible factor costs no precision.
_FACTORIALS: dict[tuple[int, int], list[tuple[int, int]]] = {}


def _factorials(n: int, p: int, m: int) -> list[tuple[int, int]]:
    """The factorial table for p and m = p^e, extended to hold n!."""
    table = _FACTORIALS.get((p, m))
    if table is None:
        _FACTORIALS.clear()
        table = _FACTORIALS[p, m] = [(0, 1)]
    v, u = table[-1]
    for k in range(len(table), n + 1):
        vk, uk = split_p_power(k, p)
        v, u = v + vk, u * uk % m
        table.append((v, u))
    return table


# --- the four quadratic-character families ---------------------------------


@dataclass(frozen=True)
class QuarticFamily:
    """One of the four x with c(c-1) the discriminant of a quadratic field.

    ``binomials`` lists (c, d) pairs meaning a factor C(c*n, d*n); the term
    of the 2F1 sum at index n equals their product divided by base^n, and
    ``character_arg`` is the integer whose quadratic character gives the
    closed-form right-hand side.
    """

    x: Fraction
    binomials: tuple[tuple[int, int], ...]
    base: int
    character_arg: int

    def binomial_product(self, n: int) -> int:
        """The product of the binomials C(c*n, d*n)."""
        out = 1
        for c, d in self.binomials:
            out *= comb(c * n, d * n)
        return out

    def term_exact(self, n: int) -> Fraction:
        return Fraction(self.binomial_product(n), self.base**n)

    def term_scaled(self, n: int, ctx: PrimePower) -> Residue:
        """The term at index n mod p^e, from the factorial table."""
        p, m = ctx.p, ctx.modulus
        fact = _factorials(max(c for c, _ in self.binomials) * n, p, m)
        v, num, den = 0, 1, 1
        for c, d in self.binomials:
            (vt, ut), (vb, ub), (vr, ur) = fact[c * n], fact[d * n], fact[(c - d) * n]
            v += vt - vb - vr
            num = num * ut % m
            den = den * ub * ur % m
        if v >= ctx.e:
            return Residue(0, ctx)
        # bases are 2^a 3^b, units for every admissible p >= 5
        return Residue(num * pow(den * pow(self.base, n, m), -1, m) * p**v, ctx)


QUARTICS: tuple[QuarticFamily, ...] = (
    QuarticFamily(Fraction(1, 2), ((2, 1), (2, 1)), 16, -1),
    QuarticFamily(Fraction(1, 3), ((2, 1), (3, 1)), 27, -3),
    QuarticFamily(Fraction(1, 4), ((2, 1), (4, 2)), 64, -2),
    QuarticFamily(Fraction(1, 6), ((3, 1), (6, 3)), 432, -1),
)

QUARTIC_BY_X: dict[Fraction, QuarticFamily] = {f.x: f for f in QUARTICS}
