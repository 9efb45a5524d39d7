"""Truncated hypergeometric sums: exact and modular engines, plus the four
quadratic-character families and their central-binomial reformulation.

A `SeriesSpec` is the sum over 0 <= k < terms of

    prod (a_i)_k / (prod (b_j)_k * k!) * z^k

so ``two_f_one(x, n)`` (upper x, 1-x; lower 1; z = 1) gives the truncated
2F1 values the congruence suites are about.  The modular engine walks the
term recurrence with valuation-tracked units, once per series and p^e,
resuming from checkpoints at the stops already asked for (see
``_kernel``).  The exact engine is the independent oracle: it evaluates a
window as exact integers by binary splitting over the term ratio and
reduces the result once mod p^e (`window_residue_exact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import _kernel
from .errors import NonUnitDenominator, PoleInLowerParameter
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
    """Upper/lower parameters, argument, and number of terms (k! implicit)."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    z: Fraction
    terms: int

    def __post_init__(self):
        if self.terms < 0:
            raise ValueError("terms must be >= 0")


def series_spec(upper, lower, z, terms: int) -> SeriesSpec:
    """Build a SeriesSpec from any mix of ints and Fractions."""
    return SeriesSpec(
        tuple(as_fraction(a) for a in upper),
        tuple(as_fraction(b) for b in lower),
        as_fraction(z),
        terms,
    )


def two_f_one(x: PadicInput, terms: int) -> SeriesSpec:
    """The truncated 2F1(x, 1-x; 1; 1) sum with ``terms`` terms."""
    q = as_fraction(x)
    return series_spec((q, 1 - q), (1,), 1, terms)


def pochhammer_exact(a: PadicInput, k: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+k-1)."""
    q = as_fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= q + i
    return out


# --- exact engine ----------------------------------------------------------


def window_sum_exact(spec: SeriesSpec, k_start: int, k_stop: int) -> Fraction:
    """Sum of terms k_start <= k < k_stop as one exact rational.

    `window_residue_exact` hands it the sums that are not p-integral, so
    that their error names the reduced fraction.  The running term and the
    accumulator share a common denominator that only ever gets multiplied,
    so no per-step normalization happens; the single Fraction reduction is
    at the end.
    """
    if k_stop <= k_start:
        return Fraction(0)
    acc = 0  # acc / den
    term = 1  # term / den
    den = 1
    for k in range(k_stop):
        if k >= k_start:
            acc += term
        if k + 1 >= k_stop:
            break
        num_step = 1
        for a in spec.upper:
            num_step *= a.numerator + k * a.denominator
        if num_step == 0:
            break  # later terms are all exactly zero
        num_step *= spec.z.numerator
        den_step = (k + 1) * spec.z.denominator
        for a in spec.upper:
            den_step *= a.denominator
        for b in spec.lower:
            f = b.numerator + k * b.denominator
            if f == 0:
                raise PoleInLowerParameter(f"lower parameter {b} hits a pole at k={k}")
            den_step *= f
            num_step *= b.denominator
        term *= num_step
        acc *= den_step
        den *= den_step
    return Fraction(acc, den)


def truncated_series_exact(spec: SeriesSpec) -> Fraction:
    return window_sum_exact(spec, 0, spec.terms)


# Below this many ratio factors, `_split` folds them sequentially.
_LEAF = 16


def _ratio_factors(spec: SeriesSpec, stop: int) -> tuple[list[int], list[int]]:
    """Integer numerators and denominators of t_{k+1} / t_k for 0 <= k < stop."""
    ks = range(stop)
    c = spec.z.numerator
    for b in spec.lower:
        c *= b.denominator
    nums = [c] * stop
    for a in spec.upper:
        an, ad = a.numerator, a.denominator
        nums = [x * (an + k * ad) for x, k in zip(nums, ks)]
    c = spec.z.denominator
    for a in spec.upper:
        c *= a.denominator
    dens = [c * (k + 1) for k in ks]
    for b in spec.lower:
        bn, bd = b.numerator, b.denominator
        dens = [x * (bn + k * bd) for x, k in zip(dens, ks)]
    return nums, dens


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


def _first_root(params: tuple[Fraction, ...], limit: int) -> tuple[int, int] | None:
    """The least (k, i) with params[i] + k == 0 and k < limit, or None."""
    roots = [
        (-a.numerator, i)
        for i, a in enumerate(params)
        if a.denominator == 1 and 0 <= -a.numerator < limit
    ]
    return min(roots, default=None)


def window_residue_exact(
    spec: SeriesSpec, k_start: int, k_stop: int, ctx: PrimePower
) -> Residue:
    """Sum of terms k_start <= k < k_stop, evaluated exactly, reduced mod p^e.

    The terms below ``stop`` exist, where ``stop`` is k_stop or one past the
    first step with a zero upper factor, whichever comes first.  With the
    ratio factors of the steps below stop - 1, the sum is
    P0 (Q1 + T1) / (Q0 Q1): P0 / Q0 is term k_start, and (Q1, T1) come
    from binary splitting over the window, both by `_split` (Haible and
    Papanikolaou, "Fast multiprecision evaluation of series of rational
    numbers", ANTS-III, 1998).  The p-power of Q0 Q1 is split off once,
    the numerator is taken mod p^(v+e) once, and the p-free part of the
    denominator is inverted once.

    Agrees with ``residue_from_rational(window_sum_exact(...))`` in value,
    raised type and message: a pole at step k raises only if the step is
    taken (k + 1 < stop), and a sum that is not p-integral is handed to
    that route, which names the reduced fraction.
    """
    if k_stop <= k_start:
        return Residue(0, ctx)
    dead = _first_root(spec.upper, k_stop)
    stop = k_stop if dead is None else dead[0] + 1
    pole = _first_root(spec.lower, stop - 1)
    if pole is not None:
        k, i = pole
        raise PoleInLowerParameter(f"lower parameter {spec.lower[i]} hits a pole at k={k}")
    if stop <= k_start:
        return Residue(0, ctx)
    nums, dens = _ratio_factors(spec, stop - 1)
    p0, q0, _ = _split(nums, dens, 0, k_start)
    _, q1, t1 = _split(nums, dens, k_start, stop - 1, need_p=False)
    p, m = ctx.p, ctx.modulus
    v0, u0 = split_p_power(q0, p)
    v1, u1 = split_p_power(q1, p)
    pv = p ** (v0 + v1)
    wide = pv * m
    num = p0 % wide * ((q1 + t1) % wide) % wide
    if num % pv:
        return residue_from_rational(window_sum_exact(spec, k_start, k_stop), ctx)
    # the sum is (num / p^v) / (u0 u1) with a unit denominator
    return residue_from_rational(Fraction(num // pv, u0 * u1 % m), ctx)


# --- modular engine --------------------------------------------------------


def _int_pairs(spec: SeriesSpec, p: int):
    for a in (*spec.upper, *spec.lower, spec.z):
        if a.denominator % p == 0:
            raise NonUnitDenominator(f"series parameter {a} has denominator divisible by {p}")
    if spec.z.numerator % p == 0:
        raise NonUnitDenominator(f"series argument {spec.z} is not a unit mod {p}")
    upper = tuple((a.numerator, a.denominator) for a in spec.upper)
    lower = tuple((b.numerator, b.denominator) for b in spec.lower)
    return upper, lower


def window_sum_mod(spec: SeriesSpec, k_start: int, k_stop: int, ctx: PrimePower) -> Residue:
    """Sum of terms k_start <= k < k_stop reduced mod p^e."""
    upper, lower = _int_pairs(spec, ctx.p)
    value = _kernel.series_window_mod(
        upper, lower, spec.z.numerator, spec.z.denominator, k_start, k_stop, ctx.p, ctx.e
    )
    return Residue(value, ctx)


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
