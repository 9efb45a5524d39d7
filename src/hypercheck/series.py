"""The truncated series F(x; N) in exact and modular engines, plus the four
quadratic-character families and their central-binomial reformulation.

The paper studies one series,

    F(x; N) = sum_{k<N} t_k(x),   t_k(x) = (x)_k (1-x)_k / (k!)^2,

and both engines, `window_sum_mod` and `window_residue_exact`, take x (an
int or a `Fraction`) and a window k_start <= k < k_stop of its terms.
Every suite sums F(a; N) with a = x or a = -x, for x with a denominator
prime to p.  For such x every term is a p-adic integer, because
t_k(x) = C(x+k-1, k) C(k-x, k) and a binomial C(Y, k) maps Z_p into Z_p;
so every window sum is p-integral, and both engines treat a sum that is
not as an engine fault (`InternalError`), not as a domain error.  The
term ratio (x+k)(1-x+k) / (k+1)^2 has no pole, and a zero factor, which
happens only when x is an integer, ends the sum: every later term is 0.

The modular engine walks the term recurrence with valuation-tracked
units, once per series and p^e, resuming from checkpoints at the stops
already asked for (see ``_kernel``), and `QuarticFamily.term_scaled`
reads quartic terms from the same walk.  The exact engine is the independent
oracle and has the same design over the integers: a window [a, b) is
S(b) - S(a) mod p^e, where S(j) is the exact prefix sum of the terms below
j from binary splitting over the term ratio, reduced once mod p^e
(`window_residue_exact`).  The ratio factors do not depend on p, so
F(x; p), F(x; n p) and F(x; p^2) at every prime are prefixes of one
integer sequence per x.  `_checkpoints(x)` holds checkpoints of it keyed
by x only, and a prefix resumes from the nearest checkpoint at or below
its stop, splitting only the missing factors.  The table holds big
integers, so it keeps at most `SERIES_LIMIT` series (an `lru_cache`) of at
most `CHECKPOINT_LIMIT` checkpoints each, least recently used evicted
first at both levels, and a resume moves its base checkpoint forward
instead of adding one.
`series_fraction` reads F(x; N) from the same table as one exact rational,
for the conjecture oracle's failure text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import _kernel
from .errors import InternalError
from .padic import (
    PadicInput,
    PrimePower,
    Residue,
    as_fraction,
    require_p_integral,
    residue_from_rational,
)


# --- exact engine ----------------------------------------------------------

# Below this many ratio factors, `_split` folds them sequentially.
_LEAF = 16

# Both levels of the prefix table evict least recently used first.  A resume
# moves its base checkpoint forward to the new stop, so a sweep that climbs
# with p keeps about one checkpoint per kind of stop: five per x on conj
# (stops 2, 3, p, 2p and 3p), and at most 15 in any series on the default
# sweep without the bounds.  The bounds are for requests in other orders
# (falling stops keep every checkpoint) and for sweeps over many x.  The
# three integers of checkpoint j have O(j log j) bits: about 100 KB in all
# at j = 97^2 and 1.4 MB at the default series cap of 100,000 terms, so the
# table holds at most 48 checkpoints, 68 MB in the worst case.  Six per
# series keep all of conj's gain: `conj --p-max 499` took 0.24 s of CPU
# with these bounds and unbounded, against 0.63 s when every window was
# split from k = 0; four re-split 94,000 factors instead of 12,000.
SERIES_LIMIT = 8
CHECKPOINT_LIMIT = 6


@lru_cache(maxsize=SERIES_LIMIT)
def _checkpoints(x: Fraction) -> dict[int, tuple[int, int, int]]:
    """The checkpoints {j: (P, Q, T)} of F(x; N), least recently used first."""
    return {}


def _ratio_factors(x: Fraction, start: int, stop: int) -> tuple[list[int], list[int]]:
    """Integer numerators and denominators of t_{k+1} / t_k for start <= k < stop."""
    xn, xd = x.numerator, x.denominator
    yn = xd - xn
    ks = range(start, stop)
    return [(xn + k * xd) * (yn + k * xd) for k in ks], [(xd * (k + 1)) ** 2 for k in ks]


def _split(nums: list[int], dens: list[int], lo: int, hi: int) -> tuple[int, int, int]:
    """Binary splitting over the ratio factors lo <= i < hi.

    Returns (P, Q, T): P and Q are the products of the numerators and of
    the denominators, and T / Q is the sum over lo < j <= hi of
    prod_{lo <= i < j} nums[i] / dens[i], so 1 + T / Q sums the terms
    from lo to hi relative to term lo.  Two adjacent blocks merge as
    (P1 P2, Q1 Q2, T1 Q2 + P1 T2).
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
    p2, q2, t2 = _split(nums, dens, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _prefix_sum(x: Fraction, stop: int) -> tuple[int, int]:
    """The sum of the terms below ``stop`` as the integers (num, den).

    Resumes from the series' nearest checkpoint at or below j = stop - 1,
    splits only the missing factors [k, j) and merges them in as
    (P0 P1, Q0 Q1, T0 Q1 + P0 T1), and keeps the result as checkpoint j
    in place of checkpoint k.  A zero factor (integer x) zeroes P, so later
    merges add nothing to the sum.
    """
    if stop <= 1:
        return stop, 1
    checkpoints = _checkpoints(x)
    j = stop - 1
    k = max((i for i in checkpoints if i <= j), default=0)
    p, q, t = checkpoints.pop(k, (1, 1, 0))
    if k < j:
        nums, dens = _ratio_factors(x, k, j)
        p1, q1, t1 = _split(nums, dens, 0, j - k)
        p, q, t = p * p1, q * q1, t * q1 + p * t1
        if len(checkpoints) >= CHECKPOINT_LIMIT:
            del checkpoints[next(iter(checkpoints))]
    checkpoints[j] = p, q, t
    return q + t, q


def _prefix_residue(x: Fraction, stop: int, ctx: PrimePower) -> Residue:
    """The sum of the terms below ``stop`` reduced mod p^e, raising
    `InternalError` unless it is p-integral over a denominator whose p-power
    is the one Legendre's formula gives."""
    num, den = _prefix_sum(x, stop)
    p, m = ctx.p, ctx.modulus
    v, j = 0, stop - 1
    while j > 0:
        j //= p
        v += j
    pv = p ** (2 * v)
    num, den = num % (pv * m), den % (pv * m)
    if num % pv or den % pv or den // pv % p == 0:
        raise InternalError(f"F({x}; {stop}) is not {p}-integral")
    return residue_from_rational(Fraction(num // pv, den // pv), ctx)


def series_fraction(x: PadicInput, stop: int) -> Fraction:
    """F(x; stop) as one exact rational, read from the prefix table."""
    return Fraction(*_prefix_sum(as_fraction(x), stop))


def window_residue_exact(
    x: PadicInput, k_start: int, k_stop: int, ctx: PrimePower
) -> Residue:
    """Sum of terms k_start <= k < k_stop, evaluated exactly, reduced mod p^e.

    The window is S(k_stop) - S(k_start), where S(j) is the exact prefix
    sum 1 + T / Q from binary splitting over the ratio factors (Haible and
    Papanikolaou, "Fast multiprecision evaluation of series of rational
    numbers", ANTS-III, 1998), reduced once: Q is xd^(2(j-1)) ((j-1)!)^2
    with xd prime to p, so its p-power p^v has v = 2 sum_i floor((j-1)/p^i)
    (Legendre's formula), both integers are taken mod p^(v+e), the numerator
    is checked for p-integrality, and the p-free part of Q is inverted mod
    p^e.  Every term is p-integral, so every prefix is.  The lower prefix
    is read first, so the upper one extends it.
    """
    x = require_p_integral(x, ctx.p)  # a Fraction: 3 and Fraction(3) share a table
    if k_stop <= k_start:
        return Residue(0, ctx)
    low = _prefix_residue(x, k_start, ctx) if k_start else 0
    return _prefix_residue(x, k_stop, ctx) - low


# --- modular engine --------------------------------------------------------


def window_sum_mod(x: PadicInput, k_start: int, k_stop: int, ctx: PrimePower) -> Residue:
    """Sum of terms k_start <= k < k_stop reduced mod p^e."""
    x = require_p_integral(x, ctx.p)
    xn, xd = x.numerator, x.denominator
    return Residue(_kernel.series_window_mod(xn, xd, ctx.p, ctx.e, k_start, k_stop), ctx)


# --- the four quadratic-character families ---------------------------------


@dataclass(frozen=True)
class QuarticFamily:
    """One of the four x with c(c-1) the discriminant of a quadratic field.

    ``binomials`` lists (c, d) pairs meaning a factor C(c*n, d*n); the term
    of the 2F1 sum at index n equals their product divided by base^n.
    `term_scaled` reads it mod p^e from the modular walk of the series, and
    `term_residue` reduces the binomial product exactly, so the two routes
    share no code.  ``character_arg`` is the integer whose quadratic
    character gives the closed-form right-hand side.

    The suites ask for the same n = k + r p again at every prime and in
    several suites, so each family keeps one table of its binomial products,
    keyed by n and filled only at the n asked for.  The table takes no part
    in the family's equality or hash.
    """

    x: Fraction
    binomials: tuple[tuple[int, int], ...]
    base: int
    character_arg: int
    # n -> binomial_product(n).  Bounded by VERIFY_BUDGET_BINOMIAL: every
    # caller passes the cap c n <= binomial_max first (`suites._need_family`),
    # so n <= binomial_max // c: 4.1 MB for all four families at the
    # default cap of 5,000.
    _products: dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def binomial_product(self, n: int) -> int:
        """The product of the binomials C(c*n, d*n), computed once per n."""
        out = self._products.get(n)
        if out is None:
            out = 1
            for c, d in self.binomials:
                out *= comb(c * n, d * n)
            self._products[n] = out
        return out

    def term_residue(self, n: int, ctx: PrimePower) -> Residue:
        """The term at index n mod p^e, reduced exactly from the binomial
        product; the base is 2^a 3^b, a unit for every admissible p >= 5."""
        m = ctx.modulus
        return Residue(self.binomial_product(n) % m * pow(self.base, -n, m), ctx)

    def term_scaled(self, n: int, ctx: PrimePower) -> Residue:
        """The term at index n mod p^e, read from the modular engine's walk
        of F(x; N) (``_kernel.series_term_mod``)."""
        xn, xd = self.x.numerator, self.x.denominator
        return Residue(_kernel.series_term_mod(xn, xd, ctx.p, ctx.e, n), ctx)


QUARTICS: tuple[QuarticFamily, ...] = (
    QuarticFamily(Fraction(1, 2), ((2, 1), (2, 1)), 16, -1),
    QuarticFamily(Fraction(1, 3), ((2, 1), (3, 1)), 27, -3),
    QuarticFamily(Fraction(1, 4), ((2, 1), (4, 2)), 64, -2),
    QuarticFamily(Fraction(1, 6), ((3, 1), (6, 3)), 432, -1),
)

QUARTIC_BY_X: dict[Fraction, QuarticFamily] = {f.x: f for f in QUARTICS}
