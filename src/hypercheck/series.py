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
oracle: a window [a, b) is S(b) - S(a) mod p^e, where S(j) is the prefix
sum of the terms below j (`window_residue_exact`).  The ratio factors do
not depend on p, so F(x; p), F(x; n p) and F(x; p^2) at every prime are
prefixes of one integer sequence per x.  `_blocks(x)`, keyed by x only,
holds exact binary-splitting blocks of `_LEAF` consecutive factors, built
in index order as requests reach them, and a prefix folds the blocks below
its stop mod p^(2v+e), whatever was asked before.  The table keeps the
blocks of the last `SERIES_LIMIT` series used (an `lru_cache`).
`series_fraction` splits F(x; N) on its own as one exact rational, for
the conjecture oracle's failure text.
"""

from __future__ import annotations

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

# Below this many ratio factors, `_split` folds them sequentially; it is
# also the length of the prefix table's blocks.
_LEAF = 64

# A series' blocks hold O(j log j) bits up to factor j, about 1.6 MB at the
# default series cap of 100,000 terms, so the table holds about 13 MB at most.
SERIES_LIMIT = 8


@lru_cache(maxsize=SERIES_LIMIT)
def _blocks(x: Fraction) -> list[tuple[int, int, int]]:
    """Entry i is `_split` (P, Q, T) of the ratio factors of F(x; N) from
    i `_LEAF` up to (i + 1) `_LEAF`."""
    return []


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


def _prefix_residue(x: Fraction, stop: int, ctx: PrimePower) -> Residue:
    """The sum of the terms below ``stop`` reduced mod p^e, raising
    `InternalError` unless it is p-integral over a denominator whose p-power
    is the one Legendre's formula gives.

    The sum is 1 + T / Q over the ratio factors [0, stop - 1), folded right
    to left mod p^(2v+e) from (Q, T) = (1, 0): first the factors past the
    last whole block, one at a time, then the blocks, each put in front as
    (Q1 Q, T1 Q + P1 T).  A zero factor (integer x) zeroes every later
    term.  The blocks are built one at a time on first use and kept in
    `_blocks`.
    """
    p, j = ctx.p, stop - 1
    v, i = 0, j
    while i > 0:
        i //= p
        v += i
    pv = p ** (2 * v)
    mod = pv * ctx.modulus
    whole = j // _LEAF
    blocks = _blocks(x)
    for lo in range(len(blocks) * _LEAF, whole * _LEAF, _LEAF):
        blocks.append(_split(*_ratio_factors(x, lo, lo + _LEAF), 0, _LEAF))
    nums, dens = _ratio_factors(x, whole * _LEAF, j)
    q, t = 1, 0
    for n, d in zip(reversed(nums), reversed(dens)):
        q, t = d * q % mod, n * (q + t) % mod
    for p1, q1, t1 in reversed(blocks[:whole]):
        q, t = q1 * q % mod, (t1 * q + p1 * t) % mod
    num, den = q + t, q
    if num % pv or den % pv or den // pv % p == 0:
        raise InternalError(f"F({x}; {stop}) is not {p}-integral")
    return residue_from_rational(Fraction(num // pv, den // pv), ctx)


def series_fraction(x: PadicInput, stop: int) -> Fraction:
    """F(x; stop) as one exact rational, split from k = 0 on its own."""
    if stop <= 0:
        return Fraction(0)
    nums, dens = _ratio_factors(as_fraction(x), 0, stop - 1)
    _, q, t = _split(nums, dens, 0, stop - 1)
    return Fraction(q + t, q)


def window_residue_exact(
    x: PadicInput, k_start: int, k_stop: int, ctx: PrimePower
) -> Residue:
    """Sum of terms k_start <= k < k_stop, evaluated exactly, reduced mod p^e.

    The window is S(k_stop) - S(k_start), where S(j) is the prefix sum
    1 + T / Q over the ratio factors, folded from exact binary-splitting
    blocks (Haible and Papanikolaou, "Fast multiprecision evaluation of
    series of rational numbers", ANTS-III, 1998) mod p^(v+e): Q is
    xd^(2(j-1)) ((j-1)!)^2 with xd prime to p, so its p-power p^v has
    v = 2 sum_i floor((j-1)/p^i) (Legendre's formula), the numerator is
    checked for p-integrality, and the p-free part of Q is inverted mod
    p^e.  Every term is p-integral, so every prefix is.
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
    keyed by n and filled only at the n asked for.  Equality and hash are
    those of (x, binomials, base, character_arg); the table takes no part.
    """

    __slots__ = ("x", "binomials", "base", "character_arg", "_products")

    def __init__(self, x: Fraction, binomials: tuple, base: int, character_arg: int):
        self.x, self.binomials, self.base, self.character_arg = x, binomials, base, character_arg
        # n -> binomial_product(n), n <= binomial_max // c (`suites._need_family`
        # comes first): 4.1 MB for all four families at the default cap of 5,000
        self._products: dict[int, int] = {}

    def _key(self) -> tuple:
        return self.x, self.binomials, self.base, self.character_arg

    def __eq__(self, other):
        return isinstance(other, QuarticFamily) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
