"""Exact combinatorial identities over big rationals.

These are the non-congruence facts the congruence suites lean on:
alternating binomial/harmonic sums, the partial-fraction harmonic
decompositions of the four quadratic-character families, the convolution
form of the harmonic-weighted term, the first-order Taylor coefficients
of the binomial-ratio function, and the negated-upper-index binomial
symmetry.  Each identity function returns its two sides as a pair
(lhs, rhs); each side is exact: a `fractions.Fraction`, or an `int` for
the negation symmetry.  The hot sums run over integers and build one
`Fraction` at the end: the alternating sums share one accumulator,
`_alternating`, which walks the signed-binomial row by its ratio over
weights that are integer numerators over one lcm denominator (harmonic
numbers from `_harmonic_numerators`, lcm(1..m) from `_lcm_upto`; the
right sides read `special.harmonic_exact`); the convolution's right side
is binary split by the exact oracle's `series._split`
(`_convolution_sum`); the negation binomials are integers.  Every integer
step that must divide exactly is a checked exact division (`_exact_div`).

The exact sequences here are the partial-fraction weight
T_k(x) = sum_{i<k} (1/(x+i) + 1/(1-x+i)) (`partial_fraction_weights`), its
harmonic closed form (`partial_fraction_closed_form`, whose coefficients
`PARTFRAC_CLOSED_FORMS` `lemma4-binom` also reads) and the series terms
t_k(x) (`series_terms`); the theorem suites build their values mod p^e as
rows of their own.  The proof-chain suites that restate an identity here
report that identity's pair.  The signed binomial
(-1)^k C(n,k) C(n+k,k) that both sides sum comes from
`special.signed_binomial`.

One sum is checked in two forms on purpose: the alternating sum against
shifted harmonic numbers is implemented both exactly as commonly printed
(inner index starting at 1) and with the k=0 term included.  The printed
form is off by exactly the k=0 summand for every n >= 1; the checker
reports both rather than silently repairing either.  See
`shifted_harmonic_sum` / `shifted_harmonic_sum_printed`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, lcm

from .errors import InternalError, PoleInParameter
from .series import _split
from .special import harmonic_exact, signed_binomial


def _exact_div(a: int, b: int) -> int:
    """a / b for integers, raising `InternalError` when b does not divide a."""
    q, r = divmod(a, b)
    if r:
        raise InternalError(f"{a} / {b} leaves remainder {r}")
    return q


def _alternating(n: int, numerators: list, start: int = 0, den: int = 1) -> Fraction:
    """Sum over start <= k <= n of (-1)^k C(n,k)C(n+k,k) w_k / den for
    integer numerators w_start, ..., w_n over one denominator: a single
    `Fraction` at the end.

    The signed binomial walks its row from k = start by the ratio
    -(n-k)(n+k+1)/(k+1)^2, one checked exact division per step.
    """
    c = signed_binomial(n, start)
    total = 0
    for k, w in enumerate(numerators, start):
        total += c * w
        c = _exact_div(-c * (n - k) * (n + k + 1), (k + 1) ** 2)
    return Fraction(total, den)


# the latest m and lcm(1..m); O(1) memory
_LCM: list[int] = [0, 1]


def _lcm_upto(m: int) -> int:
    """lcm(1..m), extending the latest one when m rises, rebuilt when it falls."""
    j, den = _LCM if _LCM[0] <= m else (0, 1)
    _LCM[:] = m, lcm(den, *range(j + 1, m + 1))
    return _LCM[1]


def _harmonic_numerators(m: int) -> tuple[list[int], int]:
    """H_0, ..., H_m as integer numerators over L = lcm(1..m), and L."""
    den = _lcm_upto(m)
    return list(accumulate((den // i for i in range(1, m + 1)), initial=0)), den


def alternating_binomial_sum(n: int) -> tuple[Fraction, Fraction]:
    """Sum over 0 <= k <= n of (-1)^k C(n,k)C(n+k,k) equals (-1)^n."""
    return _alternating(n, [1] * (n + 1)), Fraction((-1) ** n)


def harmonic_weighted_sum(n: int) -> tuple[Fraction, Fraction]:
    """Sum over 1 <= k <= n of (-1)^k C(n,k)C(n+k,k) H_k equals 2(-1)^n H_n."""
    h, den = _harmonic_numerators(n)
    rhs = 2 * Fraction(-1) ** n * harmonic_exact(n)
    return _alternating(n, h[1:], 1, den), rhs


def tail_harmonic_sum(n: int) -> tuple[Fraction, Fraction]:
    """Sum of (-1)^k C(n,k)C(n+k,k) * (1/(n+1) + ... + 1/(n+k)) equals (-1)^n H_n.

    The inner sums are running sums of numerators over lcm(n+1..2n), which
    is lcm(1..2n), independent of the harmonic-difference route of
    `harmonic_difference_chain`.
    """
    den = _lcm_upto(2 * n)
    inner = list(accumulate(den // (n + k) for k in range(1, n + 1)))
    rhs = Fraction(-1) ** n * harmonic_exact(n)
    return _alternating(n, inner, 1, den), rhs


def shifted_harmonic_sum_printed(n: int) -> tuple[Fraction, Fraction]:
    """Sum over 1 <= k <= n of (-1)^k C(n,k)C(n+k,k) H_{n+k} vs 2(-1)^n H_n.

    As commonly printed the sum starts at k=1; the k=0 summand would be
    H_n.  In that form the equality fails for every n >= 1 (the two sides
    differ by exactly H_n); the full variant below includes k=0 and holds.
    """
    h, den = _harmonic_numerators(2 * n)
    rhs = 2 * Fraction(-1) ** n * harmonic_exact(n)
    return _alternating(n, h[n + 1 :], 1, den), rhs


def shifted_harmonic_sum(n: int) -> tuple[Fraction, Fraction]:
    """Sum over 0 <= k <= n of (-1)^k C(n,k)C(n+k,k) H_{n+k} equals 2(-1)^n H_n."""
    h, den = _harmonic_numerators(2 * n)
    rhs = 2 * Fraction(-1) ** n * harmonic_exact(n)
    return _alternating(n, h[n:], 0, den), rhs


def harmonic_difference_chain(n: int) -> tuple[Fraction, Fraction]:
    """Sum of (-1)^k C(n,k)C(n+k,k)(H_{n+k} - H_n) equals (-1)^n H_n.

    The step that links the alternating-sum and shifted-harmonic
    identities to the tail form, checked as an identity of its own.
    """
    h, den = _harmonic_numerators(2 * n)
    lhs = _alternating(n, [w - h[n] for w in h[n:]], 0, den)
    return lhs, Fraction(-1) ** n * harmonic_exact(n)


# --- partial-fraction decompositions ---------------------------------------

# x -> the pairs (c, d) of the closed form sum c H_{d k} of
# sum_{j<k} (1/(j+x) + 1/(j+1-x))
PARTFRAC_CLOSED_FORMS: dict[Fraction, tuple[tuple[int, int], ...]] = {
    Fraction(1, 2): ((4, 2), (-2, 1)),
    Fraction(1, 3): ((3, 3), (-1, 1)),
    Fraction(1, 4): ((4, 4), (-2, 2)),
    Fraction(1, 6): ((6, 6), (-3, 3), (-2, 2), (1, 1)),
}


# x -> [T_0(x), T_1(x), ...], extended on demand.  Keyed by the four quartic
# x; bounded by VERIFY_BUDGET_IDENTITY, which caps the k of its readers,
# identity-partfrac and identity-convolution.
_PF: dict[Fraction, list[Fraction]] = {}


def partial_fraction_weights(x: Fraction, upto: int) -> list[Fraction]:
    """Prefix cache of T_k(x) = sum_{i<k} (1/(x+i) + 1/(1-x+i)) for k <= upto.

    Raises `PoleInParameter` when x+i or 1-x+i is 0 for some i < upto; the
    entries below the pole stay cached and correct.
    """
    pref = _PF.setdefault(x, [Fraction(0)])
    while len(pref) <= upto:
        i = len(pref) - 1
        if x + i == 0 or 1 - x + i == 0:
            raise PoleInParameter(f"x={x} puts a pole at i={i}")
        pref.append(pref[-1] + Fraction(1) / (x + i) + Fraction(1) / (1 - x + i))
    return pref


def partial_fraction_closed_form(k: int, x: Fraction) -> Fraction:
    """T_k(x) as the combination sum c H_{d k} on record for the four quartic x."""
    if x not in PARTFRAC_CLOSED_FORMS:
        raise ValueError(f"no closed form on record for x={x}")
    return sum((c * harmonic_exact(d * k) for c, d in PARTFRAC_CLOSED_FORMS[x]), Fraction(0))


def partial_fraction_sum(k: int, x: Fraction) -> tuple[Fraction, Fraction]:
    """T_k(x) = sum_{j<k}(1/(j+x) + 1/(j+1-x)) vs its harmonic-number closed form."""
    rhs = partial_fraction_closed_form(k, x)
    return partial_fraction_weights(x, k)[k], rhs


# --- convolution form of the harmonic-weighted term ------------------------

# x -> [t_0(x), t_1(x), ...], extended on demand.  Keyed by the four quartic
# x; bounded by VERIFY_BUDGET_IDENTITY, which caps the k of its one reader,
# identity-convolution.
_TERMS: dict[Fraction, list[Fraction]] = {}


def series_terms(x: Fraction, upto: int) -> list[Fraction]:
    """Prefix cache of t_i = (x)_i (1-x)_i / (i!)^2."""
    terms = _TERMS.setdefault(x, [Fraction(1)])
    while len(terms) <= upto:
        i = len(terms) - 1
        terms.append(terms[-1] * (x + i) * (1 - x + i) / (i + 1) ** 2)
    return terms


def _convolution_sum(x: Fraction, k: int) -> Fraction:
    """sum_{i<k} t_i/(k-i), binary split as the exact oracle splits F(x; N).

    For x = a/b the summands' ratio at i is (a+ib)(b-a+ib)(k-i) /
    ((b(i+1))^2 (k-1-i)) and the first is 1/k, so the sum is
    (Q + T) / (k Q) for `series._split`'s (P, Q, T) over the ratios i < k-1.
    """
    if k == 0:
        return Fraction(0)
    a, b = x.numerator, x.denominator
    nums = [(a + i * b) * (b - a + i * b) * (k - i) for i in range(k - 1)]
    dens = [(b * i) ** 2 * (k - i) for i in range(1, k)]
    _, q, t = _split(nums, dens, 0, k - 1)
    return Fraction(q + t, k * q)


def term_convolution_identity(x: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """t_k T_k(x) vs sum_{i<k} t_i/(k-i).

    The left side reads the cached `series_terms` and
    `partial_fraction_weights` (which raises `PoleInParameter` first); the
    right side is `_convolution_sum`, binary split over integers, and reads
    neither table.
    """
    weight = partial_fraction_weights(x, k)[k]
    return series_terms(x, k)[k] * weight, _convolution_sum(x, k)


# --- Taylor coefficients of the binomial-ratio function --------------------

# per-r cache of the latest jet (k, P0, P1, Q0, Q1) for
# f(t) = prod_{i<=2k}(2rt+i) / prod_{i<=k}(rt+i)^2, carried to first order.
# Keyed by r in {1, 2, 3}; k, and so the jet's size, is bounded by
# VERIFY_BUDGET_IDENTITY.
_JETS: dict[int, tuple[int, int, int, int, int]] = {}


def _taylor_jet(k: int, r: int) -> tuple[int, int, int, int]:
    state = _JETS.get(r)
    if state is None or state[0] > k:
        state = (0, 1, 0, 1, 0)
    j, p0, p1, q0, q1 = state
    while j < k:
        j += 1
        for i in (2 * j - 1, 2 * j):
            p0, p1 = p0 * i, p1 * i + 2 * r * p0
        for _ in range(2):
            q0, q1 = q0 * j, q1 * j + r * q0
    _JETS[r] = (j, p0, p1, q0, q1)
    return p0, p1, q0, q1


def taylor_coefficient_check(k: int, r: int, order: int) -> tuple[Fraction, Fraction]:
    """f(0) = C(2k,k) at order 0, f'(0) = r C(2k,k)(2H_{2k} - 2H_k) at order 1,
    as one exact (lhs, rhs) pair.

    The derivative is read off a first-order jet product, not from the
    closed form.
    """
    p0, p1, q0, q1 = _taylor_jet(k, r)
    c = comb(2 * k, k)
    if order == 0:
        return Fraction(p0, q0), Fraction(c)
    f1 = Fraction(p1 * q0 - p0 * q1, q0 * q0)
    return f1, r * c * (2 * harmonic_exact(2 * k) - 2 * harmonic_exact(k))


# --- negated-upper-index binomial symmetry ---------------------------------

# per-b cache of the latest (k, C(-b,k), C(-b+k,k), C(b-1,k), C(b-1+k,k)).
# Both b and k are bounded by VERIFY_BUDGET_IDENTITY.
_NEG: dict[int, tuple[int, int, int, int, int]] = {}


def _negation_values(b: int, k: int):
    state = _NEG.get(b)
    if state is None or state[0] > k:
        state = (0, 1, 1, 1, 1)
    j, nb, nbk, pb, pbk = state
    while j < k:
        j += 1
        nb = _exact_div(nb * (-b - j + 1), j)  # C(-b, j)
        nbk = _exact_div(nbk * (-b + j), j)  # C(-b+j, j)
        pb = _exact_div(pb * (b - j), j)  # C(b-1, j)
        pbk = _exact_div(pbk * (b - 1 + j), j)  # C(b-1+j, j)
    _NEG[b] = (j, nb, nbk, pb, pbk)
    return nb, nbk, pb, pbk


def negation_symmetry(b: int, k: int) -> tuple[int, int]:
    """C(-b,k) C(-b+k,k) = C(b-1,k) C(b-1+k,k) for integer b >= 1."""
    nb, nbk, pb, pbk = _negation_values(b, k)
    return nb * nbk, pb * pbk
