"""Right-hand-side quantities: Fermat quotients, Legendre symbols, harmonic
numbers, Euler and Bernoulli numbers/polynomials, the Apery sequence, and
the signed binomial (-1)^k C(n,k) C(n+k,k) of the alternating sums.

Exact generators live beside their modular reductions so tests can pin one
against the other.  The sequence caches are module state, except the
modular harmonic rows (H_n and p H_n), which live on their `PrimePower`'s
tables and go with it; the harmonic caches grow by appending.  The Euler and
Bernoulli tables are built together, from the secant and tangent numbers,
on first use, and rebuilt together, to at least twice their length, when
an index lies past their end: the Brent-Harvey loops that build them
cannot extend a finished table.  One Appell sum evaluates both polynomials
mod p^e.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import IndexTooLarge, InternalError, NonUnit, PDivisibleDenominator
from .padic import (
    PadicInput,
    PrimePower,
    as_fraction,
    require_p_integral,
    residue_from_rational,
)


def fermat_quotient(a: int, ctx: PrimePower) -> int:
    """(a^(p-1) - 1)/p mod p, in [0, p), for the mod-p context ``ctx``."""
    p = ctx.p
    if a % p == 0:
        raise NonUnit(f"{a} is divisible by {p}")
    return (pow(a, p - 1, p * p) - 1) // p


def legendre(a: int, p: int) -> int:
    """Quadratic character of a mod p via Euler's criterion; +1 or -1."""
    if a % p == 0:
        raise NonUnit(f"{a} is divisible by {p}")
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def least_residue(x: PadicInput, p: int) -> int:
    """The representative of x in [0, p) (denominator inverted mod p)."""
    q = require_p_integral(x, p)
    return q.numerator * pow(q.denominator, -1, p) % p


def sign_of_least_residue(x: PadicInput, p: int) -> int:
    """(-1) raised to the least residue of -x mod p."""
    return -1 if least_residue(-as_fraction(x), p) % 2 else 1


def floor_px(x: PadicInput, p: int) -> int:
    """floor(p * x) for rational x."""
    q = as_fraction(x)
    return p * q.numerator // q.denominator


# --- harmonic numbers ------------------------------------------------------

# H_0, H_1, ..., extended on demand, bounded by the budgets that cap its
# index: the identities read up to n = 6 VERIFY_BUDGET_IDENTITY (H_{6k} of
# T_k(1/6)), chain-weighted's binomial form n < p <= VERIFY_BUDGET_SERIES.
_H_EXACT: list[Fraction] = [Fraction(0)]


def _require_index(name: str, m: int) -> None:
    if m < 0:
        raise ValueError(f"{name}_{m}: index must be >= 0")


def harmonic_exact(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact rational."""
    _require_index("H", n)
    while len(_H_EXACT) <= n:
        k = len(_H_EXACT)
        _H_EXACT.append(_H_EXACT[-1] + Fraction(1, k))
    return _H_EXACT[n]


def harmonic_mod(n: int, ctx: PrimePower) -> int:
    """H_n mod p^e by modular inversion; only indices below p are units."""
    _require_index("H", n)
    if n >= ctx.p:
        raise IndexTooLarge(f"H_{n} mod {ctx.p}^{ctx.e}: index must stay below p")
    return harmonic_row(n, ctx)[n]


def harmonic_row(n: int, ctx: PrimePower, scaled: bool = False) -> list[int]:
    """H_0, H_1, ... mod p^e through at least index n < p, or with ``scaled``
    p H_0, p H_1, ... through n < p^2 by the terms `p_over`: a row on
    ``ctx.tables`` extended in index order."""
    term = p_over if scaled else unit_inverse
    row = ctx.tables.setdefault("p-harmonic" if scaled else "harmonic", [0])
    while len(row) <= n:
        row.append((row[-1] + term(len(row), ctx)) % ctx.modulus)
    return row


def unit_inverse(u: int, ctx: PrimePower) -> int:
    """1/u mod p^e for a p-unit u; p | u raises `InternalError`."""
    if u % ctx.p == 0:
        raise InternalError(f"{u} is not a unit mod {ctx.p}")
    return pow(u, -1, ctx.modulus)


def p_over(n: int, ctx: PrimePower) -> int:
    """p/n mod p^e for v_p(n) <= 1, and `InternalError` where p^2 | n."""
    if n % ctx.p:
        return ctx.p * unit_inverse(n, ctx) % ctx.modulus
    return unit_inverse(n // ctx.p, ctx)


# --- Euler and Bernoulli numbers ------------------------------------------
#
# Both tables come from the in-place integer recurrences of Brent and Harvey,
# "Fast computation of Bernoulli, Tangent and Secant numbers" (2011): the
# secant numbers S_n give E_2n = (-1)^n S_n, and the tangent numbers T_n give
# B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)).  Those loops cannot extend a
# finished table by one index, so `_tables` rebuilds both tables together,
# to at least twice their length, when an index lies past their end.  A
# sweep over rising indices then rebuilds them O(log m) times, and a conj
# sweep, which asks for E_m and B_m at neighbouring m, builds neither table
# further than the other.


def _secant_numbers(n: int) -> list[int]:
    """S_0..S_n, where sec x = sum_k S_k x^(2k) / (2k)!."""
    s = [1] * (n + 1)
    for k in range(1, n + 1):
        s[k] = k * s[k - 1]
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            s[j] = (j - k) * s[j - 1] + (j - k + 1) * s[j]
    return s


def _tangent_numbers(n: int) -> list[int]:
    """T_0..T_n with T_0 = 0, where tan x = sum_k T_k x^(2k-1) / (2k-1)!."""
    t = [0] + [1] * n
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


_EULER: list[int] = [1, 0]  # E_0, E_1, ... (odd entries are 0)
_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]  # B_0, B_1, ...


def _tables(name: str, m: int) -> tuple[list[int], list[Fraction]]:
    """The Euler and Bernoulli tables, both through at least index m;
    `name` labels the error for a negative m."""
    _require_index(name, m)
    if len(_EULER) <= m:
        size = max(m + 1, 2 * len(_EULER))
        half = (size - 1) // 2
        euler, bern = [0] * size, [Fraction(0)] * size
        euler[::2] = [-s if n % 2 else s for n, s in enumerate(_secant_numbers(half))]
        bern[:2] = _BERNOULLI[:2]
        four = 1  # 4^n
        for n, t in enumerate(_tangent_numbers(half)[1:], 1):
            four *= 4
            bern[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * t, four * (four - 1))
        _EULER[:], _BERNOULLI[:] = euler, bern
    return _EULER, _BERNOULLI


def euler_number_exact(m: int) -> int:
    """Euler number E_m (integer; E_m = 0 for odd m)."""
    return _tables("E", m)[0][m]


def euler_number_mod(m: int, ctx: PrimePower) -> int:
    return euler_number_exact(m) % ctx.modulus


def _appell_mod(m: int, coeffs: list[int], h: int, mod: int) -> int:
    """sum_k C(m,k) c_k h^(m-k) mod `mod`, where c_k = coeffs[k] is reduced.

    Summed from k = m down so that C(m,k) and h^(m-k) are running values;
    zero c_k are skipped.
    """
    total, binom, power = 0, 1, 1  # C(m,k) and h^(m-k) at k = m
    for k in range(m, -1, -1):
        if coeffs[k]:
            total += binom * coeffs[k] * power
        binom = binom * k // (m - k + 1)
        power = power * h % mod
    return total % mod


def bernoulli_polynomial_mod(m: int, arg: PadicInput, ctx: PrimePower) -> int:
    """B_m(arg) mod p^e = sum_k C(m,k) B_k arg^(m-k); rejects any needed
    B_k with p in its denominator.

    By von Staudt-Clausen, p divides the denominator of B_k (k >= 2) iff
    (p - 1) | k, and p >= 5 clears B_0 and B_1, so the first such B_k is
    B_(p-1).  Below it every B_k is p-integral and is reduced once.
    """
    p, mod = ctx.p, ctx.modulus
    x = residue_from_rational(require_p_integral(arg, p), ctx)
    if m >= p - 1:
        raise PDivisibleDenominator(f"B_{p - 1} has {p} in its denominator")
    bern = _tables("B", m)[1]
    # each nonzero B_k reduced once; B_k = 0 for odd k >= 3
    coeffs = [
        b.numerator * pow(b.denominator, -1, mod) % mod if b else 0 for b in bern[: m + 1]
    ]
    return _appell_mod(m, coeffs, x, mod)


def euler_polynomial_mod(m: int, arg: PadicInput, ctx: PrimePower) -> int:
    """E_m(arg) mod p^e = 2^-m sum_k C(m,k) E_k (2 arg - 1)^(m-k), the
    expansion around 1/2 with its 2-power denominators gathered in front."""
    mod = ctx.modulus
    x = require_p_integral(arg, ctx.p)
    h = residue_from_rational(2 * x - 1, ctx)
    euler = _tables("E", m)[0]
    coeffs = [e % mod for e in euler[: m + 1]]
    return _appell_mod(m, coeffs, h, mod) * pow(2, -m, mod) % mod


# --- signed binomials ------------------------------------------------------


def signed_binomial(n: int, k: int) -> int:
    """(-1)^k C(n,k) C(n+k,k), the summand of the alternating binomial sums."""
    s = comb(n, k) * comb(n + k, k)
    return -s if k % 2 else s


# --- Apery numbers ---------------------------------------------------------


def apery_number(n: int) -> int:
    """Sum over k of C(n,k)^2 C(n+k,k)^2 (the Apery numbers 1, 5, 73, ...)."""
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))
