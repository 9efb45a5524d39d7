"""Right-hand-side quantities: Fermat quotients, Legendre symbols, harmonic
numbers, Euler and Bernoulli numbers/polynomials, the Apery sequence, and
the signed binomial (-1)^k C(n,k) C(n+k,k) of the alternating sums.

Exact generators live beside their modular reductions so tests can pin one
against the other.  All sequence caches are append-only module state.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import IndexTooLarge, NonUnit, PDivisibleDenominator
from .padic import (
    PadicInput,
    PrimePower,
    Residue,
    as_fraction,
    require_p_integral,
    residue_from_rational,
)


def fermat_quotient(a: int, ctx: PrimePower) -> Residue:
    """(a^(p-1) - 1)/p mod p; needs an e >= 2 context to see the digit."""
    p = ctx.p
    if ctx.e < 2:
        raise ValueError("fermat_quotient needs a context with e >= 2")
    if a % p == 0:
        raise NonUnit(f"{a} is divisible by {p}")
    q = (pow(a, p - 1, p * p) - 1) // p
    return Residue(q, PrimePower(p, 1))


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

_H_EXACT: list[Fraction] = [Fraction(0)]
_H_MOD: dict[PrimePower, list[int]] = {}


def harmonic_exact(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact rational."""
    while len(_H_EXACT) <= n:
        k = len(_H_EXACT)
        _H_EXACT.append(_H_EXACT[-1] + Fraction(1, k))
    return _H_EXACT[n]


def harmonic_mod(n: int, ctx: PrimePower) -> Residue:
    """H_n mod p^e by modular inversion; only indices below p are units."""
    if n >= ctx.p:
        raise IndexTooLarge(f"H_{n} mod {ctx.p}^{ctx.e}: index must stay below p")
    cache = _H_MOD.setdefault(ctx, [0])
    m = ctx.modulus
    while len(cache) <= n:
        k = len(cache)
        cache.append((cache[-1] + pow(k, -1, m)) % m)
    return Residue(cache[n], ctx)


# --- Euler and Bernoulli numbers ------------------------------------------

_EULER: list[int] = [1]  # E_0, E_1, ... (odd entries are 0)


def euler_number_exact(m: int) -> int:
    """Euler number E_m (integer; E_m = 0 for odd m)."""
    while len(_EULER) <= m:
        j = len(_EULER)
        if j % 2:
            _EULER.append(0)
        else:
            s = sum(comb(j, 2 * k) * _EULER[2 * k] for k in range(j // 2))
            _EULER.append(-s)
    return _EULER[m]


def euler_number_mod(m: int, ctx: PrimePower) -> Residue:
    return Residue(euler_number_exact(m), ctx)


_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli_exact(m: int) -> Fraction:
    """Bernoulli number B_m with the B_1 = -1/2 convention."""
    while len(_BERNOULLI) <= m:
        j = len(_BERNOULLI)
        s = sum(comb(j + 1, k) * _BERNOULLI[k] for k in range(j))
        _BERNOULLI.append(-s / (j + 1))
    return _BERNOULLI[m]


def bernoulli_polynomial_mod(m: int, arg: PadicInput, ctx: PrimePower) -> Residue:
    """B_m(arg) mod p^e; rejects any needed B_k with p in its denominator.

    Summed term by term mod p^e as sum_k C(m,k) B_k arg^(m-k), with each
    B_k reduced once; every term is p-integral once B_k is.
    """
    mod = ctx.modulus
    x = residue_from_rational(require_p_integral(arg, ctx.p), ctx).value
    total = 0
    for k in range(m + 1):
        b = bernoulli_exact(k)
        if b.denominator % ctx.p == 0:
            raise PDivisibleDenominator(f"B_{k} has {ctx.p} in its denominator")
        total += comb(m, k) * b.numerator * pow(b.denominator, -1, mod) * pow(x, m - k, mod)
    return Residue(total, ctx)


def euler_polynomial_mod(m: int, arg: PadicInput, ctx: PrimePower) -> Residue:
    """E_m(arg) mod p^e via the expansion around 1/2 (denominators are 2-powers).

    Summed term by term mod p^e as sum_k C(m,k) (E_k / 2^k) (arg - 1/2)^(m-k).
    """
    mod = ctx.modulus
    x = require_p_integral(arg, ctx.p)
    half = residue_from_rational(x - Fraction(1, 2), ctx).value
    total = 0
    for k in range(m + 1):
        total += comb(m, k) * euler_number_exact(k) * pow(2, -k, mod) * pow(half, m - k, mod)
    return Residue(total, ctx)


# --- signed binomials ------------------------------------------------------


def signed_binomial(n: int, k: int) -> int:
    """(-1)^k C(n,k) C(n+k,k), the summand of the alternating binomial sums."""
    s = comb(n, k) * comb(n + k, k)
    return -s if k % 2 else s


# --- Apery numbers ---------------------------------------------------------

_APERY: dict[int, int] = {}


def apery_number(n: int) -> int:
    """Sum over k of C(n,k)^2 C(n+k,k)^2 (the Apery numbers 1, 5, 73, ...)."""
    if n not in _APERY:
        _APERY[n] = sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))
    return _APERY[n]
