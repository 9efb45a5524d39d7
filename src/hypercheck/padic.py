"""Arithmetic substrate: prime-power moduli and residues mod p^e.

Everything downstream works with `Residue` (canonical value in [0, p^e)), a
plain slotted class like `PrimePower`, built 148,181 times on the default sweep.
Code that must keep p-divisible quantities exact carries them as plain
integer pairs (v, u) meaning u * p^v and reduces once at the end; v comes
from a theorem where one gives it (the exact oracle's denominators) and
from `split_p_power` otherwise.  Rationals enter only through
`residue_from_rational`, which rejects denominators divisible by p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NonUnitDenominator

#: Hard cap on the exponent e of a modulus p^e.  Desk-scale sweeps need
#: e = 2 or 3; the mod-p^3 conjectures need 3 + v_p(n^2 S(n)) which reaches
#: 5 on the default domain, and one spare exponent supports headroom
#: experiments.
MAX_EXPONENT = 6

# Deterministic Miller-Rabin witness set, valid far past 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PadicInput = int | Fraction


@lru_cache(maxsize=1024)  # every PrimePower of a sweep asks about the same few p
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def split_p_power(n: int, p: int) -> tuple[int, int]:
    """Write n != 0 as unit * p^v; returns (v, unit), dividing by p v times,
    which suits the small valuations its callers see."""
    if n == 0:
        raise ValueError("0 has no finite valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def as_fraction(x: PadicInput) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def require_p_integral(x: PadicInput, p: int) -> Fraction:
    """Return x as a Fraction, rejecting denominators divisible by p."""
    q = as_fraction(x)
    if q.denominator % p == 0:
        raise NonUnitDenominator(f"{q} has denominator divisible by {p}")
    return q


class PrimePower:
    """Slotted modulus context p^e, p a prime >= 5, 1 <= e <= MAX_EXPONENT,
    equal and hashed as (p, e).  ``tables`` holds the memo rows that depend
    only on p^e while the modulus lives, outside equality, hash and repr."""

    __slots__ = ("p", "e", "modulus", "tables", "__weakref__")

    def __init__(self, p: int, e: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"need a prime p >= 5, got {p}")
        if not 1 <= e <= MAX_EXPONENT:
            raise ValueError(f"need 1 <= e <= {MAX_EXPONENT}, got e={e}")
        self.p, self.e, self.modulus, self.tables = p, e, p**e, {}

    def __eq__(self, other):
        return isinstance(other, PrimePower) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"PrimePower(p={self.p}, e={self.e})"


class Residue:
    """Slotted canonical residue in [0, p^e) with ring operations, equal by (value, ctx)."""

    __slots__ = ("value", "ctx")

    def __init__(self, value: int, ctx: PrimePower):
        self.value, self.ctx = value % ctx.modulus, ctx

    def __eq__(self, other):
        return isinstance(other, Residue) and (self.value, self.ctx) == (other.value, other.ctx)

    def __repr__(self):
        return f"Residue(value={self.value}, ctx={self.ctx!r})"

    def _lift(self, other) -> int:
        if isinstance(other, Residue):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        return v if v is NotImplemented else Residue(self.value + v, self.ctx)

    def __sub__(self, other):
        v = self._lift(other)
        return v if v is NotImplemented else Residue(self.value - v, self.ctx)

    def __mul__(self, other):
        v = self._lift(other)
        return v if v is NotImplemented else Residue(self.value * v, self.ctx)

    def __neg__(self):
        return Residue(-self.value, self.ctx)


def residue_from_rational(q: PadicInput, ctx: PrimePower) -> Residue:
    """Reduce a p-integral rational mod p^e."""
    q = as_fraction(q)
    if q.denominator % ctx.p == 0:
        raise NonUnitDenominator(
            f"{q} has denominator divisible by {ctx.p}, cannot reduce mod {ctx.p}^{ctx.e}"
        )
    m = ctx.modulus
    return Residue(q.numerator % m * pow(q.denominator % m, -1, m), ctx)
