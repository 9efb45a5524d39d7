"""Prime-power contexts and residues."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypercheck.errors import NonUnitDenominator
from hypercheck.padic import (
    MAX_EXPONENT,
    PrimePower,
    Residue,
    is_prime,
    residue_from_rational,
    split_p_power,
)

PRIMES = (5, 7, 11, 13, 31, 97, 499)

ctxs = st.builds(
    PrimePower,
    st.sampled_from(PRIMES),
    st.integers(min_value=1, max_value=4),
)


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@given(st.integers(min_value=-10, max_value=100_000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division(n)


def test_is_prime_rejects_strong_pseudoprimes():
    # composite, but a strong pseudoprime to bases 2, 3, 5, and 7
    n = 3215031751
    assert n == 151 * 751 * 28351
    assert not is_prime(n)
    assert is_prime(2**61 - 1)


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from(PRIMES))
def test_split_p_power_roundtrip(n, p):
    v, u = split_p_power(n, p)
    assert u * p**v == n
    assert u % p != 0


@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=0, max_value=300),
    st.one_of(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=10**40, max_value=10**90),
    ),
    st.booleans(),
)
def test_split_p_power_large_powers(p, k, u, negative):
    if u % p == 0:
        u += 1
    if negative:
        u = -u
    assert split_p_power(u * p**k, p) == (k, u)


def test_context_validation():
    with pytest.raises(ValueError, match=r"^need a prime p >= 5, got 4$"):
        PrimePower(4, 2)
    with pytest.raises(ValueError, match=r"^need a prime p >= 5, got 3$"):
        PrimePower(3, 2)  # domain starts at 5
    with pytest.raises(ValueError, match=r"^need 1 <= e <= 6, got e=0$"):
        PrimePower(7, 0)
    with pytest.raises(ValueError, match=rf"^need 1 <= e <= 6, got e={MAX_EXPONENT + 1}$"):
        PrimePower(7, MAX_EXPONENT + 1)
    assert PrimePower(7, 3).modulus == 343


def test_context_repr_equality_and_hash():
    # the context-mismatch message embeds the repr; tables take no part
    ctx = PrimePower(7, 2)
    assert repr(ctx) == "PrimePower(p=7, e=2)"
    other = PrimePower(7, 2)
    other.tables["row"] = [1]
    assert ctx == other and hash(ctx) == hash(other)
    assert ctx != PrimePower(7, 3) and ctx != PrimePower(11, 2)
    assert repr(Residue(9, PrimePower(5, 1))) == "Residue(value=4, ctx=PrimePower(p=5, e=1))"


@given(ctxs, st.integers(), st.integers())
def test_residue_ring_ops_match_integers(ctx, a, b):
    m = ctx.modulus
    ra, rb = Residue(a, ctx), Residue(b, ctx)
    assert (ra + rb).value == (a + b) % m
    assert (ra - rb).value == (a - b) % m
    assert (ra * rb).value == (a * b) % m
    assert (-ra).value == (-a) % m
    assert (ra + b).value == (a + b) % m


def test_residue_context_mismatch():
    with pytest.raises(
        ValueError,
        match=r"^context mismatch: PrimePower\(p=5, e=2\) vs PrimePower\(p=7, e=2\)$",
    ):
        Residue(1, PrimePower(5, 2)) + Residue(1, PrimePower(7, 2))
    with pytest.raises(ValueError, match=r"^context mismatch: "):
        Residue(1, PrimePower(5, 2)) + Residue(1, PrimePower(5, 3))
    # an equal context built apart is no mismatch
    assert (Residue(3, PrimePower(5, 2)) * Residue(4, PrimePower(5, 2))).value == 12
    assert Residue(27, PrimePower(5, 2)) == Residue(2, PrimePower(5, 2))
    assert Residue(2, PrimePower(5, 2)) != Residue(2, PrimePower(5, 3))


def test_residue_from_rational_values():
    ctx = PrimePower(5, 2)
    assert residue_from_rational(Fraction(1, 4), ctx).value == 19
    assert residue_from_rational(Fraction(-1, 3), ctx).value == 8
    assert residue_from_rational(7, ctx).value == 7
    with pytest.raises(NonUnitDenominator):
        residue_from_rational(Fraction(1, 5), ctx)


@given(
    ctxs,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_residue_from_rational_solves_congruence(ctx, num, den):
    if den % ctx.p == 0:
        return
    r = residue_from_rational(Fraction(num, den), ctx)
    assert (r.value * den - num) % ctx.modulus == 0
