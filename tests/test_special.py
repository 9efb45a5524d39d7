"""Fermat quotients, harmonic numbers, Euler/Bernoulli values, Apery numbers."""

from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, strategies as st

from hypercheck import special
from hypercheck.errors import IndexTooLarge, NonUnit, PDivisibleDenominator
from hypercheck.padic import PrimePower, Residue, residue_from_rational

PRIMES = (5, 7, 11, 13, 31, 97)
REFERENCE_MAX = 600


@cache
def reference_bernoulli() -> list[Fraction]:
    """B_0..B_600 by the textbook recurrence sum_{k<=j} C(j+1,k) B_k = 0."""
    table = [Fraction(1), Fraction(-1, 2)]
    for j in range(2, REFERENCE_MAX + 1):
        s = sum(comb(j + 1, k) * table[k] for k in range(j))
        table.append(-s / (j + 1))
    return table


def bernoulli_exact(m: int) -> Fraction:
    """Bernoulli number B_m with the B_1 = -1/2 convention, read from the
    module's table."""
    return special._tables("B", m)[1][m]


@cache
def reference_euler() -> list[int]:
    """E_0..E_600 by the recurrence sum_k C(j, 2k) E_2k = 0 for even j >= 2."""
    table = [1]
    for j in range(1, REFERENCE_MAX + 1):
        if j % 2:
            table.append(0)
        else:
            table.append(-sum(comb(j, 2 * k) * table[2 * k] for k in range(j // 2)))
    return table


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=10**6))
def test_fermat_quotient_definition(p, a):
    ctx = PrimePower(p, 1)
    if a % p == 0:
        with pytest.raises(NonUnit):
            special.fermat_quotient(a, ctx)
        return
    q = special.fermat_quotient(a, ctx)
    assert q.ctx is ctx
    assert q.value == (pow(a, p - 1, p * p) - 1) // p % p


def test_legendre_small_table():
    # squares mod 7 are {1, 2, 4}
    assert [special.legendre(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    assert special.legendre(-1, 5) == 1
    assert special.legendre(-1, 7) == -1
    with pytest.raises(NonUnit):
        special.legendre(14, 7)


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=500))
def test_legendre_is_multiplicative(p, a):
    if a % p == 0:
        return
    assert special.legendre(a * a, p) == 1
    assert special.legendre(a, p) * special.legendre(a, p) == 1


def test_least_residue_values():
    assert special.least_residue(Fraction(1, 2), 7) == 4
    assert special.least_residue(Fraction(-1, 2), 7) == 3
    assert special.least_residue(10, 7) == 3
    assert special.least_residue(Fraction(1, 3), 5) == 2


@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=1, max_value=50),
)
def test_least_residue_solves_congruence(p, num, den):
    if den % p == 0:
        return
    m = special.least_residue(Fraction(num, den), p)
    assert 0 <= m < p
    assert (m * den - num) % p == 0


def test_sign_and_floor_for_quartic_points():
    # the least residue of -x agrees in parity with floor(p*x) for the
    # four families, which is what links the sign to the floor multiple
    for p in (5, 7, 11, 13, 97):
        for den in (2, 3, 4, 6):
            x = Fraction(1, den)
            sgn = special.sign_of_least_residue(x, p)
            assert sgn == (-1) ** special.floor_px(x, p)


def test_floor_px():
    assert special.floor_px(Fraction(1, 2), 7) == 3
    assert special.floor_px(Fraction(1, 6), 7) == 1
    assert special.floor_px(Fraction(5, 6), 7) == 5
    assert special.floor_px(2, 7) == 14


@given(st.integers(min_value=0, max_value=400))
def test_harmonic_exact_recurrence(n):
    h = special.harmonic_exact(n)
    if n == 0:
        assert h == 0
    else:
        assert h - special.harmonic_exact(n - 1) == Fraction(1, n)


@given(st.sampled_from(PRIMES), st.integers(min_value=0, max_value=96), st.integers(min_value=1, max_value=3))
def test_harmonic_mod_matches_exact(p, n, e):
    if n >= p:
        with pytest.raises(IndexTooLarge):
            special.harmonic_mod(n, PrimePower(p, e))
        return
    ctx = PrimePower(p, e)
    assert special.harmonic_mod(n, ctx) == residue_from_rational(
        special.harmonic_exact(n), ctx
    )


def test_harmonic_symmetry_mod_p():
    # H_{p-1-k} and H_k agree mod p; the wraparound behind the convolution step
    for p in (7, 13, 31):
        ctx = PrimePower(p, 1)
        for k in range(p):
            assert special.harmonic_mod(p - 1 - k, ctx) == special.harmonic_mod(k, ctx)


def test_negative_indices_are_rejected():
    # build every table past index 6 first: a negative index used to read
    # the last cached entry (B_-1 was 1/42 once B_6 was built)
    ctx = PrimePower(7, 1)
    bernoulli_exact(6)
    special.euler_number_exact(6)
    special.harmonic_exact(5)
    special.harmonic_mod(5, ctx)
    calls = [
        lambda: bernoulli_exact(-1),
        lambda: special.euler_number_exact(-2),
        lambda: special.euler_number_mod(-2, ctx),
        lambda: special.harmonic_exact(-1),
        lambda: special.harmonic_mod(-1, ctx),
        lambda: special.bernoulli_polynomial_mod(-1, Fraction(1, 3), ctx),
        lambda: special.euler_polynomial_mod(-1, Fraction(1, 4), ctx),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"index must be >= 0$"):
            call()


def test_euler_numbers_frozen():
    want = {0: 1, 1: 0, 2: -1, 3: 0, 4: 5, 6: -61, 8: 1385, 10: -50521, 12: 2702765}
    for m, em in want.items():
        assert special.euler_number_exact(m) == em


@given(st.integers(min_value=0, max_value=60))
def test_euler_number_recurrence(m):
    # sum_k C(2n, 2k) E_2k = 0 for n >= 1
    if m % 2 == 1:
        assert special.euler_number_exact(m) == 0
        return
    if m == 0:
        assert special.euler_number_exact(0) == 1
        return
    total = sum(
        comb(m, 2 * k) * special.euler_number_exact(2 * k) for k in range(m // 2 + 1)
    )
    assert total == 0


def test_euler_number_mod():
    ctx = PrimePower(11, 2)
    assert special.euler_number_mod(8, ctx).value == 1385 % 121


def test_bernoulli_frozen():
    assert bernoulli_exact(0) == 1
    assert bernoulli_exact(1) == Fraction(-1, 2)
    assert bernoulli_exact(2) == Fraction(1, 6)
    assert bernoulli_exact(4) == Fraction(-1, 30)
    assert bernoulli_exact(6) == Fraction(1, 42)
    assert bernoulli_exact(12) == Fraction(-691, 2730)
    assert bernoulli_exact(9) == 0


@pytest.mark.parametrize(
    "order",
    [
        range(REFERENCE_MAX + 1),  # rising one by one, as a prime sweep asks
        [REFERENCE_MAX, *range(REFERENCE_MAX)],  # one jump to the top
        range(REFERENCE_MAX, -1, -1),  # falling
    ],
    ids=["rising", "jump", "falling"],
)
def test_tables_match_reference_recurrences(monkeypatch, order):
    # every index to 600, odd ones and B_1 = -1/2 included, in any request
    # order; start from the import-time tables, whatever earlier tests built,
    # and check that the two tables only ever grow together
    monkeypatch.setattr(special, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(special, "_EULER", [1, 0])
    bern, euler = reference_bernoulli(), reference_euler()
    for m in order:
        assert bernoulli_exact(m) == bern[m], m
        assert len(special._EULER) == len(special._BERNOULLI), m
        assert special.euler_number_exact(m) == euler[m], m
        assert len(special._EULER) == len(special._BERNOULLI), m
    assert special._BERNOULLI[: REFERENCE_MAX + 1] == bern
    assert special._EULER[: REFERENCE_MAX + 1] == euler


def _bernoulli_poly_exact(m: int, x: Fraction) -> Fraction:
    bern = reference_bernoulli()
    return sum(comb(m, k) * bern[k] * x ** (m - k) for k in range(m + 1))


def _euler_poly_exact(m: int, x: Fraction) -> Fraction:
    # E_m(x) expanded around 1/2 with the integer Euler numbers as derivatives
    euler = reference_euler()
    return sum(
        comb(m, k) * Fraction(euler[k], 2**k) * (x - Fraction(1, 2)) ** (m - k)
        for k in range(m + 1)
    )


@given(
    st.integers(min_value=0, max_value=20),
    st.fractions(max_denominator=12, min_value=Fraction(-3), max_value=Fraction(3)),
)
def test_bernoulli_polynomial_mod_matches_exact(m, x):
    ctx = PrimePower(97, 2)  # 97 > 20 + 1 keeps every denominator a unit
    if x.denominator % 97 == 0:
        return
    got = special.bernoulli_polynomial_mod(m, x, ctx)
    assert got == residue_from_rational(_bernoulli_poly_exact(m, x), ctx)


def test_bernoulli_polynomial_denominator_guard():
    # B_4 = -1/30 has 5 in its denominator: unusable mod powers of 5
    with pytest.raises(PDivisibleDenominator):
        special.bernoulli_polynomial_mod(4, Fraction(1, 3), PrimePower(5, 1))
    # the first such B_k in increasing k is the one named
    with pytest.raises(PDivisibleDenominator, match=r"^B_4 has 5 in its denominator$"):
        special.bernoulli_polynomial_mod(12, Fraction(1, 3), PrimePower(5, 2))
    # B_6 = 1/42 is the first with 7, and B_12 = -691/2730 the first with 13,
    # however far past them the sum runs
    for m in (6, 7, 40):
        with pytest.raises(PDivisibleDenominator, match=r"^B_6 has 7 in its denominator$"):
            special.bernoulli_polynomial_mod(m, Fraction(1, 3), PrimePower(7, 3))
    with pytest.raises(PDivisibleDenominator, match=r"^B_12 has 13 in its denominator$"):
        special.bernoulli_polynomial_mod(300, Fraction(1, 3), PrimePower(13, 1))
    # below p - 1 every B_k is p-integral
    special.bernoulli_polynomial_mod(5, Fraction(1, 3), PrimePower(7, 3))


def test_conjecture_polynomials_match_fraction_sums():
    # B_{p-2}(1/3) and E_{p-3}(1/4) are summed term by term mod p^e with
    # running binomials and powers; pin them to the plain Fraction sums on
    # every prime to 499 at e = 1, and below 200 for the e up to 4 that
    # --mod-exp 6 reaches (a wrong running value can hide at small m)
    for p in (q for q in range(5, 500) if all(q % d for d in range(2, q))):
        bern = _bernoulli_poly_exact(p - 2, Fraction(1, 3))
        euler = _euler_poly_exact(p - 3, Fraction(1, 4))
        for e in range(1, 5 if p < 200 else 2):
            ctx = PrimePower(p, e)
            got = special.bernoulli_polynomial_mod(p - 2, Fraction(1, 3), ctx)
            assert got == residue_from_rational(bern, ctx), (p, e)
            got = special.euler_polynomial_mod(p - 3, Fraction(1, 4), ctx)
            assert got == residue_from_rational(euler, ctx), (p, e)


@given(
    st.integers(min_value=0, max_value=20),
    st.fractions(max_denominator=12, min_value=Fraction(-3), max_value=Fraction(3)),
)
def test_euler_polynomial_mod_matches_exact(m, x):
    ctx = PrimePower(97, 2)
    if x.denominator % 97 == 0:
        return
    got = special.euler_polynomial_mod(m, x, ctx)
    assert got == residue_from_rational(_euler_poly_exact(m, x), ctx)


def test_euler_polynomial_classical_values():
    ctx = PrimePower(13, 2)
    # E_m(1/2) = E_m / 2^m
    for m in (0, 1, 2, 4, 6):
        lhs = special.euler_polynomial_mod(m, Fraction(1, 2), ctx)
        rhs = residue_from_rational(
            Fraction(special.euler_number_exact(m), 2**m), ctx
        )
        assert lhs == rhs
    # E_1(x) = x - 1/2
    assert special.euler_polynomial_mod(1, Fraction(1, 4), ctx) == residue_from_rational(
        Fraction(-1, 4), ctx
    )


def test_apery_frozen():
    want = [1, 5, 73, 1445, 33001, 819005, 21460825]
    assert [special.apery_number(n) for n in range(7)] == want


@given(st.integers(min_value=0, max_value=40))
def test_apery_definition(n):
    assert special.apery_number(n) == sum(
        comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1)
    )
