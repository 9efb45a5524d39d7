"""Series evaluation: exact engine, modular engine, factorial table, families."""

import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercheck import _kernel, series
from hypercheck.errors import InternalError, NonUnitDenominator
from hypercheck.padic import PrimePower, Residue, is_prime, residue_from_rational
from hypercheck.series import (
    QUARTIC_BY_X,
    QUARTICS,
    pochhammer_exact,
    truncated_series_exact,
    truncated_series_mod,
    two_f_one,
    window_residue_exact,
    window_sum_exact,
    window_sum_mod,
)

PRIMES = (5, 7, 11, 13, 31, 97)


def brute_term(x, k) -> Fraction:
    """t_k(x) = (x)_k (1-x)_k / (k!)^2, straight from the definition."""
    return pochhammer_exact(x, k) * pochhammer_exact(1 - x, k) / pochhammer_exact(1, k) ** 2


def brute_series(x, terms) -> Fraction:
    """Oracle: F(x; terms) term by term."""
    return sum((brute_term(x, k) for k in range(terms)), Fraction(0))


def generalized_binomial(y: Fraction, k: int) -> Fraction:
    """C(y, k) = y (y-1) ... (y-k+1) / k! for rational y."""
    out = Fraction(1)
    for i in range(k):
        out = out * (y - i) / (i + 1)
    return out


@given(st.integers(min_value=0, max_value=30), st.fractions(max_denominator=8))
def test_pochhammer_matches_product(k, a):
    want = Fraction(1)
    for i in range(k):
        want *= a + i
    assert pochhammer_exact(a, k) == want


def test_spot_value_length_five():
    # 1 + 1/4 + 9/64 + 25/256 + 1225/16384, the length-5 sum at x = 1/2
    spec = two_f_one(Fraction(1, 2), 5)
    total = truncated_series_exact(spec)
    assert total == 1 + Fraction(1, 4) + Fraction(9, 64) + Fraction(25, 256) + Fraction(
        1225, 16384
    )
    assert total == Fraction(25609, 16384)
    assert residue_from_rational(total, PrimePower(5, 2)).value == 1


@st.composite
def p_integral_xs(draw):
    """(p, x) with x = a/b, b <= 12 prime to p and |a| <= 3p."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    b = draw(st.integers(min_value=1, max_value=12).filter(lambda d: d % p))
    return p, Fraction(draw(st.integers(min_value=-3 * p, max_value=3 * p)), b)


@settings(max_examples=300)
@given(p_integral_xs(), st.data())
def test_every_term_is_p_integral(px, data):
    # t_k(x) = C(x+k-1, k) C(k-x, k), and C(Y, k) maps Z_p into Z_p: this is
    # why neither engine has a negative-valuation or non-integral-sum path
    p, x = px
    k = data.draw(st.integers(min_value=0, max_value=5 * p - 1))
    upper = generalized_binomial(x + k - 1, k)
    lower = generalized_binomial(k - x, k)
    assert upper * lower == brute_term(x, k)
    assert upper.denominator % p and lower.denominator % p


@given(
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.integers(min_value=0, max_value=25),
)
def test_exact_engine_matches_brute_force(x, terms):
    assert truncated_series_exact(two_f_one(x, terms)) == brute_series(x, terms)


@given(
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10),
)
def test_window_sums_concatenate(a, cut1, cut2, tail):
    lo, mid, hi = sorted((cut1, cut2, cut1 + tail))
    spec = two_f_one(a, hi)
    assert window_sum_exact(spec, 0, lo) + window_sum_exact(
        spec, lo, mid
    ) + window_sum_exact(spec, mid, hi) == truncated_series_exact(spec)


@settings(max_examples=300)
@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=1, max_value=4),
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.integers(min_value=0, max_value=120),
)
def test_modular_engine_matches_exact_reduction(p, e, x, terms):
    if x.denominator % p == 0:
        return
    ctx = PrimePower(p, e)
    spec = two_f_one(x, terms)
    assert truncated_series_mod(spec, ctx) == residue_from_rational(
        truncated_series_exact(spec), ctx
    )


def test_dead_break_on_negative_integer_upper():
    # x = -3 kills every term past k = 3, and so does 1 - x = -3 at x = 4
    ctx = PrimePower(7, 2)
    for x in (-3, 4):
        spec, short = two_f_one(x, 50), two_f_one(x, 4)
        assert truncated_series_exact(spec) == truncated_series_exact(short) != 0
        assert truncated_series_mod(spec, ctx) == truncated_series_mod(short, ctx)
        assert window_residue_exact(spec, 0, 50, ctx) == truncated_series_mod(short, ctx)
        assert window_residue_exact(spec, 4, 50, ctx) == Residue(0, ctx)


def test_non_unit_series_parameters_rejected():
    ctx = PrimePower(5, 2)
    for x in (Fraction(1, 5), Fraction(-2, 15)):
        with pytest.raises(NonUnitDenominator, match=f"series parameter {x} has"):
            truncated_series_mod(two_f_one(x, 7), ctx)
        with pytest.raises(NonUnitDenominator, match=f"series parameter {x} has"):
            window_residue_exact(two_f_one(x, 7), 0, 7, ctx)


def test_non_integral_oracle_sum_is_an_internal_error(monkeypatch):
    # unreachable unless the ratio factors are wrong: every term is p-integral
    ratio_factors = series._ratio_factors

    def one_p_too_many(x, stop):
        nums, dens = ratio_factors(x, stop)
        return nums, [5 * d for d in dens]

    monkeypatch.setattr(series, "_ratio_factors", one_p_too_many)
    with pytest.raises(InternalError, match="is not 5-integral"):
        window_residue_exact(two_f_one(Fraction(1, 2), 3), 0, 3, PrimePower(5, 2))


@st.composite
def oracle_cases(draw):
    """Windows of F(x; N) for the exact oracle: integer x (dead terms)
    among p-integral x, k_stop at p, 2p, p^2 or up to 4p, any k_start and
    e in 1..6."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    den = draw(st.sampled_from((1, 1, 2, 3, 4, 6)))
    x = Fraction(draw(st.integers(min_value=-2 * p, max_value=2 * p)), den)
    k_stop = draw(
        st.one_of(st.sampled_from((p, 2 * p, p * p)), st.integers(min_value=0, max_value=4 * p))
    )
    k_start = draw(st.integers(min_value=0, max_value=k_stop + 2))
    ctx = PrimePower(p, draw(st.integers(min_value=1, max_value=6)))
    return two_f_one(x, k_stop), k_start, k_stop, ctx


@settings(max_examples=400)
@given(oracle_cases())
# a zero factor before the window, inside it and at its last step
@example((two_f_one(-2, 20), 4, 20, PrimePower(7, 3)))
@example((two_f_one(4, 20), 2, 20, PrimePower(7, 6)))
@example((two_f_one(-5, 6), 1, 6, PrimePower(7, 2)))
@example((two_f_one(0, 5), 0, 5, PrimePower(5, 2)))
def test_binary_splitting_oracle_matches_fraction_route(case):
    spec, k_start, k_stop, ctx = case
    want = residue_from_rational(window_sum_exact(spec, k_start, k_stop), ctx)
    assert window_residue_exact(spec, k_start, k_stop, ctx) == want


def test_binary_splitting_oracle_on_long_windows():
    # the p^2-term sums and the blocks [r p, (r+1) p) the suites ask for
    for fam in QUARTICS:
        for p, r, e in ((31, 0, 2), (31, 3, 3), (97, 0, 2)):
            spec = two_f_one(fam.x, p * p)
            for lo, hi in ((0, p * p), (r * p, (r + 1) * p)):
                ctx = PrimePower(p, e)
                want = residue_from_rational(window_sum_exact(spec, lo, hi), ctx)
                assert window_residue_exact(spec, lo, hi, ctx) == want


def test_kernel_takes_k_stop_sixth():
    # perfbench's tracer counts the sixth positional argument as kernel.terms
    params = list(inspect.signature(_kernel.series_window_mod).parameters)
    assert params[5] == "k_stop"


@st.composite
def kernel_windows(draw):
    """Kernel arguments (xn, xd, p, e, k_start, k_stop) in its domain: x =
    xn/xd reduced with xd <= 12 prime to p and |xn| <= 3p, so integer x
    kill terms."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    xd = draw(st.integers(min_value=1, max_value=12).filter(lambda d: d % p))
    x = Fraction(draw(st.integers(min_value=-3 * p, max_value=3 * p)), xd)
    k_stop = draw(
        st.one_of(
            st.sampled_from((p, p * p, p**3)),
            st.integers(min_value=0, max_value=4 * p),
        )
    )
    return (
        x.numerator,
        x.denominator,
        p,
        draw(st.integers(min_value=1, max_value=6)),
        draw(st.integers(min_value=0, max_value=k_stop)),
        k_stop,
    )


def fresh_window(window):
    """The kernel's value on an emptied walker table; the real table is untouched."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_WALKERS", {})
        return _kernel.series_window_mod(*window)


def assert_matches_exact_oracle(window, got):
    xn, xd, p, e, k_start, k_stop = window
    spec = two_f_one(Fraction(xn, xd), k_stop)
    ctx = PrimePower(p, e)
    assert got == residue_from_rational(window_sum_exact(spec, k_start, k_stop), ctx).value


@given(kernel_windows())
def test_pure_kernel_matches_exact_oracle(window):
    assert_matches_exact_oracle(window, fresh_window(window))


@st.composite
def window_sequences(draw, series_count=1):
    """2-8 windows on up to ``series_count`` series, stops in any order."""
    series_args = []
    for _ in range(series_count):
        xn, xd, p, e, _, _ = draw(kernel_windows())
        series_args.append((xn, xd, p, e))
    out = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        xn, xd, p, e = draw(st.sampled_from(series_args))
        k_stop = draw(
            st.one_of(st.sampled_from((p, p * p)), st.integers(min_value=0, max_value=4 * p))
        )
        k_start = draw(st.integers(min_value=0, max_value=k_stop))
        out.append((xn, xd, p, e, k_start, k_stop))
    return out


HALF = (1, 2)  # F(1/2; N)
DEAD = (-3, 1)  # x = -3 kills every term past k = 3


@settings(max_examples=300)
@given(window_sequences())
@example([(*HALF, 7, 3, 14, 21), (*HALF, 7, 3, 7, 14)])
@example([(*DEAD, 7, 3, 2, 40), (*DEAD, 7, 3, 1, 3)])
@example([(4, 1, 5, 2, 1, 12), (4, 1, 5, 2, 0, 4), (4, 1, 5, 2, 2, 3)])  # 1 - x = -3
def test_walker_requests_match_fresh_walks_and_oracle(windows):
    _kernel._WALKERS.clear()
    for window in windows:
        got = _kernel.series_window_mod(*window)
        assert got == fresh_window(window)
        assert_matches_exact_oracle(window, got)


@given(window_sequences(series_count=3))
def test_evicted_walkers_restart_cleanly(windows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "WALKER_LIMIT", 2)
        mp.setattr(_kernel, "_WALKERS", {})
        for window in windows:
            got = _kernel.series_window_mod(*window)
            assert got == fresh_window(window)
            assert_matches_exact_oracle(window, got)
            assert len(_kernel._WALKERS) <= 2


def legendre_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


@given(st.sampled_from(PRIMES), st.integers(min_value=0, max_value=400))
def test_factorial_table_valuation_and_unit(p, n):
    m = p**3
    v, u = series._factorials(n, p, m)[n]
    assert v == legendre_valuation(n, p)
    # unit digits: n! / p^v mod p^3
    assert u == math.factorial(n) // p**v % m


def test_quartic_families_table():
    assert [f.x for f in QUARTICS] == [
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
        Fraction(1, 6),
    ]
    assert [f.base for f in QUARTICS] == [16, 27, 64, 432]
    assert [f.character_arg for f in QUARTICS] == [-1, -3, -2, -1]


@given(st.sampled_from(QUARTICS), st.integers(min_value=0, max_value=40))
def test_family_term_equals_series_term(fam, n):
    # binomial-product over base^n is the same rational as the n-th series term
    assert fam.term_exact(n) == brute_term(fam.x, n)


@given(
    st.sampled_from(QUARTICS),
    st.sampled_from(PRIMES),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=3),
)
def test_family_term_scaled_matches_exact(fam, p, n, e):
    ctx = PrimePower(p, e)
    assert fam.term_scaled(n, ctx) == residue_from_rational(fam.term_exact(n), ctx)


def test_factorial_table_keeps_only_the_latest_prime():
    fam = QUARTIC_BY_X[Fraction(1, 6)]
    for p in filter(is_prime, range(5, 98)):
        ctx = PrimePower(p, 2)
        for n in range(p):
            fam.term_scaled(n, ctx)
        assert list(series._FACTORIALS) == [(p, p * p)]


@given(
    st.sampled_from(QUARTICS),
    st.sampled_from((5, 7, 11, 13)),
    st.integers(min_value=0, max_value=4),
)
def test_block_window_sum_matches_exact_window(fam, p, r):
    ctx = PrimePower(p, 2)
    spec = two_f_one(fam.x, (r + 1) * p)
    got = window_sum_mod(spec, r * p, (r + 1) * p, ctx)
    assert got == residue_from_rational(
        window_sum_exact(spec, r * p, (r + 1) * p), ctx
    )
