"""Series evaluation: exact engine, modular engine, factorial table, families."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercheck import _kernel, series
from hypercheck.errors import NegativeValuation, NonUnitDenominator, PoleInLowerParameter
from hypercheck.padic import PrimePower, Residue, is_prime, residue_from_rational
from hypercheck.series import (
    QUARTIC_BY_X,
    QUARTICS,
    pochhammer_exact,
    series_spec,
    truncated_series_exact,
    truncated_series_mod,
    two_f_one,
    window_residue_exact,
    window_sum_exact,
    window_sum_mod,
)

PRIMES = (5, 7, 11, 13, 31, 97)


def brute_series(upper, lower, z, terms) -> Fraction:
    """Oracle: term-by-term rational sum straight from the definition."""
    total = Fraction(0)
    for k in range(terms):
        t = Fraction(z) ** k
        for a in upper:
            t *= pochhammer_exact(a, k)
        for b in lower:
            pk = pochhammer_exact(b, k)
            t /= pk
        t /= Fraction(1) * pochhammer_exact(1, k)  # the implicit k!
        total += t
    return total


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


@given(
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.integers(min_value=0, max_value=25),
)
def test_exact_engine_matches_brute_force(a, b, terms):
    spec = series_spec((a, b), (1,), 1, terms)
    assert truncated_series_exact(spec) == brute_series((a, b), (Fraction(1),), 1, terms)


@given(
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10),
)
def test_window_sums_concatenate(a, cut1, cut2, tail):
    lo, mid, hi = sorted((cut1, cut2, cut1 + tail))
    spec = series_spec((a, 1 - a), (1,), 1, hi)
    assert window_sum_exact(spec, 0, lo) + window_sum_exact(
        spec, lo, mid
    ) + window_sum_exact(spec, mid, hi) == truncated_series_exact(spec)


@settings(max_examples=300)
@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=1, max_value=4),
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.integers(min_value=0, max_value=120),
)
def test_modular_engine_matches_exact_reduction(p, e, a, b, terms):
    if a.denominator % p == 0 or b.denominator % p == 0:
        return
    ctx = PrimePower(p, e)
    spec = series_spec((a, b), (1,), 1, terms)
    exact = truncated_series_exact(spec)
    got = truncated_series_mod(spec, ctx)
    if exact.denominator % p:
        assert got == residue_from_rational(exact, ctx)
    # a p in the denominator can only come from a pole-free cancellation
    # pattern that the scaled window engine resolves; covered by suite runs


def test_dead_break_on_negative_integer_upper():
    # upper parameter -3 kills every term past k = 3
    spec = series_spec((-3, Fraction(1, 2)), (1,), 1, 50)
    short = series_spec((-3, Fraction(1, 2)), (1,), 1, 4)
    assert truncated_series_exact(spec) == truncated_series_exact(short)
    ctx = PrimePower(7, 2)
    assert truncated_series_mod(spec, ctx) == truncated_series_mod(short, ctx)


def test_pole_in_lower_parameter_raises():
    spec = series_spec((Fraction(1, 2), Fraction(1, 3)), (-2,), 1, 10)
    with pytest.raises(PoleInLowerParameter):
        truncated_series_exact(spec)
    with pytest.raises(PoleInLowerParameter):
        truncated_series_mod(spec, PrimePower(7, 2))


def test_lower_pole_not_reached_is_fine():
    spec = series_spec((Fraction(1, 2), Fraction(1, 3)), (-12,), 1, 5)
    assert truncated_series_exact(spec) == brute_series(
        (Fraction(1, 2), Fraction(1, 3)), (Fraction(-12),), 1, 5
    )


def test_non_unit_series_parameters_rejected():
    ctx = PrimePower(5, 2)
    with pytest.raises(NonUnitDenominator):
        truncated_series_mod(two_f_one(Fraction(1, 5), 7), ctx)
    with pytest.raises(NonUnitDenominator):
        truncated_series_mod(series_spec((1,), (1,), Fraction(1, 5), 7), ctx)
    with pytest.raises(NonUnitDenominator):
        truncated_series_mod(series_spec((1,), (1,), Fraction(5, 2), 7), ctx)


@st.composite
def oracle_cases(draw):
    """Windows for the exact oracle: 1-3 uppers and 0-2 lowers, integer
    parameters (zero uppers and poles) and p-divisible denominators
    (sums that are not p-integral), z != 1, any k_start and e in 1..6."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    den = st.sampled_from((1, 1, 2, 3, 4, 6, p))
    param = st.builds(Fraction, st.integers(min_value=-2 * p, max_value=2 * p), den)
    z = st.builds(
        Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from((1, 2, 3, p))
    ).filter(lambda q: q != 1)
    k_stop = draw(
        st.one_of(st.sampled_from((p, 2 * p, p * p)), st.integers(min_value=0, max_value=4 * p))
    )
    spec = series_spec(
        draw(st.lists(param, min_size=1, max_size=3)),
        draw(st.lists(param, max_size=2)),
        draw(z),
        k_stop,
    )
    k_start = draw(st.integers(min_value=0, max_value=k_stop + 2))
    return spec, k_start, k_stop, PrimePower(p, draw(st.integers(min_value=1, max_value=6)))


def oracle_outcome(fn):
    """The value ``fn`` returns, or the type and message it raised."""
    try:
        return fn().value
    except (NonUnitDenominator, PoleInLowerParameter) as ex:
        return type(ex), str(ex)


@settings(max_examples=400)
@given(oracle_cases())
# a zero upper before a pole, at the same step, and after it
@example((series_spec((-2, Fraction(1, 2)), (-4,), -3, 20), 1, 20, PrimePower(7, 3)))
@example((series_spec((Fraction(1, 3), -3), (-3,), Fraction(2, 5), 20), 2, 20, PrimePower(7, 6)))
@example((series_spec((-5, Fraction(1, 2)), (-2,), 2, 20), 1, 20, PrimePower(7, 2)))
# the pole step k = 4 is taken only when k_stop > 5
@example((series_spec((Fraction(1, 2),), (-4,), 3, 5), 2, 5, PrimePower(7, 2)))
@example((series_spec((Fraction(1, 2),), (-4,), 3, 6), 2, 6, PrimePower(7, 2)))
# not p-integral: (1/2)_3 puts 5 in the denominator of term 3
@example((series_spec((1, 1), (Fraction(1, 2),), 3, 6), 1, 6, PrimePower(5, 3)))
def test_binary_splitting_oracle_matches_fraction_route(case):
    spec, k_start, k_stop, ctx = case
    want = oracle_outcome(
        lambda: residue_from_rational(window_sum_exact(spec, k_start, k_stop), ctx)
    )
    assert oracle_outcome(lambda: window_residue_exact(spec, k_start, k_stop, ctx)) == want


def test_binary_splitting_oracle_on_long_windows():
    # the p^2-term sums and the blocks [r p, (r+1) p) the suites ask for
    for fam in QUARTICS:
        for p, r, e in ((31, 0, 2), (31, 3, 3), (97, 0, 2)):
            spec = two_f_one(fam.x, p * p)
            for lo, hi in ((0, p * p), (r * p, (r + 1) * p)):
                ctx = PrimePower(p, e)
                want = residue_from_rational(window_sum_exact(spec, lo, hi), ctx)
                assert window_residue_exact(spec, lo, hi, ctx) == want


@st.composite
def kernel_windows(draw):
    """Kernel arguments in its domain: every denominator and zn prime to p."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    unit = st.integers(min_value=1, max_value=12).filter(lambda d: d % p)
    param = st.tuples(st.integers(min_value=-3 * p, max_value=3 * p), unit)
    k_stop = draw(
        st.one_of(
            st.sampled_from((p, p * p, p**3)),
            st.integers(min_value=0, max_value=4 * p),
        )
    )
    return (
        tuple(draw(st.lists(param, max_size=3))),
        tuple(draw(st.lists(param, max_size=2))),
        draw(st.integers(min_value=-40, max_value=40).filter(lambda n: n % p)),
        draw(unit),
        draw(st.integers(min_value=0, max_value=k_stop)),
        k_stop,
        p,
        draw(st.integers(min_value=1, max_value=6)),
    )


def first_term_not_p_integral(spec, k_stop, p):
    """Index of the first term k < k_stop with p in its denominator, or None.

    Walks the exact term ratio like `window_sum_exact`: a zero upper factor
    ends the walk, and a pole raises before the term past it exists.
    """
    term = Fraction(1)
    for k in range(k_stop):
        if term.denominator % p == 0:
            return k
        if k + 1 >= k_stop:
            break
        step = spec.z
        for a in spec.upper:
            step *= a + k
        if step == 0:
            break
        step /= k + 1
        for b in spec.lower:
            if b + k == 0:
                raise PoleInLowerParameter(f"lower parameter {b} hits a pole at k={k}")
            step /= b + k
        term *= step
    return None


def kernel_outcome(window):
    """The kernel's value for a window, or the type and message it raised."""
    try:
        return _kernel.series_window_mod(*window)
    except (NegativeValuation, PoleInLowerParameter) as ex:
        return type(ex), str(ex)


def fresh_outcome(window):
    """`kernel_outcome` on an emptied walker table; the real table is untouched."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_WALKERS", {})
        return kernel_outcome(window)


def assert_matches_exact_oracle(window, got):
    upper, lower, zn, zd, k_start, k_stop, p, e = window
    spec = series_spec(
        [Fraction(*a) for a in upper], [Fraction(*b) for b in lower], Fraction(zn, zd), 0
    )
    try:
        bad = first_term_not_p_integral(spec, k_stop, p)
    except PoleInLowerParameter:
        with pytest.raises(PoleInLowerParameter):
            window_sum_exact(spec, 0, k_stop)
        assert got[0] is PoleInLowerParameter
        return
    if bad is not None:
        # the walk stops at the first term with p in its denominator, even
        # when window_sum_exact would run on into a pole further along
        assert got[0] is NegativeValuation and got[1].startswith(f"term {bad} "), got
        return
    ctx = PrimePower(p, e)
    assert got == residue_from_rational(window_sum_exact(spec, k_start, k_stop), ctx).value


@given(kernel_windows())
def test_pure_kernel_matches_exact_oracle(window):
    assert_matches_exact_oracle(window, fresh_outcome(window))


@st.composite
def window_sequences(draw, series_count=1):
    """2-8 windows on up to ``series_count`` series, stops in any order."""
    series_args = []
    for _ in range(series_count):
        upper, lower, zn, zd, _, _, p, e = draw(kernel_windows())
        series_args.append((upper, lower, zn, zd, p, e))
    out = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        upper, lower, zn, zd, p, e = draw(st.sampled_from(series_args))
        k_stop = draw(
            st.one_of(st.sampled_from((p, p * p)), st.integers(min_value=0, max_value=4 * p))
        )
        k_start = draw(st.integers(min_value=0, max_value=k_stop))
        out.append((upper, lower, zn, zd, k_start, k_stop, p, e))
    return out


HALF = ((1, 2), (1, 2))  # the 2F1 at x = 1/2
DEAD = ((-3, 1), (1, 2))  # upper -3 kills every term past k = 3


@settings(max_examples=300)
@given(window_sequences())
@example([(HALF, ((1, 1),), 1, 1, 14, 21, 7, 3), (HALF, ((1, 1),), 1, 1, 7, 14, 7, 3)])
@example([(DEAD, ((1, 1),), 1, 1, 2, 40, 7, 3), (DEAD, ((1, 1),), 1, 1, 1, 3, 7, 3)])
@example(  # a pole at k = 2: term 3 cannot be built, stop 3 still can
    [(HALF, ((-2, 1),), 1, 1, 1, 10, 7, 2), (HALF, ((-2, 1),), 1, 1, 1, 3, 7, 2)]
)
@example([((), (), 1, 1, 3, 12, 5, 2), ((), (), 1, 1, 2, 5, 5, 2)])  # 1/5! at term 5
def test_walker_requests_match_fresh_walks_and_oracle(windows):
    _kernel._WALKERS.clear()
    for window in windows:
        got = kernel_outcome(window)
        assert got == fresh_outcome(window)
        assert_matches_exact_oracle(window, got)


@given(window_sequences(series_count=3))
def test_evicted_walkers_restart_cleanly(windows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "WALKER_LIMIT", 2)
        mp.setattr(_kernel, "_WALKERS", {})
        for window in windows:
            got = kernel_outcome(window)
            assert got == fresh_outcome(window)
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
    expect = (
        pochhammer_exact(fam.x, n)
        * pochhammer_exact(1 - fam.x, n)
        / pochhammer_exact(1, n) ** 2
    )
    assert fam.term_exact(n) == expect


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
