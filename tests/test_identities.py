"""Exact combinatorial identities behind the congruence proofs."""

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercheck import identities
from hypercheck.errors import InternalError, PoleInParameter
from hypercheck.special import harmonic_exact, signed_binomial

XS = tuple(identities.PARTFRAC_CLOSED_FORMS)
# the quartic x, two other rationals, and integers with a pole:
# x + i = 0 at i = 0 and i = 3, 1 - x + i = 0 at i = 0 and i = 4
PREFIX_XS = XS + (
    Fraction(2, 5), Fraction(-7, 3), Fraction(0), Fraction(-3), Fraction(1), Fraction(5),
)


@given(st.integers(min_value=0, max_value=120))
def test_alternating_binomial_sum(n):
    lhs, rhs = identities.alternating_binomial_sum(n)
    assert lhs == rhs
    assert rhs == (-1) ** n


@given(st.integers(min_value=1, max_value=120))
def test_harmonic_weighted_sum(n):
    lhs, rhs = identities.harmonic_weighted_sum(n)
    assert lhs == rhs
    assert rhs == 2 * Fraction(-1) ** n * harmonic_exact(n)


@given(st.integers(min_value=1, max_value=120))
def test_tail_harmonic_sum(n):
    lhs, rhs = identities.tail_harmonic_sum(n)
    assert lhs == rhs
    assert rhs == Fraction(-1) ** n * harmonic_exact(n)


@given(st.integers(min_value=1, max_value=120))
def test_shifted_harmonic_sum_needs_k0(n):
    full_lhs, full_rhs = identities.shifted_harmonic_sum(n)
    printed_lhs, printed_rhs = identities.shifted_harmonic_sum_printed(n)
    assert full_lhs == full_rhs
    # dropping the k=0 term removes exactly H_n from the left side
    assert printed_lhs != printed_rhs
    assert full_lhs - printed_lhs == harmonic_exact(n)
    assert printed_rhs == full_rhs


@given(st.integers(min_value=0, max_value=120))
def test_harmonic_difference_chain(n):
    lhs, rhs = identities.harmonic_difference_chain(n)
    assert lhs == rhs
    assert rhs == Fraction(-1) ** n * harmonic_exact(n)


@st.composite
def alternating_args(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    start = draw(st.sampled_from((0, 1)))
    size = n + 1 - start
    weights = draw(
        st.lists(st.fractions(max_denominator=1000), min_size=size, max_size=size)
    )
    numerators = draw(st.lists(st.integers(), min_size=size, max_size=size))
    den = draw(st.integers(min_value=1, max_value=10**6))
    return n, weights, start, numerators, den


@given(alternating_args())
@example((0, [], 1, [], 1))  # the empty sum
def test_alternating_matches_direct_sum(args):
    n, weights, start, numerators, den = args
    direct = sum(
        (signed_binomial(n, k) * w for k, w in enumerate(weights, start)), Fraction(0)
    )
    assert identities._alternating(n, weights, start) == direct
    direct = sum(signed_binomial(n, k) * w for k, w in enumerate(numerators, start))
    assert identities._alternating(n, numerators, start, den) == Fraction(direct, den)


@given(st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=12))
@example([0, 3, 3, 10, 4, 0, 400, 399])  # rises, repeats and falls
def test_lcm_upto_extends_and_restarts(ms):
    for m in ms:
        got = identities._lcm_upto(m)
        assert got == lcm(*range(1, m + 1)) == lcm(*range(m // 2 + 1, m + 1)), m


@given(st.integers(min_value=0, max_value=400))
@example(0)
def test_harmonic_numerators_are_harmonic_numbers(m):
    h, den = identities._harmonic_numerators(m)
    assert den == lcm(*range(1, m + 1))
    assert len(h) == m + 1
    assert all(Fraction(w, den) == harmonic_exact(k) for k, w in enumerate(h))


def test_alternating_walks_the_signed_binomial_row():
    # a unit weight vector picks out one summand of the walked row
    for n in range(61):
        for j in range(n + 1):
            unit = [0] * (n + 1)
            unit[j] = 1
            assert identities._alternating(n, unit) == signed_binomial(n, j), (n, j)


@pytest.mark.parametrize("j", (0, 1, 150, 300))
def test_alternating_row_at_index_300(j):
    unit = [0] * 301
    unit[j] = 1
    assert identities._alternating(300, unit) == signed_binomial(300, j)


def _reference_alternating(n, weights, start=0):
    """The signed-binomial row summed over Fraction weights on the lcm of
    their denominators: the accumulator before the weights became integer
    numerators over one denominator."""
    den = lcm(*(w.denominator for w in weights))
    c = signed_binomial(n, start)
    total = 0
    for k, w in enumerate(weights, start):
        total += c * (w.numerator * (den // w.denominator))
        c = identities._exact_div(-c * (n - k) * (n + k + 1), (k + 1) ** 2)
    return Fraction(total, den)


def _reference_harmonic_sums(n):
    """The five harmonic sums with Fraction weights read from
    `harmonic_exact`, as (lhs, rhs) pairs in the order of `HARMONIC_SUMS`."""
    h = [harmonic_exact(k) for k in range(2 * n + 1)]
    inner = list(accumulate(Fraction(1, n + k) for k in range(1, n + 1)))
    sign = Fraction(-1) ** n
    return (
        (_reference_alternating(n, h[1 : n + 1], 1), 2 * sign * h[n]),
        (_reference_alternating(n, inner, 1), sign * h[n]),
        (_reference_alternating(n, h[n + 1 :], 1), 2 * sign * h[n]),
        (_reference_alternating(n, h[n:]), 2 * sign * h[n]),
        (_reference_alternating(n, [w - h[n] for w in h[n:]]), sign * h[n]),
    )


HARMONIC_SUMS = (
    identities.harmonic_weighted_sum,
    identities.tail_harmonic_sum,
    identities.shifted_harmonic_sum_printed,
    identities.shifted_harmonic_sum,
    identities.harmonic_difference_chain,
)


@pytest.mark.parametrize("n", (*range(41), 150, 299, 300))
def test_harmonic_sums_match_fraction_weight_reference(n):
    got = tuple(f(n) for f in HARMONIC_SUMS)
    assert got == _reference_harmonic_sums(n)


def test_small_sum_values_frozen():
    assert identities.alternating_binomial_sum(3)[0] == -1
    assert identities.harmonic_weighted_sum(2)[0] == 3
    assert identities.tail_harmonic_sum(2)[0] == Fraction(3, 2)
    assert identities.harmonic_difference_chain(2)[0] == Fraction(3, 2)


@given(st.sampled_from(XS), st.integers(min_value=0, max_value=150))
def test_partial_fraction_sum(x, k):
    lhs, rhs = identities.partial_fraction_sum(k, x)
    assert lhs == rhs


def test_partial_fraction_closed_forms_spot():
    # at x = 1/2: sum_{i<k} (1/(1/2+i) + 1/(1/2+i)) = 4 H_{2k} - 2 H_k
    k = 5
    direct = sum(
        1 / (Fraction(1, 2) + i) + 1 / (Fraction(1, 2) + i) for i in range(k)
    )
    assert direct == 4 * harmonic_exact(2 * k) - 2 * harmonic_exact(k)
    # at x = 1/6 the decomposition needs all four strides
    want = (
        6 * harmonic_exact(6 * k)
        - 3 * harmonic_exact(3 * k)
        - 2 * harmonic_exact(2 * k)
        + harmonic_exact(k)
    )
    direct = sum(
        1 / (Fraction(1, 6) + i) + 1 / (Fraction(5, 6) + i) for i in range(k)
    )
    assert direct == want


@given(st.sampled_from(XS), st.integers(min_value=0, max_value=120))
def test_term_convolution_identity(x, k):
    lhs, rhs = identities.term_convolution_identity(x, k)
    assert lhs == rhs


def _convolution_direct(x, k):
    """sum_{i<k} t_i/(k-i) summed as Fractions: the reference for the
    binary-split sum."""
    terms = identities.series_terms(x, k)
    return sum((terms[i] / (k - i) for i in range(k)), Fraction(0))


def _reference_convolution_sum(x, k):
    """sum_{i<k} t_i/(k-i) as one integer over b^(2(k-1)) ((k-1)!)^2 lcm(1..k),
    by Horner's rule: the right side before it was binary split.

    With x = a/b, t_i = R_i / (b^(2i) (i!)^2) for the integer rising products
    R_i = prod_{j<i} (a+jb)(b-a+jb); Horner's rule S <- S (b i)^2 +
    R_i lcm(1..k)/(k-i) gives each summand its missing factors.
    """
    if k == 0:
        return Fraction(0)
    a, b = x.numerator, x.denominator
    span = lcm(*range(1, k + 1))
    total, rising = 0, 1
    for i in range(k):
        total = total * (b * i) ** 2 + rising * (span // (k - i))
        rising *= (a + i * b) * (b - a + i * b)
    return Fraction(total, b ** (2 * (k - 1)) * factorial(k - 1) ** 2 * span)


@pytest.mark.parametrize("x", XS)
def test_convolution_sum_matches_fraction_sum_for_quartic_x(x):
    for k in range(301):
        got = identities._convolution_sum(x, k)
        assert got == _reference_convolution_sum(x, k), k
        assert got == _convolution_direct(x, k), k


def test_convolution_sum_reads_no_term_or_weight_table(monkeypatch):
    # the right side is split on its own, never from the left side's tables
    monkeypatch.setattr(identities, "_TERMS", {})
    monkeypatch.setattr(identities, "_PF", {})
    for x in (*XS, Fraction(2, 5), Fraction(-3)):
        for k in (0, 1, 2, 65, 300):
            identities._convolution_sum(x, k)
    assert identities._TERMS == {} and identities._PF == {}


@given(
    st.fractions(max_denominator=12, min_value=Fraction(-6), max_value=Fraction(6)),
    st.integers(min_value=0, max_value=60),
)
@example(Fraction(-2), 5)
@example(Fraction(3), 5)
@example(Fraction(1), 1)
def test_convolution_sum_matches_fraction_sum(x, k):
    if any(x + i == 0 or 1 - x + i == 0 for i in range(k)):
        with pytest.raises(PoleInParameter):
            identities.term_convolution_identity(x, k)
        return
    got = identities._convolution_sum(x, k)
    assert got == _reference_convolution_sum(x, k) == _convolution_direct(x, k)
    lhs, rhs = identities.term_convolution_identity(x, k)
    assert lhs == rhs


def test_term_convolution_rejects_poles():
    with pytest.raises(PoleInParameter):
        identities.term_convolution_identity(Fraction(-2), 5)
    with pytest.raises(PoleInParameter):
        identities.term_convolution_identity(Fraction(3), 5)


@given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=4))
def test_taylor_coefficient_check(k, r):
    for order in (0, 1):
        lhs, rhs = identities.taylor_coefficient_check(k, r, order)
        assert lhs == rhs


def test_taylor_coefficient_values_frozen():
    zeroth, first = (
        identities.taylor_coefficient_check(1, 1, order)[0] for order in (0, 1)
    )
    assert zeroth == comb(2, 1) == 2
    assert first == 2  # r * C(2k,k) * (2 H_2k - 2 H_k) = 1 * 2 * 1
    zeroth, first = (
        identities.taylor_coefficient_check(3, 2, order)[0] for order in (0, 1)
    )
    assert zeroth == comb(6, 3)
    assert first == 2 * comb(6, 3) * (
        2 * harmonic_exact(6) - 2 * harmonic_exact(3)
    )


def generalized_binomial(x: Fraction | int, k: int) -> Fraction:
    """C(x, k) = x(x-1)...(x-k+1)/k! for arbitrary rational x, the
    definition-level reference for the negation symmetry."""
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / factorial(k)


@given(
    st.fractions(max_denominator=8, min_value=Fraction(-5), max_value=5),
    st.integers(min_value=0, max_value=25),
)
def test_generalized_binomial_product_form(x, k):
    want = Fraction(1)
    for i in range(k):
        want *= (x - i) / (i + 1)
    assert generalized_binomial(x, k) == want


def test_generalized_binomial_matches_comb_for_integers():
    for n in range(12):
        for k in range(14):
            assert generalized_binomial(n, k) == comb(n, k)
    assert generalized_binomial(Fraction(-1, 2), 2) == Fraction(3, 8)


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=0, max_value=120))
def test_negation_symmetry(b, k):
    lhs, rhs = identities.negation_symmetry(b, k)
    assert lhs == rhs


def test_negation_symmetry_is_the_binomial_reflection():
    # C(-b, k) C(-b+k, k) = C(b-1+k, k) C(b-1, k) as exact rationals
    b, k = 7, 4
    lhs = generalized_binomial(-b, k) * generalized_binomial(-b + k, k)
    rhs = comb(b - 1 + k, k) * comb(b - 1, k)
    assert lhs == rhs
    assert identities.negation_symmetry(b, k)[0] == lhs


def test_exact_division_raises_on_a_remainder():
    assert identities._exact_div(-12, 4) == -3
    with pytest.raises(InternalError):
        identities._exact_div(7, 2)
    with pytest.raises(InternalError):
        identities._exact_div(-7, 2)


@given(st.sampled_from(PREFIX_XS), st.integers(min_value=0, max_value=60))
def test_series_term_prefix_cache(x, k):
    terms = identities.series_terms(x, k)
    assert len(terms) >= k + 1
    want = Fraction(1)
    for i in range(k):
        want *= (x + i) * (1 - x + i) / (i + 1) ** 2
    assert terms[k] == want


def _weight_direct(x, k):
    """T_k(x) summed term by term: the reference for the cached prefix."""
    return sum(
        (Fraction(1) / (x + i) + Fraction(1) / (1 - x + i) for i in range(k)),
        Fraction(0),
    )


@given(st.sampled_from(PREFIX_XS), st.integers(min_value=0, max_value=60))
def test_partial_fraction_weights_match_direct_sum(x, k):
    poles = [i for i in range(k) if x + i == 0 or 1 - x + i == 0]
    if not poles:
        assert identities.partial_fraction_weights(x, k)[k] == _weight_direct(x, k)
        return
    with pytest.raises(PoleInParameter):
        identities.partial_fraction_weights(x, k)
    # the entries below the first pole survive the failed extension
    below = poles[0]
    weights = identities.partial_fraction_weights(x, below)
    assert weights[: below + 1] == [_weight_direct(x, j) for j in range(below + 1)]


def _pochhammer(a: Fraction, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), the definition-level reference."""
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


@given(
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)]),
    st.integers(min_value=0, max_value=120),
)
def test_rising_products_match_pochhammer(x, k):
    # lemma5-poch reads (x)_k (1-x)_k as t_k (k!)^2
    want = _pochhammer(x, k) * _pochhammer(1 - x, k)
    assert identities.series_terms(x, k)[k] * factorial(k) ** 2 == want
