"""Series evaluation: exact engine, modular engine and its term reads, families."""

import inspect
import math
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import is_, itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import sweep_reports

from hypercheck import _kernel, series
from hypercheck.suites import Sweep, primes_in
from hypercheck.errors import InternalError, NonUnitDenominator
from hypercheck.padic import PrimePower, is_prime, residue_from_rational
from hypercheck.series import (
    QUARTIC_BY_X,
    QUARTICS,
    QuarticFamily,
    series_fraction,
    window_residue_exact,
    window_sum_mod,
)

PRIMES = (5, 7, 11, 13, 31, 97)


def pochhammer_exact(a, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), the definition-level reference."""
    q = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= q + i
    return out


def brute_term(x, k) -> Fraction:
    """t_k(x) = (x)_k (1-x)_k / (k!)^2, straight from the definition."""
    return pochhammer_exact(x, k) * pochhammer_exact(1 - x, k) / pochhammer_exact(1, k) ** 2


def term_exact(fam: QuarticFamily, n: int) -> Fraction:
    """The family's term at index n as one rational."""
    return Fraction(fam.binomial_product(n), fam.base**n)


def brute_series(x, terms) -> Fraction:
    """Oracle: F(x; terms) term by term."""
    return sum((brute_term(x, k) for k in range(terms)), Fraction(0))


def window_sum_exact(x, k_start: int, k_stop: int) -> Fraction:
    """Sum of terms k_start <= k < k_stop as one exact rational, walking the
    term ratio one step at a time: the sequential reference for the
    binary-splitting oracle.

    The running term and the accumulator share a common denominator that
    only ever gets multiplied, so the single Fraction reduction is at the end.
    """
    if k_stop <= k_start:
        return Fraction(0)
    x = Fraction(x)
    xn, xd = x.numerator, x.denominator
    yn = xd - xn  # 1 - x = yn / xd
    acc = 0  # acc / den
    term = 1  # term / den
    den = 1
    for k in range(k_stop):
        if k >= k_start:
            acc += term
        if k + 1 >= k_stop:
            break
        num_step = (xn + k * xd) * (yn + k * xd)
        if num_step == 0:
            break  # later terms are all exactly zero
        den_step = (xd * (k + 1)) ** 2
        term *= num_step
        acc *= den_step
        den *= den_step
    return Fraction(acc, den)


def truncated_series_exact(x, terms: int) -> Fraction:
    return window_sum_exact(x, 0, terms)


def generalized_binomial(y: Fraction, k: int) -> Fraction:
    """C(y, k) = y (y-1) ... (y-k+1) / k! for rational y."""
    out = Fraction(1)
    for i in range(k):
        out = out * (y - i) / (i + 1)
    return out


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=20))
def test_pochhammer_matches_product(k, a):
    # closed forms the product must reproduce: (a)_k = (a+k-1)!/(a-1)! for
    # a positive integer, and (1/2)_k = (2k)!/(4^k k!)
    assert pochhammer_exact(a, k) == math.factorial(a + k - 1) // math.factorial(a - 1)
    assert pochhammer_exact(Fraction(1, 2), k) == Fraction(
        math.factorial(2 * k), 4**k * math.factorial(k)
    )


def test_spot_value_length_five():
    # 1 + 1/4 + 9/64 + 25/256 + 1225/16384, the length-5 sum at x = 1/2
    total = truncated_series_exact(Fraction(1, 2), 5)
    assert total == 1 + Fraction(1, 4) + Fraction(9, 64) + Fraction(25, 256) + Fraction(
        1225, 16384
    )
    assert total == Fraction(25609, 16384)
    assert residue_from_rational(total, PrimePower(5, 2)) == 1


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
    assert truncated_series_exact(x, terms) == brute_series(x, terms)


@given(
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10),
)
def test_window_sums_concatenate(a, cut1, cut2, tail):
    lo, mid, hi = sorted((cut1, cut2, cut1 + tail))
    assert window_sum_exact(a, 0, lo) + window_sum_exact(a, lo, mid) + window_sum_exact(
        a, mid, hi
    ) == truncated_series_exact(a, hi)


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
    assert window_sum_mod(x, 0, terms, ctx) == residue_from_rational(
        truncated_series_exact(x, terms), ctx
    )


def test_dead_break_on_negative_integer_upper():
    # x = -3 kills every term past k = 3, and so does 1 - x = -3 at x = 4
    ctx = PrimePower(7, 2)
    for x in (-3, 4):
        assert truncated_series_exact(x, 50) == truncated_series_exact(x, 4) != 0
        assert window_sum_mod(x, 0, 50, ctx) == window_sum_mod(x, 0, 4, ctx)
        assert window_residue_exact(x, 0, 50, ctx) == window_sum_mod(x, 0, 4, ctx)
        assert window_residue_exact(x, 4, 50, ctx) == 0


def test_non_unit_series_parameters_rejected():
    ctx = PrimePower(5, 2)
    for x in (Fraction(1, 5), Fraction(-2, 15)):
        message = f"^{x} has denominator divisible by 5$"
        with pytest.raises(NonUnitDenominator, match=message):
            window_sum_mod(x, 0, 7, ctx)
        with pytest.raises(NonUnitDenominator, match=message):
            window_residue_exact(x, 0, 7, ctx)


def test_non_integral_oracle_sum_is_an_internal_error(monkeypatch):
    # unreachable unless the ratio factors are wrong: every term is
    # p-integral; the empty table makes the oracle split the bad factors,
    # past the last block and in blocks, instead of folding blocks built
    # earlier
    ratio_factors = series._ratio_factors

    def one_p_too_many(x, start, stop):
        nums, dens = ratio_factors(x, start, stop)
        return nums, [5 * d for d in dens]

    fresh_prefix_table(monkeypatch)
    monkeypatch.setattr(series, "_ratio_factors", one_p_too_many)
    for stop in (3, 2 * series._LEAF + 1):
        with pytest.raises(InternalError, match="is not 5-integral"):
            window_residue_exact(Fraction(1, 2), 0, stop, PrimePower(5, 2))


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
    return x, k_start, k_stop, ctx


@settings(max_examples=400)
@given(oracle_cases())
# a zero factor before the window, inside it and at its last step
@example((-2, 4, 20, PrimePower(7, 3)))
@example((4, 2, 20, PrimePower(7, 6)))
@example((-5, 1, 6, PrimePower(7, 2)))
@example((0, 0, 5, PrimePower(5, 2)))
def test_binary_splitting_oracle_matches_fraction_route(case):
    x, k_start, k_stop, ctx = case
    want = residue_from_rational(window_sum_exact(x, k_start, k_stop), ctx)
    assert window_residue_exact(x, k_start, k_stop, ctx) == want


def test_binary_splitting_oracle_on_long_windows():
    # the p^2-term sums and the blocks [r p, (r+1) p) the suites ask for
    for fam in QUARTICS:
        for p, r, e in ((31, 0, 2), (31, 3, 3), (97, 0, 2)):
            for lo, hi in ((0, p * p), (r * p, (r + 1) * p)):
                ctx = PrimePower(p, e)
                want = residue_from_rational(window_sum_exact(fam.x, lo, hi), ctx)
                assert window_residue_exact(fam.x, lo, hi, ctx) == want


def fresh_prefix_table(mp, series_limit=series.SERIES_LIMIT) -> list[tuple]:
    """Point the oracle at an empty block table of ``series_limit`` series;
    returns (x, blocks) for every block list the table makes, evicted ones
    included."""
    made, build = [], series._blocks.__wrapped__

    def blocks(num, den):
        made.append((Fraction(num, den), build(num, den)))
        return made[-1][1]

    mp.setattr(series, "_blocks", lru_cache(maxsize=series_limit)(blocks))
    return made


def assert_blocks_are_fresh_splits(x: Fraction, blocks: list) -> None:
    """Block i is `_split` of the ratio factors [i _LEAF, (i+1) _LEAF) of x."""
    leaf = series._LEAF
    for i, block in enumerate(blocks):
        nums, dens = series._ratio_factors(x, i * leaf, (i + 1) * leaf)
        assert block == series._split(nums, dens, 0, leaf)


def assert_oracle_matches_reference(x, k_start, k_stop, ctx):
    want = residue_from_rational(window_sum_exact(x, k_start, k_stop), ctx)
    assert window_residue_exact(x, k_start, k_stop, ctx) == want


def quartic_windows(x: Fraction) -> list:
    """The windows the suites ask of one x: F(x; p), F(x; n p), F(x; p^2),
    the blocks [r p, (r+1) p) and F(x; n), at several primes and exponents."""
    out = []
    for p in (5, 7, 11, 13):
        for e in (1, 3):
            ctx = PrimePower(p, e)
            out += [(x, 0, stop, ctx) for stop in (1, 2, 3, p, 2 * p, 3 * p, p * p)]
            out += [(x, r * p, (r + 1) * p, ctx) for r in (1, 2)]
    return out


@pytest.mark.parametrize("order", ["rising", "falling", "shuffled"])
def test_prefix_table_serves_any_request_order(monkeypatch, order):
    # stops of one x shared across primes and exponents: whatever the order,
    # the requests fold the same blocks, up to the highest stop asked
    windows = quartic_windows(Fraction(1, 3))
    if order == "rising":
        windows.sort(key=lambda w: (w[2], w[1]))
    elif order == "falling":
        windows.sort(key=lambda w: (w[2], w[1]), reverse=True)
    else:
        random.Random(12).shuffle(windows)
    made = fresh_prefix_table(monkeypatch)
    for window in windows:
        assert_oracle_matches_reference(*window)
    [(x, blocks)] = made
    assert len(blocks) == (13 * 13 - 1) // series._LEAF
    assert_blocks_are_fresh_splits(x, blocks)


def test_rising_stops_move_one_checkpoint_forward(monkeypatch):
    # the end of a series' block list is its one checkpoint: a series that
    # climbs moves it forward by appending the blocks below each new stop,
    # and keeps every block it built before
    made = fresh_prefix_table(monkeypatch)
    ctx = PrimePower(5, 3)
    old = []
    for stop in range(10, 201, 10):
        assert_oracle_matches_reference(Fraction(1, 2), 0, stop, ctx)
        [(x, blocks)] = made
        assert len(blocks) == (stop - 1) // series._LEAF
        assert all(map(is_, old, blocks))
        old = list(blocks)
    assert len(old) == 3
    assert_blocks_are_fresh_splits(x, old)


def test_first_high_stop_builds_its_blocks_one_at_a_time(monkeypatch):
    # the ratio factors are built one block at a time: the first request at
    # stop 20,000 peaks near 0.31 MB traced to keep 0.28 MB of blocks, where
    # building the factors of every missing block at once peaked near 1.9 MB
    made = fresh_prefix_table(monkeypatch)
    tracemalloc.start()
    try:
        window_residue_exact(Fraction(1, 3), 0, 20000, PrimePower(7, 2))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [(x, blocks)] = made
    assert len(blocks) == 19999 // series._LEAF
    assert peak <= 2 * kept, (peak, kept)
    assert_blocks_are_fresh_splits(x, blocks)


def test_prefix_table_evicts_least_recent_series(monkeypatch):
    # more series than SERIES_LIMIT, twice over: the table evicts the series
    # used longest ago, and every series of the second pass restarts from an
    # empty block list
    made = fresh_prefix_table(monkeypatch)
    ctx = PrimePower(7, 4)
    xs = [Fraction(i, 4) for i in range(1, series.SERIES_LIMIT + 3)]
    stops = range(3 + 2 * series._LEAF, 2, -16)
    for _ in range(2):
        for x in xs:
            for stop in stops:
                assert_oracle_matches_reference(x, 0, stop, ctx)
                assert_oracle_matches_reference(x, stop - 3, stop, ctx)
            assert made[-1][0] == x and len(made[-1][1]) == 2
            assert series._blocks.cache_info().currsize <= series.SERIES_LIMIT
    assert len(made) == 2 * len(xs)
    assert series._blocks.cache_info().currsize == series.SERIES_LIMIT


@st.composite
def table_requests(draw):
    """2-12 windows of F(x; N) in random order on up to three x, integer x
    (dead terms) among them, at p in 5..13 and e in 1..6, with stop 0,
    stops past several blocks, k_start > 0 and empty windows in the mix."""
    xs = draw(
        st.lists(
            st.builds(
                Fraction,
                st.integers(min_value=-12, max_value=12),
                st.sampled_from((1, 1, 2, 3, 4, 6)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    out = []
    for _ in range(draw(st.integers(min_value=2, max_value=12))):
        p = draw(st.sampled_from((5, 7, 11, 13)))
        k_stop = draw(
            st.one_of(
                st.sampled_from((0, p, 2 * p, p * p, 3 * p * p)),
                st.integers(min_value=0, max_value=4 * p),
            )
        )
        k_start = draw(st.integers(min_value=0, max_value=k_stop + 2))
        ctx = PrimePower(p, draw(st.integers(min_value=1, max_value=6)))
        out.append((draw(st.sampled_from(xs)), k_start, k_stop, ctx))
    return out


@settings(max_examples=200)
@given(table_requests(), st.sampled_from((8, 2, 1)))
# dead terms: a zero factor inside the first block, and blocks and factors
# past it, so the fold must keep the sum
@example(
    [
        (-3, 0, 2, PrimePower(5, 2)),
        (-3, 0, 150, PrimePower(5, 2)),
        (-3, 2, 150, PrimePower(7, 3)),
        (-3, 131, 200, PrimePower(7, 3)),
        (4, 0, 200, PrimePower(11, 6)),
    ],
    8,
)
@example([(Fraction(1, 2), 0, 0, PrimePower(5, 1))] * 2, 1)
def test_prefix_table_matches_sequential_reference(requests, series_limit):
    # after every request the residue is the sequential sum's, and every
    # block list is fresh splits of consecutive ranges that only grew at its
    # end: no block is rebuilt in place or dropped
    with pytest.MonkeyPatch.context() as mp:
        made = fresh_prefix_table(mp, series_limit)
        for window in requests:
            before = [list(blocks) for _, blocks in made]
            assert_oracle_matches_reference(*window)
            assert series._blocks.cache_info().currsize <= series_limit
            for (_, blocks), old in zip(made, before):
                assert len(blocks) >= len(old) and all(map(is_, old, blocks))
            for x, blocks in made:
                assert_blocks_are_fresh_splits(x, blocks)


@given(
    st.fractions(max_denominator=9, min_value=Fraction(-4), max_value=4),
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=5),
)
def test_series_fraction_matches_sequential_sum(x, stops):
    # the conjecture oracle's exact F(x; N), F(x; 0) = 0 included
    for stop in stops:
        assert series_fraction(x, stop) == truncated_series_exact(x, stop)


def test_int_and_fraction_x_share_one_prefix_table():
    # the engines turn x into a Fraction: lru_cache alone keys 3 and
    # Fraction(3) apart, and sun's integer lifts would build a second table
    series._blocks.cache_clear()
    ctx = PrimePower(7, 3)
    low = window_residue_exact(3, 0, 10, ctx)
    high = window_residue_exact(Fraction(3), 0, 20, ctx)
    assert series._blocks.cache_info().currsize == 1
    assert low == window_sum_mod(3, 0, 10, ctx)
    assert high == window_sum_mod(Fraction(3), 0, 20, ctx)


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


def fresh_window(window, read=_kernel.series_window_mod):
    """The kernel's value on an emptied walker table; the real table is untouched."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_walker", lru_cache(maxsize=_kernel.WALKER_LIMIT)(_kernel._Walker))
        return read(*window)


def assert_matches_exact_oracle(window, got):
    xn, xd, p, e, k_start, k_stop = window
    want = window_sum_exact(Fraction(xn, xd), k_start, k_stop)
    assert got == residue_from_rational(want, PrimePower(p, e))


@given(kernel_windows())
def test_pure_kernel_matches_exact_oracle(window):
    assert_matches_exact_oracle(window, fresh_window(window))


def assert_term_read_matches_one_term_window(window):
    """Term k_start, read from the table's walker and from a fresh one,
    equals the window [k_start, k_start + 1) on a fresh walker."""
    xn, xd, p, e, k_start, _ = window
    want = fresh_window((xn, xd, p, e, k_start, k_start + 1))
    assert _kernel.series_term_mod(xn, xd, p, e, k_start) == want
    assert fresh_window((xn, xd, p, e, k_start), _kernel.series_term_mod) == want


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
    _kernel._walker.cache_clear()
    for window in windows:
        got = _kernel.series_window_mod(*window)
        assert got == fresh_window(window)
        assert_matches_exact_oracle(window, got)
        assert_term_read_matches_one_term_window(window)


@given(window_sequences(series_count=3))
def test_evicted_walkers_restart_cleanly(windows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_walker", lru_cache(maxsize=2)(_kernel._Walker))
        for window in windows:
            got = _kernel.series_window_mod(*window)
            assert got == fresh_window(window)
            assert_matches_exact_oracle(window, got)
            assert_term_read_matches_one_term_window(window)
            assert _kernel._walker.cache_info().currsize <= 2


class ReferenceWalker(_kernel._Walker):
    """The kernel's walker with one step per iteration, every factor tested
    for p and for zero: the reference for the blocked `_Walker.reach`."""

    __slots__ = ()

    def reach(self, stop: int, term: bool) -> int:
        if self.dead is not None and stop >= self.dead[0]:
            return 0 if term else self.dead[1]
        i = bisect_right(self.checkpoints, stop, key=itemgetter(0)) - 1
        state = self.checkpoints[i]
        if state[0] < self.cursor[0] <= stop:
            state = self.cursor
        k, v, num, acc = state
        p, e, m, powers, xn, xd = self.p, self.e, self.m, self.powers, self.xn, self.xd
        yn = xd - xn
        ds0 = xd * xd
        den = 1
        while k < stop:
            if v < e:
                acc = (acc + num * powers[v]) % m
            f, g, h = xn + k * xd, yn + k * xd, k + 1
            if f == 0 or g == 0:
                self.dead = (k + 1, acc * pow(den, -1, m) % m)
                return 0 if term else self.dead[1]
            nv = v
            while f % p == 0:
                f //= p
                nv += 1
            while g % p == 0:
                g //= p
                nv += 1
            while h % p == 0:
                h //= p
                nv -= 2
            if nv < 0:
                raise InternalError(f"term {k + 1} of F({xn}/{xd}) is not {p}-integral")
            ds = ds0 * h * h % m
            num = num * f * g % m
            acc = acc * ds % m
            den = den * ds % m
            v = nv
            k += 1
        inverse = pow(den, -1, m)
        num, acc = num * inverse % m, acc * inverse % m
        if term:
            self.cursor = (k, v, num, acc)
            return num * powers[v] % m if v < e else 0
        if self.checkpoints[i][0] < stop:
            self.checkpoints.insert(i + 1, (k, v, num, acc))
        return acc


@st.composite
def walker_requests(draw):
    """A series (xn, xd, p, e) and 1-10 sums and term reads, (stop, term), in
    any order, with stops up to 4p."""
    p = draw(st.sampled_from((5, 7, 11, 13, 97, 499)))
    xd = draw(st.integers(min_value=1, max_value=12).filter(lambda d: d % p))
    x = Fraction(draw(st.integers(min_value=-3 * p, max_value=3 * p)), xd)
    stops = st.integers(min_value=0, max_value=4 * p)
    requests = draw(st.lists(st.tuples(stops, st.booleans()), min_size=1, max_size=10))
    return x.numerator, x.denominator, p, draw(st.integers(min_value=1, max_value=6)), requests


@settings(max_examples=300)
@given(walker_requests())
@example((1, 2, 7, 3, [(20, False), (9, True), (28, False)]))  # x = 1/2: f = g
@example((9, 2, 7, 2, [(27, False), (13, True), (21, True)]))  # f's residue is h's, p - 1
@example((1, 3, 5, 1, [(25, False), (11, True)]))  # e = 1: whole blocks have v >= e
# resumes inside a plain block, from a checkpoint and from the cursor
@example((1, 6, 11, 2, [(2, False), (9, False), (3, True), (6, True), (8, False)]))
@example((-3, 1, 7, 3, [(2, False), (40, False), (5, True), (1, True)]))  # x = -3
@example((4, 1, 5, 2, [(12, False), (2, True), (4, False), (3, True)]))  # x = 4: 1 - x = -3
# a sum that stops at the special k = 3, then reads past it
@example((1, 2, 7, 2, [(3, False), (5, False), (3, True), (7, True)]))
def test_blocked_walker_matches_reference_walk(case):
    xn, xd, p, e, requests = case
    walker, reference = _kernel._Walker(xn, xd, p, e), ReferenceWalker(xn, xd, p, e)
    for stop, term in requests:
        assert walker.reach(stop, term) == reference.reach(stop, term)
        assert walker.checkpoints == reference.checkpoints
        assert walker.cursor == reference.cursor
        assert walker.dead == reference.dead


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
    assert term_exact(fam, n) == brute_term(fam.x, n)


@given(
    st.sampled_from(QUARTICS),
    st.sampled_from(PRIMES),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=3),
)
# v_5 of the term at x = 1/3 is 2, 3 and 4 at n = 4, 9 and 19
@example(QUARTIC_BY_X[Fraction(1, 3)], 5, 4, 3)
@example(QUARTIC_BY_X[Fraction(1, 3)], 5, 9, 3)
@example(QUARTIC_BY_X[Fraction(1, 3)], 5, 19, 3)
def test_family_term_scaled_matches_exact(fam, p, n, e):
    ctx = PrimePower(p, e)
    exact = residue_from_rational(term_exact(fam, n), ctx)
    assert fam.term_scaled(n, ctx) == exact
    assert fam.term_residue(n, ctx) == exact


@given(
    st.sampled_from(QUARTICS),
    st.lists(st.integers(min_value=0, max_value=60), max_size=30),
)
def test_binomial_table_answers_any_request_order(fam, ns):
    fresh = QuarticFamily(fam.x, fam.binomials, fam.base, fam.character_arg)  # an empty table
    for n in ns:
        expected = math.prod(math.comb(c * n, d * n) for c, d in fam.binomials)
        assert fresh.binomial_product(n) == expected


def factor_slots(top: int, bottom: int) -> int:
    """How many factors C(c n, d n) of the four families equal C(top, bottom)
    at some n: four for C(2, 1), at n = 1 (x = 1/2 has C(2n, n) twice), and
    five for C(4, 2), where x = 1/4's C(4n, 2n) at n = 1 joins them."""
    return sum(
        top % c == 0 and top // c * d == bottom
        for fam in QUARTICS
        for c, d in fam.binomials
    )


def test_each_binomial_is_computed_once(monkeypatch):
    # every prime and each of lemma4, lemma4-binom and lemma5 read the same
    # n = k + r p: each family computes each of its C(c n, d n) once, so a
    # pair (top, bottom) repeats only where another factor shares it
    seen = []

    def counting(top, bottom):
        seen.append((top, bottom))
        return math.comb(top, bottom)

    monkeypatch.setattr(series, "comb", counting)
    for fam in QUARTICS:
        fam._products.clear()
    sweep = Sweep(primes=primes_in(5, 31))
    for suite_id in ("lemma4", "lemma4-binom", "lemma5"):
        assert all(rep.passed for rep in sweep_reports(suite_id, sweep))
    assert seen
    repeats = {pair: k for pair, k in Counter(seen).items() if k > factor_slots(*pair)}
    assert repeats == {}


def test_term_reads_add_no_checkpoint():
    # lemma4 reads terms k + r p, k < p, of each quartic series: the cursor
    # follows them, and the checkpoints stay as the window sums left them
    fam = QUARTIC_BY_X[Fraction(1, 6)]
    for p in filter(is_prime, range(5, 98)):
        ctx = PrimePower(p, 2)
        walker = _kernel._walker(1, 6, p, 2)
        checkpoints = list(walker.checkpoints)
        for n in range(3 * p):
            assert fam.term_scaled(n, ctx) == fam.term_residue(n, ctx)
        assert walker.checkpoints == checkpoints
        assert walker.cursor[0] == 3 * p - 1


@given(
    st.sampled_from(QUARTICS),
    st.sampled_from((5, 7, 11, 13)),
    st.integers(min_value=0, max_value=4),
)
def test_block_window_sum_matches_exact_window(fam, p, r):
    ctx = PrimePower(p, 2)
    got = window_sum_mod(fam.x, r * p, (r + 1) * p, ctx)
    assert got == residue_from_rational(window_sum_exact(fam.x, r * p, (r + 1) * p), ctx)
