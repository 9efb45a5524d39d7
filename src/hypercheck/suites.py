"""Congruence suite registry.

Every proved congruence family, every intermediate step of the two proof
chains, and the four conjectured mod-p^3 strengthenings is registered here
as a parameterized suite: a generator of instances plus a check that
computes both sides and returns them as a `Report`.

`run_instance` is the only code that knows the engine.  It hands each
check a ``dual(modular_fn, exact_fn)`` evaluator for values that have both
a modular route (valuation-tracked term recurrence) and an exact route
(exact evaluation reduced once at the end).  ``dual`` runs the modular
route under ``modular``, the exact one under ``exact``, and both under
``both``, where any disagreement raises `InternalError`; it returns the
value with the label of the route that produced it (``"modular"`` under
``both``).  Checks with a single route ignore ``dual`` and label their
reports themselves.

Kinds: ``theorem`` suites are proved, so a failing instance means a
checker bug, but it is reported like any other failure (a FAIL record,
exit 1); ``identity`` suites are exact equalities; ``conjecture`` suites
report neutrally and attach an exact-oracle recomputation to any failure;
``exploratory`` suites sweep beyond proved territory and are expected to
surface counterexamples.  Exit 3 comes only from an engine disagreement,
an `InternalError` raised by an engine self-check (such as a series sum
that is not p-integral) or an unexpected exception in a check.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, gcd

from . import identities, padic, series, special
from .errors import (
    BudgetExceeded,
    InternalError,
    NonUnitDenominator,
    UsageError,
    VerifyError,
)
from .padic import (
    PrimePower,
    Residue,
    as_fraction,
    residue_from_rational,
    split_p_power,
)
from .series import QUARTIC_BY_X, QUARTICS


def primes_in(lo: int, hi: int) -> tuple[int, ...]:
    """Primes in [lo, hi] by plain sieve (desk scale)."""
    if hi < 2:
        return ()
    mark = bytearray([1]) * (hi + 1)
    mark[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if mark[i]:
            mark[i * i :: i] = b"\x00" * len(mark[i * i :: i])
    return tuple(i for i in range(max(lo, 2), hi + 1) if mark[i])


# --- run configuration shared by suites and CLI ----------------------------


@dataclass(frozen=True)
class Budgets:
    """Size caps; env vars VERIFY_BUDGET_{BINOMIAL,SERIES,IDENTITY} override."""

    binomial_max: int = 5000
    series_max: int = 100_000
    identity_max: int = 300

    @classmethod
    def from_env(cls) -> "Budgets":
        def get(name, default):
            raw = os.environ.get(name)
            if raw is None:
                return default
            try:
                value = int(raw)
            except ValueError:
                raise UsageError(f"{name} must be an integer, got {raw!r}") from None
            if value < 0:
                raise UsageError(f"{name} must be >= 0, got {raw!r}")
            return value

        return cls(
            binomial_max=get("VERIFY_BUDGET_BINOMIAL", cls.binomial_max),
            series_max=get("VERIFY_BUDGET_SERIES", cls.series_max),
            identity_max=get("VERIFY_BUDGET_IDENTITY", cls.identity_max),
        )


@dataclass(frozen=True)
class Sweep:
    """Parameter domain for one run."""

    primes: tuple[int, ...]
    n_values: tuple[int, ...] = (1, 2, 3)
    r_values: tuple[int, ...] = (0, 1, 2)
    x_values: tuple[Fraction | int, ...] | None = None
    mod_exp: int | None = None
    budgets: Budgets = field(default_factory=Budgets)


def default_sweep() -> Sweep:
    return Sweep(primes=primes_in(5, 97), budgets=Budgets.from_env())


@dataclass
class Report:
    """One suite instance outcome; all values pre-serialized for emission.

    Checks fill in the values; `run_instance` stamps ``suite``, ``params``
    and ``elapsed_ms``.
    """

    lhs: str
    rhs: str
    modulus: str
    passed: bool
    engine: str
    suite: str = ""
    params: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0
    note: str | None = None
    oracle: str | None = None
    error: str | None = None


def _ser_params(params: dict) -> dict:
    return {k: (str(v) if isinstance(v, Fraction) else v) for k, v in params.items()}


def _congruence_report(lhs: Residue, rhs: Residue, label: str) -> Report:
    return Report(
        lhs=str(lhs.value),
        rhs=str(rhs.value),
        modulus=str(lhs.ctx.modulus),
        passed=lhs.value == rhs.value,
        engine=label,
    )


def _exact_report(lhs, rhs) -> Report:
    return Report(
        lhs=str(lhs),
        rhs=str(rhs),
        modulus="exact",
        passed=lhs == rhs,
        engine="exact",
    )


def _identity_check(fn, *keys):
    """A check that reports the `identities.IdentityCase` ``fn`` builds from
    the instance's params named by ``keys``, in that order.
    """

    def check(params, sweep, dual):
        case = fn(*(params[key] for key in keys))
        return _exact_report(case.lhs, case.rhs)

    return check


# --- shared evaluation helpers ---------------------------------------------


def _need_series(n_terms: int, sweep: Sweep):
    if n_terms > sweep.budgets.series_max:
        raise BudgetExceeded(
            f"series truncation {n_terms} exceeds cap {sweep.budgets.series_max}"
        )


def _need_binomial(arg: int, sweep: Sweep):
    if arg > sweep.budgets.binomial_max:
        raise BudgetExceeded(
            f"binomial argument {arg} exceeds cap {sweep.budgets.binomial_max}"
        )


#: ``dual(modular_fn, exact_fn) -> (value, engine label)``; `run_instance`
#: binds it to the run's engine and hands it to every check.
Dual = Callable[[Callable[[], Residue], Callable[[], Residue]], tuple[Residue, str]]


def _series(
    dual: Dual, spec: series.SeriesSpec, ctx: PrimePower
) -> tuple[Residue, str]:
    """A truncated series mod p^e by the engine's route(s)."""
    return dual(
        lambda: series.truncated_series_mod(spec, ctx),
        lambda: series.window_residue_exact(spec, 0, spec.terms, ctx),
    )


def _sign_residue(s: int, ctx: PrimePower) -> Residue:
    return Residue(1 if s == 1 else -1, ctx)


# --- domains ---------------------------------------------------------------


def _quartic_xs(sweep: Sweep) -> list[Fraction]:
    if sweep.x_values is None:
        return [f.x for f in QUARTICS]
    wanted = {as_fraction(x) for x in sweep.x_values}
    return [f.x for f in QUARTICS if f.x in wanted]


def _sun_xs(p: int, sweep: Sweep) -> list:
    if sweep.x_values is not None:
        return [
            x for x in sweep.x_values if as_fraction(x).denominator % p != 0
        ]
    lifts = list(range(p))
    rationals = sorted(
        {
            Fraction(a, b)
            for b in range(2, 7)
            if b % p
            for a in range(1, b)
            if gcd(a, b) == 1
        }
    )
    return lifts + rationals


def _general_xs(p: int) -> list[Fraction]:
    """p-coprime rationals a/b (b <= 8) outside the four-family orbit."""
    skip = {f.x for f in QUARTICS} | {1 - f.x for f in QUARTICS}
    out = []
    for b in range(2, 9):
        if b % p == 0:
            continue
        for a in range(1, b):
            x = Fraction(a, b)
            if gcd(a, b) == 1 and x not in skip:
                out.append(x)
    return out


# --- theorem suites --------------------------------------------------------


def gen_thm1(sweep):
    for p in sweep.primes:
        for x in _quartic_xs(sweep):
            yield {"p": p, "x": x}


def check_thm1(params, sweep, dual):
    p, x = params["p"], params["x"]
    ctx = PrimePower(p, sweep.mod_exp or 2)
    lhs, label = _series(dual, series.two_f_one(x, p), ctx)
    rhs = _sign_residue(special.legendre(QUARTIC_BY_X[x].character_arg, p), ctx)
    return _congruence_report(lhs, rhs, label)


def gen_sun(sweep):
    for p in sweep.primes:
        for x in _sun_xs(p, sweep):
            yield {"p": p, "x": x}


def check_sun(params, sweep, dual):
    p, x = params["p"], params["x"]
    ctx = PrimePower(p, sweep.mod_exp or 2)
    lhs, label = _series(dual, series.two_f_one(x, p), ctx)
    rhs = _sign_residue(special.sign_of_least_residue(x, p), ctx)
    return _congruence_report(lhs, rhs, label)


def gen_rv(sweep):
    for p in sweep.primes:
        for n in sweep.n_values:
            for x in _quartic_xs(sweep):
                yield {"p": p, "n": n, "x": x}


def check_rv(params, sweep, dual):
    p, n, x = params["p"], params["n"], params["x"]
    _need_series(n * p, sweep)
    ctx = PrimePower(p, sweep.mod_exp or 2)
    lhs, label = _series(dual, series.two_f_one(x, n * p), ctx)
    base, _ = _series(dual, series.two_f_one(x, n), ctx)
    rhs = base * special.sign_of_least_residue(x, p)
    return _congruence_report(lhs, rhs, label)


def gen_rv_general(sweep):
    for p in sweep.primes:
        for x in _general_xs(p):
            for n in sweep.n_values:
                yield {"p": p, "n": n, "x": x}


def gen_corollary_px(sweep):
    for p in sweep.primes:
        for r in sweep.r_values:
            if r < 1:
                continue
            for x in _quartic_xs(sweep):
                yield {"p": p, "r": r, "x": x}


def check_corollary_px(params, sweep, dual):
    p, r, x = params["p"], params["r"], params["x"]
    _need_series(p**r, sweep)
    ctx = PrimePower(p, sweep.mod_exp or 2)
    lhs, label = _series(dual, series.two_f_one(x, p**r), ctx)
    sgn = special.sign_of_least_residue(x, p)
    rhs = _sign_residue(1 if sgn == 1 or r % 2 == 0 else -1, ctx)
    return _congruence_report(lhs, rhs, label)


_EISENSTEIN_BASES = (2, 3, 5, 7, 10)


def gen_lemma1(sweep):
    for p in sweep.primes:
        bases = [a for a in _EISENSTEIN_BASES if a % p]
        for i, a in enumerate(bases):
            for b in bases[i:]:
                yield {"p": p, "a": a, "b": b, "form": "product"}
        for a in bases:
            for r in (1, 2, 3):
                yield {"p": p, "a": a, "r": r, "form": "power"}


def check_lemma1(params, sweep, dual):
    p = params["p"]
    ctx2 = PrimePower(p, 2)
    if params["form"] == "product":
        a, b = params["a"], params["b"]
        lhs = special.fermat_quotient(a * b, ctx2)
        rhs = special.fermat_quotient(a, ctx2) + special.fermat_quotient(b, ctx2)
    else:
        a, r = params["a"], params["r"]
        lhs = special.fermat_quotient(a**r, ctx2)
        rhs = special.fermat_quotient(a, ctx2) * r
    return _congruence_report(lhs, rhs, "modular")


def gen_lemma2(sweep):
    for p in sweep.primes:
        for d in (2, 3, 4, 6):
            yield {"p": p, "d": d}


def check_lemma2(params, sweep, dual):
    p, d = params["p"], params["d"]
    ctx = PrimePower(p, 1)
    lhs = special.harmonic_mod(p // d, ctx)
    ctx2 = PrimePower(p, 2)
    q2 = special.fermat_quotient(2, ctx2)
    q3 = special.fermat_quotient(3, ctx2)
    half3 = Residue(3, ctx) * Residue(2, ctx).inverse()
    if d == 2:
        rhs = -(q2 * 2)
    elif d == 3:
        rhs = -(half3 * q3)
    elif d == 4:
        rhs = -(q2 * 3)
    else:
        rhs = -(q2 * 2) - half3 * q3
    return _congruence_report(lhs, rhs, "modular")


def gen_lemma4(sweep):
    for p in sweep.primes:
        for r in sweep.r_values:
            for k in range(p):
                for x in _quartic_xs(sweep):
                    yield {"p": p, "r": r, "k": k, "x": x}


# Residue rows of the lemma4 and lemma4-binom right sides, for the latest
# (p, p^e) only, since both suites finish one prime before the next:
# (p, p^e) -> (builder, x) -> rows.  Each suite builds only the rows it
# reads, where entry k < p of a row is the residue of term_exact(k),
# p (T_k - 2 H_k), binomial_product(k) or p (closed form - 2 H_k), and h
# is 2p H_floor(px).  For the four quartic x and p >= 5 every factor is
# p-integral: base^k is a unit, H_k and H_floor(px) have indices below p,
# and i < k < p puts at most one p in each denominator of T_k and of the
# H_{dk} in its closed form.  So reducing factor by factor equals reducing
# the exact product.
_LEMMA4_ROWS: dict[tuple[int, int], dict[tuple, tuple]] = {}


def _latest_rows(build, x: Fraction, ctx: PrimePower) -> tuple:
    """``build(x, ctx)``, kept while (p, p^e) stays the same."""
    by_key = _LEMMA4_ROWS.get((ctx.p, ctx.modulus))
    if by_key is None:
        _LEMMA4_ROWS.clear()
        by_key = _LEMMA4_ROWS[ctx.p, ctx.modulus] = {}
    rows = by_key.get((build, x))
    if rows is None:
        rows = by_key[build, x] = build(x, ctx)
    return rows


def _lemma4_rows(x: Fraction, ctx: PrimePower) -> tuple:
    """(term, weight, h) for lemma4."""
    p, m = ctx.p, ctx.modulus
    fam = QUARTIC_BY_X[x]
    weights = identities.partial_fraction_weights(x, p - 1)
    inv_base = pow(fam.base, -1, m)

    def reduce(q):
        return residue_from_rational(q, ctx).value

    return (
        [fam.binomial_product(k) * pow(inv_base, k, m) % m for k in range(p)],
        [reduce(p * (weights[k] - 2 * special.harmonic_exact(k))) for k in range(p)],
        reduce(2 * p * special.harmonic_exact(special.floor_px(x, p))),
    )


def _lemma4_binom_rows(x: Fraction, ctx: PrimePower) -> tuple:
    """(binom, closed) for lemma4-binom."""
    p, m = ctx.p, ctx.modulus
    fam = QUARTIC_BY_X[x]
    closed = (
        identities.partial_fraction_closed_form(k, x) - 2 * special.harmonic_exact(k)
        for k in range(p)
    )
    return (
        [fam.binomial_product(k) % m for k in range(p)],
        [residue_from_rational(p * q, ctx).value for q in closed],
    )


def check_lemma4(params, sweep, dual):
    p, r, k, x = params["p"], params["r"], params["k"], params["x"]
    fam = QUARTIC_BY_X[x]
    ctx = PrimePower(p, sweep.mod_exp or 2)
    m = k + r * p
    lhs, label = dual(
        lambda: fam.term_scaled(m, ctx),
        lambda: residue_from_rational(fam.term_exact(m), ctx),
    )
    # right side: t_r t_k (1 + 2rp H_floor(px) + rp (T_k - 2 H_k)) from the rows
    term, weight, h = _latest_rows(_lemma4_rows, x, ctx)
    t_r = residue_from_rational(fam.term_exact(r), ctx)
    rhs = t_r * term[k] * (1 + r * (h + weight[k]))
    return _congruence_report(lhs, rhs, label)


def check_lemma4_binom(params, sweep, dual):
    p, r, k, x = params["p"], params["r"], params["k"], params["x"]
    fam = QUARTIC_BY_X[x]
    n = k + r * p
    for c, _ in fam.binomials:
        _need_binomial(c * n, sweep)
    ctx = PrimePower(p, sweep.mod_exp or 2)
    lhs = Residue(fam.binomial_product(n), ctx)
    # right side: b_r b_k (1 + rp (T_k - 2 H_k)), T_k(x) in its harmonic
    # closed form, from the rows
    binom, closed = _latest_rows(_lemma4_binom_rows, x, ctx)
    rhs = Residue(fam.binomial_product(r) * binom[k] * (1 + r * closed[k]), ctx)
    return _congruence_report(lhs, rhs, "exact")


def gen_lemma5(sweep):
    for p in sweep.primes:
        for k in range(p):
            for x in _quartic_xs(sweep):
                yield {"p": p, "k": k, "x": x}


def check_lemma5(params, sweep, dual):
    p, k, x = params["p"], params["k"], params["x"]
    fam = QUARTIC_BY_X[x]
    ctx = PrimePower(p, sweep.mod_exp or 1)
    lhs, label = dual(
        lambda: fam.term_scaled(k, ctx),
        lambda: residue_from_rational(fam.term_exact(k), ctx),
    )
    rhs = Residue(special.signed_binomial(special.floor_px(x, p), k), ctx)
    return _congruence_report(lhs, rhs, label)


def check_lemma5_poch(params, sweep, dual):
    p, k, x = params["p"], params["k"], params["x"]
    ctx = PrimePower(p, sweep.mod_exp or 1)
    m = special.floor_px(x, p)
    # integer rising products mod p
    acc = 1
    for i in range(k):
        acc = acc * (m + 1 + i) % ctx.modulus * (-m + i) % ctx.modulus
    lhs = Residue(acc, ctx)
    rhs = residue_from_rational(identities.rising_products(x, k)[k], ctx)
    return _congruence_report(lhs, rhs, "modular")


def gen_babbage(sweep):
    for p in sweep.primes:
        for a in range(7):
            for b in range(a + 1):
                yield {"p": p, "a": a, "b": b}


def check_babbage(params, sweep, dual):
    p, a, b = params["p"], params["a"], params["b"]
    _need_binomial(a * p, sweep)
    ctx = PrimePower(p, sweep.mod_exp or 2)
    lhs = Residue(comb(a * p, b * p), ctx)
    rhs = Residue(comb(a, b), ctx)
    return _congruence_report(lhs, rhs, "exact")


# --- proof-chain suites ----------------------------------------------------


def check_chain_reflect(params, sweep, dual):
    p, x = params["p"], params["x"]
    q = as_fraction(x)
    ctx = PrimePower(p, sweep.mod_exp or 2)
    lhs, label = _series(dual, series.two_f_one(-q, p), ctx)
    rhs = _sign_residue(-1 if special.least_residue(x, p) % 2 else 1, ctx)
    return _congruence_report(lhs, rhs, label)


def _reflected_jet_sums(m: int, terms: int) -> tuple[Fraction, Fraction, Fraction]:
    """First-order expansion of the reflected alternating binomial sum.

    Returns exact rationals (A, B_back, B_fwd) with sum_k (-1)^k jet_k =
    A + (B_back + B_fwd)*t, where jet_k carries prod_{i<=k}(m+1-i+t)(m+i+t)/(k!)^2
    to first order in t; B_back comes from the backward factors (m+1-i+t),
    B_fwd from the forward ones.  The first-order part stays meaningful where
    a single factor vanishes (large k), where the naive reciprocal-sum form
    breaks down.  Each part is one integer over ((terms-1)!)^2, S <- S*k^2 + c_k.
    """
    a = b_back = b_fwd = 0
    p0, p1, d0, d1 = 1, 0, 1, 0
    kf2 = 1
    sign = 1
    for k in range(terms):
        if k:
            c, d = m + 1 - k, m + k
            p0, p1 = p0 * c, p1 * c + p0
            d0, d1 = d0 * d, d1 * d + d0
            k2 = k * k
            a, b_back, b_fwd = a * k2, b_back * k2, b_fwd * k2
            kf2 *= k2
            sign = -sign
        a += sign * p0 * d0
        b_back += sign * p1 * d0
        b_fwd += sign * p0 * d1
    return Fraction(a, kf2), Fraction(b_back, kf2), Fraction(b_fwd, kf2)


def check_chain_jet(params, sweep, dual):
    p, x = params["p"], params["x"]
    q = as_fraction(x)
    ctx = PrimePower(p, sweep.mod_exp or 2)
    lhs, label = _series(dual, series.two_f_one(-q, p), ctx)
    m = special.least_residue(x, p)
    delta = (q - m) / p
    a_tot, b_back, b_fwd = _reflected_jet_sums(m, p)
    rhs = residue_from_rational(a_tot + delta * p * (b_back + b_fwd), ctx)
    return _congruence_report(lhs, rhs, label)


def gen_chain_m(sweep):
    for p in sweep.primes:
        for m in range(p):
            yield {"p": p, "m": m}


def check_chain_backward(params, sweep, dual):
    p, m = params["p"], params["m"]
    ctx = PrimePower(p, sweep.mod_exp or 1)
    # the backward-offset first-order piece of the jet
    lhs = residue_from_rational(_reflected_jet_sums(m, p)[1], ctx)
    rhs = special.harmonic_mod(m, ctx) * (1 if (m + 1) % 2 == 0 else -1)
    return _congruence_report(lhs, rhs, "exact")


# For m < p, C(m, k) = 0 when m < k < p, so the sums truncated at p are the
# identity-alt and identity-tail sums at n = m.
check_chain_binom = _identity_check(identities.alternating_binomial_sum, "m")
check_chain_forward = _identity_check(identities.tail_harmonic_sum, "m")


def gen_chain_block(sweep):
    for p in sweep.primes:
        for r in sweep.r_values:
            for x in _quartic_xs(sweep):
                yield {"p": p, "r": r, "x": x}


def check_chain_block(params, sweep, dual):
    p, r, x = params["p"], params["r"], params["x"]
    fam = QUARTIC_BY_X[x]
    _need_series((r + 1) * p, sweep)
    ctx = PrimePower(p, sweep.mod_exp or 2)
    spec = series.two_f_one(x, (r + 1) * p)
    lhs, label = dual(
        lambda: series.window_sum_mod(spec, r * p, (r + 1) * p, ctx),
        lambda: series.window_residue_exact(spec, r * p, (r + 1) * p, ctx),
    )
    base, _ = _series(dual, series.two_f_one(x, p), ctx)
    rhs = residue_from_rational(fam.term_exact(r), ctx) * base
    return _congruence_report(lhs, rhs, label)


def check_chain_convolution(params, sweep, dual):
    p, x = params["p"], params["x"]
    ctx = PrimePower(p, sweep.mod_exp or 1)
    terms = identities.series_terms(x, p - 1)
    weights = identities.partial_fraction_weights(x, p - 1)
    lhs = residue_from_rational(
        sum((terms[k] * weights[k] for k in range(p)), Fraction(0)), ctx
    )
    rhs = residue_from_rational(
        sum((terms[i] * special.harmonic_exact(i) for i in range(p)), Fraction(0)),
        ctx,
    )
    return _congruence_report(lhs, rhs, "exact")


def gen_chain_weighted(sweep):
    for p in sweep.primes:
        for x in _quartic_xs(sweep):
            for form in ("series", "binomial"):
                yield {"p": p, "x": x, "form": form}


def check_chain_weighted(params, sweep, dual):
    p, x, form = params["p"], params["x"], params["form"]
    m = special.floor_px(x, p)
    hm = special.harmonic_exact(m)
    if form == "series":
        ctx = PrimePower(p, sweep.mod_exp or 1)
        terms = identities.series_terms(x, p - 1)
        total = sum(
            (terms[k] * (2 * hm - special.harmonic_exact(k)) for k in range(p)),
            Fraction(0),
        )
        return _congruence_report(
            residue_from_rational(total, ctx), Residue(0, ctx), "exact"
        )
    # m < p, so the binomial form stops at k = m: it is 2 H_m times the
    # identity-alt sum minus the identity-harmonic sum, both at n = m
    total = (
        2 * hm * identities.alternating_binomial_sum(m).lhs
        - identities.harmonic_weighted_sum(m).lhs
    )
    return _exact_report(total, Fraction(0))


def check_chain_product(params, sweep, dual):
    p, n, x = params["p"], params["n"], params["x"]
    _need_series(n * p, sweep)
    ctx = PrimePower(p, sweep.mod_exp or 2)
    lhs, label = _series(dual, series.two_f_one(x, n * p), ctx)
    fp, _ = _series(dual, series.two_f_one(x, p), ctx)
    fn, _ = _series(dual, series.two_f_one(x, n), ctx)
    return _congruence_report(lhs, fp * fn, label)


def gen_gessel(sweep):
    for p in sweep.primes:
        for n in sweep.n_values:
            if n >= 0:
                yield {"p": p, "n": n}


def check_gessel(params, sweep, dual):
    p, n = params["p"], params["n"]
    _need_binomial(2 * n * p, sweep)
    ctx = PrimePower(p, sweep.mod_exp or 3)
    lhs = Residue(special.apery_number(n * p), ctx)
    rhs = Residue(special.apery_number(n), ctx)
    return _congruence_report(lhs, rhs, "exact")


# --- conjecture suites -----------------------------------------------------

_CONJ_RHS: dict[Fraction, tuple[str, Fraction]] = {
    Fraction(1, 2): ("euler-number", Fraction(-4)),
    Fraction(1, 3): ("bernoulli-poly", Fraction(-3, 2)),
    Fraction(1, 4): ("euler-poly", Fraction(-1)),
    Fraction(1, 6): ("euler-number", Fraction(-20)),
}


@cache  # one value per (x, p, e), shared by every n
def _conj_rhs(x: Fraction, ctx: PrimePower) -> Residue:
    p, e = ctx.p, ctx.e
    if e <= 2:
        return Residue(0, ctx)
    sub = PrimePower(p, e - 2)
    kind, coeff = _CONJ_RHS[x]
    if kind == "euler-number":
        poly = special.euler_number_mod(p - 3, sub)
    elif kind == "euler-poly":
        poly = special.euler_polynomial_mod(p - 3, Fraction(1, 4), sub)
    else:
        poly = special.bernoulli_polynomial_mod(p - 2, Fraction(1, 3), sub)
    return residue_from_rational(coeff, ctx) * Residue(p * p * poly.value, ctx)


def _conj_exact_scaled(fam, p, n, eps) -> Fraction:
    diff = series.truncated_series_exact(
        series.two_f_one(fam.x, n * p)
    ) - eps * series.truncated_series_exact(series.two_f_one(fam.x, n))
    pref = Fraction(fam.base**n, n * n * fam.binomial_product(n))
    return pref * diff


def _conj_oracle(fam, p, n, eps, ctx: PrimePower) -> str:
    val = _conj_exact_scaled(fam, p, n, eps)
    if val == 0:
        return "exact recomputation: scaled difference = 0"
    vnum = split_p_power(val.numerator, p)[0]
    vden = split_p_power(val.denominator, p)[0]
    head = (
        f"exact recomputation: v_p(scaled difference) = {vnum - vden}"
        f"; value = {val.numerator}/{val.denominator}"
    )
    if vden > 0:
        return head + "; not a p-adic integer"
    return head + f"; reduces to {residue_from_rational(val, ctx).value} mod {ctx.modulus}"


def gen_conjecture(x: Fraction):
    def gen(sweep):
        for p in sweep.primes:
            for n in sweep.n_values:
                if n >= 1:
                    yield {"p": p, "n": n, "x": x}

    return gen


def check_conjecture(params, sweep, dual):
    p, n, x = params["p"], params["n"], params["x"]
    fam = QUARTIC_BY_X[x]
    e_t = sweep.mod_exp or 3
    _need_series(n * p, sweep)
    for c, _ in fam.binomials:
        _need_binomial(c * n, sweep)
    w, unit = split_p_power(n * n * fam.binomial_product(n), p)
    if e_t + w > padic.MAX_EXPONENT:
        raise BudgetExceeded(
            f"needs working precision p^{e_t + w}, cap is p^{padic.MAX_EXPONENT}"
        )
    ctx = PrimePower(p, e_t)
    eps = special.legendre(fam.character_arg, p)

    def scaled(series_mod, need: int) -> Residue:
        """base^n (F(np) - eps F(n)) / (n^2 binprod(n)) mod p^e, from both
        sums mod p^(e+w); raises unless p^need divides the difference."""
        ctxw = PrimePower(p, e_t + w)
        f_np = series_mod(series.two_f_one(x, n * p), ctxw)
        f_n = series_mod(series.two_f_one(x, n), ctxw)
        diff = (f_np.value - eps * f_n.value) % ctxw.modulus
        if diff % p**need:
            raise NonUnitDenominator("scaled difference is not a p-adic integer")
        m = ctx.modulus
        return Residue(diff // p**w * pow(fam.base, n, m) * pow(unit % m, -1, m), ctx)

    def exact_sum(spec, ctxw) -> Residue:
        return series.window_residue_exact(spec, 0, spec.terms, ctxw)

    rhs = _conj_rhs(x, ctx)
    try:
        # the exact route raises exactly when the scaled difference has p in
        # its denominator (v_p(diff) < w); the modular one also when v_p < 2
        lhs, label = dual(
            lambda: scaled(series.truncated_series_mod, max(2, w)),
            lambda: scaled(exact_sum, w),
        )
    except NonUnitDenominator:
        return Report(
            lhs="",
            rhs=str(rhs.value),
            modulus=str(ctx.modulus),
            passed=False,
            engine="modular",
            note="divisibility violation: scaled difference is not a p-adic integer "
            "at the required valuation",
            oracle=_conj_oracle(fam, p, n, eps, ctx),
        )
    rep = _congruence_report(lhs, rhs, label)
    if not rep.passed:
        rep.oracle = _conj_oracle(fam, p, n, eps, ctx)
    return rep


# --- identity suites -------------------------------------------------------


def _identity_gen_n(start: int):
    def gen(sweep):
        for n in range(start, sweep.budgets.identity_max + 1):
            yield {"n": n}

    return gen


def gen_identity_kx(sweep):
    for k in range(sweep.budgets.identity_max + 1):
        for f in QUARTICS:
            yield {"k": k, "x": f.x}


def gen_identity_taylor(sweep):
    for k in range(sweep.budgets.identity_max + 1):
        for r in (1, 2, 3):
            for order in (0, 1):
                yield {"k": k, "r": r, "order": order}


def check_identity_taylor(params, sweep, dual):
    case = identities.taylor_coefficient_check(params["k"], params["r"])[
        params["order"]
    ]
    return _exact_report(case.lhs, case.rhs)


def gen_identity_negation(sweep):
    cap = sweep.budgets.identity_max
    for b in range(1, cap + 1):
        for k in range(cap + 1):
            yield {"b": b, "k": k}


# --- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    id: str
    kind: str  # theorem | identity | conjecture | exploratory
    description: str
    gen: Callable[[Sweep], Iterable[dict]]
    check: Callable[[dict, Sweep, Dual], Report]


_SUITES = [
    Suite(
        "thm1",
        "theorem",
        "four quadratic-character congruences for the length-p sum, mod p^2",
        gen_thm1,
        check_thm1,
    ),
    Suite(
        "sun",
        "theorem",
        "length-p sum vs parity of the least residue of -x, any p-adic x, mod p^2",
        gen_sun,
        check_sun,
    ),
    Suite(
        "rv",
        "theorem",
        "length-np sum vs sign times length-n sum, quartic x, mod p^2",
        gen_rv,
        check_rv,
    ),
    Suite(
        "corollary",
        "theorem",
        "length-p^r sum vs r-th power of the sign, mod p^2",
        gen_corollary_px,
        check_corollary_px,
    ),
    Suite(
        "lemma1",
        "theorem",
        "Fermat-quotient additivity over products and powers, mod p",
        gen_lemma1,
        check_lemma1,
    ),
    Suite(
        "lemma2",
        "theorem",
        "harmonic numbers at floor(p/d) vs Fermat quotients, mod p",
        gen_lemma2,
        check_lemma2,
    ),
    Suite(
        "lemma4",
        "theorem",
        "term shift k -> k+rp factors through a harmonic correction, mod p^2",
        gen_lemma4,
        check_lemma4,
    ),
    Suite(
        "lemma4-binom",
        "theorem",
        "central-binomial form of the term-shift congruence, mod p^2",
        gen_lemma4,
        check_lemma4_binom,
    ),
    Suite(
        "lemma5",
        "theorem",
        "series term vs signed binomial product at the floor multiple, mod p",
        gen_lemma5,
        check_lemma5,
    ),
    Suite(
        "lemma5-poch",
        "theorem",
        "rising-product form of the term/binomial congruence, mod p",
        gen_lemma5,
        check_lemma5_poch,
    ),
    Suite(
        "babbage",
        "theorem",
        "C(ap, bp) vs C(a, b), mod p^2",
        gen_babbage,
        check_babbage,
    ),
    Suite(
        "chain-reflect",
        "theorem",
        "reflected-parameter restatement of the any-x congruence, mod p^2",
        gen_sun,
        check_chain_reflect,
    ),
    Suite(
        "chain-jet",
        "theorem",
        "first-order jet expansion of the reflected sum around the least residue, mod p^2",
        gen_sun,
        check_chain_jet,
    ),
    Suite(
        "chain-backward",
        "theorem",
        "backward-offset first-order piece vs a signed harmonic number, mod p",
        gen_chain_m,
        check_chain_backward,
    ),
    Suite(
        "chain-binom",
        "theorem",
        "alternating binomial sum truncated at p equals the sign, exactly",
        gen_chain_m,
        check_chain_binom,
    ),
    Suite(
        "chain-forward",
        "theorem",
        "forward-offset harmonic-weighted sum equals a signed harmonic number, exactly",
        gen_chain_m,
        check_chain_forward,
    ),
    Suite(
        "chain-block",
        "theorem",
        "length-p block r factors into term_r times the base block, mod p^2",
        gen_chain_block,
        check_chain_block,
    ),
    Suite(
        "chain-convolution",
        "theorem",
        "partial-fraction weights reduce to harmonic weights under the sum, mod p",
        gen_thm1,
        check_chain_convolution,
    ),
    Suite(
        "chain-weighted",
        "theorem",
        "harmonic-weighted sum vanishes mod p (series and binomial forms)",
        gen_chain_weighted,
        check_chain_weighted,
    ),
    Suite(
        "chain-product",
        "theorem",
        "length-np sum factors into length-p times length-n sums, mod p^2",
        gen_rv,
        check_chain_product,
    ),
    Suite(
        "gessel",
        "theorem",
        "Apery numbers A_{np} vs A_n, mod p^3",
        gen_gessel,
        check_gessel,
    ),
    Suite(
        "identity-alt",
        "identity",
        "alternating binomial sum equals (-1)^n, exactly",
        _identity_gen_n(0),
        _identity_check(identities.alternating_binomial_sum, "n"),
    ),
    Suite(
        "identity-harmonic",
        "identity",
        "harmonic-weighted alternating sum equals 2(-1)^n H_n, exactly",
        _identity_gen_n(1),
        _identity_check(identities.harmonic_weighted_sum, "n"),
    ),
    Suite(
        "identity-tail",
        "identity",
        "tail-harmonic alternating sum equals (-1)^n H_n, exactly",
        _identity_gen_n(1),
        _identity_check(identities.tail_harmonic_sum, "n"),
    ),
    Suite(
        "identity-shifted",
        "identity",
        "shifted-harmonic alternating sum including k=0 equals 2(-1)^n H_n, exactly",
        _identity_gen_n(1),
        _identity_check(identities.shifted_harmonic_sum, "n"),
    ),
    Suite(
        "identity-chain",
        "identity",
        "harmonic-difference form linking the alternating-sum identities, exactly",
        _identity_gen_n(0),
        _identity_check(identities.harmonic_difference_chain, "n"),
    ),
    Suite(
        "identity-partfrac",
        "identity",
        "partial-fraction harmonic decompositions of the four families, exactly",
        gen_identity_kx,
        _identity_check(identities.partial_fraction_sum, "k", "x"),
    ),
    Suite(
        "identity-convolution",
        "identity",
        "harmonic-weighted term equals the convolution of earlier terms, exactly",
        gen_identity_kx,
        _identity_check(identities.term_convolution_identity, "x", "k"),
    ),
    Suite(
        "identity-taylor",
        "identity",
        "value and derivative at zero of the binomial-ratio function, exactly",
        gen_identity_taylor,
        check_identity_taylor,
    ),
    Suite(
        "identity-negation",
        "identity",
        "negated-upper-index binomial product symmetry, exactly",
        gen_identity_negation,
        _identity_check(identities.negation_symmetry, "b", "k"),
    ),
    Suite(
        "conj-1/2",
        "conjecture",
        "scaled mod-p^3 strengthening, central-binomial family (Euler number RHS)",
        gen_conjecture(Fraction(1, 2)),
        check_conjecture,
    ),
    Suite(
        "conj-1/3",
        "conjecture",
        "scaled mod-p^3 strengthening, 1/3 family (Bernoulli polynomial RHS)",
        gen_conjecture(Fraction(1, 3)),
        check_conjecture,
    ),
    Suite(
        "conj-1/4",
        "conjecture",
        "scaled mod-p^3 strengthening, 1/4 family (Euler polynomial RHS)",
        gen_conjecture(Fraction(1, 4)),
        check_conjecture,
    ),
    Suite(
        "conj-1/6",
        "conjecture",
        "scaled mod-p^3 strengthening, 1/6 family (Euler number RHS)",
        gen_conjecture(Fraction(1, 6)),
        check_conjecture,
    ),
    Suite(
        "rv-x",
        "exploratory",
        "the np-vs-n factorization swept over general rational x (expected to fail)",
        gen_rv_general,
        check_rv,
    ),
    Suite(
        "identity-shifted-printed",
        "exploratory",
        "shifted-harmonic alternating sum starting at k=1 (off by H_n; expected to fail)",
        _identity_gen_n(1),
        _identity_check(identities.shifted_harmonic_sum_printed, "n"),
    ),
]

REGISTRY: dict[str, Suite] = {s.id: s for s in _SUITES}

THEOREM_SUITES = tuple(s.id for s in _SUITES if s.kind == "theorem")
IDENTITY_SUITES = tuple(s.id for s in _SUITES if s.kind == "identity")
CONJECTURE_SUITES = tuple(s.id for s in _SUITES if s.kind == "conjecture")
EXPLORATORY_SUITES = tuple(s.id for s in _SUITES if s.kind == "exploratory")

ALIASES: dict[str, tuple[str, ...]] = {
    "all": THEOREM_SUITES + IDENTITY_SUITES,
    "theorems": THEOREM_SUITES,
    "identities": IDENTITY_SUITES,
    "conj": CONJECTURE_SUITES,
    "conjectures": CONJECTURE_SUITES,
    "chains": tuple(s for s in THEOREM_SUITES if s.startswith("chain-")),
    "lemmas": tuple(s for s in THEOREM_SUITES if s.startswith("lemma")),
}


def instances_for(suite_id: str, sweep: Sweep) -> list[dict]:
    return list(REGISTRY[suite_id].gen(sweep))


def run_instance(
    suite_id: str,
    params: dict,
    engine: str = "modular",
    sweep: Sweep | None = None,
    fault_suite: str | None = None,
) -> Report:
    """Run one instance under `engine`; domain errors become error reports, bugs
    raise `InternalError`.

    This is the only code that knows the engine: the check gets a `Dual`
    bound to it.  The first value a check asks ``dual`` for is the
    instance's primary value (its left side); when ``fault_suite`` names
    this suite (the ``VERIFY_FAULT_INJECT`` self-test) the primary value of
    the route the engine reports (exact under ``exact``, modular otherwise)
    is off by one, so ``both`` raises `InternalError` and ``modular`` and
    ``exact`` report a failure.
    """
    suite = REGISTRY[suite_id]
    if sweep is None:
        sweep = default_sweep()
    fault = fault_suite == suite_id

    def dual(modular_fn, exact_fn):
        nonlocal fault
        if engine == "exact":
            value, label = exact_fn(), "exact"
        else:
            value, label = modular_fn(), "modular"
        if fault:
            value, fault = Residue(value.value + 1, value.ctx), False
        if engine == "both":
            ev = exact_fn()
            if value.value != ev.value:
                raise InternalError(
                    f"engine disagreement in {suite_id} {params}: modular {value.value} "
                    f"vs exact {ev.value} mod {value.ctx.p}^{value.ctx.e}"
                )
        return value, label

    t0 = time.perf_counter()
    try:
        rep = suite.check(params, sweep, dual)
    except VerifyError as ex:
        rep = _error_report(ex)
    except InternalError:
        raise
    except Exception as ex:  # a bug in a check or kernel: exit 3, not a traceback
        raise InternalError(f"{suite_id} {params}: {type(ex).__name__}: {ex}") from ex
    rep.suite, rep.params = suite_id, _ser_params(params)
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return rep


def _error_report(ex: Exception) -> Report:
    return Report(
        lhs="",
        rhs="",
        modulus="",
        passed=False,
        engine="",
        error=f"{type(ex).__name__}: {ex}",
    )
