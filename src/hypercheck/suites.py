"""Congruence suite registry.

Every proved congruence family, every intermediate step of the two proof
chains, and the four conjectured mod-p^3 strengthenings is registered here
as one row of a table: its instances, declared as a grid of axes
(`_Grid`), a check that computes both sides and returns them, and the
exponent e of the suite's statement mod p^e.  Each instance is a params
dict with one key per axis name, and the check takes those params by
name, ``check(sweep, dual, ctx, **params)``, so its signature lists them.

A shard is one value of a suite's first axis: one prime, or one identity
index.  The runner builds one `Shard` per shard and passes it to
`run_instance` for each of its instances.  The shard holds ``ctx``, the
`PrimePower` p^e that all its instances and their rows (`PrimePower.tables`)
share, where e is ``--mod-exp`` if given and the suite's own exponent
otherwise (lemma1 and lemma2 stay mod p; ``ctx`` is None for the exact
suites), so a prime's tables go with its shard.  The shard is also the
checks' ``dual(ctx, modular_fn, exact_fn)`` evaluator for values mod
``ctx``'s p^e that have both a modular route (valuation-tracked term
recurrence) and an exact route (exact evaluation reduced once at the end):
it runs the modular route under ``modular``, the exact one under
``exact``, and both under ``both``, where any disagreement raises
`InternalError`, and returns the value alone.

A residue is a plain int.  A check need not reduce its int sides:
`_record` reduces them once, mod the shard's modulus; a record whose
right side is a `Fraction`, or whose shard has no modulus, is exact.
`run_instance` builds every record from the sides a check returns: one of
a check that asked ``dual`` names the route it reports (``"exact"`` under
``exact``, ``"modular"`` otherwise), and one of a single-route check says
``"exact"`` unless the check names its engine.

Kinds: ``theorem`` suites are proved, so a failing instance at the suite's
own exponent means a checker bug, but it is reported like any other failure
(a FAIL record, exit 1), and one above it (``--mod-exp``) is a genuine
counterexample; ``identity`` suites are exact equalities; ``conjecture`` suites
report neutrally and attach an exact-oracle recomputation to any failure;
``exploratory`` suites sweep beyond proved territory and are expected to
surface counterexamples.  Exit 3 comes only from an engine disagreement,
an `InternalError` raised by an engine self-check (such as a series sum
that is not p-integral) or an unexpected exception in a check.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import comb, gcd

from . import identities, padic, series, special
from .errors import BudgetExceeded, InternalError, VerifyError
from .padic import (
    PadicInput,
    PrimePower,
    as_fraction,
    residue_from_rational,
    split_p_power,
)
from .series import QUARTIC_BY_X, QUARTICS, QuarticFamily


def primes_in(lo: int, hi: int) -> tuple[int, ...]:
    """Primes in [lo, hi]."""
    return tuple(filter(padic.is_prime, range(max(lo, 2), hi + 1)))


# --- run configuration shared by suites and CLI ----------------------------


class Sweep:
    """Parameter domain and size caps for one run; ``mod_exp`` overrides each
    suite's `Suite.exponent` unless it is ``fixed`` (``--mod-exp``).  `cli.parse_args`
    reads the caps from VERIFY_BUDGET_{BINOMIAL,SERIES,IDENTITY}, and the
    defaults from the class attributes."""

    n_values: tuple[int, ...] = (1, 2, 3)
    r_values: tuple[int, ...] = (0, 1, 2)
    binomial_max = 5000
    series_max = 100_000
    identity_max = 300

    def __init__(
        self, primes: tuple[int, ...], n_values: tuple[int, ...] = n_values,
        r_values: tuple[int, ...] = r_values, x_values: tuple[Fraction | int, ...] | None = None,
        mod_exp: int | None = None, binomial_max: int = binomial_max,
        series_max: int = series_max, identity_max: int = identity_max,
    ):
        self.primes, self.n_values, self.r_values = primes, n_values, r_values
        self.x_values, self.mod_exp, self.binomial_max = x_values, mod_exp, binomial_max
        self.series_max, self.identity_max = series_max, identity_max

    def __eq__(self, other):
        return isinstance(other, Sweep) and vars(self) == vars(other)


class Report:
    """One suite instance outcome; all values pre-serialized for emission.

    `_record` fills in lhs, rhs, modulus, passed, engine and any note or
    oracle from a check's sides, `_error_report` the error of a failed
    instance; `run_instance` stamps ``suite``, ``params`` (the grid's point
    as it is; `_Grid.shard` writes its JSON beside it) and ``elapsed_ms``,
    and the engine of a dual-route record.  Equal field by field.
    """

    __slots__ = ("lhs", "rhs", "modulus", "passed", "engine", "suite", "params", "elapsed_ms",
                 "note", "oracle", "error")

    def __init__(
        self, lhs: str, rhs: str, modulus: str, passed: bool, engine: str, suite: str = "",
        params: dict | None = None, elapsed_ms: float = 0.0, note: str | None = None,
        oracle: str | None = None, error: str | None = None,
    ):
        self.lhs, self.rhs, self.modulus, self.passed = lhs, rhs, modulus, passed
        self.engine, self.suite, self.params, self.elapsed_ms = engine, suite, params, elapsed_ms
        self.note, self.oracle, self.error = note, oracle, error

    def __eq__(self, other):
        return isinstance(other, Report) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )


def _record(ctx, lhs, rhs, engine="exact", note=None, oracle=None) -> Report:
    """The record of lhs = rhs in a shard of modulus ``ctx``: int sides are
    reduced mod ``ctx.modulus``, which is the record's modulus; the sides of
    a shard without a modulus, or of a `Fraction` ``rhs``, are compared
    exactly.  A None ``lhs`` fails, with empty text."""
    if ctx is None or rhs.__class__ is Fraction:
        passed, modulus, lhs = lhs == rhs, "exact", str(lhs)
    else:
        m = ctx.modulus
        modulus, lhs, rhs = str(m), "" if lhs is None else str(lhs % m), str(rhs % m)
        passed = lhs == rhs
    return Report(lhs, lhs if passed else str(rhs), modulus, passed, engine, note=note,
                  oracle=oracle)


def _identity_check(fn):
    """A check that returns the (lhs, rhs) pair ``fn`` returns for the
    instance's params, passed by name."""

    def check(sweep, dual, ctx, **params):
        return fn(**params)

    return check


# --- shared evaluation helpers ---------------------------------------------


def _family(x: Fraction) -> QuarticFamily:
    """The quartic family of x.  Every grid hands out the family's own x,
    so a scan by identity finds it without hashing a `Fraction`; an equal
    x that is another object takes the dict."""
    for fam in QUARTICS:
        if fam.x is x:
            return fam
    return QUARTIC_BY_X[x]


# the partial-fraction closed form of each family's T_k, by family
_PARTFRAC = {fam: identities.PARTFRAC_CLOSED_FORMS[fam.x] for fam in QUARTICS}


def _term_row(fam: QuarticFamily, ctx: PrimePower) -> list[tuple[int, int, int]]:
    """(t_k, t_k T_k, (k!)^2) mod p^e for k < p: the row of ``fam``'s x on
    ``ctx.tables``.

    For x = a/b, t_k + t_k T_k eps is the jet prod_{j<k} (a+jb+b eps)
    (b-a+jb+b eps) over b^(2k) (k!)^2, a p-unit for k < p although T_k is
    not: the row walks the jet mod p^e, inverts the last denominator once
    and steps down by (b k)^2 to the others.
    """
    row = ctx.tables.get(("terms", fam))
    if row is not None:
        return row
    a, b, m = fam.x.numerator, fam.x.denominator, ctx.modulus
    row, r0, r1, f2 = [], 1, 0, 1
    for k in range(ctx.p):
        if k:
            u, v = a + (k - 1) * b, b - a + (k - 1) * b
            r0, r1 = r0 * u * v % m, (r1 * u * v + r0 * b * (u + v)) % m
            f2 = f2 * k * k % m
        row.append((r0, r1, f2))
    inv = special.unit_inverse(pow(b, 2 * (ctx.p - 1), m) * f2, ctx)
    for k in range(ctx.p - 1, -1, -1):
        r0, r1, f2 = row[k]
        row[k] = (r0 * inv % m, r1 * inv % m, f2)
        inv = inv * (b * k) ** 2 % m
    ctx.tables[("terms", fam)] = row
    return row


def _need_series(n_terms: int, sweep: Sweep):
    if n_terms > sweep.series_max:
        raise BudgetExceeded(f"series truncation {n_terms} exceeds cap {sweep.series_max}")


def _need_binomial(arg: int, sweep: Sweep):
    if arg > sweep.binomial_max:
        raise BudgetExceeded(f"binomial argument {arg} exceeds cap {sweep.binomial_max}")


def _need_family(fam: QuarticFamily, n: int, sweep: Sweep):
    """The binomial cap for every C(c n, d n) in ``fam``'s term at index n."""
    for c, _ in fam.binomials:
        _need_binomial(c * n, sweep)


def _series(
    dual: Shard, x: PadicInput, stop: int, ctx: PrimePower, sweep: Sweep, start: int = 0
) -> int:
    """The sum of the terms start <= k < stop of F(x; stop) mod p^e by the
    engine's route(s) (``dual``), under the series cap; the one way a check
    reaches a series engine."""
    _need_series(stop, sweep)
    return dual(ctx, lambda: series.window_sum_mod(x, start, stop, ctx),
                lambda: series.window_residue_exact(x, start, stop, ctx))


def _term(dual: Shard, fam: QuarticFamily, n: int, ctx: PrimePower, sweep: Sweep) -> int:
    """The term t_n of ``fam``'s series mod p^e by the engine's route(s)
    (``dual``), under the binomial cap; the one way a check reaches a
    quartic term."""
    _need_family(fam, n, sweep)
    return dual(ctx, lambda: fam.term_scaled(n, ctx), lambda: fam.term_residue(n, ctx))


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


def _general_xs(p: int, sweep: Sweep) -> list:
    """p-coprime rationals a/b (b <= 8) outside the four-family orbit; given
    x follow the any-x rule of `_sun_xs`."""
    if sweep.x_values is not None:
        return _sun_xs(p, sweep)
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


class _Grid:
    """A suite's instances: one params dict per point of a grid of (name,
    domain) axes, listed outermost first, keys in that order.

    Each value of the first domain, a function of the sweep (`firsts`), is a
    shard; each later domain, a function of (first value, sweep) returning a
    sequence, is evaluated once per shard, whose points are their product.
    An axis named None binds a domain of dicts, each merged into the point:
    a loop the product cannot state (b <= a), a loop order unlike the key
    order, or keys that differ between points.  `shard` yields each point
    with its JSON text, each later axis's ``,"name":value`` parts built once
    per run of shards with an equal domain (a `Fraction` in a domain is
    never integral, so equal domains print alike).
    """

    def __init__(self, *axes: tuple):
        (self.name, self.firsts), *self.later = axes
        self.parts = [((), [])] * len(self.later)  # each later axis's last domain and parts

    def shard(self, first, sweep: Sweep, head: str = "") -> Iterable[tuple[dict, str]]:
        """Each point at the value ``first`` of the first axis, in generation
        order, with its JSON text after ``head``."""
        text = f"{head}{{{_quote(self.name)}:{_json_value(first)}" + ("" if self.later else "}")
        pairs = [({self.name: first}, text)]
        for i, (name, domain) in enumerate(self.later):
            values = domain(first, sweep)
            if values != self.parts[i][0]:  # the last axis's parts carry the closing brace
                close = "}" if i == len(self.later) - 1 else ""
                self.parts[i] = values, [
                    "".join([f",{_quote(k)}:{_json_value(v)}" for k, v in
                             (point.items() if name is None else [(name, point)])]) + close
                    for point in values]
            pairs = _extend(pairs, name, values, self.parts[i][1])
        return pairs


def _extend(pairs: Iterable[tuple[dict, str]], name, values, parts: list[str]) -> Iterator:
    """Each of ``pairs``, a point and its text, with each of ``values`` bound
    to ``name`` in turn, or merged in where ``name`` is None, and the value's
    part appended to the text; a function of its own, so that each axis's
    generator keeps its own name, values and parts."""
    if name is None:
        return (({**point, **v}, text + part)
                for point, text in pairs for v, part in zip(values, parts))
    return (({**point, name: v}, text + part)
            for point, text in pairs for v, part in zip(values, parts))


def _json_value(v) -> str:
    """A params value as JSON: an int as its digits, any other value as its string."""
    return str(v) if v.__class__ is int else _quote(str(v))


#: Axes that several suites share.  A later axis's domain takes (first
#: value, sweep); the first value is p in every suite but the identity ones.
_P = ("p", lambda sweep: sweep.primes)
_N = ("n", lambda p, sweep: sweep.n_values)
_N1 = ("n", lambda p, sweep: [n for n in sweep.n_values if n >= 1])  # conj: n >= 1
_R = ("r", lambda p, sweep: sweep.r_values)
_R1 = ("r", lambda p, sweep: [r for r in sweep.r_values if r >= 1])  # corollary: r >= 1
_K = ("k", lambda p, sweep: range(p))
_M = ("m", lambda p, sweep: range(p))
_X = ("x", lambda first, sweep: _quartic_xs(sweep))
_SUN_X = ("x", _sun_xs)


def _only(x: Fraction) -> tuple:
    """The x axis of a suite of one quartic x: the family's own x, which
    `_family` finds by identity, unless --x drops it."""
    x = QUARTIC_BY_X[x].x
    return "x", lambda p, sweep: [x] if x in _quartic_xs(sweep) else []


def _indices(start: int) -> Callable[[Sweep], range]:
    """The first domain of an identity suite: start..identity_max."""
    return lambda sweep: range(start, sweep.identity_max + 1)


# --- theorem suites --------------------------------------------------------


def check_thm1(sweep, dual, ctx, p, x):
    return _series(dual, x, p, ctx, sweep), special.legendre(_family(x).character_arg, p)


def check_sun(sweep, dual, ctx, p, x):
    return _series(dual, x, p, ctx, sweep), special.sign_of_least_residue(x, p)


def check_rv(sweep, dual, ctx, p, n, x):
    lhs = _series(dual, x, n * p, ctx, sweep)
    base = _series(dual, x, n, ctx, sweep)
    return lhs, base * special.sign_of_least_residue(x, p)


def check_corollary_px(sweep, dual, ctx, p, r, x):
    lhs = _series(dual, x, p**r, ctx, sweep)
    sgn = special.sign_of_least_residue(x, p)
    return lhs, 1 if sgn == 1 or r % 2 == 0 else -1


_EISENSTEIN_BASES = (2, 3, 5, 7, 10)


def _lemma1_forms(p: int, sweep: Sweep) -> list[dict]:
    """Each product pair a <= b of the bases prime to p, then each power."""
    bases = [a for a in _EISENSTEIN_BASES if a % p]
    pairs = [{"a": a, "b": b, "form": "product"} for i, a in enumerate(bases) for b in bases[i:]]
    return pairs + [{"a": a, "r": r, "form": "power"} for a in bases for r in (1, 2, 3)]


def check_lemma1(sweep, dual, ctx, p, form, a, b=None, r=None):
    if form == "product":
        lhs = special.fermat_quotient(a * b, ctx)
        rhs = special.fermat_quotient(a, ctx) + special.fermat_quotient(b, ctx)
    else:
        lhs = special.fermat_quotient(a**r, ctx)
        rhs = special.fermat_quotient(a, ctx) * r
    return lhs, rhs, "modular"


def check_lemma2(sweep, dual, ctx, p, d):
    _need_series(p, sweep)
    lhs = special.harmonic_mod(p // d, ctx)
    q2 = special.fermat_quotient(2, ctx)
    q3 = special.fermat_quotient(3, ctx)
    half3 = residue_from_rational(Fraction(3, 2), ctx)
    if d == 2:
        rhs = -(q2 * 2)
    elif d == 3:
        rhs = -(half3 * q3)
    elif d == 4:
        rhs = -(q2 * 3)
    else:
        rhs = -(q2 * 2) - half3 * q3
    return lhs, rhs, "modular"


def check_lemma4(sweep, dual, ctx, p, r, k, x):
    fam = _family(x)
    lhs = _term(dual, fam, k + r * p, ctx, sweep)
    # right side: t_r (t_k (1 + 2rp (H_floor(px) - H_k)) + rp t_k T_k), each
    # part p-integral for the quartic x and p >= 5, so reduced one by one:
    # t_k and t_k T_k from x's jet row on ctx (past the binomial cap), the
    # p H_n (n < p) from the scaled harmonic row.  t_r by itself: r may pass p.
    t_k, tt_k, _ = _term_row(fam, ctx)[k]
    h = special.harmonic_row(p - 1, ctx, scaled=True)
    rest = t_k * (1 + 2 * r * (h[special.floor_px(x, p)] - h[k])) + r * p * tt_k
    return lhs, fam.term_residue(r, ctx) * rest


def check_lemma4_binom(sweep, dual, ctx, p, r, k, x):
    fam = _family(x)
    n = k + r * p
    _need_family(fam, n, sweep)
    lhs = fam.binomial_product(n)
    # right side: b_r b_k (1 + rp (T_k - 2 H_k)), T_k in its closed form sum
    # c H_{dk}; each dk <= 6(p-1) < p^2, so p H_{dk} is a p-integral row entry
    h = special.harmonic_row(6 * k, ctx, scaled=True)
    corr = sum(c * h[d * k] for c, d in _PARTFRAC[fam]) - 2 * h[k]
    b_k = fam.binomial_product(k) % ctx.modulus
    return lhs, fam.binomial_product(r) * b_k * (1 + r * corr)


def check_lemma5(sweep, dual, ctx, p, k, x):
    fam = _family(x)
    lhs = _term(dual, fam, k, ctx, sweep)
    return lhs, special.signed_binomial(special.floor_px(x, p), k)


def check_lemma5_poch(sweep, dual, ctx, p, k, x):
    _need_series(p, sweep)
    m = special.floor_px(x, p)
    # integer rising products prod_{i<k} (m+1+i)(i-m) mod p: x's row on
    # ctx, grown in index order to k
    fam = _family(x)
    row = ctx.tables.setdefault(("poch", fam), [1])
    for i in range(len(row) - 1, k):
        row.append(row[-1] * (m + 1 + i) % ctx.modulus * (i - m) % ctx.modulus)
    # (x)_k (1-x)_k = t_k (k!)^2, with t_k reduced before the product
    t_k, _, f2 = _term_row(fam, ctx)[k]
    return row[k], t_k * f2, "modular"


def check_babbage(sweep, dual, ctx, p, a, b):
    _need_binomial(a * p, sweep)
    return comb(a * p, b * p), comb(a, b)


# --- proof-chain suites ----------------------------------------------------


def check_chain_reflect(sweep, dual, ctx, p, x):
    return _series(dual, -x, p, ctx, sweep), -1 if special.least_residue(x, p) % 2 else 1


def _reflected_jet_sums(m: int, ctx: PrimePower) -> tuple[int, int, int]:
    """First-order expansion of the reflected alternating binomial sum, mod p^e.

    Returns (A, B_back, B_fwd) mod p^e with sum_{k<p} (-1)^k jet_k =
    A + (B_back + B_fwd)*t, where jet_k carries prod_{i<=k}(m+1-i+t)(m+i+t)/(k!)^2
    to first order in t; B_back comes from the backward factors (m+1-i+t),
    B_fwd from the forward ones.  The first-order part stays meaningful where
    a single factor vanishes (large k), where the naive reciprocal-sum form
    breaks down.  Each part is one integer over ((p-1)!)^2, S <- S*k^2 + c_k,
    walked mod p^e; that p-unit denominator is inverted once at the end.
    """
    mod = ctx.modulus
    a = b_back = b_fwd = 0
    p0, p1, d0, d1, kf2, sign = 1, 0, 1, 0, 1, 1
    for k in range(ctx.p):
        if k:
            c, d = m + 1 - k, m + k
            p0, p1 = p0 * c % mod, (p1 * c + p0) % mod
            d0, d1 = d0 * d % mod, (d1 * d + d0) % mod
            k2 = k * k
            a, b_back, b_fwd = a * k2 % mod, b_back * k2 % mod, b_fwd * k2 % mod
            kf2 = kf2 * k2 % mod
            sign = -sign
        a += sign * p0 * d0
        b_back += sign * p1 * d0
        b_fwd += sign * p0 * d1
    inv = special.unit_inverse(kf2, ctx)
    return a * inv % mod, b_back * inv % mod, b_fwd * inv % mod


def check_chain_jet(sweep, dual, ctx, p, x):
    q = as_fraction(x)
    lhs = _series(dual, -q, p, ctx, sweep)
    m = special.least_residue(x, p)
    delta = residue_from_rational((q - m) / p, ctx)
    a_tot, b_back, b_fwd = _reflected_jet_sums(m, ctx)
    return lhs, delta * (p * (b_back + b_fwd)) + a_tot


def check_chain_backward(sweep, dual, ctx, p, m):
    _need_series(p, sweep)
    # the backward-offset first-order piece of the jet
    lhs = _reflected_jet_sums(m, ctx)[1]
    rhs = special.harmonic_mod(m, ctx) * (1 if (m + 1) % 2 == 0 else -1)
    return lhs, rhs


# For m < p, C(m, k) = 0 when m < k < p, so the sums truncated at p are the
# identity-alt and identity-tail sums at n = m.  Every prime reads them again
# at each m < p, so each is computed once per m, into a table bounded by
# VERIFY_BUDGET_SERIES: every reader passes the series cap at p > m first.
_ALTERNATING: dict[int, tuple[Fraction, Fraction]] = {}
_TAIL: dict[int, tuple[Fraction, Fraction]] = {}


def _case(table: dict, fn, m: int) -> tuple[Fraction, Fraction]:
    """fn(m), computed once per m into ``table``."""
    if m not in table:
        table[m] = fn(m)
    return table[m]


def check_chain_binom(sweep, dual, ctx, p, m):
    _need_series(p, sweep)
    return _case(_ALTERNATING, identities.alternating_binomial_sum, m)


def check_chain_forward(sweep, dual, ctx, p, m):
    _need_series(p, sweep)
    return _case(_TAIL, identities.tail_harmonic_sum, m)


def check_chain_block(sweep, dual, ctx, p, r, x):
    fam = _family(x)
    _need_family(fam, r, sweep)
    lhs = _series(dual, x, (r + 1) * p, ctx, sweep, start=r * p)
    base = _series(dual, x, p, ctx, sweep)
    rhs = fam.term_residue(r, ctx) * base
    return lhs, rhs


def check_chain_convolution(sweep, dual, ctx, p, x):
    _need_series(p, sweep)
    row, h = _term_row(_family(x), ctx), special.harmonic_row(p - 1, ctx)
    return sum(tt for _, tt, _ in row), sum(t * h[i] for i, (t, _, _) in enumerate(row))


def check_chain_weighted(sweep, dual, ctx, p, x, form):
    _need_series(p, sweep)
    m = special.floor_px(x, p)
    if form == "series":
        h = special.harmonic_row(p - 1, ctx)
        row = _term_row(_family(x), ctx)
        total = sum(t * (2 * h[m] - h[k]) for k, (t, _, _) in enumerate(row))
        return total, 0
    # m < p, so the binomial form stops at k = m: it is 2 H_m times the
    # identity-alt sum minus the identity-harmonic sum, both at n = m
    alt, _ = _case(_ALTERNATING, identities.alternating_binomial_sum, m)
    weighted, _ = identities.harmonic_weighted_sum(m)
    return 2 * special.harmonic_exact(m) * alt - weighted, Fraction(0)


def check_chain_product(sweep, dual, ctx, p, n, x):
    lhs = _series(dual, x, n * p, ctx, sweep)
    fp = _series(dual, x, p, ctx, sweep)
    fn = _series(dual, x, n, ctx, sweep)
    return lhs, fp * fn


def check_gessel(sweep, dual, ctx, p, n):
    _need_binomial(2 * n * p, sweep)
    return special.apery_number(n * p), special.apery_number(n)


# --- conjecture suites -----------------------------------------------------

_CONJ_RHS: dict[Fraction, tuple[str, Fraction]] = {
    Fraction(1, 2): ("euler-number", Fraction(-4)),
    Fraction(1, 3): ("bernoulli-poly", Fraction(-3, 2)),
    Fraction(1, 4): ("euler-poly", Fraction(-1)),
    Fraction(1, 6): ("euler-number", Fraction(-20)),
}


def _conj_rhs(x: Fraction, ctx: PrimePower) -> int:
    # coeff p^2 poly mod p^e, which reads the p-integral poly only mod p^(e-2)
    p = ctx.p
    if ctx.e <= 2:
        return 0
    kind, coeff = _CONJ_RHS[x]
    if kind == "euler-number":
        poly = special.euler_number_mod(p - 3, ctx)
    elif kind == "euler-poly":
        poly = special.euler_polynomial_mod(p - 3, Fraction(1, 4), ctx)
    else:
        poly = special.bernoulli_polynomial_mod(p - 2, Fraction(1, 3), ctx)
    return residue_from_rational(coeff, ctx) * p * p * poly % ctx.modulus


def _conj_exact_scaled(fam, p, n, eps) -> Fraction:
    x = fam.x
    diff = series.series_fraction(x, n * p) - eps * series.series_fraction(x, n)
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
    return head + f"; reduces to {residue_from_rational(val, ctx)} mod {ctx.modulus}"


def check_conjecture(sweep, dual, ctx, p, n, x):
    fam = _family(x)
    _need_series(n * p, sweep)  # the series cap first, before the binomial one
    _need_family(fam, n, sweep)
    w, unit = split_p_power(n * n * fam.binomial_product(n), p)
    if ctx.e + w > padic.MAX_EXPONENT:
        raise BudgetExceeded(
            f"needs working precision p^{ctx.e + w}, cap is p^{padic.MAX_EXPONENT}"
        )
    ctxw = ctx if w == 0 else ctx.tables.get(("precision", w))
    if ctxw is None:  # one p^(e+w) per (shard, w), on the shard's ctx
        ctxw = ctx.tables[("precision", w)] = PrimePower(p, ctx.e + w)
    eps = special.legendre(fam.character_arg, p)
    # scaled difference base^n (F(np) - eps F(n)) / (n^2 binprod(n)) mod p^e,
    # from both sums mod p^(e+w).  It is a p-adic integer when p^w divides
    # the difference, and rv's mod-p^2 theorem (eps is the sign of the quartic
    # x) puts p^2 in it too, so one rule holds for every engine: p^max(2, w).
    f_np = _series(dual, x, n * p, ctxw, sweep)
    f_n = _series(dual, x, n, ctxw, sweep)
    diff = (f_np - f_n * eps) % ctxw.modulus  # the one place two moduli meet
    key = ("conj", x)  # one right side per x on ctx, for every n
    if key not in ctx.tables:
        ctx.tables[key] = _conj_rhs(x, ctx)
    rhs = ctx.tables[key]
    # a failure names no engine: its record names the route that ran (`run_instance`)
    if diff % p ** max(2, w):
        note = (
            "divisibility violation: scaled difference is not a p-adic integer "
            "at the required valuation"
        )
        return None, rhs, None, note, _conj_oracle(fam, p, n, eps, ctx)
    m = ctx.modulus
    lhs = diff // p**w * pow(fam.base, n, m) * pow(unit % m, -1, m) % m
    if lhs != rhs:
        return lhs, rhs, None, None, _conj_oracle(fam, p, n, eps, ctx)
    return lhs, rhs


# --- identity suites -------------------------------------------------------


check_identity_alt = _identity_check(identities.alternating_binomial_sum)
check_identity_harmonic = _identity_check(identities.harmonic_weighted_sum)
check_identity_tail = _identity_check(identities.tail_harmonic_sum)
check_identity_shifted = _identity_check(identities.shifted_harmonic_sum)
check_identity_chain = _identity_check(identities.harmonic_difference_chain)
check_identity_partfrac = _identity_check(identities.partial_fraction_sum)
check_identity_convolution = _identity_check(identities.term_convolution_identity)
check_identity_taylor = _identity_check(identities.taylor_coefficient_check)
check_identity_negation = _identity_check(identities.negation_symmetry)
check_identity_printed = _identity_check(identities.shifted_harmonic_sum_printed)


# --- registry --------------------------------------------------------------


class Suite:
    """One registry row.  ``exponent`` is the e of the suite's statement mod
    p^e, which ``--mod-exp`` overrides unless the row is ``fixed`` (lemma1
    and lemma2 stay mod p); it is None for the exact suites.  ``kind`` is one
    of theorem, identity, conjecture and exploratory.  ``gen`` is the
    instances' `_Grid` of (name, domain) axes, listed outermost first and
    keyed in that order, with p first in every suite that has a prime;
    ``gen.firsts(sweep)`` lists the shards' first values, and
    ``gen.shard(first, sweep)`` yields one shard's params dicts with their
    JSON texts.  ``check(sweep, dual, ctx, **params)`` returns `_record`'s
    args after ``ctx``."""

    def __init__(
        self, id: str, kind: str, exponent: int | None, gen: _Grid,
        check: Callable[..., tuple], description: str, fixed: bool = False,
    ):
        self.id, self.kind, self.exponent, self.fixed = id, kind, exponent, fixed
        self.gen, self.check, self.description = gen, check, description


_SUITES = [
    Suite("thm1", "theorem", 2, _Grid(_P, _X), check_thm1,
          "four quadratic-character congruences for the length-p sum, mod p^2"),
    Suite("sun", "theorem", 2, _Grid(_P, _SUN_X), check_sun,
          "length-p sum vs parity of the least residue of -x, any p-adic x, mod p^2"),
    Suite("rv", "theorem", 2, _Grid(_P, _N, _X), check_rv,
          "length-np sum vs sign times length-n sum, quartic x, mod p^2"),
    Suite("corollary", "theorem", 2, _Grid(_P, _R1, _X), check_corollary_px,
          "length-p^r sum vs r-th power of the sign, mod p^2"),
    Suite("lemma1", "theorem", 1, _Grid(_P, (None, _lemma1_forms)), check_lemma1,
          "Fermat-quotient additivity over products and powers, mod p", fixed=True),
    Suite("lemma2", "theorem", 1, _Grid(_P, ("d", lambda p, sweep: (2, 3, 4, 6))), check_lemma2,
          "harmonic numbers at floor(p/d) vs Fermat quotients, mod p", fixed=True),
    Suite("lemma4", "theorem", 2, _Grid(_P, _R, _K, _X), check_lemma4,
          "term shift k -> k+rp factors through a harmonic correction, mod p^2"),
    Suite("lemma4-binom", "theorem", 2, _Grid(_P, _R, _K, _X), check_lemma4_binom,
          "central-binomial form of the term-shift congruence, mod p^2"),
    Suite("lemma5", "theorem", 1, _Grid(_P, _K, _X), check_lemma5,
          "series term vs signed binomial product at the floor multiple, mod p"),
    Suite("lemma5-poch", "theorem", 1, _Grid(_P, _K, _X), check_lemma5_poch,
          "rising-product form of the term/binomial congruence, mod p"),
    Suite("babbage", "theorem", 2,
          _Grid(_P, (None, lambda p, sweep: [
              {"a": a, "b": b} for a in range(7) for b in range(a + 1)])),
          check_babbage, "C(ap, bp) vs C(a, b), mod p^2"),
    Suite("chain-reflect", "theorem", 2, _Grid(_P, _SUN_X), check_chain_reflect,
          "reflected-parameter restatement of the any-x congruence, mod p^2"),
    Suite("chain-jet", "theorem", 2, _Grid(_P, _SUN_X), check_chain_jet,
          "first-order jet expansion of the reflected sum around the least residue, mod p^2"),
    Suite("chain-backward", "theorem", 1, _Grid(_P, _M), check_chain_backward,
          "backward-offset first-order piece vs a signed harmonic number, mod p"),
    Suite("chain-binom", "theorem", None, _Grid(_P, _M), check_chain_binom,
          "alternating binomial sum truncated at p equals the sign, exactly"),
    Suite("chain-forward", "theorem", None, _Grid(_P, _M), check_chain_forward,
          "forward-offset harmonic-weighted sum equals a signed harmonic number, exactly"),
    Suite("chain-block", "theorem", 2, _Grid(_P, _R, _X), check_chain_block,
          "length-p block r factors into term_r times the base block, mod p^2"),
    Suite("chain-convolution", "theorem", 1, _Grid(_P, _X), check_chain_convolution,
          "partial-fraction weights reduce to harmonic weights under the sum, mod p"),
    Suite("chain-weighted", "theorem", 1,
          _Grid(_P, _X, ("form", lambda p, sweep: ("series", "binomial"))), check_chain_weighted,
          "harmonic-weighted sum vanishes mod p (series and binomial forms)"),
    Suite("chain-product", "theorem", 2, _Grid(_P, _N, _X), check_chain_product,
          "length-np sum factors into length-p times length-n sums, mod p^2"),
    Suite("gessel", "theorem", 3, _Grid(_P, _N), check_gessel,
          "Apery numbers A_{np} vs A_n, mod p^3"),
    Suite("identity-alt", "identity", None, _Grid(("n", _indices(0))), check_identity_alt,
          "alternating binomial sum equals (-1)^n, exactly"),
    Suite("identity-harmonic", "identity", None, _Grid(("n", _indices(1))), check_identity_harmonic,
          "harmonic-weighted alternating sum equals 2(-1)^n H_n, exactly"),
    Suite("identity-tail", "identity", None, _Grid(("n", _indices(1))), check_identity_tail,
          "tail-harmonic alternating sum equals (-1)^n H_n, exactly"),
    Suite("identity-shifted", "identity", None, _Grid(("n", _indices(1))), check_identity_shifted,
          "shifted-harmonic alternating sum including k=0 equals 2(-1)^n H_n, exactly"),
    Suite("identity-chain", "identity", None, _Grid(("n", _indices(0))), check_identity_chain,
          "harmonic-difference form linking the alternating-sum identities, exactly"),
    Suite("identity-partfrac", "identity", None, _Grid(("k", _indices(0)), _X),
          check_identity_partfrac,
          "partial-fraction harmonic decompositions of the four families, exactly"),
    Suite("identity-convolution", "identity", None, _Grid(("k", _indices(0)), _X),
          check_identity_convolution,
          "harmonic-weighted term equals the convolution of earlier terms, exactly"),
    Suite("identity-taylor", "identity", None,
          _Grid(("k", _indices(0)), ("r", lambda k, sweep: (1, 2, 3)),
                ("order", lambda k, sweep: (0, 1))), check_identity_taylor,
          "value and derivative at zero of the binomial-ratio function, exactly"),
    Suite("identity-negation", "identity", None,
          _Grid(("b", _indices(1)), ("k", lambda b, sweep: range(sweep.identity_max + 1))),
          check_identity_negation, "negated-upper-index binomial product symmetry, exactly"),
    Suite("conj-1/2", "conjecture", 3, _Grid(_P, _N1, _only(Fraction(1, 2))), check_conjecture,
          "scaled mod-p^3 strengthening, central-binomial family (Euler number RHS)"),
    Suite("conj-1/3", "conjecture", 3, _Grid(_P, _N1, _only(Fraction(1, 3))), check_conjecture,
          "scaled mod-p^3 strengthening, 1/3 family (Bernoulli polynomial RHS)"),
    Suite("conj-1/4", "conjecture", 3, _Grid(_P, _N1, _only(Fraction(1, 4))), check_conjecture,
          "scaled mod-p^3 strengthening, 1/4 family (Euler polynomial RHS)"),
    Suite("conj-1/6", "conjecture", 3, _Grid(_P, _N1, _only(Fraction(1, 6))), check_conjecture,
          "scaled mod-p^3 strengthening, 1/6 family (Euler number RHS)"),
    # the loop runs x outside n, but the keys stay p, n, x
    Suite("rv-x", "exploratory", 2,
          _Grid(_P, (None, lambda p, sweep: [
              {"n": n, "x": x} for x in _general_xs(p, sweep) for n in sweep.n_values])),
          check_rv, "the np-vs-n factorization swept over general rational x (expected to fail)"),
    Suite("identity-shifted-printed", "exploratory", None, _Grid(("n", _indices(1))),
          check_identity_printed,
          "shifted-harmonic alternating sum starting at k=1 (off by H_n; expected to fail)"),
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


class Shard:
    """What the instances at one value of a suite's first axis (a prime or an
    identity index) share: ``ctx``, the modulus p^e with its tables, e the
    suite's exponent or ``--mod-exp``, or None for an exact suite; and the
    checks' ``dual(ctx, modular_fn, exact_fn)``, the shard itself, bound to
    the run's engine, which checks reach only through `_series` and `_term`,
    under their budget caps.  ``dual``'s ctx, the shard's or a conjecture's
    working precision p^(e+w), is the modulus of both routes' ints, of the
    fault perturbation and of a disagreement.  `run_instance` sets
    ``params``, the instance running, and resets the route and the fault
    flag for each instance.
    """

    __slots__ = ("suite", "engine", "sweep", "fault", "ctx", "params", "route", "armed")

    def __init__(self, suite_id: str, first, engine: str, sweep: Sweep, fault_suite: str | None):
        suite = self.suite = REGISTRY[suite_id]
        self.engine, self.sweep, self.fault = engine, sweep, fault_suite == suite_id
        e = suite.exponent
        if e is not None and not suite.fixed:
            e = sweep.mod_exp or e
        self.ctx = None if e is None else PrimePower(first, e)

    def __call__(self, ctx: PrimePower, modular_fn, exact_fn) -> int:
        engine = self.engine
        if engine == "exact":
            value, self.route = exact_fn(), "exact"
        else:
            value, self.route = modular_fn(), "modular"
        if self.armed:
            value, self.armed = (value + 1) % ctx.modulus, False
        if engine == "both":
            ev = exact_fn()
            if value != ev:
                raise InternalError(
                    f"engine disagreement in {self.suite.id} {self.params}: modular "
                    f"{value} vs exact {ev} mod {ctx.p}^{ctx.e}"
                )
        return value


def run_instance(suite_id: str, params: dict, shard: Shard) -> Report:
    """Run one instance of ``suite_id`` in its `Shard`; domain errors become
    error reports, bugs raise `InternalError`.

    The check gets the shard's sweep, its modulus and the shard as its
    ``dual``, and `_record` builds the record from the sides it returns.
    The first value a check asks ``dual`` for is its primary value (its left
    side); when the shard's fault suite (the ``VERIFY_FAULT_INJECT``
    self-test) is this suite, that value, on the route the engine reports
    (exact under ``exact``, modular otherwise), is off by one, so ``both``
    raises `InternalError` and ``modular`` and ``exact`` report a failure.
    """
    t0 = time.perf_counter()
    shard.params, shard.route, shard.armed = params, None, shard.fault
    try:
        rep = _record(shard.ctx, *shard.suite.check(shard.sweep, shard, shard.ctx, **params))
    except VerifyError as ex:
        rep = _error_report(ex)
    except InternalError:
        raise
    except Exception as ex:  # a bug in a check or kernel: exit 3, not a traceback
        raise InternalError(f"{suite_id} {params}: {type(ex).__name__}: {ex}") from ex
    rep.suite, rep.params = suite_id, params
    if shard.route is not None and rep.error is None:
        rep.engine = shard.route
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return rep


def _error_report(ex: Exception) -> Report:
    return Report("", "", "", False, "", error=f"{type(ex).__name__}: {ex}")

