"""Suite registry, dual-engine agreement, error taxonomy, fault injection."""

import hashlib
import io
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_one, sweep_reports

from hypercheck import cli, identities, special, suites
from hypercheck.errors import InternalError
from hypercheck.padic import MAX_EXPONENT, PrimePower, Residue, residue_from_rational
from hypercheck.series import QUARTICS, QuarticFamily
from hypercheck.special import floor_px, harmonic_exact
from hypercheck.suites import (
    ALIASES,
    CONJECTURE_SUITES,
    EXPLORATORY_SUITES,
    IDENTITY_SUITES,
    REGISTRY,
    THEOREM_SUITES,
    Report,
    Sweep,
    primes_in,
)

F = Fraction


def small_sweep(**kw) -> Sweep:
    base = dict(primes=primes_in(5, 13), identity_max=12)
    base.update(kw)
    return Sweep(**base)


def test_primes_in_against_known_list():
    assert primes_in(5, 100) == (
        5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
        59, 61, 67, 71, 73, 79, 83, 89, 97,
    )
    assert primes_in(24, 28) == ()
    assert primes_in(5, 4) == ()
    assert primes_in(97, 97) == (97,)


def test_primes_in_memory_does_not_grow_with_hi():
    # a sieve to 5 * 10^7 peaks near 95 MB for these 11 primes
    tracemalloc.start()
    try:
        primes = primes_in(49_999_800, 50_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert primes == (
        49999801, 49999819, 49999843, 49999847, 49999853, 49999877,
        49999883, 49999897, 49999903, 49999921, 49999991,
    )
    assert peak < 2**20, peak


def test_registry_shape():
    assert len(REGISTRY) == len(set(REGISTRY))
    for suite in REGISTRY.values():
        assert suite.kind in ("theorem", "identity", "conjecture", "exploratory")
        assert suite.description
    assert set(THEOREM_SUITES) | set(IDENTITY_SUITES) | set(
        CONJECTURE_SUITES
    ) | set(EXPLORATORY_SUITES) == set(REGISTRY)
    assert ALIASES["all"] == THEOREM_SUITES + IDENTITY_SUITES
    for name in ("chains", "lemmas", "conj"):
        assert ALIASES[name]


# every registered suite's params dicts, keys in order, over these sweeps:
# repeated and zero n and r, the --x filter with a p-divisible denominator,
# an integer and a non-quartic x, empty axes, and no prime at all
GENERATOR_SWEEPS = (
    small_sweep(),
    small_sweep(n_values=(0, 2, 1), r_values=(0, 3, 1), identity_max=7),
    small_sweep(x_values=(F(1, 2), F(1, 7), 3, F(2, 5), F(1, 6))),
    small_sweep(n_values=(), r_values=(), x_values=(F(1, 5),)),
    small_sweep(primes=(), identity_max=0),
    Sweep((7,), n_values=(1, 1, 2), x_values=(F(1, 4), F(1, 4))),
)
GENERATOR_DIGEST = "f6ae5bcfb21f75a1630b15a17cd90b3064d544cb7c01df8880578237c8f2c015"


def _generator_digest() -> str:
    h = hashlib.sha256()
    for sw in GENERATOR_SWEEPS:
        for sid in REGISTRY:
            for params in REGISTRY[sid].gen(sw):
                h.update(repr((sid, list(params.items()))).encode())
    return h.hexdigest()


def test_generators_are_deterministic():
    sw = small_sweep()
    for sid in REGISTRY:
        assert list(REGISTRY[sid].gen(sw)) == list(REGISTRY[sid].gen(sw))
    assert _generator_digest() == GENERATOR_DIGEST


# frozen worked examples, one per headline suite
def test_worked_example_thm1():
    rep = run_one("thm1", {"p": 7, "x": F(1, 2)}, engine="both")
    assert rep.passed and rep.lhs == rep.rhs == "48" and rep.modulus == "49"
    rep = run_one("thm1", {"p": 5, "x": F(1, 2)}, engine="both")
    assert rep.passed and rep.lhs == "1" and rep.modulus == "25"


def test_worked_example_rv():
    rep = run_one("rv", {"p": 5, "n": 2, "x": F(1, 2)}, engine="both")
    # right side is 1 + 1/4 reduced: 1 + 19 = 20 mod 25
    assert rep.passed and rep.rhs == "20" and rep.modulus == "25"


def test_worked_example_corollary():
    rep = run_one("corollary", {"p": 7, "r": 2, "x": F(1, 2)}, engine="both")
    assert rep.passed and rep.lhs == "1" and rep.modulus == "49"


def test_worked_example_block_factorization():
    rep = run_one("chain-block", {"p": 5, "r": 1, "x": F(1, 2)}, engine="both")
    assert rep.passed and rep.modulus == "25"


def test_worked_example_shift():
    rep = run_one(
        "lemma4-binom", {"p": 5, "r": 1, "k": 2, "x": F(1, 2)}, engine="modular"
    )
    # C(14,7)^2 against C(2,1)^2 C(4,2)^2 (1 + 5(4H_4 - 4H_2)), both 24 mod 25
    assert rep.passed and rep.lhs == rep.rhs == "24"


def test_worked_example_conjecture_branch_sixth():
    rep = run_one("conj-1/6", {"p": 5, "n": 1, "x": F(1, 6)}, engine="both")
    # right side -20 p^2 E_{p-3} = -20 * 25 * E_2 = 500 = 0 mod 125
    assert rep.passed and rep.rhs == "0" and rep.modulus == "125"


def test_worked_example_gessel():
    rep = run_one("gessel", {"p": 5, "n": 1}, engine="both")
    assert rep.passed and rep.lhs == rep.rhs == "5" and rep.modulus == "125"


REPRESENTATIVE = {
    "thm1": {"p": 11, "x": F(1, 3)},
    "sun": {"p": 11, "x": 7},
    "rv": {"p": 7, "n": 3, "x": F(1, 4)},
    "corollary": {"p": 11, "r": 1, "x": F(1, 6)},
    "lemma1": {"p": 11, "a": 3, "b": 7, "form": "product"},
    "lemma2": {"p": 13, "d": 4},
    "lemma4": {"p": 11, "r": 2, "k": 7, "x": F(1, 3)},
    "lemma4-binom": {"p": 11, "r": 1, "k": 9, "x": F(1, 4)},
    "lemma5": {"p": 13, "k": 11, "x": F(1, 6)},
    "lemma5-poch": {"p": 13, "k": 12, "x": F(1, 2)},
    "babbage": {"p": 11, "a": 5, "b": 2},
    "chain-reflect": {"p": 11, "x": F(3, 5)},
    "chain-jet": {"p": 11, "x": F(3, 5)},
    "chain-backward": {"p": 11, "m": 6},
    "chain-binom": {"p": 11, "m": 6},
    "chain-forward": {"p": 11, "m": 6},
    "chain-block": {"p": 7, "r": 2, "x": F(1, 3)},
    "chain-convolution": {"p": 13, "x": F(1, 6)},
    "chain-weighted": {"p": 13, "x": F(1, 4), "form": "binomial"},
    "chain-product": {"p": 7, "n": 2, "x": F(1, 6)},
    "gessel": {"p": 7, "n": 2},
    "identity-alt": {"n": 9},
    "identity-harmonic": {"n": 9},
    "identity-tail": {"n": 9},
    "identity-shifted": {"n": 9},
    "identity-chain": {"n": 9},
    "identity-partfrac": {"k": 9, "x": F(1, 6)},
    "identity-convolution": {"k": 9, "x": F(1, 3)},
    "identity-taylor": {"k": 9, "r": 2, "order": 1},
    "identity-negation": {"b": 9, "k": 5},
    "conj-1/2": {"p": 11, "n": 2, "x": F(1, 2)},
    "conj-1/3": {"p": 11, "n": 2, "x": F(1, 3)},
    "conj-1/4": {"p": 11, "n": 2, "x": F(1, 4)},
    "conj-1/6": {"p": 11, "n": 2, "x": F(1, 6)},
}


@pytest.mark.parametrize("sid", sorted(REPRESENTATIVE))
def test_representative_instance_passes(sid):
    rep = run_one(sid, REPRESENTATIVE[sid], engine="both")
    assert rep.error is None
    assert rep.passed, (rep.lhs, rep.rhs, rep.note)


def test_representative_params_come_from_generators():
    sweep = Sweep(primes=primes_in(5, 13), identity_max=12)
    for sid, params in REPRESENTATIVE.items():
        assert params in list(REGISTRY[sid].gen(sweep)), sid


def _reflected_jet_sums_exact(m, terms):
    """chain-jet's and chain-backward's former jet sums: (A, B_back, B_fwd)
    as exact rationals, each one integer over ((terms-1)!)^2."""
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


def _jet_sums_per_step(m, terms):
    """chain-jet's former walk: (A, B) as per-step `Fraction` sums."""
    a_tot = Fraction(0)
    b_tot = Fraction(0)
    p0, p1, d0, d1 = 1, 0, 1, 0
    kf2 = 1
    sign = 1
    for k in range(terms):
        if k:
            c, d = m + 1 - k, m + k
            p0, p1 = p0 * c, p1 * c + p0
            d0, d1 = d0 * d, d1 * d + d0
            kf2 *= k * k
            sign = -sign
        a_tot += Fraction(sign * (p0 * d0), kf2)
        b_tot += Fraction(sign * (p1 * d0 + p0 * d1), kf2)
    return a_tot, b_tot


def _backward_sum_per_step(m, p):
    """chain-backward's former walk of its backward first-order piece."""
    b_tot = Fraction(0)
    p0, p1, d0 = 1, 0, 1
    kf2 = 1
    sign = 1
    for k in range(p):
        if k:
            c, d = m + 1 - k, m + k
            p0, p1 = p0 * c, p1 * c + p0
            d0 = d0 * d
            kf2 *= k * k
            sign = -sign
        b_tot += Fraction(sign * p1 * d0, kf2)
    return b_tot


def test_jet_sums_match_the_per_step_walks():
    for p in primes_in(5, 61):
        for m in range(p):
            a, b_back, b_fwd = _reflected_jet_sums_exact(m, p)
            a_ref, b_ref = _jet_sums_per_step(m, p)
            back_ref = _backward_sum_per_step(m, p)
            assert (a, b_back, b_fwd) == (a_ref, back_ref, b_ref - back_ref), (p, m)


def term_exact(fam: QuarticFamily, n: int) -> Fraction:
    """The family's term at index n as one rational."""
    return Fraction(fam.binomial_product(n), fam.base**n)


def _lemma4_rhs_per_instance(fam, p, r, k):
    """The lemma4 and lemma4-binom right sides as the exact rationals that
    each instance used to build and reduce once."""
    x = fam.x
    weight = identities.partial_fraction_weights(x, k)[k]
    corr = (
        1
        + 2 * r * p * harmonic_exact(floor_px(x, p))
        - 2 * r * p * harmonic_exact(k)
        + r * p * weight
    )
    combo = identities.partial_fraction_closed_form(k, x) - 2 * harmonic_exact(k)
    return (
        term_exact(fam, r) * term_exact(fam, k) * corr,
        fam.binomial_product(r) * fam.binomial_product(k) * (1 + r * p * combo),
    )


def test_lemma4_rows_match_the_per_instance_rationals():
    # the left side is stubbed out: only the right side is under test
    def dual(modular_fn, exact_fn):
        return Residue(0, PrimePower(5, 1))

    for p in primes_in(5, 101):
        refs = {
            (fam.x, r, k): _lemma4_rhs_per_instance(fam, p, r, k)
            for fam in QUARTICS
            for r in (0, 1, 2, 5)
            for k in range(p)
        }
        # one e at a time, as a sweep runs, so each row is built once
        for e in (1, 2, 3):
            sweep = Sweep(primes=(p,))
            ctx = PrimePower(p, e)
            for (x, r, k), ref in refs.items():
                params = {"p": p, "r": r, "k": k, "x": x}
                got = (
                    str(suites.check_lemma4(sweep, dual, ctx, **params)[1].value),
                    str(suites.check_lemma4_binom(sweep, dual, ctx, **params)[1].value),
                )
                want = tuple(str(residue_from_rational(q, ctx).value) for q in ref)
                assert got == want, (p, x, k, r, e)


def _no_left_side(modular_fn, exact_fn):
    return Residue(0, PrimePower(5, 1))


@settings(max_examples=8)
@given(st.sampled_from(primes_in(5, 500)), st.integers(1, MAX_EXPONENT))
def test_modular_rows_match_their_exact_references(p, e):
    # every row the theorem suites build mod p^e, entry by entry, against the
    # exact rationals it replaced, reduced once
    ctx = PrimePower(p, e)

    def reduce(q):
        return residue_from_rational(q, ctx).value

    for m in range(p):
        want = tuple(map(reduce, _reflected_jet_sums_exact(m, p)))
        assert suites._reflected_jet_sums(m, ctx) == want, m
    top = 6 * (p - 1)  # lemma4-binom's largest index d k
    assert special.harmonic_row(top, ctx, scaled=True)[: top + 1] == [
        reduce(p * harmonic_exact(j)) for j in range(top + 1)
    ]
    sweep = Sweep(primes=(p,))
    for fam in QUARTICS:
        x = fam.x
        terms = identities.series_terms(x, p - 1)
        weights = identities.partial_fraction_weights(x, p - 1)
        suites.check_lemma5_poch(sweep, _no_left_side, ctx, p=p, k=p - 1, x=x)
        m = floor_px(x, p)
        assert ctx.tables[("poch", fam)] == [
            prod((m + 1 + i) * (i - m) for i in range(k)) % ctx.modulus for k in range(p)
        ]
        assert suites._term_row(fam, ctx) == [
            (reduce(terms[k]), reduce(terms[k] * weights[k]), reduce(factorial(k) ** 2))
            for k in range(p)
        ]


def test_exploratory_suites_do_fail():
    rep = run_one("rv-x", {"p": 5, "n": 2, "x": F(1, 7)}, engine="both")
    assert not rep.passed and rep.error is None
    rep = run_one("identity-shifted-printed", {"n": 3})
    assert not rep.passed and rep.error is None


def test_engine_labels():
    params = {"p": 7, "x": F(1, 2)}
    assert run_one("thm1", params, engine="modular").engine == "modular"
    assert run_one("thm1", params, engine="exact").engine == "exact"
    assert run_one("thm1", params, engine="both").engine == "modular"
    assert run_one("babbage", {"p": 7, "a": 3, "b": 1}).engine == "exact"


def test_engines_agree_on_random_instances():
    # sweep every dual-route suite under engine=both; disagreement raises
    sw = small_sweep()
    for sid in ("thm1", "sun", "rv", "corollary", "lemma4", "lemma5",
                "chain-reflect", "chain-jet", "chain-block", "chain-product"):
        for params in REGISTRY[sid].gen(sw):
            rep = run_one(sid, params, engine="both", sweep=sw)
            assert rep.error is None and rep.passed


def test_fault_injection_is_caught_by_oracle():
    params = {"p": 7, "x": F(1, 2)}
    with pytest.raises(InternalError):
        run_one("thm1", params, engine="both", fault_suite="thm1")
    # fault on a different suite leaves this one alone
    rep = run_one("thm1", params, engine="both", fault_suite="sun")
    assert rep.passed


def test_fault_injection_without_oracle_is_a_plain_failure():
    rep = run_one(
        "thm1", {"p": 7, "x": F(1, 2)}, engine="modular", fault_suite="thm1"
    )
    assert not rep.passed and rep.error is None


def test_budget_exceeded_becomes_error_report():
    sw = small_sweep(series_max=10)
    rep = run_one("rv", {"p": 11, "n": 2, "x": F(1, 2)}, sweep=sw)
    assert rep.error is not None and rep.error.startswith("BudgetExceeded")
    assert not rep.passed
    sw = small_sweep(binomial_max=10)
    rep = run_one("babbage", {"p": 11, "a": 5, "b": 2}, sweep=sw)
    assert rep.error is not None and rep.error.startswith("BudgetExceeded")


def test_lemma4_rows_stop_at_the_binomial_cap(monkeypatch):
    # an instance reads row entry k only once c (k + rp) is under the cap,
    # so the rows need no binomial past it either
    seen = []
    product = QuarticFamily.binomial_product

    def recording(fam, n):
        seen.append((fam, n))
        return product(fam, n)

    monkeypatch.setattr(QuarticFamily, "binomial_product", recording)
    sweep = Sweep(primes=(101,), binomial_max=10)
    for suite_id in ("lemma4", "lemma4-binom"):
        for rep in sweep_reports(suite_id, sweep):
            assert rep.passed or rep.error.startswith("BudgetExceeded")
    assert seen
    assert all(c * n <= 10 for fam, n in seen for c, _ in fam.binomials)


ORDER_SWEEP = small_sweep()
ORDER_CASES = [
    (suite_id, params)
    for suite_id in ("lemma2", "lemma4", "lemma4-binom", "lemma5-poch", "chain-backward", "conj-1/3")
    for params in REGISTRY[suite_id].gen(ORDER_SWEEP)
]


def order_record(suite_id: str, params: dict):
    rep = run_one(suite_id, params, "both", ORDER_SWEEP)
    rep.elapsed_ms = 0.0
    return rep


@pytest.fixture(scope="module")
def in_order_records():
    records = [order_record(*case) for case in ORDER_CASES]
    assert all(rep.passed for rep in records)
    return records


@settings(max_examples=25)
@given(st.lists(st.integers(0, len(ORDER_CASES) - 1), min_size=1, max_size=60))
def test_records_do_not_depend_on_instance_order(in_order_records, picks):
    # the per-p^e tables are caches: any order, across suites and primes,
    # gives every instance its in-order record
    for i in picks:
        assert order_record(*ORDER_CASES[i]) == in_order_records[i]


def test_conjecture_failure_attaches_exact_oracle():
    rep = run_one(
        "conj-1/2",
        {"p": 7, "n": 1, "x": F(1, 2)},
        engine="modular",
        fault_suite="conj-1/2",
    )
    assert not rep.passed
    assert rep.oracle is not None and "exact recomputation" in rep.oracle


@pytest.mark.parametrize("engine", ["modular", "exact", "both"])
def test_conjecture_divisibility_violation_report(monkeypatch, engine):
    # a flipped character leaves the scaled difference with a p in its
    # denominator (n = 3 gives v_5(n^2 S(n)) = 2); every engine must report
    # the same divisibility failure, labelled with the route that ran
    legendre = suites.special.legendre
    monkeypatch.setattr(suites.special, "legendre", lambda a, p: -legendre(a, p))
    rep = run_one("conj-1/2", {"p": 5, "n": 3, "x": F(1, 2)}, engine=engine)
    assert not rep.passed and rep.error is None and rep.lhs == ""
    assert rep.engine == ("exact" if engine == "exact" else "modular")
    assert rep.note.startswith("divisibility violation")
    assert "not a p-adic integer" in rep.oracle


def test_conjecture_precision_cap_is_reported():
    # v_p(n^2 S(n)) grows without bound in n; past the window cap the
    # instance must surface as a budget error, never a silent wrong answer
    rep = run_one("conj-1/2", {"p": 5, "n": 25, "x": F(1, 2)})
    assert rep.error is not None and "precision" in rep.error


def test_report_params_serialized():
    # the record keeps the grid's point; its text writes the Fraction as a string
    sweep = Sweep(primes=(7,), x_values=(F(1, 2),))
    gen = REGISTRY["thm1"].gen
    [(params, head)] = gen.shard(7, sweep, '{"suite":"thm1","params":')
    rep = run_one("thm1", params)
    assert rep.params is params
    buf = io.StringIO()
    cli._emit_json(rep, head, buf)
    assert '"params":{"p":7,"x":"1/2"}' in buf.getvalue()
    assert isinstance(rep.lhs, str) and isinstance(rep.modulus, str)
    assert rep.elapsed_ms >= 0.0


REPORT_FIELDS = dict(
    lhs="3", rhs="3", modulus="49", passed=True, engine="modular", suite="thm1",
    params={"p": 7, "x": F(1, 2)}, elapsed_ms=1.5, note="n", oracle="o", error=None,
)


@pytest.mark.parametrize(
    "field, other",
    [("lhs", "4"), ("rhs", "4"), ("modulus", "343"), ("passed", False), ("engine", "exact"),
     ("suite", "rv"), ("params", {"p": 7}), ("elapsed_ms", 2.5), ("note", None),
     ("oracle", None), ("error", "E")],
)
def test_report_equality_compares_every_field(field, other):
    rep = Report(**REPORT_FIELDS)
    assert rep == Report(**REPORT_FIELDS)
    assert rep != Report(**{**REPORT_FIELDS, field: other})


def test_sweep_and_report_survive_pickling():
    # --workers sends both to the pool
    sweep = small_sweep(x_values=(F(1, 3), 2), mod_exp=3)
    assert pickle.loads(pickle.dumps(sweep)) == sweep
    rep = Report(**REPORT_FIELDS)
    assert pickle.loads(pickle.dumps(rep)) == rep


def test_sun_domain_contains_lifts_and_small_rationals():
    sw = Sweep(primes=(5,))
    xs = [inst["x"] for inst in REGISTRY["sun"].gen(sw)]
    assert xs[:5] == [0, 1, 2, 3, 4]
    assert F(1, 2) in xs and F(5, 6) in xs
    # denominators divisible by p are excluded
    assert all(F(a, 5) not in xs for a in (1, 2, 3, 4))


def test_x_filter_restricts_families():
    sw = Sweep(primes=(7,), x_values=(F(1, 2), F(1, 6)))
    assert [i["x"] for i in REGISTRY["thm1"].gen(sw)] == [F(1, 2), F(1, 6)]
    sw = Sweep(primes=(7,), x_values=(F(1, 5),))
    assert list(REGISTRY["thm1"].gen(sw)) == []


def test_x_filter_restricts_rv_x_conjectures_and_identities():
    # a given x replaces rv-x's general domain when its denominator is prime
    # to p, and a conj suite or an identity over the quartic x runs only for
    # the given ones
    sw = Sweep(primes=(7,), n_values=(1, 2), x_values=(F(1, 7), F(2, 5), 3))
    assert [(i["p"], i["n"], i["x"]) for i in REGISTRY["rv-x"].gen(sw)] == [
        (7, 1, F(2, 5)), (7, 2, F(2, 5)), (7, 1, 3), (7, 2, 3),
    ]
    sw = Sweep(primes=(5, 7), x_values=(F(1, 2),))
    ran = {sid: list(REGISTRY[sid].gen(sw)) for sid in CONJECTURE_SUITES}
    assert ran.pop("conj-1/2") == [
        {"p": p, "n": n, "x": F(1, 2)} for p in (5, 7) for n in (1, 2, 3)
    ]
    assert all(instances == [] for instances in ran.values())
    sw = Sweep(primes=(), x_values=(F(1, 6),), identity_max=1)
    for sid in ("identity-partfrac", "identity-convolution"):
        assert list(REGISTRY[sid].gen(sw)) == [{"k": 0, "x": F(1, 6)}, {"k": 1, "x": F(1, 6)}]


def test_every_series_engine_call_goes_through_series(monkeypatch):
    # `_series` is the one way a check reaches either series engine, so that
    # every series is capped, cross-checked and fault-injected alike
    depth, calls, stray = [0], [], []
    inner = suites._series

    def tracked(*args, **kwargs):
        depth[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            depth[0] -= 1

    def engine(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            if not depth[0]:
                stray.append(fn.__name__)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(suites, "_series", tracked)
    for name in ("window_sum_mod", "window_residue_exact"):
        monkeypatch.setattr(suites.series, name, engine(getattr(suites.series, name)))
    sweep = Sweep(primes=(11,))
    for sid, suite in REGISTRY.items():
        run_one(sid, next(iter(suite.gen(sweep))), "both", sweep)
    assert set(calls) == {"window_sum_mod", "window_residue_exact"}
    assert stray == []


def test_rv_general_domain_avoids_family_orbit():
    sw = Sweep(primes=(7,), n_values=(1,))
    xs = {inst["x"] for inst in REGISTRY["rv-x"].gen(sw)}
    for fam_x in (F(1, 2), F(1, 3), F(1, 4), F(1, 6)):
        assert fam_x not in xs and 1 - fam_x not in xs
    assert F(2, 5) in xs


def test_mod_exp_override():
    rep = run_one(
        "thm1", {"p": 7, "x": F(1, 2)}, sweep=Sweep(primes=(7,), mod_exp=1)
    )
    assert rep.modulus == "7"


# The exponents e of the moduli p^e of each suite's records with no
# --mod-exp, with --mod-exp 1 and with --mod-exp 3; "exact" for an exact
# record.  chain-weighted writes one record of each kind per (p, x).
_E2, _E1, _E3 = ({2}, {1}, {3}), ({1}, {1}, {3}), ({3}, {1}, {3})
_MOD_P, _EXACT = ({1}, {1}, {1}), ({"exact"}, {"exact"}, {"exact"})
RECORD_EXPONENTS = {
    "thm1": _E2, "sun": _E2, "rv": _E2, "corollary": _E2, "lemma1": _MOD_P,
    "lemma2": _MOD_P, "lemma4": _E2, "lemma4-binom": _E2, "lemma5": _E1,
    "lemma5-poch": _E1, "babbage": _E2, "chain-reflect": _E2, "chain-jet": _E2,
    "chain-backward": _E1, "chain-binom": _EXACT, "chain-forward": _EXACT,
    "chain-block": _E2, "chain-convolution": _E1,
    "chain-weighted": ({1, "exact"}, {1, "exact"}, {3, "exact"}),
    "chain-product": _E2, "gessel": _E3, "identity-alt": _EXACT,
    "identity-harmonic": _EXACT, "identity-tail": _EXACT, "identity-shifted": _EXACT,
    "identity-chain": _EXACT, "identity-partfrac": _EXACT,
    "identity-convolution": _EXACT, "identity-taylor": _EXACT,
    "identity-negation": _EXACT, "conj-1/2": _E3, "conj-1/3": _E3, "conj-1/4": _E3,
    "conj-1/6": _E3, "rv-x": _E2, "identity-shifted-printed": _EXACT,
}


@pytest.mark.parametrize("column, mod_exp", enumerate((None, 1, 3)))
def test_each_suite_reports_at_its_exponent(column, mod_exp):
    sweep = Sweep(primes=primes_in(5, 13), mod_exp=mod_exp, identity_max=3)
    seen = {}
    for sid in REGISTRY:
        for rep in sweep_reports(sid, sweep):
            assert rep.error is None, (sid, rep.params, rep.error)
            e = rep.modulus
            if e != "exact":
                e = next(k for k in range(1, 7) if rep.params["p"] ** k == int(rep.modulus))
            seen.setdefault(sid, set()).add(e)
    assert seen == {sid: column_sets[column] for sid, column_sets in RECORD_EXPONENTS.items()}


def test_kernel_matches_oracle_at_wide_moduli():
    # 2^61 - 1 is prime: the walk's residues at e = 2 are 122-bit integers
    from math import comb

    from hypercheck.padic import PrimePower, residue_from_rational
    from hypercheck.series import window_residue_exact, window_sum_mod

    p = 2**61 - 1
    # t_k(1/2) = C(2k, k)^2 / 16^k
    exact = sum(F(comb(2 * k, k) ** 2, 16**k) for k in range(20))
    for e in (1, 2):
        ctx = PrimePower(p, e)
        want = residue_from_rational(exact, ctx)
        assert window_sum_mod(F(1, 2), 0, 20, ctx) == want
        assert window_residue_exact(F(1, 2), 0, 20, ctx) == want
