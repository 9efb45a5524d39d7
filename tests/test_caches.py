"""Lifetimes of the memo tables: every one is bounded, and the per-prime
rows keep only the prime a sweep is on."""

import importlib
import inspect
import io
import json
import pkgutil
import sys
import tracemalloc
import weakref
from fractions import Fraction
from math import comb

from conftest import sweep_reports

import hypercheck
from hypercheck import cli, identities, series, special, suites
from hypercheck.padic import PrimePower
from hypercheck.series import QUARTICS, QUARTIC_BY_X, QuarticFamily
from hypercheck.suites import (
    CONJECTURE_SUITES,
    Sweep,
    primes_in,
    run_instance,
)


def functools_caches() -> dict[str, object]:
    """Every `functools` cache defined at module or class level in the package."""
    found = {}
    for info in pkgutil.iter_modules(hypercheck.__path__):
        module = importlib.import_module(f"hypercheck.{info.name}")
        scopes = [(module.__name__, vars(module))]
        scopes += [
            (f"{module.__name__}.{name}", vars(obj))
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
        for prefix, scope in scopes:
            for name, obj in scope.items():
                obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
                if callable(getattr(obj, "cache_parameters", None)):
                    found[f"{prefix}.{name}"] = obj
    return found


def test_every_functools_cache_is_bounded():
    # memory stays bounded on large sweeps: an unbounded cache keyed by a
    # prime or a series grows with the sweep
    caches = functools_caches()
    assert {"hypercheck._kernel._walker", "hypercheck.series._blocks"} <= set(caches)
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def run_sweep(monkeypatch, *argv) -> list[tuple[tuple, dict]]:
    """Run ``verify argv`` in process and check that every instance passes;
    the (p, e) and the tables of every modulus it built, in order.  Each
    modulus is built only once every one before it, with its tables, is gone."""
    built = []
    init = PrimePower.__init__

    def tracking(self, *args):
        assert all(ref() is None for _, ref, _ in built), (args, "an earlier modulus lives")
        init(self, *args)
        built.append((args, weakref.ref(self), self.tables))

    monkeypatch.setattr(PrimePower, "__init__", tracking)
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main([*argv, "--format", "json-lines"]) == 0
    summary = json.loads(out.getvalue().splitlines()[-1])["summary"]
    assert summary["instances"] > 0 and summary["passed"] == summary["instances"], summary
    return [(args, tables) for args, _, tables in built]


def test_lemma4_rows_keep_only_the_latest_prime(monkeypatch):
    # one modulus per shard, (suite, prime), holding that prime's rows
    for suite_id, keys in (
        ("lemma4", {"p-harmonic"} | {("terms", fam) for fam in QUARTICS}),
        ("lemma4-binom", {"p-harmonic"}),
    ):
        built = run_sweep(monkeypatch, suite_id, "--p-max", "31")
        assert [args for args, _ in built] == [(p, 2) for p in primes_in(5, 31)]
        assert all(set(tables) == keys for _, tables in built)


def empty_exact_tables(monkeypatch) -> None:
    """Swap in empty exact harmonic, partial-fraction and term tables."""
    monkeypatch.setattr(special, "_H_EXACT", [Fraction(0)])
    monkeypatch.setattr(identities, "_PF", {})
    monkeypatch.setattr(identities, "_TERMS", {})


def assert_exact_tables_empty() -> None:
    assert special._H_EXACT == [0]
    assert identities._PF == {} and identities._TERMS == {}


def test_lemma4_rows_read_no_exact_sequence(monkeypatch):
    # no budget caps lemma4's p, so both lemma4 rows are built mod p^e: they
    # read no exact harmonic number, partial-fraction weight or term
    seen = []
    harmonic_exact = special.harmonic_exact

    def recording(n):
        seen.append(n)
        return harmonic_exact(n)

    for module in (special, identities):
        monkeypatch.setattr(module, "harmonic_exact", recording)
    empty_exact_tables(monkeypatch)
    p = 10_007
    sweep = Sweep(primes=(p,))
    for suite_id in ("lemma4", "lemma4-binom"):
        for fam in QUARTICS:
            params = {"p": p, "r": 0, "k": 0, "x": fam.x}
            assert run_instance(suite_id, params, "modular", sweep).passed
    assert seen == []
    assert_exact_tables_empty()


def test_lemma4_sweep_at_p997_leaves_the_exact_tables_empty(monkeypatch, capsys):
    # every k < p of both lemma4 suites at one large prime: the right sides
    # live on the prime's modulus and go with it, so no module-level exact
    # table grows with p
    empty_exact_tables(monkeypatch)
    argv = ["lemma4", "lemma4-binom", "--p-min", "997", "--p-max", "997", "--r", "0",
            "--engine", "modular", "--format", "json-lines"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("\n") == 7977
    assert_exact_tables_empty()


def test_exact_tables_stay_within_the_caps_of_their_readers(monkeypatch):
    # the module-level exact tables live as long as the process, so each is
    # bounded by what its readers may ask: the identity index cap k <= 40
    # (H_n to 6k for the partial-fraction form), and m < p for the chain cases
    cap = 40
    monkeypatch.setenv("VERIFY_BUDGET_IDENTITY", str(cap))
    empty_exact_tables(monkeypatch)
    monkeypatch.setattr(identities, "_JETS", {})
    monkeypatch.setattr(identities, "_NEG", {})
    assert cli.main(["identities", "--format", "json-lines"]) == 0
    for table in (identities._PF, identities._TERMS):
        assert set(table) == {f.x for f in QUARTICS}
        assert max(map(len, table.values())) <= cap + 1
    assert set(identities._JETS) <= {1, 2, 3}
    assert all(k <= cap for k, *_ in identities._JETS.values())
    assert set(identities._NEG) <= set(range(1, cap + 1))
    assert len(special._H_EXACT) <= 6 * cap + 1
    monkeypatch.setattr(suites, "_ALTERNATING", {})
    monkeypatch.setattr(suites, "_TAIL", {})
    argv = ["chain-binom", "chain-forward", "chain-weighted", "--p-max", "31",
            "--format", "json-lines"]
    assert cli.main(argv) == 0
    assert suites._ALTERNATING and suites._TAIL
    assert max(suites._ALTERNATING | suites._TAIL) < 31


def test_euler_and_bernoulli_tables_stay_within_twice_the_largest_index(monkeypatch, capsys):
    # the conjectures at p read B_k and E_k for k <= p - 2, and a rebuild at
    # most doubles the tables, so they stay below 2 (p_max - 1)
    monkeypatch.setattr(special, "_EULER", [1, 0])
    monkeypatch.setattr(special, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)])
    assert cli.main(["conj", "--p-max", "97", "--format", "json-lines"]) == 0
    capsys.readouterr()
    assert 97 - 2 < len(special._EULER) == len(special._BERNOULLI) <= 2 * (97 - 1)


def test_harmonic_rows_keep_only_the_latest_prime(monkeypatch):
    for suite_id in ("lemma2", "chain-backward"):
        built = run_sweep(monkeypatch, suite_id, "--p-max", "61")
        assert [args for args, _ in built] == [(p, 1) for p in primes_in(5, 61)]
        assert all(set(tables) == {"harmonic"} for _, tables in built)


def test_lemma1_and_lemma2_build_one_modulus_per_prime(monkeypatch):
    # every Fermat quotient and harmonic number of a prime's lemma1 and
    # lemma2 instances lives on its shard's mod-p modulus, under any --mod-exp
    for mod_exp in ((), ("--mod-exp", "3")):
        argv = ("lemma1", "lemma2", "--p-min", "13", "--p-max", "17", *mod_exp)
        built = run_sweep(monkeypatch, *argv)
        assert [args for args, _ in built] == [(13, 1), (17, 1)] * 2


def test_conjectures_build_one_modulus_per_suite_and_prime(monkeypatch):
    # past p = 17 no n <= 3 puts p in n^2 binprod(n), so each conj shard's
    # sums and right side all live on its own mod-p^3 modulus
    built = run_sweep(monkeypatch, "conj", "--p-min", "19", "--p-max", "97")
    assert [args for args, _ in built] == [(p, 3) for p in primes_in(19, 97)] * 4


def test_default_sweep_builds_one_modulus_per_suite_and_prime(monkeypatch):
    # 19 theorem suites have a modulus, and 23 primes lie in 5..97
    built = run_sweep(monkeypatch, "--engine", "modular")
    assert len(built) == 437 == 19 * len(primes_in(5, 97))


def test_chain_cases_are_computed_once_per_m_past_512(monkeypatch):
    # chain-binom and chain-forward read every m < p at every prime, so each
    # identity case is computed once, however large p grows
    names = ("alternating_binomial_sum", "tail_harmonic_sum")
    calls = []

    def counting(name):
        fn = getattr(identities, name)

        def counted(m):
            calls.append((name, m))
            return fn(m)

        return counted

    for name in names:
        monkeypatch.setattr(identities, name, counting(name))
    monkeypatch.setattr(suites, "_ALTERNATING", {})
    monkeypatch.setattr(suites, "_TAIL", {})
    run_sweep(monkeypatch, "chain-binom", "chain-forward", "--p-min", "521", "--p-max", "523")
    assert sorted(calls) == [(name, m) for name in names for m in range(523)]


def clear_binomial_tables() -> None:
    for fam in QUARTICS:
        fam._products.clear()


def test_binomial_tables_stop_at_the_binomial_cap():
    # every caller passes the cap c n <= binomial_max before it asks for n
    clear_binomial_tables()
    sweep = Sweep(primes=(13,), binomial_max=10)
    for suite_id in ("lemma4", "lemma4-binom", "lemma5", "chain-block", *CONJECTURE_SUITES):
        for _ in sweep_reports(suite_id, sweep):
            pass
    assert all(fam._products for fam in QUARTICS)
    for fam in QUARTICS:
        assert all(c * n <= 10 for n in fam._products for c, _ in fam.binomials)


def fill_binomial_tables(binomial_max: int) -> None:
    for fam in QUARTICS:
        for n in range(binomial_max // max(c for c, _ in fam.binomials) + 1):
            fam.binomial_product(n)


def test_binomial_tables_at_the_default_cap_stay_small(monkeypatch):
    # math.comb's temporaries make the fill 20 times slower under tracemalloc,
    # so the binomials are computed first; each product is a new object
    cap = Sweep.binomial_max
    pairs = {
        (c * n, d * n) for fam in QUARTICS for c, d in fam.binomials for n in range(cap // c + 1)
    }
    binomials = {pair: comb(*pair) for pair in pairs}
    monkeypatch.setattr(series, "comb", lambda top, bottom: binomials[top, bottom])
    clear_binomial_tables()
    tracemalloc.start()
    try:
        fill_binomial_tables(cap)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 1_000_000 < size < 5_000_000


def test_binomial_tables_keep_each_family_hash_and_equality():
    # the table takes no part in a family's identity, so every dict keyed by
    # a family or by its x finds it however full the table is
    clear_binomial_tables()
    hashes = [hash(fam) for fam in QUARTICS]
    by_family = {fam: fam.x for fam in QUARTICS}
    fill_binomial_tables(60)
    assert [hash(fam) for fam in QUARTICS] == hashes
    for fam in QUARTICS:
        assert fam == QuarticFamily(fam.x, fam.binomials, fam.base, fam.character_arg)
        assert by_family[fam] == fam.x and QUARTIC_BY_X[fam.x] is fam
