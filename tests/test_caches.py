"""Lifetimes of the memo tables: every one is bounded, and the per-prime
rows keep only the prime a sweep is on."""

import importlib
import inspect
import pkgutil
import tracemalloc
import weakref
from fractions import Fraction
from math import comb

import hypercheck
from hypercheck import cli, identities, series, special, suites
from hypercheck.padic import PrimePower
from hypercheck.series import QUARTICS, QUARTIC_BY_X, QuarticFamily
from hypercheck.suites import (
    CONJECTURE_SUITES,
    REGISTRY,
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
    assert {
        "hypercheck._kernel._walker",
        "hypercheck.series._blocks",
        "hypercheck.suites._modulus",
    } <= set(caches)
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def assert_holds_only(table, keys: list[tuple]) -> None:
    """``table`` holds the entries for ``keys`` and nothing else."""
    info = table.cache_info()
    for key in keys:
        table(*key)
    assert info.currsize == len(keys)
    assert table.cache_info().hits == info.hits + len(keys)


def run_prime(suite_id: str, p: int) -> None:
    sweep = Sweep(primes=(p,))
    for params in REGISTRY[suite_id].gen(sweep):
        assert run_instance(suite_id, params, "both", sweep).passed


def assert_tables_of_prime(p: int, e: int, keys: set, previous):
    """`suites._modulus` holds only p^e, whose tables hold ``keys``, and the
    modulus of the previous prime, with its tables, is gone."""
    assert_holds_only(suites._modulus, [(p, e)])
    ctx = suites._modulus(p, e)
    assert set(ctx.tables) == keys
    assert previous is None or previous() is None
    return weakref.ref(ctx)


def test_lemma4_rows_keep_only_the_latest_prime():
    for suite_id, keys in (
        ("lemma4", {"p-harmonic"} | {("lemma4", fam.x) for fam in QUARTICS}),
        ("lemma4-binom", {"p-harmonic"}),
    ):
        previous = None
        for p in primes_in(5, 31):
            run_prime(suite_id, p)
            previous = assert_tables_of_prime(p, 2, keys, previous)


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


def test_harmonic_rows_keep_only_the_latest_prime():
    for suite_id in ("lemma2", "chain-backward"):
        previous = None
        for p in primes_in(5, 61):
            run_prime(suite_id, p)
            previous = assert_tables_of_prime(p, 1, {"harmonic"}, previous)


def test_lemma1_and_lemma2_build_one_modulus_per_prime(monkeypatch):
    # every Fermat quotient and harmonic number of a prime's lemma1 and
    # lemma2 instances lives on the run's mod-p modulus
    built = []
    init = PrimePower.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PrimePower, "__init__", counting)
    suites._modulus.cache_clear()
    for p in (13, 17):
        run_prime("lemma1", p)
        run_prime("lemma2", p)
    assert built == [(13, 1), (17, 1)]


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
    for p in (521, 523):
        run_prime("chain-binom", p)
        run_prime("chain-forward", p)
    assert sorted(calls) == [(name, m) for name in names for m in range(523)]


def clear_binomial_tables() -> None:
    for fam in QUARTICS:
        fam._products.clear()


def test_binomial_tables_stop_at_the_binomial_cap():
    # every caller passes the cap c n <= binomial_max before it asks for n
    clear_binomial_tables()
    sweep = Sweep(primes=(13,), binomial_max=10)
    for suite_id in ("lemma4", "lemma4-binom", "lemma5", "chain-block", *CONJECTURE_SUITES):
        for params in REGISTRY[suite_id].gen(sweep):
            run_instance(suite_id, params, "both", sweep)
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
