"""Lifetimes of the memo tables: every one is bounded, and the per-prime
rows keep only the prime a sweep is on."""

import importlib
import inspect
import pkgutil

import hypercheck
from hypercheck import special, suites
from hypercheck.padic import PrimePower
from hypercheck.series import QUARTICS
from hypercheck.suites import REGISTRY, Sweep, primes_in, run_instance


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
        "hypercheck.series._checkpoints",
        "hypercheck.special._harmonic_row",
        "hypercheck.suites._conj_rhs",
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


def test_lemma4_rows_keep_only_the_latest_prime():
    for suite_id, rows in (
        ("lemma4", suites._lemma4_rows),
        ("lemma4-binom", suites._lemma4_binom_rows),
    ):
        for p in primes_in(5, 31):
            run_prime(suite_id, p)
            assert_holds_only(rows, [(fam.x, PrimePower(p, 2), p) for fam in QUARTICS])


def test_harmonic_rows_keep_only_the_latest_prime():
    for suite_id in ("lemma2", "chain-backward"):
        for p in primes_in(5, 61):
            run_prime(suite_id, p)
            assert_holds_only(special._harmonic_row, [(PrimePower(p, 1),)])
