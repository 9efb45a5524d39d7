"""Benchmark the compiled series kernel against the pure-Python fallback.

Runs the same modular series evaluations through every available kernel,
checks that all kernels return the same value for every window, and only
then prints a table of best-of-``--repeat`` wall times plus the speedup,
one block per exponent in ``--e``.  Usage:

    python3 benchmarks/bench_backends.py [--p-max 499] [--e 2,6] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time
from fractions import Fraction

from hypercheck import _kernel_py
from hypercheck.series import two_f_one, _int_pairs
from hypercheck.suites import primes_in

try:
    from hypercheck import _speedups
except ImportError:
    _speedups = None


def windows(primes, e) -> list[tuple]:
    """Kernel arguments of the length-p 2F1 sums at the four quartic x."""
    out = []
    for p in primes:
        for x in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)):
            spec = two_f_one(x, p)
            upper, lower = _int_pairs(spec, p)
            out.append(
                (upper, lower, spec.z.numerator, spec.z.denominator, 0, spec.terms, p, e)
            )
    return out


def sweep(kernel, work) -> tuple[float, list[int]]:
    t0 = time.perf_counter()
    values = [kernel(*window) for window in work]
    return time.perf_counter() - t0, values


def exponents(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p-max", type=int, default=499)
    ap.add_argument("--e", type=exponents, default=[2, 6],
                    help="comma-separated exponents e of the modulus p^e")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    primes = primes_in(5, args.p_max)
    total_terms = sum(primes) * 4
    rows = [("pure", _kernel_py.series_window_mod)]
    if _speedups is not None:
        rows.append(("ext", _speedups.series_window_mod))
    else:
        print("compiled backend not built; benchmarking pure only")
    for e in args.e:
        work = windows(primes, e)
        print(
            f"length-p series mod p^{e}, primes 5..{args.p_max} "
            f"({len(primes)} primes, {total_terms} terms per pass)"
        )
        times = {}
        reference = None
        for name, kernel in rows:
            runs = [sweep(kernel, work) for _ in range(args.repeat)]
            for _, values in runs:
                if reference is None:
                    reference = values
                for window, got, want in zip(work, values, reference):
                    if got != want:
                        raise SystemExit(
                            f"{name} and pure kernels disagree on {window}: {got} != {want}"
                        )
            times[name] = min(elapsed for elapsed, _ in runs)
        for name, best in times.items():
            rate = total_terms / best / 1e6
            print(f"  {name:5} {best * 1e3:9.2f} ms   {rate:7.2f} M terms/s")
        if "ext" in times:
            print(f"  speedup: {times['pure'] / times['ext']:.1f}x")


if __name__ == "__main__":
    main()
