"""Acceptance criteria, one test per criterion.

Each test sweeps the full advertised parameter range, records a one-line
verdict (echoed in the terminal summary by conftest), and asserts it.
Criteria use the fast modular engine where the statement allows; engine
agreement itself is criterion 10 and the default sweep of criterion 12
re-runs everything under ``both``.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from conftest import ACCEPTANCE_LINES

from hypercheck import cli
from hypercheck.errors import InternalError
from hypercheck.suites import (
    REGISTRY,
    Sweep,
    primes_in,
    run_instance,
)

F = Fraction


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _sweep_suite(sid, sweep, engine="modular"):
    """Run every instance; returns (#instances, #failures, #errors, reports)."""
    reports = [
        run_instance(sid, params, engine=engine, sweep=sweep)
        for params in REGISTRY[sid].gen(sweep)
    ]
    fails = sum(1 for r in reports if r.error is None and not r.passed)
    errs = sum(1 for r in reports if r.error is not None)
    return len(reports), fails, errs, reports


def test_criterion_01_quartic_congruences_to_499():
    sweep = Sweep(primes=primes_in(5, 499))
    # budgets compare CPU time: the box has one contended core, so wall clock
    # measures the neighbours, not this code (wall is still reported)
    c0, t0 = time.process_time(), time.perf_counter()
    n, fails, errs, _ = _sweep_suite("thm1", sweep)
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    ok = fails == 0 and errs == 0 and cpu < 30.0
    _record(
        1, ok,
        f"four families mod p^2, 5<=p<=499: {n} instances, {fails} failures, "
        f"{cpu:.1f}s CPU single-threaded (budget 30s; {wall:.1f}s wall)",
    )


def test_criterion_02_multiplier_reduction_to_199():
    sweep = Sweep(primes=primes_in(5, 199), n_values=(1, 2, 3, 4, 5))
    n, fails, errs, reports = _sweep_suite("rv", sweep)
    base = {
        (r.params["p"], r.params["x"]): (r.lhs, r.rhs)
        for r in _sweep_suite("thm1", sweep)[3]
    }
    mismatched = sum(
        1
        for r in reports
        if r.params["n"] == 1
        and (r.lhs, r.rhs) != base[(r.params["p"], r.params["x"])]
    )
    ok = fails == 0 and errs == 0 and mismatched == 0
    _record(
        2, ok,
        f"length-np vs sign*length-n, 5<=p<=199, n in 1..5: {n} instances, "
        f"{fails} failures; n=1 bit-identical to the base suite "
        f"({mismatched} mismatches)",
    )


def test_criterion_03_prime_power_truncations():
    sweep = Sweep(primes=primes_in(5, 97), r_values=(1, 2))
    n, fails, errs, _ = _sweep_suite("corollary", sweep)
    ok = fails == 0 and errs == 0
    _record(
        3, ok,
        f"length-p^r sums, 5<=p<=97, r in {{1,2}}: {n} instances, {fails} failures",
    )


def test_criterion_04_any_argument_congruence():
    sweep = Sweep(primes=primes_in(5, 97))
    n, fails, errs, _ = _sweep_suite("sun", sweep)
    ok = fails == 0 and errs == 0
    _record(
        4, ok,
        f"all integer lifts and small rationals, 5<=p<=97: {n} instances, "
        f"{fails} failures",
    )


def test_criterion_05_lemma_suites():
    parts = []
    total = bad = 0
    for sid, sweep in (
        ("lemma1", Sweep(primes=primes_in(5, 97))),
        ("lemma2", Sweep(primes=primes_in(5, 997))),
        ("lemma4", Sweep(primes=primes_in(5, 31), r_values=(0, 1, 2))),
        ("lemma4-binom", Sweep(primes=primes_in(5, 31), r_values=(0, 1, 2))),
        ("lemma5", Sweep(primes=primes_in(5, 97))),
        ("lemma5-poch", Sweep(primes=primes_in(5, 97))),
        ("babbage", Sweep(primes=primes_in(5, 31))),
    ):
        n, fails, errs, _ = _sweep_suite(sid, sweep)
        total += n
        bad += fails + errs
        parts.append(f"{sid} {n}")
    ok = bad == 0
    _record(
        5, ok,
        f"lemma suites ({', '.join(parts)}): {total} instances, {bad} failures",
    )


def test_criterion_06_exact_identities_to_300():
    sweep = Sweep(primes=(), identity_max=300)
    c0, t0 = time.process_time(), time.perf_counter()
    total = bad = 0
    for sid in (
        "identity-alt", "identity-harmonic", "identity-tail", "identity-shifted",
        "identity-chain", "identity-partfrac", "identity-convolution",
        "identity-taylor", "identity-negation",
    ):
        n, fails, errs, _ = _sweep_suite(sid, sweep)
        total += n
        bad += fails + errs
    # the as-printed shifted variant drops the k=0 term; record its outcome
    pn, pfails, _, _ = _sweep_suite("identity-shifted-printed", sweep)
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    ok = bad == 0 and pfails == pn and cpu < 60.0
    _record(
        6, ok,
        f"exact identities to index 300: {total} instances, {bad} failures, "
        f"{cpu:.1f}s CPU (budget 60s; {wall:.1f}s wall); as-printed shifted "
        f"variant fails {pfails}/{pn} and the k=0-completed form is the "
        f"identity that holds",
    )


def test_criterion_07_proof_chain_suites():
    sweep = Sweep(primes=primes_in(5, 61))
    total = bad = 0
    for sid in (
        "chain-reflect", "chain-jet", "chain-backward", "chain-binom",
        "chain-forward", "chain-block", "chain-convolution", "chain-weighted",
        "chain-product",
    ):
        n, fails, errs, _ = _sweep_suite(sid, sweep)
        total += n
        bad += fails + errs
    ok = bad == 0
    _record(
        7, ok,
        f"proof-chain suites, 5<=p<=61: {total} instances, {bad} failures",
    )


def test_criterion_08_apery_lifting():
    sweep = Sweep(
        primes=primes_in(5, 61),
        n_values=(0, 1, 2, 3),
        binomial_max=400,  # keeps np <= 200
    )
    n, fails, errs, reports = _sweep_suite("gessel", sweep)
    in_range = [r for r in reports if r.error is None]
    capped = [r for r in reports if r.error is not None]
    cap_clean = all("BudgetExceeded" in r.error for r in capped)
    ok = fails == 0 and cap_clean
    _record(
        8, ok,
        f"Apery lifting mod p^3, 5<=p<=61, n in 0..3, np<=200: "
        f"{len(in_range)} instances, {fails} failures "
        f"({len(capped)} beyond the np cap skipped)",
    )


def test_criterion_09_conjecture_branches():
    sweep = Sweep(primes=primes_in(5, 97), n_values=(1, 2, 3))
    total = fails = errs = 0
    orphan_failures = 0
    for sid in ("conj-1/2", "conj-1/3", "conj-1/4", "conj-1/6"):
        n, f, e, reports = _sweep_suite(sid, sweep, engine="both")
        total += n
        fails += f
        errs += e
        orphan_failures += sum(
            1 for r in reports if r.error is None and not r.passed and not r.oracle
        )
    ok = errs == 0 and orphan_failures == 0
    _record(
        9, ok,
        f"conjectured mod-p^3 strengthening, all branches, 5<=p<=97, n in 1..3: "
        f"{total} instances, {fails} counterexamples, every failure carries an "
        f"exact-oracle record ({orphan_failures} without)",
    )


def test_criterion_10_engine_equivalence_sampling():
    rng = random.Random(20260823)
    sweep = Sweep(primes=primes_in(5, 61))
    pool = []
    for sid in (
        "thm1", "sun", "rv", "corollary", "lemma4", "lemma5",
        "chain-reflect", "chain-jet", "chain-block", "chain-product",
    ):
        pool.extend((sid, params) for params in REGISTRY[sid].gen(sweep))
    sample = rng.sample(pool, 500)
    disagreements = bad = 0
    for sid, params in sample:
        try:
            rep = run_instance(sid, params, engine="both", sweep=sweep)
        except InternalError:
            disagreements += 1
            continue
        if rep.error is not None or not rep.passed:
            bad += 1
    ok = disagreements == 0 and bad == 0
    _record(
        10, ok,
        f"modular vs exact on {len(sample)} random instances across "
        f"{10} dual-route suites: {disagreements} disagreements",
    )


def test_criterion_11_spot_value(tmp_path):
    out = tmp_path / "spot.jsonl"
    code = cli.main(
        [
            "thm1", "--p-min", "5", "--p-max", "5", "--x", "1/2",
            "--mod-exp", "2", "--format", "json-lines", "--out", str(out),
        ]
    )
    rec = json.loads(out.read_text().splitlines()[0])
    from hypercheck.series import series_fraction

    exact = series_fraction(F(1, 2), 5)
    ok = (
        code == 0
        and rec["lhs"] == "1"
        and rec["modulus"] == "25"
        and exact == F(25609, 16384)
    )
    _record(
        11, ok,
        f"p=5, x=1/2, 5 terms: exact sum {exact} reduces to {rec['lhs']} mod 25",
    )


def test_criterion_12_determinism_across_workers(tmp_path):
    # the package's src directory, so that a plain checkout runs it too
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    outs = []
    for workers in (1, 8):
        path = tmp_path / f"sweep-w{workers}.jsonl"
        proc = subprocess.run(
            [
                sys.executable, "-m", "hypercheck.cli",
                "--format", "json-lines", "--workers", str(workers),
                "--out", str(path),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        stripped = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("elapsed_ms", None)
            if "summary" in rec:
                rec["summary"].pop("elapsed_s", None)
            stripped.append(json.dumps(rec, sort_keys=True))
        outs.append(stripped)
    ok = outs[0] == outs[1] and len(outs[0]) > 1
    _record(
        12, ok,
        f"default sweep, workers 1 vs 8: {len(outs[0]) - 1} reports, "
        f"streams {'identical' if ok else 'DIFFER'} (elapsed fields excluded)",
    )
