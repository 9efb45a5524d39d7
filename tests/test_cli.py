"""CLI parsing, output formats, exit codes, determinism."""

import csv
import hashlib
import inspect
import io
import itertools
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, strategies as st

from conftest import run_one

import hypercheck
from hypercheck import _kernel, cli, padic, series, suites
from hypercheck.errors import NonUnit, UsageError


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_args_full_flags():
    cfg = cli.parse_args(
        [
            "rv",
            "--p-min", "5", "--p-max", "97",
            "--n", "1,2,3",
            "--x", "1/2,1/3,1/4,1/6",
            "--engine", "both",
        ]
    )
    assert cfg.suites == ["rv"]
    assert (cfg.p_min, cfg.p_max) == (5, 97)
    assert cfg.sweep.n_values == (1, 2, 3)
    assert cfg.sweep.x_values == (
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6),
    )
    assert cfg.engine == "both"


def test_parse_args_defaults():
    cfg = cli.parse_args([])
    assert cfg.suites == list(cli.THEOREM_SUITES)
    assert (cfg.p_min, cfg.p_max) == (5, 97)
    assert cfg.engine == "both" and cfg.format == "human" and cfg.workers == 1


def test_parse_args_aliases_dedupe():
    cfg = cli.parse_args(["thm1", "theorems"])
    assert cfg.suites == list(cli.THEOREM_SUITES)
    cfg = cli.parse_args(["conj"])
    assert all(s.startswith("conj-") for s in cfg.suites)


def test_parse_args_integer_lifts_in_x():
    cfg = cli.parse_args(["sun", "--x", "0,3,2/5"])
    assert cfg.sweep.x_values == (0, 3, Fraction(2, 5))


def test_parse_args_keeps_each_listed_value_once():
    cfg = cli.parse_args(
        ["sun", "--x", "1/2,7/1,1/2,2/4,7,6/3,-0,0", "--n", "1,1,3,1", "--r", "2,0,2"]
    )
    assert cfg.sweep.x_values == (Fraction(1, 2), 7, 2, 0)
    # an x whose fraction has denominator 1 is an int, as if given as one
    assert [type(x) for x in cfg.sweep.x_values] == [Fraction, int, int, int]
    assert cfg.sweep.n_values == (1, 3)
    assert cfg.sweep.r_values == (2, 0)


def test_usage_errors():
    with pytest.raises(UsageError):
        cli.parse_args(["bogus-suite"])
    with pytest.raises(UsageError):
        cli.parse_args(["all", "--p-max", "4"])
    with pytest.raises(UsageError):
        cli.parse_args(["all", "--p-min", "3"])
    with pytest.raises(UsageError):
        cli.parse_args(["all", "--p-min", "11", "--p-max", "7"])
    with pytest.raises(UsageError):
        cli.parse_args(["all", "--n", "1,x"])
    with pytest.raises(UsageError):
        cli.parse_args(["all", "--x", "1/0"])
    with pytest.raises(UsageError):
        cli.parse_args(["all", "--workers", "0"])


def test_usage_error_exit_code(capsys):
    code, out, err = run_main(capsys, "bogus-suite")
    assert code == 2
    assert "valid suites" in err


def test_empty_prime_range_is_a_clean_noop(capsys):
    code, out, err = run_main(capsys, "thm1", "--p-min", "24", "--p-max", "28")
    assert code == 0
    assert "ran 0 instances" in out


def test_human_format_line(capsys):
    code, out, err = run_main(
        capsys, "thm1", "--p-min", "5", "--p-max", "5", "--x", "1/2"
    )
    assert code == 0
    assert out.splitlines()[0] == "PASS thm1 p=5 x=1/2 (mod 25)"


def test_json_lines_schema(capsys):
    code, out, err = run_main(
        capsys,
        "thm1", "--p-min", "5", "--p-max", "7", "--format", "json-lines",
    )
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    summary = records[-1]["summary"]
    body = records[:-1]
    assert len(body) == 8  # four families at p = 5 and p = 7
    first = body[0]
    assert first["suite"] == "thm1"
    assert first["params"] == {"p": 5, "x": "1/2"}
    assert set(first) == {
        "suite", "params", "lhs", "rhs", "modulus", "pass", "engine", "elapsed_ms",
    }
    assert first["pass"] is True and first["lhs"] == "1" and first["modulus"] == "25"
    assert summary["instances"] == summary["passed"] + summary["failed"] + summary["errors"]
    assert summary["instances"] == 8
    assert summary["version"] == cli.__version__
    assert summary["suites"]["thm1"]["passed"] == 8
    assert summary["config"]["p_max"] == 7


def test_csv_format_header_once(capsys):
    code, out, err = run_main(
        capsys, "lemma2", "--p-min", "5", "--p-max", "11", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(cli._CSV_COLUMNS)
    assert sum(1 for row in rows if row == rows[0]) == 1
    assert len(rows) == 1 + 12  # three primes, four divisors
    assert all(row[5] == "true" for row in rows[1:])


def test_failure_exit_code_and_failed_line(capsys):
    code, out, err = run_main(
        capsys,
        "identity-shifted-printed", "--format", "human", "--p-min", "5", "--p-max", "5",
    )
    assert code == 1
    assert "FAIL identity-shifted-printed n=1 (exact)" in out


def test_fault_injection_exit_three(capsys, monkeypatch):
    monkeypatch.setenv("VERIFY_FAULT_INJECT", "thm1")
    code, out, err = run_main(
        capsys, "thm1", "--p-min", "5", "--p-max", "5", "--engine", "both"
    )
    assert code == 3
    assert "internal error" in err and "disagreement" in err


def test_fault_injection_modular_only_fails_normally(capsys, monkeypatch):
    monkeypatch.setenv("VERIFY_FAULT_INJECT", "thm1")
    for engine in ("modular", "exact"):
        code, out, err = run_main(capsys, "thm1", "--p-max", "7", "--engine", engine)
        assert code == 1
        assert out.count("FAIL thm1") == 8 and "PASS" not in out


def test_fault_injection_on_a_conjecture_perturbs_the_long_series(capsys, monkeypatch):
    # the fault lands on F(np), whose difference from eps F(n) then has no
    # p^2 in it: a single engine reports a divisibility violation for every
    # instance, and both engines disagree
    monkeypatch.setenv("VERIFY_FAULT_INJECT", "conj-1/2")
    argv = ("conj-1/2", "--p-max", "7", "--format", "json-lines")
    for engine in ("modular", "exact"):
        code, out, _ = run_main(capsys, *argv, "--engine", engine)
        records = [json.loads(line) for line in out.splitlines()[:-1]]
        assert code == 1 and len(records) == 6
        assert all(
            not r["pass"] and r["note"].startswith("divisibility violation")
            for r in records
        )
    code, _, err = run_main(capsys, *argv, "--engine", "both")
    assert code == 3 and "disagreement" in err


def test_internal_error_ends_json_lines_with_a_summary(capsys, monkeypatch):
    monkeypatch.setenv("VERIFY_FAULT_INJECT", "thm1")
    code, out, err = run_main(capsys, "thm1", "--p-max", "7", "--format", "json-lines")
    assert code == 3
    summary = json.loads(out.splitlines()[-1])["summary"]
    assert summary["status"] == "internal-error"
    assert "disagreement" in summary["error"] and "elapsed_s" in summary
    assert summary["instances"] == 0


def test_unexpected_exception_exits_three_with_a_summary(tmp_path, capsys, monkeypatch):
    def broken(x, k_start, k_stop, ctx):
        raise RuntimeError("kernel bug")

    monkeypatch.setattr(series, "window_sum_mod", broken)
    out = tmp_path / "out.jsonl"
    code, _, err = run_main(
        capsys, "thm1", "--p-max", "7", "--engine", "modular",
        "--format", "json-lines", "--workers", "1", "--out", str(out),
    )
    assert code == 3
    assert "RuntimeError: kernel bug" in err and "Traceback" not in err
    summary = json.loads(out.read_text().splitlines()[-1])["summary"]
    assert summary["status"] == "internal-error"
    assert summary["error"].startswith("thm1 {")
    assert summary["error"].endswith("RuntimeError: kernel bug")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_internal_error_mid_shard_keeps_the_records_before_it(
    tmp_path, capsys, monkeypatch, workers
):
    # a check that raises at the third instance of the first shard (p = 5):
    # its first two records are written, and neither the rest of the shard
    # nor a later shard (run meanwhile by the other worker) is
    check = suites.REGISTRY["thm1"].check

    def broken(sweep, dual, ctx, p, x):
        if (p, x) == (5, Fraction(1, 4)):
            raise RuntimeError("third instance")
        return check(sweep, dual, ctx, p=p, x=x)

    monkeypatch.setattr(suites.REGISTRY["thm1"], "check", broken)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out.jsonl"
    code, _, err = run_main(
        capsys, "thm1", "--p-max", "11", "--format", "json-lines",
        "--workers", workers, "--out", str(out),
    )
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert code == 3 and "RuntimeError: third instance" in err
    assert [rec["params"] for rec in lines[:-1]] == [{"p": 5, "x": "1/2"}, {"p": 5, "x": "1/3"}]
    summary = lines[-1]["summary"]
    assert summary["status"] == "internal-error" and summary["instances"] == 2
    assert summary["error"] == "thm1 {'p': 5, 'x': Fraction(1, 4)}: RuntimeError: third instance"


def test_lemma_checks_hash_no_fraction_per_instance(capsys, monkeypatch):
    # lemma4, lemma4-binom and lemma5 reach their family and their rows
    # without hashing x: before shards, these 4,340 records hashed a
    # Fraction 8,060 times; a few per (suite, prime, x), 108 here, may stay
    hashes = [0]
    fraction_hash = Fraction.__hash__

    def counting(self):
        hashes[0] += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    argv = ("lemma4", "lemma4-binom", "lemma5", "--p-max", "31", "--engine", "modular")
    code, out, _ = run_main(capsys, *argv, "--format", "json-lines")
    assert code == 0 and out.count("\n") == 4341
    assert hashes[0] <= 500


def test_unknown_fault_injection_id_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("VERIFY_FAULT_INJECT", "nosuch")
    code, out, err = run_main(capsys, "thm1", "--p-max", "7")
    assert code == 2 and out == ""
    assert "nosuch" in err and "thm1" in err and "conj-1/6" in err


@pytest.mark.parametrize(
    "argv, env",
    [
        (["thm1", "--mod-exp", "7"], {}),
        (["rv", "--n", "-1"], {}),
        (["corollary", "--r", "1,-2"], {}),
        (["thm1"], {"VERIFY_BUDGET_SERIES": "abc"}),
        (["thm1", "--out", "{tmp}/missing/x"], {}),
        (["identity-alt"], {"VERIFY_BUDGET_IDENTITY": "-3"}),
        # the stream fails at the last flush
        (["thm1", "--out", "/dev/full"], {}),
        (["thm1", "--out", "/dev/full", "--format", "json-lines"], {}),
    ],
)
def test_bad_input_exits_two_without_traceback(tmp_path, argv, env):
    proc = run_cli(
        ["--p-max", "7"] + [arg.format(tmp=tmp_path) for arg in argv],
        env,
        stdout=subprocess.PIPE,
    )
    assert proc.returncode == 2, proc.stderr
    assert_one_usage_error(proc.stderr)


def run_cli(argv: list[str], env: dict, stdout) -> subprocess.CompletedProcess:
    """``verify argv`` in a fresh interpreter, stderr captured as text.

    stdout is block-buffered as in a shell: with PYTHONUNBUFFERED set, a
    failed write would leave nothing for the flush at exit to fail on.
    Development mode reports a file that fails to close when it is
    collected, which the default mode ignores.
    """
    src = Path(hypercheck.__file__).resolve().parents[1]
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-X", "dev", "-m", "hypercheck.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**base, "PYTHONPATH": str(src), **env},
        timeout=120,
    )


def assert_one_usage_error(stderr: str) -> None:
    # no traceback, and no "Exception ignored" from a flush at exit
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), stderr


@pytest.mark.parametrize(
    "argv",
    [["thm1", "--p-max", "7"], ["thm1", "--p-max", "499"], ["--list"]],
    ids=["7", "499", "list"],
)
@pytest.mark.parametrize("target", ["closed-pipe", "/dev/full"])
def test_unwritable_stdout_exits_two_without_traceback(target, argv):
    # a pipe whose reader is gone, as in `verify | head -1`, or a full disk;
    # thm1 to 7 and the suite table fail at the last flush, and thm1 to 499
    # (15 KB) in mid-stream
    if target == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = open(write_end, "w")
    else:
        stdout = open(target, "w")
    with stdout:
        proc = run_cli(argv, {}, stdout=stdout)
    assert proc.returncode == 2, proc.stderr
    assert_one_usage_error(proc.stderr)
    assert "cannot write stdout" in proc.stderr


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code, out, err = run_main(
        capsys,
        "thm1", "--p-min", "5", "--p-max", "5",
        "--format", "json-lines", "--out", str(path),
    )
    assert code == 0 and out == ""
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5 and "summary" in lines[-1]


def test_list_suites(capsys):
    code, out, err = run_main(capsys, "--list")
    assert code == 0
    assert "thm1" in out and "conj-1/6" in out and "aliases:" in out
    # the table's bytes, recorded before the registry became one row per suite
    digest = "181ddba49b365e0f94f67c93566b98578308c278082b0b7a6fba096ddd42ce7c"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_list_skips_the_prime_range_but_checks_its_input(capsys, monkeypatch):
    # --list prints a fixed table, so a huge --p-max costs no walk over the primes
    start = time.process_time()
    code, out, _ = run_main(capsys, "--list", "--p-max", "1000000000")
    assert time.process_time() - start < 1
    assert code == 0 and "aliases:" in out
    assert run_main(capsys, "--list", "--p-max", "3")[0] == 2
    monkeypatch.setenv("VERIFY_BUDGET_SERIES", "many")
    assert run_main(capsys, "--list")[0] == 2


def test_list_follows_out(tmp_path, capsys):
    _, table, _ = run_main(capsys, "--list")
    path = tmp_path / "suites.txt"
    code, out, err = run_main(capsys, "--list", "--out", str(path))
    assert code == 0 and out == "" and err == ""
    assert path.read_text() == table


@pytest.mark.parametrize(
    "env, budget, argv, instances, errors, text",
    [
        # every instance needs a series longer than the cap
        ("SERIES", "6", ("rv", "--p-min", "7", "--p-max", "7", "--n", "1"), 4, 4,
         "series truncation 7 exceeds cap 6"),
        *(
            ("SERIES", "10", (sid, "--p-min", "13", "--p-max", "13"), count, count,
             "series truncation 13 exceeds cap 10")
            for sid, count in (
                ("thm1", 4), ("sun", 24), ("chain-reflect", 24), ("chain-jet", 24),
                # O(p) walks that read no series engine
                ("lemma2", 4), ("lemma5-poch", 52), ("chain-backward", 13),
                ("chain-binom", 13), ("chain-forward", 13), ("chain-convolution", 4),
                ("chain-weighted", 8),
            )
        ),
        ("SERIES", "10", ("conj", "--p-min", "13", "--p-max", "13", "--n", "1"), 4, 4,
         "series truncation 13 exceeds cap 10"),
        # C(c k, d k) tops above 10: k >= 6, 4, 3 and 2 for x = 1/2, 1/3, 1/4, 1/6
        ("BINOMIAL", "10", ("lemma5", "--p-min", "13", "--p-max", "13"), 52, 37,
         "binomial argument "),
    ],
    ids=[
        "rv", "thm1", "sun", "chain-reflect", "chain-jet", "lemma2", "lemma5-poch",
        "chain-backward", "chain-binom", "chain-forward", "chain-convolution",
        "chain-weighted", "conj", "lemma5",
    ],
)
def test_budget_env_override(
    capsys, monkeypatch, env, budget, argv, instances, errors, text
):
    monkeypatch.setenv(f"VERIFY_BUDGET_{env}", budget)
    code, out, err = run_main(capsys, *argv, "--format", "json-lines")
    records = [json.loads(line) for line in out.strip().splitlines()]
    summary = records.pop()["summary"]
    assert code == 0  # errors are not failures
    assert (summary["instances"], summary["errors"], summary["failed"]) == (
        instances, errors, 0
    )
    messages = [r["error"] for r in records if r.get("error")]
    assert len(messages) == errors
    assert all(
        m.startswith(f"BudgetExceeded: {text}") and m.endswith(f" exceeds cap {budget}")
        for m in messages
    )


def test_conjecture_reports_the_series_cap_before_the_binomial_cap(capsys, monkeypatch):
    # p = 13, n = 1 is over both caps: C(2, 1) = 2 > 1 and 13 > 10
    monkeypatch.setenv("VERIFY_BUDGET_SERIES", "10")
    monkeypatch.setenv("VERIFY_BUDGET_BINOMIAL", "1")
    code, out, _ = run_main(
        capsys, "conj", "--p-min", "13", "--p-max", "13", "--n", "1", "--format", "json-lines"
    )
    records = [json.loads(line) for line in out.splitlines()[:-1]]
    assert code == 0 and len(records) == 4
    assert all(
        r["error"] == "BudgetExceeded: series truncation 13 exceeds cap 10" for r in records
    )


def test_budget_env_is_read_by_the_cli_only(capsys, monkeypatch):
    # an instance run without a sweep keeps the default budgets, while verify
    # still reads VERIFY_BUDGET_SERIES
    monkeypatch.setenv("VERIFY_BUDGET_SERIES", "6")
    rep = run_one("rv", {"p": 7, "n": 1, "x": Fraction(1, 2)})
    assert rep.error is None and rep.passed
    code, out, _ = run_main(
        capsys,
        "rv", "--p-min", "7", "--p-max", "7", "--n", "1", "--format", "json-lines",
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["summary"]["errors"] == 4


@pytest.mark.parametrize(
    "budget, argv", [("5000", ("--p-max", "5", "--r", "2000")), ("60", ("--p-max", "11"))]
)
def test_lemma4_keeps_the_binomial_cap_of_lemma4_binom(capsys, monkeypatch, budget, argv):
    # both suites form C(c m, d m) at m = k + r p, so they hit the cap at
    # the same params with the same text; at r = 2000 every top is past it
    monkeypatch.setenv("VERIFY_BUDGET_BINOMIAL", budget)
    code, out, _ = run_main(
        capsys, "lemma4", "lemma4-binom", *argv, "--format", "json-lines"
    )
    records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    errors = {}
    for rec in records:
        errors.setdefault(json.dumps(rec["params"]), {})[rec["suite"]] = rec.get("error")
    assert code == 0 and len(records) == 2 * len(errors)
    assert all(e["lemma4"] == e["lemma4-binom"] for e in errors.values())
    capped = [e["lemma4"] for e in errors.values() if e["lemma4"]]
    assert capped and all(e.startswith("BudgetExceeded: binomial argument") for e in capped)
    if budget == "5000":
        assert len(capped) == len(errors) == 20


def test_chain_block_keeps_the_binomial_cap(capsys):
    # the right side reads C(6r, 3r) at x = 1/6, past the cap of 5000 at r = 1000
    code, out, _ = run_main(
        capsys, "chain-block", "--p-max", "5", "--r", "1000", "--format", "json-lines"
    )
    records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    errors = {rec["params"]["x"]: rec.get("error") for rec in records}
    assert code == 0
    assert errors == {
        "1/2": None,
        "1/3": None,
        "1/4": None,
        "1/6": "BudgetExceeded: binomial argument 6000 exceeds cap 5000",
    }


def test_run_looks_up_run_instance_at_each_call(capsys, monkeypatch):
    # the benchmark's setup probe rebinds cli.run_instance to stop a run at
    # its first instance with a plain Exception; a run_instance bound early
    # (a partial, a default argument) would run the whole sweep instead, and
    # a catch-all handler in cli.run would swallow the probe
    class Probe(Exception):
        pass

    def stop(*args, **kwargs):
        raise Probe

    monkeypatch.setattr(cli, "run_instance", stop)
    with pytest.raises(Probe):
        cli.main(["thm1", "--p-max", "7"])
    assert capsys.readouterr().out == ""


# the argv of the four perfbench workloads, before the options it adds
BENCHMARK_WORKLOADS = (
    (),
    ("thm1", "rv", "chain-block", "--engine", "modular", "--p-max", "499"),
    ("conj", "--p-max", "499"),
    ("identities",),
)


def test_benchmark_setup_probe_stops_before_the_first_record(tmp_path):
    # perfbench's setup_s is a `child.py setup` process, which rebinds
    # run_instance to raise a plain Exception at the first instance, and
    # finds the name only through module globals and closure cells; a runner
    # that held run_instance elsewhere, caught Exception around the call or
    # ran a shard before it would run, and time, the whole sweep
    root = Path(__file__).resolve().parents[1]
    for argv in BENCHMARK_WORKLOADS:
        out = tmp_path / "records"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), "setup", "--",
             *argv, "--format", "json-lines", "--out", str(out), "--workers", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert not out.exists() or out.read_text() == "", argv


def test_names_the_benchmark_reaches_by_name_exist():
    # perfbench/child.py wraps these by name and skips a missing one with one
    # stderr line, after which its metric reads 0 and no gate fails; this test
    # goes when ROADMAP item 8 retires the name-based tracer
    assert list(inspect.signature(_kernel.series_window_mod).parameters)[5] == "k_stop"
    assert inspect.isfunction(series.QuarticFamily.term_scaled)
    assert isinstance(padic.PrimePower, type)
    assert inspect.isfunction(padic.residue_from_rational)
    assert next(iter(inspect.signature(suites.run_instance).parameters)) == "suite_id"
    assert inspect.isfunction(cli.run) and inspect.isfunction(cli.main)
    assert inspect.isfunction(hypercheck.backend_name)


# the suites whose checks ask `dual` for their values: run_instance labels
# their records with the route that ran
DUAL_ROUTE_SUITES = {
    "thm1", "sun", "rv", "rv-x", "corollary", "lemma4", "lemma5", "chain-reflect",
    "chain-jet", "chain-block", "chain-product",
    "conj-1/2", "conj-1/3", "conj-1/4", "conj-1/6",
}


def _json_records(capsys, *argv) -> list[dict]:
    _, out, _ = run_main(capsys, *argv, "--format", "json-lines")
    return [json.loads(line) for line in out.splitlines()[:-1]]


@pytest.mark.parametrize(
    "argv, params",
    [
        (("sun", "--x", "1/2,1/2,2/4"), [{"p": 5, "x": "1/2"}]),
        (("thm1", "--x", "1/2,1/2"), [{"p": 5, "x": "1/2"}]),
        (("rv", "--n", "1,1", "--x", "1/2"), [{"p": 5, "n": 1, "x": "1/2"}]),
        (("sun", "--x", "7,7/1"), [{"p": 5, "x": 7}]),
    ],
)
def test_a_repeated_list_value_runs_its_instance_once(capsys, argv, params):
    records = _json_records(capsys, *argv, "--p-max", "5")
    assert [r["params"] for r in records] == params


def test_records_name_the_route_that_ran(capsys, monkeypatch):
    monkeypatch.setenv("VERIFY_BUDGET_IDENTITY", "5")
    argv = ("all", "conj", "rv-x", "identity-shifted-printed", "--p-max", "7")
    labels = {}
    for engine in ("modular", "exact", "both"):
        seen = {}
        for rec in _json_records(capsys, *argv, "--engine", engine):
            if "error" not in rec:
                seen.setdefault(rec["suite"], set()).add(rec["engine"])
        assert set(seen) == set(suites.REGISTRY)
        assert all(len(names) == 1 for names in seen.values()), (engine, seen)
        labels[engine] = {sid: names.pop() for sid, names in seen.items()}
    assert labels["both"] == labels["modular"]
    differ = {sid for sid in suites.REGISTRY if labels["exact"][sid] != labels["modular"][sid]}
    assert differ == DUAL_ROUTE_SUITES
    assert {labels["exact"][sid] for sid in differ} == {"exact"}
    assert {labels["modular"][sid] for sid in differ} == {"modular"}


def test_error_records_name_no_route(capsys, monkeypatch):
    monkeypatch.setenv("VERIFY_BUDGET_IDENTITY", "5")
    monkeypatch.setenv("VERIFY_BUDGET_SERIES", "4")
    argv = ("all", "conj", "rv-x", "identity-shifted-printed", "--p-max", "7")
    for engine in ("modular", "exact", "both"):
        errors = [r for r in _json_records(capsys, *argv, "--engine", engine) if "error" in r]
        assert {r["suite"] for r in errors} >= DUAL_ROUTE_SUITES - {"lemma4", "lemma5"}
        assert {r["engine"] for r in errors} == {""}
    # an error raised after the check read its series through dual
    monkeypatch.delenv("VERIFY_BUDGET_SERIES")

    def no_character(a, p):
        raise NonUnit(f"{a} mod {p}")

    monkeypatch.setattr(suites.special, "legendre", no_character)
    for engine in ("modular", "exact", "both"):
        records = _json_records(capsys, "thm1", "--p-max", "7", "--engine", engine)
        assert len(records) == 8 and all(r["error"].startswith("NonUnit") for r in records)
        assert {r["engine"] for r in records} == {""}


def test_fault_injected_conjecture_names_the_exact_route(capsys, monkeypatch):
    # a divisibility violation found on the exact route alone names that route
    monkeypatch.setenv("VERIFY_FAULT_INJECT", "conj-1/2")
    records = _json_records(capsys, "conj-1/2", "--p-max", "7", "--engine", "exact")
    assert len(records) == 6
    assert all(r["note"].startswith("divisibility violation") for r in records)
    assert {r["engine"] for r in records} == {"exact"}


def _strip_elapsed(stream: str) -> list[str]:
    out = []
    for line in stream.strip().splitlines():
        rec = json.loads(line)
        rec.pop("elapsed_ms", None)
        if "summary" in rec:
            rec["summary"].pop("elapsed_s", None)
        out.append(json.dumps(rec, separators=(",", ":")))
    return out


@pytest.mark.parametrize("fmt", ["json-lines", "human", "csv"])
def test_worker_count_does_not_change_output(capsys, fmt):
    argv = [
        "thm1", "sun", "--p-min", "5", "--p-max", "13", "--format", fmt,
    ]
    code1, out1, _ = run_main(capsys, *argv, "--workers", "1")
    code2, out2, _ = run_main(capsys, *argv, "--workers", "4")
    assert code1 == code2 == 0
    if fmt == "json-lines":
        assert _strip_elapsed(out1) == _strip_elapsed(out2)
    else:
        assert _strip_format_elapsed(fmt, out1) == _strip_format_elapsed(fmt, out2)


@pytest.mark.parametrize("fmt", ["json-lines", "human"])
def test_a_sweep_of_shards_without_points_runs_nothing(capsys, monkeypatch, fmt):
    # rv's shards are its primes, and an empty --n leaves each without a
    # point; under a pool, each shard is a task that writes nothing, as
    # serially
    monkeypatch.setattr(_InProcessPool, "log", [])
    monkeypatch.setattr(multiprocessing, "Pool", _InProcessPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for workers in ("1", "2"):
        code, out, err = run_main(capsys, "rv", "--n", ",,", "--p-max", "13", "--format", fmt,
                                  "--workers", workers)
        assert (code, err) == (0, "")
        if fmt == "human":
            assert out.startswith("ran 0 instances:") and out.count("\n") == 1
        else:
            summary = json.loads(out)["summary"]
            assert summary["instances"] == 0 and summary["suites"] == {}


class Pinned(NamedTuple):
    """One pinned json-lines run: its argv and environment (None unsets a
    variable), exit code, line count (summary included) and the SHA-256 of
    its records re-encoded with the elapsed fields stripped; ``raw``, where
    set, is the SHA-256 of the bytes as written, with only the elapsed fields
    cut out.
    """

    argv: tuple[str, ...]
    env: dict
    code: int
    lines: int
    digest: str
    raw: str | None = None


# perfbench's gate pattern for the elapsed fields
_ELAPSED = re.compile(r',"elapsed_(?:ms|s)":[-+.0-9eE]+')

# Each digest was recorded before the change its comment names; a refactor
# that changes any record or the summary changes it.
PINNED_STREAMS = {
    # `verify all --p-max 31` at VERIFY_BUDGET_IDENTITY=40, recorded before the
    # identity suites and the chain suites shared their exact sequences; the
    # raw digests were recorded while the json module still wrote the records,
    # and see a change in escaping, spacing or float text that re-encoding hides
    **{
        f"all-p31-{engine}": Pinned(
            ("all", "--p-max", "31", "--engine", engine),
            {"VERIFY_BUDGET_IDENTITY": "40"}, 0, 9694, digest, raw,
        )
        for engine, digest, raw in (
            ("modular",
             "b08be9560bc460802079c9be9ae443b4647c794b6a04e57229d60e71643d04a1",
             "a53b2ad94cd2c771ef10db6e9712bd526c90d785f9eae3a3267b7dcc30380179"),
            ("exact",
             "08682d7b42888494cf8ab9b330ae24ab40e706154e4cef64b3fd0ce6d9d9058c",
             "455285b46cf825406abb87343054e7cee214e651c5a0d7462b3a1623107b2d0e"),
            ("both",
             "0806bffcc8e5ac443ca8fae97ad259954f8bf567f9329780b293509b912daf03",
             "8fb02a171746b6e02b56daac75edf65894dc5b39ebc7e8f3b8c158870645f1ee"),
        )
    },
    # `verify conj --p-max 61`, recorded before the conjecture suites' exact
    # route moved to the binary-splitting oracle; the runs above never run
    # the conjectures
    "conj-p61-exact": Pinned(
        ("conj", "--p-max", "61", "--engine", "exact"), {}, 0, 193,
        "b69c1c4795114d0321e7831fd25ee7be17285e1612f6adcfd1adcc00884e8f02",
    ),
    "conj-p61-both": Pinned(
        ("conj", "--p-max", "61", "--engine", "both"), {}, 0, 193,
        "e4328122f63d6ae6ad68e816be6e0f018d0b1840a3e79014979410755279dace",
    ),
    # `verify conj --p-max 499 --engine both`, recorded before the Euler and
    # Bernoulli tables were built from secant and tangent numbers; it reads
    # table indices up to 497 and every rebuild of a table on the way
    "conj-p499": Pinned(
        ("conj", "--p-max", "499", "--engine", "both"), {}, 0, 1117,
        "7f46af6710802b9cd911d6cabd640e1cff01f933ef9d5199c64558668061ff12",
    ),
    # `verify thm1 rv chain-block --engine modular --p-max 499`, recorded
    # before every check reached the series engines through one (x, k_start,
    # k_stop) signature: the modular windows, chain-block's blocks
    # [r p, (r+1) p) among them, past p = 97
    "modular-p499": Pinned(
        ("thm1", "rv", "chain-block", "--engine", "modular", "--p-max", "499"),
        {}, 0, 2605,
        "9e7e3aaa7942e1cff84f6340a22c769534f7970c42a20439b029450b93f85a0b",
    ),
    # `verify lemma4 lemma4-binom lemma5 --p-max 199 --engine modular`,
    # recorded before each quartic family computed its binomial products once
    # per run: the only stream whose terms reach n = k + r p above 93
    "lemmas-p199": Pinned(
        ("lemma4", "lemma4-binom", "lemma5", "--engine", "modular", "--p-max", "199"),
        {}, 0, 118217,
        "e1197479bb77b7c80e5bc7902c3b7ae862096b819ec6d0fb8df1ea7db743becd",
    ),
    # `verify chain-binom chain-forward chain-weighted --p-max 199`, recorded
    # before their identity sums at n = m were computed once per m
    "chains-p199": Pinned(
        ("chain-binom", "chain-forward", "chain-weighted", "--p-max", "199"),
        {}, 0, 8797,
        "ae526f5f7b797b2cb38a6fd633622a157b106c8babc38ab933de4a7514d99ce3",
    ),
    # the seven suites whose right sides are rows mod p^e, at p^4, above every
    # proved exponent (exit 1), and lemma5-poch and chain-jet, -backward and
    # -convolution past p = 97; both recorded before those right sides moved
    # from exact rationals to integer rows mod p^e
    "rows-e4": Pinned(
        ("lemma4", "lemma4-binom", "lemma5-poch", "chain-jet", "chain-backward",
         "chain-convolution", "chain-weighted", "--p-max", "31", "--mod-exp", "4",
         "--engine", "both"),
        {}, 1, 4854,
        "9da426114831ce31dd6e7ae1c0483b5394e3a8c0a34a7bd77c43301a99bd3242",
    ),
    "chains-p101-199": Pinned(
        ("lemma5-poch", "chain-jet", "chain-backward", "chain-convolution",
         "--p-min", "101", "--p-max", "199", "--engine", "both"),
        {}, 0, 19318,
        "7c20396d723f4552454e5ee8a0a0a0240db6f462e57beb254fbd4730079e3c46",
    ),
    # the default sweep (theorem suites, 5 <= p <= 97) under `--engine exact`,
    # recorded before the exact oracle read its windows from one prefix table
    # per x: the only stream whose exact route goes past p = 31, through the
    # p^2 sums and one x shared by every prime
    "default-exact": Pinned(
        ("--engine", "exact"), {}, 0, 43690,
        "979c55e79ff2e606a9a48775bd32d2fa5347feb684883d25a1d028c569685863",
    ),
    # `verify identities` at the default index cap of 300, recorded before the
    # alternating sums walked the signed-binomial row and the convolution
    # became one integer sum
    "identities": Pinned(
        ("identities",), {"VERIFY_BUDGET_IDENTITY": None}, 0, 96017,
        "95a827b412dd27704a9f428bb9ad45f1360dc68aae44d4156f6d081f356947fa",
    ),
    # `verify identity-harmonic identity-tail identity-shifted identity-chain
    # identity-shifted-printed` at the default index cap of 300, recorded
    # before the harmonic sums moved to integer numerators over one lcm
    # denominator; the printed form fails on purpose (exit 1)
    "harmonic-sums-300": Pinned(
        ("identity-harmonic", "identity-tail", "identity-shifted", "identity-chain",
         "identity-shifted-printed"),
        {"VERIFY_BUDGET_IDENTITY": None}, 1, 1502,
        "0d962045f4a7ad654cd854e1a011c976d0ddd5e3a0f968d61f2c679044c51a36",
    ),
    # `verify rv-x --p-max 31`, recorded before the series layer was
    # specialized to F(x; N): general x and the n*p sums, with genuine
    # counterexamples (exit 1)
    **{
        f"rv-x-p31-{engine}": Pinned(
            ("rv-x", "--p-max", "31", "--engine", engine), {}, 1, 349, digest
        )
        for engine, digest in (
            ("modular", "970121a2cb622f70de69c98557705747c99c98be58303f5a641ea86133a6c2a7"),
            ("exact", "611cdf70d999f7f02853e340036f0fd272f7d520d734913015843d23cf2bca60"),
            ("both", "13efe4360c52b9a3c43d94d19affdfb44420d985335878bd5e9470f77b60839f"),
        )
    },
    # the series kernel at p^6, on the p^r sums and the blocks [r p, (r+1) p),
    # recorded at the same point
    "e6-p31": Pinned(
        ("thm1", "rv", "chain-block", "chain-product", "--p-max", "31",
         "--mod-exp", "6", "--r", "0,1,2,3"),
        {}, 1, 397,
        "6413f6539aac68afe1581686cd87135c772d82de3b9204ac60b3ea3f091b7f4c",
    ),
}


def _run_pinned(capsys, monkeypatch, case: Pinned) -> str:
    """Run the pinned stream ``case``, check its exit code and return its output."""
    for key, value in case.env.items():
        if value is None:
            monkeypatch.delenv(key, raising=False)
        else:
            monkeypatch.setenv(key, value)
    code, out, _ = run_main(capsys, *case.argv, "--format", "json-lines")
    assert code == case.code
    return out


def assert_pinned(capsys, monkeypatch, name: str) -> None:
    """Run the pinned stream ``name`` and check its re-encoded records."""
    case = PINNED_STREAMS[name]
    lines = _strip_elapsed(_run_pinned(capsys, monkeypatch, case))
    assert len(lines) == case.lines
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == case.digest


@pytest.mark.parametrize("engine", ["both", "exact", "modular"])
def test_record_stream_matches_pinned_digest(capsys, monkeypatch, engine):
    assert_pinned(capsys, monkeypatch, f"all-p31-{engine}")


@pytest.mark.parametrize("engine", ["both", "exact", "modular"])
def test_record_bytes_match_pinned_digest(capsys, monkeypatch, engine):
    case = PINNED_STREAMS[f"all-p31-{engine}"]
    raw = _ELAPSED.sub("", _run_pinned(capsys, monkeypatch, case)).encode()
    assert raw.count(b"\n") == case.lines
    assert hashlib.sha256(raw).hexdigest() == case.raw


@pytest.mark.parametrize("engine", ["both", "exact"])
def test_conjecture_stream_matches_pinned_digest(capsys, monkeypatch, engine):
    assert_pinned(capsys, monkeypatch, f"conj-p61-{engine}")


def test_conjecture_stream_to_p499_matches_pinned_digest(capsys, monkeypatch):
    assert_pinned(capsys, monkeypatch, "conj-p499")


def test_modular_stream_to_p499_matches_pinned_digest(capsys, monkeypatch):
    assert_pinned(capsys, monkeypatch, "modular-p499")


def test_lemma_stream_to_p199_matches_pinned_digest(capsys, monkeypatch):
    assert_pinned(capsys, monkeypatch, "lemmas-p199")


def test_chain_identity_stream_to_p199_matches_pinned_digest(capsys, monkeypatch):
    assert_pinned(capsys, monkeypatch, "chains-p199")


@pytest.mark.parametrize("name", ["rows-e4", "chains-p101-199"])
def test_row_suite_streams_match_pinned_digest(capsys, monkeypatch, name):
    assert_pinned(capsys, monkeypatch, name)


def test_default_sweep_exact_stream_matches_pinned_digest(capsys, monkeypatch):
    assert_pinned(capsys, monkeypatch, "default-exact")


def test_identity_stream_matches_pinned_digest(capsys, monkeypatch):
    assert_pinned(capsys, monkeypatch, "identities")


def test_harmonic_sum_streams_to_300_match_pinned_digest(capsys, monkeypatch):
    assert_pinned(capsys, monkeypatch, "harmonic-sums-300")


@pytest.mark.parametrize("engine", ["both", "exact", "modular"])
def test_rv_x_stream_matches_pinned_digest(capsys, monkeypatch, engine):
    assert_pinned(capsys, monkeypatch, f"rv-x-p31-{engine}")


def test_mod_exp_six_stream_matches_pinned_digest(capsys, monkeypatch):
    assert_pinned(capsys, monkeypatch, "e6-p31")


# `verify all --p-max 31 --engine modular` at VERIFY_BUDGET_IDENTITY=40 in
# the other two formats: line count and SHA-256, recorded before each
# (suite, prime) ran as one shard, with the human summary's "in X.Xs" and
# the csv elapsed_ms column cut out
PINNED_FORMATS = {
    "human": (9694, "3953888739f5615f3262a5e1855716972e24cbfc3204d195c6b08f3ee7ecb726"),
    "csv": (9694, "992d05b01c8c10dad054c3c80f29fcb6741aa887cf3ea461837911c75ea6a9e3"),
}


def _strip_format_elapsed(fmt: str, out: str) -> str:
    if fmt == "human":
        return re.sub(r" in [0-9.]+s \(verify ", " (verify ", out)
    rows = list(csv.reader(io.StringIO(out)))
    col = rows[0].index("elapsed_ms")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(row[:col] + row[col + 1 :] for row in rows)
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["human", "csv"])
def test_human_and_csv_streams_match_pinned_digest(capsys, monkeypatch, fmt):
    monkeypatch.setenv("VERIFY_BUDGET_IDENTITY", "40")
    argv = ("all", "--p-max", "31", "--engine", "modular", "--format", fmt)
    code, out, _ = run_main(capsys, *argv)
    lines, digest = PINNED_FORMATS[fmt]
    out = _strip_format_elapsed(fmt, out)
    assert code == 0 and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _json_params(params: dict) -> dict:
    """``params`` with every non-int value as its string, as records show them."""
    return {k: v if type(v) is int else str(v) for k, v in params.items()}


def _reference_line(rep: suites.Report) -> str:
    """The record as the json module writes it, with the params `run_instance`
    stamps, in the documented key order.
    """
    rec = {
        "suite": rep.suite,
        "params": _json_params(rep.params),
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "modulus": rep.modulus,
        "pass": rep.passed,
        "engine": rep.engine,
        "elapsed_ms": round(rep.elapsed_ms, 3),
    }
    for key in ("note", "oracle", "error"):
        if getattr(rep, key) is not None:
            rec[key] = getattr(rep, key)
    return json.dumps(rec, separators=(",", ":")) + "\n"


def _grid_text(params: dict, head: str) -> str:
    """``params`` as `_Grid.shard` writes it after ``head``: a grid of one
    point, its first key, then the rest merged as one dict; the empty
    point, which no grid makes, as ``{}``."""
    if not params:
        return head + "{}"
    (name, first), *rest = params.items()
    grid = suites._Grid((name, lambda sweep: [first]), (None, lambda first, sweep: [dict(rest)]))
    [(_, text)] = grid.shard(first, None, head)
    return text


_AWKWARD_TEXT = 'a "quoted" \\ back\\slash, \x00\x07\t\n\x1f\x7f, caf\u00e9 \u2211 \U0001f600 \u2028'
_PARAMS_CASES = [
    {"p": 7, "x": Fraction(1, 2)},
    {"p": 5, "a": 1, "b": 2, "form": "product"},
    {"b": -3, "k": 0, "x": Fraction(-7, 3)},
    {"n": 10**30, "x": "1/2"},
    {},
]


def test_records_match_the_json_module_byte_for_byte():
    texts = (None, "", "plain", _AWKWARD_TEXT)
    elapsed = (0, 0.0, 1e-7, 0.0005, 12345.6789, 1e16)
    cases = itertools.product(_PARAMS_CASES, texts, texts, texts, elapsed, (True, False))
    count = 0
    for params, note, oracle, error, ms, passed in cases:
        rep = suites.Report(
            lhs="-12/5", rhs=_AWKWARD_TEXT, modulus="exact", passed=passed,
            engine="modular", suite="conj-1/2", params=params, elapsed_ms=ms,
            note=note, oracle=oracle, error=error,
        )
        buf = io.StringIO()
        cli._emit_json(rep, _grid_text(params, '{"suite":"conj-1/2","params":'), buf)
        assert buf.getvalue() == _reference_line(rep), rep
        count += 1
    assert count == 5 * 4**3 * 6 * 2


def test_csv_params_cell_matches_the_json_module():
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for params in _PARAMS_CASES:
        rep = suites.Report(
            lhs="1", rhs="1", modulus="25", passed=True, engine="exact",
            suite="thm1", params=params, note=_AWKWARD_TEXT,
        )
        cli._emit_csv(rep, _grid_text(params, ""), writer)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert [row[1] for row in rows] == [
        json.dumps(_json_params(params), separators=(",", ":"))
        for params in _PARAMS_CASES
    ]


def test_rhs_that_is_the_lhs_is_quoted_once(monkeypatch):
    # a passing exact record shares one string for both sides
    lhs = "-" + "9" * 300
    rep = suites.Report(lhs=lhs, rhs=lhs, modulus="exact", passed=True, engine="exact",
                        suite="identity-negation", params={"b": 1, "k": 2})
    quoted = []
    monkeypatch.setattr(cli, "_quote", lambda text: quoted.append(text) or json.dumps(text))
    buf = io.StringIO()
    cli._emit_json(rep, _grid_text(rep.params, '{"suite":"identity-negation","params":'), buf)
    assert buf.getvalue() == _reference_line(rep)
    assert quoted.count(lhs) == 1


@given(st.floats(min_value=0.0, max_value=1e13, exclude_max=True))
@example(1.0625)
@example(2.675)
@example(0.0005)
@example(1e-7)
@example(-0.0)
@example(math.nextafter(1e12, 0))
# outside the .3f range: ints, 1e12 and up, negatives and non-finite floats
@example(0)
@example(7)
@example(1e12)
@example(1e16)
@example(-2.5)
@example(math.inf)
@example(math.nan)
def test_elapsed_text_is_repr_of_round(x):
    assert cli._ms(x) == repr(round(x, 3))


@given(
    st.one_of(
        st.integers(min_value=-(10**31), max_value=10**31),
        st.fractions(max_value=0),
        st.text(),
        st.just(_AWKWARD_TEXT),
    )
)
@example(-(10**30))
@example(Fraction(-7, 3))
def test_params_value_text_matches_the_json_module(v):
    assert suites._json_value(v) == json.dumps(v if type(v) is int else str(v))


@pytest.mark.parametrize("x", [None, "3,1/2,-2/7"])
def test_grid_texts_match_the_json_module(monkeypatch, x):
    # every point of every suite, None axes (lemma1, babbage, rv-x) included;
    # each shard twice, the second time from the parts the first one built
    monkeypatch.setenv("VERIFY_BUDGET_IDENTITY", "5")
    sweep = cli.parse_args(["--p-max", "13"] + ([] if x is None else ["--x", x])).sweep
    for suite in suites.REGISTRY.values():
        gen = suite.gen
        for first in gen.firsts(sweep):
            pairs = list(gen.shard(first, sweep, "<"))
            assert [text for _, text in pairs] == [
                "<" + json.dumps(_json_params(point), separators=(",", ":"))
                for point, _ in pairs
            ], (suite.id, first)
            assert list(gen.shard(first, sweep, "<")) == pairs, (suite.id, first)


def test_params_text_is_built_per_shard_and_axis_value(monkeypatch, tmp_path):
    # identity-negation: 40 shards b of 41 k values each; the text of each b
    # and of each k is built once, not once per record
    monkeypatch.setenv("VERIFY_BUDGET_IDENTITY", "40")
    calls, encode = [], suites._json_value
    monkeypatch.setattr(suites, "_json_value", lambda v: calls.append(v) or encode(v))
    out = tmp_path / "records.jsonl"
    assert cli.main(["identity-negation", "--format", "json-lines", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 40 * 41 + 1
    assert len(calls) <= 40 + 41


@pytest.mark.parametrize(
    "domain, sids",
    [("_sun_xs", ("sun", "chain-reflect", "chain-jet")), ("_lemma1_forms", ("lemma1",))],
    ids=["sun-x", "lemma1-forms"],
)
def test_each_later_domain_is_evaluated_once_per_shard(monkeypatch, tmp_path, domain, sids):
    # a shard's points and their texts come from one walk of its domains
    calls, fn = [], getattr(suites, domain)

    def counted(first, sweep):
        calls.append(first)
        return fn(first, sweep)

    for suite in suites.REGISTRY.values():
        later = [(name, counted if d is fn else d) for name, d in suite.gen.later]
        monkeypatch.setattr(suite.gen, "later", later)
    out = tmp_path / "records"
    assert cli.main([*sids, "--p-max", "13", "--format", "json-lines", "--out", str(out)]) == 0
    assert calls == [5, 7, 11, 13] * len(sids)


@pytest.mark.parametrize("x", [None, "3,1/2"])
def test_generated_params_are_ints_fractions_or_strings(monkeypatch, x):
    # the record encoder writes an int value as digits and any other value
    # as a string, as json does for these three types; a bool (an int
    # subclass) or a float would come out unlike json's text
    monkeypatch.setenv("VERIFY_BUDGET_IDENTITY", "5")
    sweep = cli.parse_args(["--p-max", "13"] + ([] if x is None else ["--x", x])).sweep
    seen = set()
    for suite in suites.REGISTRY.values():
        for params in suite.gen(sweep):
            assert all(key.isidentifier() for key in params), (suite.id, params)
            types = {type(v) for v in params.values()}
            assert types <= {int, Fraction, str}, (suite.id, params)
            seen |= types
    assert seen == {int, Fraction, str}


def test_serial_run_generates_instances_lazily(tmp_path, monkeypatch):
    # identity-negation has identity_max^2 instances; a prebuilt item list
    # of 40,200 tuples peaks near 11 MB, a lazy walk well under 1 MB
    monkeypatch.setenv("VERIFY_BUDGET_IDENTITY", "200")
    argv = ["identity-negation", "--format", "json-lines", "--out", str(tmp_path / "o")]
    cfg = cli.parse_args(argv)
    tracemalloc.start()
    try:
        code = cli.run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20, peak


def test_series_walker_table_stays_bounded(tmp_path):
    # sun asks once for each of 4,702 series: the run peaks near 0.55 MB
    # with the bounded walker table and near 3.6 MB without the bound
    _kernel._walker.cache_clear()
    argv = ["sun", "--p-max", "199", "--engine", "modular", "--out", str(tmp_path / "o")]
    cfg = cli.parse_args(argv)
    tracemalloc.start()
    try:
        code = cli.run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert _kernel._walker.cache_info().currsize == _kernel.WALKER_LIMIT
    assert peak < 3 * 2**19, peak


def test_exact_prefix_table_stays_bounded(tmp_path):
    # sun asks for 210 x at every prime to 199: the run peaks near 0.07 MB
    # with the bounded block table and near 0.37 MB without the bound
    series._blocks.cache_clear()
    argv = ["sun", "--p-max", "199", "--engine", "exact", "--out", str(tmp_path / "o")]
    cfg = cli.parse_args(argv)
    tracemalloc.start()
    try:
        code = cli.run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert series._blocks.cache_info().currsize == series.SERIES_LIMIT
    assert peak < 2**17, peak


def test_import_leaves_multiprocessing_unloaded():
    # a serial run never starts a pool, so it should not pay for the import
    code = "import sys, hypercheck.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(hypercheck.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_json_lines_run_leaves_csv_unloaded():
    # only a csv run pays for the csv module
    code = (
        "import os, sys, hypercheck.cli as cli; "
        "code = cli.main(['thm1', '--p-max', '13', '--format', 'json-lines', '--out', os.devnull]); "
        "print(code, 'csv' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hypercheck.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0 False\n"), proc.stderr


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # both cost every start and buy nothing the checker uses
    code = "import sys, hypercheck.cli; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(hypercheck.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def _holds_report(obj) -> bool:
    if isinstance(obj, suites.Report):
        return True
    if isinstance(obj, (tuple, list, dict)):
        items = obj.items() if isinstance(obj, dict) else obj
        return any(_holds_report(item) for item in items)
    return False


def _holds_params(obj) -> bool:
    """Whether ``obj`` is or holds a dict, such as an instance's params."""
    if isinstance(obj, dict):
        return True
    return isinstance(obj, (tuple, list)) and any(_holds_params(item) for item in obj)


class _InProcessPool:
    """A `multiprocessing.Pool` that runs its tasks here, through pickle, and
    logs each job with its result."""

    log: list = []

    def __init__(self, size):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        for item in items:
            result = fn(pickle.loads(pickle.dumps(item)))
            self.log.append((item, result))
            yield pickle.loads(pickle.dumps(result))


@pytest.mark.parametrize("fmt", ["json-lines", "human", "csv"])
def test_pool_tasks_return_text_not_reports(capsys, monkeypatch, fmt):
    # each pool task sends back its shards' text and counts, not a Report per
    # instance; a pool that runs the tasks here, through pickle, writes the
    # serial stream; a job names its shard and carries none of its points
    log = []
    monkeypatch.setattr(_InProcessPool, "log", log)
    monkeypatch.setattr(multiprocessing, "Pool", _InProcessPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ("thm1", "lemma5", "rv-x", "--p-max", "13", "--format", fmt)
    code1, out1, _ = run_main(capsys, *argv)
    code2, out2, _ = run_main(capsys, *argv, "--workers", "2")
    assert code1 == code2 == 1
    assert len(log) == 3 * len(suites.primes_in(5, 13))
    assert not any(_holds_params(job) or _holds_report(result) for job, result in log)
    if fmt == "json-lines":
        assert _strip_elapsed(out1) == _strip_elapsed(out2)
    else:
        assert _strip_format_elapsed(fmt, out1) == _strip_format_elapsed(fmt, out2)


def test_pool_never_outnumbers_shards(capsys, monkeypatch):
    # a pool task is a run of whole shards, so a shard never keeps two workers busy
    sizes = []

    class FakePool:
        """Records its size and runs the work in this process."""

        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    # six usable CPUs; no real process is started
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    # thm1's shards are its primes, of four instances each: one shard at
    # p = 5, which runs in this process, without a pool, two up to p = 7 and
    # nine up to p = 31
    for p_max, workers, passed in (("5", "64", 4), ("7", "64", 8), ("31", "3", 36),
                                   ("31", "64", 36)):
        code, out, _ = run_main(capsys, "thm1", "--p-max", p_max, "--workers", workers)
        assert code == 0 and out.count("PASS") == passed
    # where the OS cannot say which CPUs a process may use, all of them count
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
    code, out, _ = run_main(capsys, "thm1", "--p-max", "31", "--workers", "64")
    assert code == 0 and out.count("PASS") == 36
    # one usable CPU runs in this process, without a pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    code, out, _ = run_main(capsys, "thm1", "--p-max", "31", "--workers", "64")
    assert code == 0 and out.count("PASS") == 36
    assert sizes == [2, 3, 6, 5]
