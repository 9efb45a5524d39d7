"""CLI parsing, output formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import hypercheck
from hypercheck import _kernel, cli, series
from hypercheck.errors import UsageError


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
    assert cfg.n_values == (1, 2, 3)
    assert cfg.x_values == (
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
    assert cfg.x_values == (0, 3, Fraction(2, 5))


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


def test_internal_error_ends_json_lines_with_a_summary(capsys, monkeypatch):
    monkeypatch.setenv("VERIFY_FAULT_INJECT", "thm1")
    code, out, err = run_main(capsys, "thm1", "--p-max", "7", "--format", "json-lines")
    assert code == 3
    summary = json.loads(out.splitlines()[-1])["summary"]
    assert summary["status"] == "internal-error"
    assert "disagreement" in summary["error"] and "elapsed_s" in summary
    assert summary["instances"] == 0


def test_unexpected_exception_exits_three_with_a_summary(tmp_path, capsys, monkeypatch):
    def broken(spec, ctx):
        raise RuntimeError("kernel bug")

    monkeypatch.setattr(series, "truncated_series_mod", broken)
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
    ],
)
def test_bad_input_exits_two_without_traceback(tmp_path, argv, env):
    src = Path(hypercheck.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "hypercheck.cli", "--p-max", "7"]
        + [arg.format(tmp=tmp_path) for arg in argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src), **env},
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "usage error" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("VERIFY_BUDGET_SERIES", "6")
    code, out, err = run_main(
        capsys,
        "rv", "--p-min", "7", "--p-max", "7", "--n", "1", "--format", "json-lines",
    )
    # every instance needs a length-7 series; all become budget errors
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0  # errors are not failures
    assert records[-1]["summary"]["errors"] == 4
    assert all("BudgetExceeded" in r["error"] for r in records[:-1])


def _strip_elapsed(stream: str) -> list[str]:
    out = []
    for line in stream.strip().splitlines():
        rec = json.loads(line)
        rec.pop("elapsed_ms", None)
        if "summary" in rec:
            rec["summary"].pop("elapsed_s", None)
        out.append(json.dumps(rec, separators=(",", ":")))
    return out


def test_worker_count_does_not_change_output(capsys):
    argv = [
        "thm1", "sun", "--p-min", "5", "--p-max", "13", "--format", "json-lines",
    ]
    code1, out1, _ = run_main(capsys, *argv, "--workers", "1")
    code2, out2, _ = run_main(capsys, *argv, "--workers", "4")
    assert code1 == code2 == 0
    assert _strip_elapsed(out1) == _strip_elapsed(out2)


# SHA-256 of the `verify all --p-max 31` json-lines stream at
# VERIFY_BUDGET_IDENTITY=40, elapsed fields stripped, recorded before the
# identity suites and the chain suites shared their exact sequences; a
# refactor that changes any record or the summary changes the digest
ALL_P31_DIGESTS = {
    "modular": "b08be9560bc460802079c9be9ae443b4647c794b6a04e57229d60e71643d04a1",
    "exact": "08682d7b42888494cf8ab9b330ae24ab40e706154e4cef64b3fd0ce6d9d9058c",
    "both": "0806bffcc8e5ac443ca8fae97ad259954f8bf567f9329780b293509b912daf03",
}


@pytest.mark.parametrize("engine", sorted(ALL_P31_DIGESTS))
def test_record_stream_matches_pinned_digest(capsys, monkeypatch, engine):
    monkeypatch.setenv("VERIFY_BUDGET_IDENTITY", "40")
    code, out, _ = run_main(
        capsys, "all", "--p-max", "31", "--engine", engine, "--format", "json-lines"
    )
    lines = _strip_elapsed(out)
    assert code == 0 and len(lines) == 9694
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ALL_P31_DIGESTS[engine]


# SHA-256 of the `verify conj --p-max 61` json-lines stream, elapsed fields
# stripped, recorded before the conjecture suites' exact route moved to the
# binary-splitting oracle; the suites above never run the conjectures
CONJ_P61_DIGESTS = {
    "exact": "b69c1c4795114d0321e7831fd25ee7be17285e1612f6adcfd1adcc00884e8f02",
    "both": "e4328122f63d6ae6ad68e816be6e0f018d0b1840a3e79014979410755279dace",
}


@pytest.mark.parametrize("engine", sorted(CONJ_P61_DIGESTS))
def test_conjecture_stream_matches_pinned_digest(capsys, engine):
    code, out, _ = run_main(
        capsys, "conj", "--p-max", "61", "--engine", engine, "--format", "json-lines"
    )
    lines = _strip_elapsed(out)
    assert code == 0 and len(lines) == 193
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CONJ_P61_DIGESTS[engine]


# SHA-256 of the `verify identities` json-lines stream at the default index
# cap of 300, elapsed fields stripped, recorded before the alternating sums
# walked the signed-binomial row and the convolution became one integer sum
IDENTITIES_DIGEST = "95a827b412dd27704a9f428bb9ad45f1360dc68aae44d4156f6d081f356947fa"


def test_identity_stream_matches_pinned_digest(capsys, monkeypatch):
    monkeypatch.delenv("VERIFY_BUDGET_IDENTITY", raising=False)
    code, out, _ = run_main(capsys, "identities", "--format", "json-lines")
    lines = _strip_elapsed(out)
    assert code == 0 and len(lines) == 96017
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == IDENTITIES_DIGEST


# SHA-256 of the `verify rv-x --p-max 31` json-lines stream, elapsed fields
# stripped, recorded before the series layer was specialized to F(x; N):
# general x and the n*p sums, with genuine counterexamples (exit 1)
RV_X_P31_DIGESTS = {
    "modular": "970121a2cb622f70de69c98557705747c99c98be58303f5a641ea86133a6c2a7",
    "exact": "611cdf70d999f7f02853e340036f0fd272f7d520d734913015843d23cf2bca60",
    "both": "13efe4360c52b9a3c43d94d19affdfb44420d985335878bd5e9470f77b60839f",
}


@pytest.mark.parametrize("engine", sorted(RV_X_P31_DIGESTS))
def test_rv_x_stream_matches_pinned_digest(capsys, engine):
    code, out, _ = run_main(
        capsys, "rv-x", "--p-max", "31", "--engine", engine, "--format", "json-lines"
    )
    lines = _strip_elapsed(out)
    assert code == 1 and len(lines) == 349
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RV_X_P31_DIGESTS[engine]


# The same for the series kernel at p^6, on the p^r sums and the blocks
# [r p, (r+1) p), recorded at the same point
E6_P31_DIGEST = "6413f6539aac68afe1581686cd87135c772d82de3b9204ac60b3ea3f091b7f4c"


def test_mod_exp_six_stream_matches_pinned_digest(capsys):
    code, out, _ = run_main(
        capsys, "thm1", "rv", "chain-block", "chain-product", "--p-max", "31",
        "--mod-exp", "6", "--r", "0,1,2,3", "--format", "json-lines",
    )
    lines = _strip_elapsed(out)
    assert code == 1 and len(lines) == 397
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == E6_P31_DIGEST


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


def test_series_walker_table_stays_bounded(tmp_path, monkeypatch):
    # sun asks once for each of 4,702 series: the run peaks near 0.55 MB
    # with the bounded walker table and near 3.6 MB without the bound
    monkeypatch.setattr(_kernel, "_WALKERS", {})
    argv = ["sun", "--p-max", "199", "--engine", "modular", "--out", str(tmp_path / "o")]
    cfg = cli.parse_args(argv)
    tracemalloc.start()
    try:
        code = cli.run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(_kernel._WALKERS) == _kernel.WALKER_LIMIT
    assert peak < 3 * 2**19, peak


def test_pool_never_outnumbers_instances(capsys, monkeypatch):
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

    monkeypatch.setattr(cli, "Pool", FakePool)
    # thm1 has four instances at p = 5 and eight up to p = 7
    code, out, _ = run_main(capsys, "thm1", "--p-max", "5", "--workers", "64")
    assert code == 0 and out.count("PASS") == 4
    code, out, _ = run_main(capsys, "thm1", "--p-max", "7", "--workers", "3")
    assert code == 0 and out.count("PASS") == 8
    assert sizes == [4, 3]
