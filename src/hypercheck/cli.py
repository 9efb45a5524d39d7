"""Command-line driver.

``verify [suite|alias ...] [options]`` expands the selection against the
registry and runs the sweep one shard at a time: a shard is one value of a
suite's first axis (one prime, or one identity index), whose instances
share one `Shard`.  `_shard` calls `run_instance` for each instance of a
shard, in generation order, writes one line per instance in human,
json-lines, or csv form and counts them: to the run's stream, or under
``--workers``, where a task is a run of whole shards, to the text that each
shard sends back to the parent, which writes it in generation order.  A
shard's instances are enumerated where it runs, by the suite's grid
(`_Grid.shard`), each with the params text that a json-lines or csv record
writes; the grid builds the shard's value once and each later axis value
once, not once per record.  A pool job carries no instances, only the
shard's suite and first value and the run's settings.

`parse_args` is the only code that reads argv and the ``VERIFY_*``
environment variables (``VERIFY_BUDGET_*`` and ``VERIFY_FAULT_INJECT``);
it returns argparse's namespace with the expanded ``suites``, the run's
`Sweep` as ``sweep`` and the ``VERIFY_FAULT_INJECT`` suite as ``fault`` set
on it.  `run` writes every byte of a run, the ``--list`` table included, to
the one stream it opens (``--out`` or stdout), so a stream that cannot be
written is exit 2 there too.

Exit codes: 0 all instances passed (or none ran; error records do not
fail a run), 1 at least one failing instance, in any suite kind, 2 usage
error (bad flag, budget or fault-injection variable, an ``--out`` or stdout
that cannot be written, such as a full disk or a closed pipe), 3 internal
inconsistency: the two engines disagreed, an engine self-check raised
`InternalError`, or a check raised an unexpected exception (`run_instance`
turns it into `InternalError`).  On exit 3 the run stops at that instance,
with every record before it written, in generation order under any
``--workers``; json-lines output still ends with its summary record, which
then also carries ``"status": "internal-error"`` and the ``"error"`` message.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .errors import InternalError, UsageError
from .padic import MAX_EXPONENT
from .suites import (
    ALIASES,
    REGISTRY,
    THEOREM_SUITES,
    Report,
    Shard,
    Sweep,
    primes_in,
    run_instance,
)


def expand_selection(tokens: list[str]) -> list[str]:
    if not tokens:
        return list(THEOREM_SUITES)
    picked: list[str] = []
    for tok in tokens:
        if tok in ALIASES:
            picked.extend(ALIASES[tok])
        elif tok in REGISTRY:
            picked.append(tok)
        else:
            raise UsageError(
                f"unknown suite or alias {tok!r}; valid suites: "
                + ", ".join(REGISTRY)
                + "; aliases: "
                + ", ".join(ALIASES)
            )
    return list(dict.fromkeys(picked))


def _parse_int_list(flag: str, raw: str) -> tuple[int, ...]:
    """The integers of a comma list, each once, where it first appears."""
    try:
        values = tuple(dict.fromkeys(int(tok) for tok in raw.split(",") if tok != ""))
    except ValueError as ex:
        raise UsageError(f"bad integer list {raw!r} for {flag}") from ex
    if any(v < 0 for v in values):
        raise UsageError(f"{flag} entries must be >= 0, got {raw!r}")
    return values


def _parse_x_list(raw: str) -> tuple:
    """The x values of ``--x``, each once; a fraction with denominator 1 is an int."""
    out = []
    for tok in raw.split(","):
        if tok == "":
            continue
        try:
            x = Fraction(tok) if "/" in tok else int(tok)
        except (ValueError, ZeroDivisionError) as ex:
            raise UsageError(f"bad x value {tok!r}") from ex
        out.append(x.numerator if x.denominator == 1 else x)
    return tuple(dict.fromkeys(out))


def _env_budget(name: str, default: int) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="verify",
        description="check truncated-hypergeometric congruence suites over a prime sweep",
    )
    ap.add_argument(
        "suites",
        nargs="*",
        metavar="suite",
        help="suite ids or aliases (default: every theorem suite)",
    )
    ap.add_argument("--p-min", type=int, default=5)
    ap.add_argument("--p-max", type=int, default=97)
    ap.add_argument(
        "--n", default=",".join(map(str, Sweep.n_values)), help="comma list of multipliers n"
    )
    ap.add_argument(
        "--r", default=",".join(map(str, Sweep.r_values)), help="comma list of shift indices r"
    )
    ap.add_argument(
        "--x", default=None, help="comma list of arguments (integers or a/b fractions)"
    )
    ap.add_argument(
        "--mod-exp",
        type=int,
        default=None,
        help="override the modulus exponent where a suite allows it",
    )
    ap.add_argument(
        "--engine", choices=("exact", "modular", "both"), default="both"
    )
    ap.add_argument(
        "--format", choices=("human", "json-lines", "csv"), default="human"
    )
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=None, help="write the report stream to a file")
    ap.add_argument(
        "--list", action="store_true", dest="list_suites", help="list suites and exit"
    )
    return ap


def parse_args(argv=None) -> argparse.Namespace:
    cfg = build_parser().parse_args(argv)
    cfg.suites = expand_selection(cfg.suites)
    if cfg.p_min < 5:
        raise UsageError("primes below 5 are outside the domain; use --p-min >= 5")
    if cfg.p_max < 5:
        raise UsageError("--p-max must be at least 5")
    if cfg.p_max < cfg.p_min:
        raise UsageError("--p-max must not be below --p-min")
    if cfg.workers < 1:
        raise UsageError("--workers must be at least 1")
    if cfg.mod_exp is not None and not 1 <= cfg.mod_exp <= MAX_EXPONENT:
        raise UsageError(f"--mod-exp must be between 1 and {MAX_EXPONENT}")
    cfg.fault = os.environ.get("VERIFY_FAULT_INJECT") or None
    if cfg.fault is not None and cfg.fault not in REGISTRY:
        raise UsageError(
            f"VERIFY_FAULT_INJECT={cfg.fault!r} names no suite; valid suites: "
            + ", ".join(REGISTRY)
        )
    cfg.sweep = Sweep(
        # --list prints a fixed table, so it skips the walk over the prime range
        primes=() if cfg.list_suites else primes_in(cfg.p_min, cfg.p_max),
        n_values=_parse_int_list("--n", cfg.n),
        r_values=_parse_int_list("--r", cfg.r),
        x_values=None if cfg.x is None else _parse_x_list(cfg.x),
        mod_exp=cfg.mod_exp,
        binomial_max=_env_budget("VERIFY_BUDGET_BINOMIAL", Sweep.binomial_max),
        series_max=_env_budget("VERIFY_BUDGET_SERIES", Sweep.series_max),
        identity_max=_env_budget("VERIFY_BUDGET_IDENTITY", Sweep.identity_max),
    )
    return cfg


def _human_params(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def _emit_human(rep: Report, text: str, out) -> None:
    """Write one record's line, and its oracle line if a failure has one."""
    mod = "exact" if rep.modulus == "exact" else f"mod {rep.modulus}"
    if rep.error is not None:
        out.write(f"ERROR {rep.suite} {_human_params(rep.params)}: {rep.error}\n")
        return
    tag = "PASS" if rep.passed else "FAIL"
    line = f"{tag} {rep.suite} {_human_params(rep.params)} ({mod})"
    if not rep.passed:
        line += f": lhs={rep.lhs} rhs={rep.rhs}"
        if rep.note:
            line += f" [{rep.note}]"
        if rep.oracle:
            line += f"\n  oracle: {rep.oracle}"
    out.write(line + "\n")


# the compact encoder of the json-lines summary record
_JSON = json.JSONEncoder(separators=(",", ":"))


def _ms(x) -> str:
    """``repr(round(x, 3))``: below 1e12, x to 3 decimals has at most 15
    digits, so its ``.3f`` text without trailing zeros is the shortest repr."""
    if 0.0 <= x < 1e12 and x.__class__ is float:
        text = f"{x:.3f}".rstrip("0")
        return text if text[-1] != "." else text + "0"
    return repr(round(x, 3))


def _emit_json(rep: Report, head: str, out) -> None:
    """Write one record as the compact ``json`` encoder would, after
    ``head``, its suite and params (`_Grid.shard`); note, oracle, error if set."""
    lhs = _quote(rep.lhs)
    line = (
        f'{head},"lhs":{lhs},"rhs":{lhs if rep.rhs is rep.lhs else _quote(rep.rhs)},'
        f'"modulus":{_quote(rep.modulus)},"pass":{"true" if rep.passed else "false"},'
        f'"engine":{_quote(rep.engine)},"elapsed_ms":{_ms(rep.elapsed_ms)}'
    )
    if rep.note is not None:
        line += ',"note":' + _quote(rep.note)
    if rep.oracle is not None:
        line += ',"oracle":' + _quote(rep.oracle)
    if rep.error is not None:
        line += ',"error":' + _quote(rep.error)
    out.write(line + "}\n")


_CSV_COLUMNS = ("suite", "params", "lhs", "rhs", "modulus", "pass", "engine", "elapsed_ms",
                "note", "oracle", "error")


def _emit_csv(rep: Report, params: str, writer) -> None:
    writer.writerow((rep.suite, params, rep.lhs, rep.rhs, rep.modulus,
                     "true" if rep.passed else "false", rep.engine, f"{rep.elapsed_ms:.3f}",
                     rep.note or "", rep.oracle or "", rep.error or ""))


# one record writer per format, picked once per shard, called with a record, its
# `_Grid.shard` text (which human ignores) and the sink; csv's writes to a csv.writer
_EMITTERS = {"human": _emit_human, "json-lines": _emit_json, "csv": _emit_csv}


def _config_echo(cfg: argparse.Namespace) -> dict:
    # the run's mathematical domain; worker count and output routing are
    # deliberately omitted so identical sweeps emit identical summaries
    sweep = cfg.sweep
    return {
        "suites": cfg.suites,
        "p_min": cfg.p_min,
        "p_max": cfg.p_max,
        "n": list(sweep.n_values),
        "r": list(sweep.r_values),
        "x": None if sweep.x_values is None else [str(x) for x in sweep.x_values],
        "mod_exp": sweep.mod_exp,
        "engine": cfg.engine,
    }


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(cfg: argparse.Namespace) -> int:
    """List the suites or run the sweep, one shard at a time; the exit code."""
    if cfg.list_suites:
        return _write(cfg, _list_suites)
    sweep = cfg.sweep
    jobs = (
        (sid, first, cfg.engine, sweep, cfg.fault, cfg.format)
        for sid in cfg.suites
        for first in REGISTRY[sid].gen.firsts(sweep)
    )
    workers = 1
    if cfg.workers > 1:
        # a pool task is a run of whole shards, so a shard keeps one worker busy at most
        jobs = list(jobs)
        workers = min(cfg.workers, len(jobs), _usable_cpus())
    if workers < 2:  # 0 when there is no shard
        return _write(cfg, lambda out: _report(cfg, (_shard(job, out) for job in jobs), out))
    # imported here: a serial run never pays for multiprocessing
    from multiprocessing import Pool

    with Pool(workers) as pool:
        # about 64 tasks per worker: few enough that the cost of a task stays
        # small next to its shards, many enough that the text of a task of
        # the largest shards stays small in both processes
        chunksize = max(1, len(jobs) // (workers * 64))
        shards = pool.imap(_pooled, jobs, chunksize=chunksize)
        return _write(cfg, partial(_report, cfg, shards))


def _shard(job: tuple, out) -> tuple[str, dict[str, int], InternalError | None]:
    """Run one shard, writing its records to ``out`` in the run's format;
    the suite id, the shard's summary row (instances, passed, failed and
    errors) and the `InternalError` that ended the shard, if one did.

    ``job`` is (suite id, first, engine, sweep, fault suite, format): the
    shard is the suite's instances at the value ``first`` of its first axis,
    which `_Grid.shard` enumerates here, in the process that runs them, each
    with its params text, and which run in order under one `Shard`.
    ``run_instance`` is looked up at each call: the benchmark's setup probe
    rebinds that name to stop a run at its first instance.
    """
    suite_id, first, engine, sweep, fault, fmt = job
    shard = Shard(suite_id, first, engine, sweep, fault)
    emit, sink = _EMITTERS[fmt], out
    if fmt == "csv":
        import csv  # only a csv run pays for the import

        sink = csv.writer(out, lineterminator="\n")
    head = f'{{"suite":{_quote(suite_id)},"params":' if fmt == "json-lines" else ""
    counts, error = {"passed": 0, "failed": 0, "errors": 0}, None
    try:
        for params, text in shard.suite.gen.shard(first, sweep, head):
            rep = run_instance(suite_id, params, shard)
            emit(rep, text, sink)
            counts["errors" if rep.error is not None else "passed" if rep.passed else "failed"] += 1
    except InternalError as ex:
        error = ex
    return suite_id, {"instances": sum(counts.values()), **counts}, error


def _pooled(job: tuple) -> tuple[str, str, dict[str, int], InternalError | None]:
    """`_shard` in a worker: the text of the shard's records, then its result."""
    buf = io.StringIO()
    suite_id, counts, error = _shard(job, buf)
    return buf.getvalue(), suite_id, counts, error


def _write(cfg: argparse.Namespace, emit) -> int:
    """Open the run's stream, ``--out`` or stdout, and return ``emit(stream)``.

    A stream that cannot be opened or written is a `UsageError`.
    """
    try:
        out = open(cfg.out, "w") if cfg.out else sys.stdout
    except OSError as ex:
        raise UsageError(f"cannot write --out {cfg.out!r}: {ex.strerror}") from ex
    # only the stream raises OSError in here: run_instance turns every
    # exception of a check into a record or an InternalError
    try:
        with out if cfg.out else nullcontext():
            code = emit(out)
            out.flush()
    except OSError as ex:
        if not cfg.out:
            # stdout is flushed once more at exit, where a failure
            # would print an "Exception ignored" message
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        target = f"--out {cfg.out!r}" if cfg.out else "stdout"
        raise UsageError(f"cannot write {target}: {ex.strerror or ex}") from ex
    return code


def _report(cfg: argparse.Namespace, shards, out) -> int:
    """Take each shard's result from `_shard`, or from `_pooled` with its
    text to write first; add its counts to its suite's row, raise its
    internal error if any, and write the summary to ``out``; the exit code."""
    if cfg.format == "csv":
        out.write(",".join(_CSV_COLUMNS) + "\n")
    rows: dict[str, dict[str, int]] = {}  # a suite's row starts at its first record
    totals = dict.fromkeys(("instances", "passed", "failed", "errors"), 0)
    internal_error = None
    t0 = time.perf_counter()
    try:
        for *text, suite_id, counts, error in shards:
            out.writelines(text)
            if counts["instances"]:
                row = rows.setdefault(suite_id, dict.fromkeys(counts, 0))
                for key, count in counts.items():
                    row[key] += count
                    totals[key] += count
            if error is not None:
                raise error
    except InternalError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        internal_error = str(ex)
    elapsed = time.perf_counter() - t0
    total, passed, failed, errors = totals.values()
    if cfg.format == "json-lines":
        summary = {
            "summary": {
                "version": __version__,
                **totals,
                "suites": rows,
                "config": _config_echo(cfg),
                "elapsed_s": round(elapsed, 3),
            }
        }
        if internal_error is not None:
            summary["summary"].update(status="internal-error", error=internal_error)
        out.write(_JSON.encode(summary) + "\n")
    elif cfg.format == "human" and internal_error is None:
        out.write(
            f"ran {total} instances: {passed} passed, {failed} failed, {errors} errors "
            f"in {elapsed:.1f}s (verify {__version__})\n"
        )
    if internal_error is not None:
        return 3
    return 1 if failed else 0


def _list_suites(out) -> int:
    width = max(len(s) for s in REGISTRY)
    for suite in REGISTRY.values():
        out.write(f"{suite.id:<{width}}  {suite.kind:<11}  {suite.description}\n")
    out.write("\naliases: " + ", ".join(ALIASES) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
