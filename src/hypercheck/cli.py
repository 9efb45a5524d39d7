"""Command-line driver.

``verify [suite|alias ...] [options]`` expands the selection against the
registry, enumerates instances over the requested prime/parameter sweep,
runs them (optionally across worker processes), and emits one line per
instance in human, json-lines, or csv form.

Exit codes: 0 all instances passed (or none ran; error records do not
fail a run), 1 at least one failing instance, in any suite kind, 2 usage
error (bad flag, budget or fault-injection variable, unwritable ``--out``),
3 internal inconsistency: the two engines disagreed, an engine self-check
raised `InternalError`, or a check raised an unexpected exception
(`run_instance` turns it into `InternalError`).  On exit 3 the run stops at
that instance; json-lines output still ends with its summary record, which
then also carries ``"status": "internal-error"`` and the ``"error"`` message.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool

from . import __version__
from .errors import InternalError, UsageError
from .padic import MAX_EXPONENT
from .suites import (
    ALIASES,
    REGISTRY,
    THEOREM_SUITES,
    Budgets,
    Report,
    Sweep,
    primes_in,
    run_instance,
)


@dataclass
class RunConfig:
    suites: list[str]
    p_min: int = 5
    p_max: int = 97
    n_values: tuple[int, ...] = (1, 2, 3)
    r_values: tuple[int, ...] = (0, 1, 2)
    x_values: tuple | None = None
    mod_exp: int | None = None
    engine: str = "both"
    format: str = "human"
    workers: int = 1
    out: str | None = None
    list_suites: bool = False
    fault: str | None = None
    budgets: Budgets = field(default_factory=Budgets)


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
    seen: set[str] = set()
    ordered = []
    for s in picked:
        if s not in seen:
            seen.add(s)
            ordered.append(s)
    return ordered


def _parse_int_list(flag: str, raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in raw.split(",") if tok != "")
    except ValueError as ex:
        raise UsageError(f"bad integer list {raw!r} for {flag}") from ex
    if any(v < 0 for v in values):
        raise UsageError(f"{flag} entries must be >= 0, got {raw!r}")
    return values


def _parse_x_list(raw: str) -> tuple:
    out = []
    for tok in raw.split(","):
        if tok == "":
            continue
        try:
            out.append(Fraction(tok) if "/" in tok else int(tok))
        except (ValueError, ZeroDivisionError) as ex:
            raise UsageError(f"bad x value {tok!r}") from ex
    return tuple(out)


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
    ap.add_argument("--n", default="1,2,3", help="comma list of multipliers n")
    ap.add_argument("--r", default="0,1,2", help="comma list of shift indices r")
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


def parse_args(argv=None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    suites = expand_selection(ns.suites)
    if ns.p_min < 5:
        raise UsageError("primes below 5 are outside the domain; use --p-min >= 5")
    if ns.p_max < 5:
        raise UsageError("--p-max must be at least 5")
    if ns.p_max < ns.p_min:
        raise UsageError("--p-max must not be below --p-min")
    if ns.workers < 1:
        raise UsageError("--workers must be at least 1")
    if ns.mod_exp is not None and not 1 <= ns.mod_exp <= MAX_EXPONENT:
        raise UsageError(f"--mod-exp must be between 1 and {MAX_EXPONENT}")
    fault = os.environ.get("VERIFY_FAULT_INJECT") or None
    if fault is not None and fault not in REGISTRY:
        raise UsageError(
            f"VERIFY_FAULT_INJECT={fault!r} names no suite; valid suites: "
            + ", ".join(REGISTRY)
        )
    return RunConfig(
        suites=suites,
        p_min=ns.p_min,
        p_max=ns.p_max,
        n_values=_parse_int_list("--n", ns.n),
        r_values=_parse_int_list("--r", ns.r),
        x_values=None if ns.x is None else _parse_x_list(ns.x),
        mod_exp=ns.mod_exp,
        engine=ns.engine,
        format=ns.format,
        workers=ns.workers,
        out=ns.out,
        list_suites=ns.list_suites,
        fault=fault,
        budgets=Budgets.from_env(),
    )


def _work(item):
    suite_id, params, engine, sweep, fault = item
    return run_instance(suite_id, params, engine, sweep, fault_suite=fault)


def _human_params(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def _emit_human(rep: Report, out) -> None:
    mod = "exact" if rep.modulus == "exact" else f"mod {rep.modulus}"
    if rep.error is not None:
        print(f"ERROR {rep.suite} {_human_params(rep.params)}: {rep.error}", file=out)
        return
    tag = "PASS" if rep.passed else "FAIL"
    line = f"{tag} {rep.suite} {_human_params(rep.params)} ({mod})"
    if not rep.passed:
        line += f": lhs={rep.lhs} rhs={rep.rhs}"
        if rep.note:
            line += f" [{rep.note}]"
    print(line, file=out)
    if not rep.passed and rep.oracle:
        print(f"  oracle: {rep.oracle}", file=out)


def _json_record(rep: Report) -> dict:
    rec = {
        "suite": rep.suite,
        "params": rep.params,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "modulus": rep.modulus,
        "pass": rep.passed,
        "engine": rep.engine,
        "elapsed_ms": round(rep.elapsed_ms, 3),
    }
    if rep.note is not None:
        rec["note"] = rep.note
    if rep.oracle is not None:
        rec["oracle"] = rep.oracle
    if rep.error is not None:
        rec["error"] = rep.error
    return rec


# one compact encoder for every json-lines record, summary and csv params cell
_JSON = json.JSONEncoder(separators=(",", ":"))


def _emit_json(rep: Report, out) -> None:
    print(_JSON.encode(_json_record(rep)), file=out)


_CSV_COLUMNS = (
    "suite",
    "params",
    "lhs",
    "rhs",
    "modulus",
    "pass",
    "engine",
    "elapsed_ms",
    "note",
    "oracle",
    "error",
)


def _emit_csv(rep: Report, writer) -> None:
    writer.writerow(
        [
            rep.suite,
            _JSON.encode(rep.params),
            rep.lhs,
            rep.rhs,
            rep.modulus,
            "true" if rep.passed else "false",
            rep.engine,
            f"{rep.elapsed_ms:.3f}",
            rep.note or "",
            rep.oracle or "",
            rep.error or "",
        ]
    )


class _Tally:
    """Per-suite pass/fail/error counts."""

    def __init__(self):
        self.by_suite: dict[str, dict[str, int]] = {}

    def add(self, rep: Report) -> None:
        row = self.by_suite.setdefault(
            rep.suite, {"instances": 0, "passed": 0, "failed": 0, "errors": 0}
        )
        row["instances"] += 1
        if rep.error is not None:
            row["errors"] += 1
        elif rep.passed:
            row["passed"] += 1
        else:
            row["failed"] += 1

    def total(self, key: str) -> int:
        return sum(row[key] for row in self.by_suite.values())


def _config_echo(cfg: RunConfig) -> dict:
    # the run's mathematical domain; worker count and output routing are
    # deliberately omitted so identical sweeps emit identical summaries
    return {
        "suites": cfg.suites,
        "p_min": cfg.p_min,
        "p_max": cfg.p_max,
        "n": list(cfg.n_values),
        "r": list(cfg.r_values),
        "x": None if cfg.x_values is None else [str(x) for x in cfg.x_values],
        "mod_exp": cfg.mod_exp,
        "engine": cfg.engine,
    }


def run(cfg: RunConfig) -> int:
    sweep = Sweep(
        primes=primes_in(cfg.p_min, cfg.p_max),
        n_values=cfg.n_values,
        r_values=cfg.r_values,
        x_values=cfg.x_values,
        mod_exp=cfg.mod_exp,
        budgets=cfg.budgets,
    )
    items = (
        (sid, params, cfg.engine, sweep, cfg.fault)
        for sid in cfg.suites
        for params in REGISTRY[sid].gen(sweep)
    )
    try:
        out = open(cfg.out, "w") if cfg.out else sys.stdout
    except OSError as ex:
        raise UsageError(f"cannot write --out {cfg.out!r}: {ex.strerror}") from ex
    close_out = cfg.out is not None
    writer = None
    if cfg.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
    tally = _Tally()
    internal_error = None
    t0 = time.perf_counter()
    try:
        workers = 1
        if cfg.workers > 1:
            # Pool.imap reads its input ahead anyway, so the pool gets a list
            items = list(items)
            workers = min(cfg.workers, len(items))
        if workers > 1:
            chunk = max(1, len(items) // (workers * 8))
            with Pool(workers) as pool:
                for rep in pool.imap(_work, items, chunksize=chunk):
                    _emit_one(rep, cfg, out, writer, tally)
        else:
            for item in items:
                _emit_one(_work(item), cfg, out, writer, tally)
    except InternalError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        internal_error = str(ex)
    elapsed = time.perf_counter() - t0
    total = tally.total("instances")
    failed = tally.total("failed")
    if cfg.format == "json-lines":
        summary = {
            "summary": {
                "version": __version__,
                "instances": total,
                "passed": tally.total("passed"),
                "failed": failed,
                "errors": tally.total("errors"),
                "suites": tally.by_suite,
                "config": _config_echo(cfg),
                "elapsed_s": round(elapsed, 3),
            }
        }
        if internal_error is not None:
            summary["summary"].update(status="internal-error", error=internal_error)
        print(_JSON.encode(summary), file=out)
    elif cfg.format == "human" and internal_error is None:
        print(
            f"ran {total} instances: {tally.total('passed')} passed, "
            f"{failed} failed, {tally.total('errors')} errors "
            f"in {elapsed:.1f}s (verify {__version__})",
            file=out,
        )
    if close_out:
        out.close()
    if internal_error is not None:
        return 3
    return 1 if failed else 0


def _emit_one(rep: Report, cfg: RunConfig, out, writer, tally: _Tally) -> None:
    tally.add(rep)
    if cfg.format == "human":
        _emit_human(rep, out)
    elif cfg.format == "json-lines":
        _emit_json(rep, out)
    else:
        _emit_csv(rep, writer)


def _list_suites(out) -> None:
    width = max(len(s) for s in REGISTRY)
    for suite in REGISTRY.values():
        print(f"{suite.id:<{width}}  {suite.kind:<11}  {suite.description}", file=out)
    print(file=out)
    print("aliases: " + ", ".join(ALIASES), file=out)


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
        if cfg.list_suites:
            _list_suites(sys.stdout)
            return 0
        return run(cfg)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
