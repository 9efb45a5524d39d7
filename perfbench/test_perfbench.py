"""Tests of the benchmark's correctness gate and tracer on small sweeps.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import gate
import layers
import run

SMALL = ("thm1", "--p-max", "31")


def _pin_small(tmp_path: Path, args=SMALL) -> gate.Pin:
    out = tmp_path / "pin.jsonl"
    sample = run.run_verify(args, out)
    assert sample.exit_code == 0
    return gate.make_pin(out, sample.exit_code)


def test_fault_injection_fails_every_instance(tmp_path):
    pin = _pin_small(tmp_path)
    out = tmp_path / "fault.jsonl"
    sample = run.run_verify(SMALL, out, env={"VERIFY_FAULT_INJECT": "thm1"})
    assert sample.exit_code == 3  # engines disagree under `both`
    assert gate.check_stream(pin, out, sample.exit_code)[0] == pin.instances > 0


def test_gate_counts_differing_records_and_ignores_timings(tmp_path):
    pin = _pin_small(tmp_path)
    lines = (tmp_path / "pin.jsonl").read_bytes().splitlines(keepends=True)
    retimed = [line.replace(b'"elapsed_ms":', b'"elapsed_ms":9') for line in lines]
    retimed[-1] = retimed[-1].replace(b'"elapsed_s":', b'"elapsed_s":9')
    out = tmp_path / "edited.jsonl"
    out.write_bytes(b"".join(retimed))
    assert gate.check_stream(pin, out, 0) == (0, pin.instances)
    assert gate.check_stream(pin, out, 1)[0] == pin.instances
    edited = list(retimed)
    for i in (0, 5):
        edited[i] = edited[i].replace(b'"pass":true', b'"pass":false')
    out.write_bytes(b"".join(edited))
    assert gate.check_stream(pin, out, 0)[0] == 2
    out.write_bytes(b"".join(retimed[:-1]))  # summary missing
    assert gate.check_stream(pin, out, 0)[0] == pin.instances


def _traced_spans(tmp_path: Path, name: str) -> list:
    spans = tmp_path / f"{name}.pickle"
    sample = run.run_traced(
        ("thm1", "identity-alt", "--p-max", "13"),
        tmp_path / f"{name}.jsonl",
        spans,
        env={"VERIFY_BUDGET_IDENTITY": "8"},
    )
    assert sample.exit_code == 0
    return layers.load_spans(spans)


def test_traced_run_self_times_nest_and_counts_repeat(tmp_path):
    spans = _traced_spans(tmp_path, "a")
    assert spans and all(s is not None for s in spans)
    own = layers.self_times(spans)
    children = defaultdict(float)
    for (_, _, _, parent, _, _), self_s in zip(spans, own):
        if parent >= 0:
            children[parent] += self_s
    for parent, total in children.items():
        _, start, end, _, _, _ = spans[parent]
        assert total <= end - start
    assert all(s >= 0 for s in own)

    metrics = layers.layer_metrics(spans)
    # by-name imports and closures are traced too
    assert metrics["padic.residue_from_rational.calls"][0] > 0
    assert metrics["identities.calls"][0] == 9
    assert metrics["suites.instances"][0] == 9 + 4 * 4
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    again = layers.layer_metrics(_traced_spans(tmp_path, "b"))
    assert counts == {k: v for k, (v, unit) in again.items() if unit == "count"}


def test_core_speed_probe_reports_a_factor_and_stops(tmp_path):
    with run.one_cpu(), run.core_speed() as factor:
        assert factor == []
        run.run_setup_probe(SMALL, tmp_path / "setup.jsonl")
    assert len(factor) == 1 and 0.1 < factor[0] < 10


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "modular-p499",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
