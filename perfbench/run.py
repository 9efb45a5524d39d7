"""Benchmark of the ``verify`` batch checker on four fixed sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --pin

It runs ``src/hypercheck`` of the tree it sits in, from source.  The
sweeps are fixed, because their pinned streams are the correctness oracle;
``--seed`` only shuffles the order of workloads (``all``) and of the two
runs in a traced pair, and is recorded.

Each timed run is one fresh ``verify ARGS --format json-lines --out FILE
--workers 1`` process, so every run pays for cold module caches, as users
do.  The runs are back to back (a closed loop with one client).  Every
record stream is checked against the one pinned from the seed commit
(`gate`); a run whose stream differs counts its differing instances as
failed.  ``failed_frac`` is the result's ``failed`` / ``attempted``; it is
not among the metrics because it is 0 on every good run.

``--trace 0`` prints the end-to-end metrics, medians over the runs that
fit in ``--seconds`` (at least one):

- ``wall_s``: spawn to exit of the ``verify`` process;
- ``cpu_s``: its user plus system CPU time;
- ``setup_s``: separate processes that stop where the first instance
  would start (interpreter start, imports, argument parsing, instance
  generation; see ``child.py``), three before each timed run and three
  after the last, so it does not inflate the two above;
- ``instances_per_s``: instances / (``wall_s`` - ``setup_s``);
- ``peak_rss_mb``: maximum resident memory of the process.

Every time is rescaled to a reference core speed.  On a shared host the
same run takes up to 1.5x as long while another tenant loads its core, in
spells of seconds to minutes, so raw times spread 0.15-0.4 (quartile
distance over median) from run to run (2-vCPU Intel Xeon VM).  Each measured process therefore
runs pinned to one CPU beside ``speed.py``, which times a fixed loop there
throughout; the time is multiplied by REFERENCE_LOOP_S / (median loop
time).  The raw times and factors are in the line before the result.

``--trace 1`` runs pairs of one plain and one traced process (the seed
shuffles their order) and prints the per-layer metrics of `layers` plus
``cli.records`` and ``trace_overhead_frac`` (traced CPU / plain CPU - 1),
medians over the pairs, rescaled the same way.

``--workload all`` does both for every workload, in seed-shuffled order,
prints every metric with its unit, and exits 1 if any record differed.
``--pin`` rewrites ``perfbench/pinned`` from the checked-out code; run it
only on a commit whose streams are known good.

The last stdout line of a single-workload run is the result JSON; the
line before it records the environment and every raw measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import gate
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
# What the `verify` console script runs, plus a report of the process's own
# peak RSS.  The kernel's ru_maxrss of a child also counts the parent's RSS
# at fork time, so it would move with this script's memory, not verify's.
ENTRY = """import sys
from hypercheck.cli import main
code = main()
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")), end="")
sys.exit(code)
"""

SETUP_PROBES = 3  # before each timed run and after the last
# speed.py's loop time on a core nobody else loads (Intel Xeon, 2 vCPUs);
# timings are rescaled to a core that runs the loop this fast.
REFERENCE_LOOP_S = 170e-6
# A single invocation must end within 180 s; children are killed past this.
DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "theorems-both",
            (),
            "north-star default sweep, 43,689 instances, engine both: exact oracle, "
            "ScaledUnit path, padic contexts, emission",
        ),
        Workload(
            "modular-p499",
            ("thm1", "rv", "chain-block", "--engine", "modular", "--p-max", "499"),
            "thm1 rv chain-block to p=499, modular only: about 90% series kernel, "
            "exact oracle bypassed, few records",
        ),
        Workload(
            "conj-p499",
            ("conj", "--p-max", "499"),
            "mod-p^3 conjectures to p=499: Bernoulli/Euler right-hand sides in special, "
            "kernel at p^(3+w)",
        ),
        Workload(
            "identities-300",
            ("identities",),
            "exact identities to index 300, no prime: Fraction work in identities, "
            "96,016 records, largest item list and memory",
        ),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    exit_code: int
    stdout: str


def _env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("VERIFY_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra or {})
    return env


def spawn(argv: list[str], deadline: float | None, env: dict | None = None) -> Sample:
    """Run one child to completion and take its wall time and CPU time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(env), stdout=subprocess.PIPE, text=True)
    timer = None
    if deadline is not None:
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        if timer is not None:
            timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, proc.returncode, out)


@contextmanager
def core_speed():
    """Run speed.py beside the body, on the same CPU; yields the speed factor
    list, which receives REFERENCE_LOOP_S / (median loop time) on exit."""
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "speed.py")], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    factor: list[float] = []
    try:
        probe.stdout.readline()
        yield factor
    finally:
        probe.terminate()
        try:
            out, _ = probe.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            probe.kill()
            out, _ = probe.communicate()
        times = json.loads(out.splitlines()[-1]) if out.strip() else []
        factor.append(REFERENCE_LOOP_S / statistics.median(times) if times else 1.0)


def peak_rss_mb(sample: Sample) -> float:
    """The VmHWM line ENTRY printed last, in MB (0 if the process died before it)."""
    fields = (sample.stdout.splitlines() or [""])[-1].split()
    return int(fields[1]) / 1024.0 if fields[:1] == ["VmHWM:"] else 0.0


def verify_args(args, out: Path) -> list[str]:
    return [*args, "--format", "json-lines", "--out", str(out), "--workers", "1"]


def verify_argv(args, out: Path) -> list[str]:
    return [sys.executable, "-c", ENTRY, *verify_args(args, out)]


def run_verify(args, out: Path, deadline=None, env=None) -> Sample:
    return spawn(verify_argv(args, out), deadline, env)


def run_traced(args, out: Path, spans: Path, deadline=None, env=None) -> Sample:
    child = [sys.executable, str(HERE / "child.py"), "trace", str(spans), "--"]
    return spawn([*child, *verify_args(args, out)], deadline, env)


def run_setup_probe(args, out: Path, deadline=None) -> Sample:
    child = [sys.executable, str(HERE / "child.py"), "setup", "--"]
    return spawn([*child, *verify_args(args, out)], deadline)


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    samples: dict  # every run made: kind -> its measurements


def _until(seconds: float, step):
    """Call step() until the next call would likely end past `seconds` (at least once)."""
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        s0 = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - s0)
        if time.perf_counter() - t0 + longest > seconds:
            return


@contextmanager
def one_cpu():
    """Pin this thread, and so every child started meanwhile, to one CPU, so
    that a measured run and its speed probe share a core."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def measure(w: Workload, pin: gate.Pin, seconds: float, work: Path, deadline=None) -> Outcome:
    out = work / "records.jsonl"
    setups: list[tuple[Sample, float]] = []  # (setup run, core speed factor)
    samples: list[tuple[Sample, float]] = []
    failed = 0

    def time_setup():
        # spread over the run, so that they do not all land in one slow spell of the host
        with core_speed() as factor:
            block = [run_setup_probe(w.args, work / "setup.jsonl", deadline) for _ in range(SETUP_PROBES)]
        setups.extend((p, factor[0]) for p in block)

    def step():
        nonlocal failed
        time_setup()
        with core_speed() as factor:
            sample = run_verify(w.args, out, deadline)
        samples.append((sample, factor[0]))
        failed += gate.check_stream(pin, out, sample.exit_code)[0]

    with one_cpu():
        _until(seconds, step)
        time_setup()
    attempted = pin.instances * len(samples)
    if any(p.exit_code for p, _ in setups):
        failed = attempted
    med = statistics.median
    setup_s = med(p.wall_s * f for p, f in setups)
    wall_s = med(s.wall_s * f for s, f in samples)
    values = {
        "wall_s": wall_s,
        "cpu_s": med(s.cpu_s * f for s, f in samples),
        "setup_s": setup_s,
        "instances_per_s": pin.instances / max(wall_s - setup_s, 1e-9),
        "peak_rss_mb": med(peak_rss_mb(s) for s, _ in samples),
    }
    return Outcome(
        attempted,
        failed,
        {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()},
        {
            "verify_wall_s": [s.wall_s for s, _ in samples],
            "verify_cpu_s": [s.cpu_s for s, _ in samples],
            "verify_speed_factor": [f for _, f in samples],
            "setup_wall_s": [p.wall_s for p, _ in setups],
            "setup_speed_factor": [f for _, f in setups],
        },
    )


def measure_traced(w: Workload, pin: gate.Pin, seconds: float, work: Path, rng, deadline=None) -> Outcome:
    out, spans_file = work / "records.jsonl", work / "spans.pickle"
    pairs: list[dict] = []
    attempted = failed = 0

    def step():
        nonlocal attempted, failed
        cpu: dict[str, float] = {}
        for kind in rng.sample(["plain", "traced"], 2):
            spans_file.unlink(missing_ok=True)
            with core_speed() as factor:
                if kind == "plain":
                    sample = run_verify(w.args, out, deadline)
                else:
                    sample = run_traced(w.args, out, spans_file, deadline)
            cpu[kind] = sample.cpu_s * factor[0]
            bad, records = gate.check_stream(pin, out, sample.exit_code)
            attempted += pin.instances
            failed += bad
            if kind == "traced":
                metrics = {
                    name: (_rescale(value, unit, factor[0]), unit)
                    for name, (value, unit) in layers.layer_metrics(layers.load_spans(spans_file)).items()
                }
                metrics["cli.records"] = (records, "count")
        metrics["trace_overhead_frac"] = (cpu["traced"] / cpu["plain"] - 1.0, "ratio")
        pairs.append(metrics)

    with one_cpu():
        _until(seconds, step)
    merged = {
        name: (statistics.median(p[name][0] for p in pairs), unit)
        for name, (_, unit) in pairs[0].items()
    }
    overhead = [p["trace_overhead_frac"][0] for p in pairs]
    return Outcome(attempted, failed, merged, {"trace_overhead_frac": overhead})


def _rescale(value: float, unit: str, factor: float) -> float:
    """A per-layer value at the reference core speed (see core_speed)."""
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def environment(w: Workload | None, seed: int) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import hypercheck; print(hypercheck.backend_name())"],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
    )
    rev = "unknown"  # an exported tree has no .git; never look above ROOT for one
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    meta = {
        "backend": probe.stdout.strip() or "unavailable",
        "python": platform.python_version(),
        "git_revision": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }
    if w is not None:
        meta["workload"] = w.name
        meta["argv"] = ["verify", *verify_args(w.args, Path("<tmp>"))]
    return meta


@contextmanager
def work_dir():
    """A fresh scratch directory inside the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass


def pin_all() -> int:
    with work_dir() as work:
        for w in WORKLOADS.values():
            out = work / "records.jsonl"
            sample = run_verify(w.args, out)
            gate.save_pin(w.name, gate.make_pin(out, sample.exit_code), list(w.args))
            print(f"pinned {w.name}: exit {sample.exit_code}, {out.stat().st_size} bytes")
    return 0


def report_all(seed: int, seconds: float) -> int:
    """Every metric of every workload, by name and unit; exit 1 if any record differed."""
    rng = random.Random(seed)
    print(json.dumps({"meta": environment(None, seed)}))
    any_failed = False
    for name in rng.sample(sorted(WORKLOADS), len(WORKLOADS)):
        w = WORKLOADS[name]
        pin = gate.load_pin(name)
        with work_dir() as work:
            e2e = measure(w, pin, seconds, work)
            traced = measure_traced(w, pin, seconds, work, rng)
        attempted = e2e.attempted + traced.attempted
        failed = e2e.failed + traced.failed
        any_failed |= failed > 0
        print(f"\n{name}  (verify {' '.join(w.args) or '<defaults>'}; {w.why})")
        print(f"  {'failed_frac':<40} {failed / attempted:>16.6g} ratio  ({failed}/{attempted})")
        for metric, (value, unit) in e2e.metrics.items():
            print(f"  {metric:<40} {value:>16.6g} {unit}")
        for metric, (value, unit) in sorted(traced.metrics.items()):
            print(f"  {metric:<40} {value:>16.6g} {unit}")
    return 1 if any_failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="re-pin the expected record streams")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hypercheck" / "cli.py").is_file():
        print(f"perfbench: no hypercheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin:
        return pin_all()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return report_all(args.seed, args.seconds)

    w = WORKLOADS[args.workload]
    pin = gate.load_pin(w.name)
    meta = environment(w, args.seed)
    deadline = time.perf_counter() + DEADLINE_S
    with work_dir() as work:
        if args.trace:
            outcome = measure_traced(w, pin, args.seconds, work, random.Random(args.seed), deadline)
        else:
            outcome = measure(w, pin, args.seconds, work, deadline)
    meta["samples"] = outcome.samples
    print(json.dumps({"meta": meta}))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
