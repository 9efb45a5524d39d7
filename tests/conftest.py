from hypothesis import settings

from hypercheck.suites import REGISTRY, Shard, Sweep, primes_in, run_instance

# the sandbox pins everything to one contended core, so per-example wall-clock
# deadlines flake on cold caches; example counts stay at their defaults
settings.register_profile("single-core", deadline=None)
settings.load_profile("single-core")


def points(suite_id, sweep):
    """Every params dict of ``suite_id`` over ``sweep``, in generation order,
    enumerated as the runner enumerates them: shard by shard."""
    gen = REGISTRY[suite_id].gen
    for first in gen.firsts(sweep):
        for params, _ in gen.shard(first, sweep):
            yield params


def sweep_reports(suite_id, sweep, engine="both"):
    """The report of every instance of ``suite_id`` over ``sweep``, run as the
    runner runs them: each shard (value of the first axis) under one `Shard`."""
    gen = REGISTRY[suite_id].gen
    for first in gen.firsts(sweep):
        shard = Shard(suite_id, first, engine, sweep, None)
        for params, _ in gen.shard(first, sweep):
            yield run_instance(suite_id, params, shard)


def run_one(suite_id, params, engine="modular", sweep=None, fault_suite=None):
    """The report of one instance, run in a shard of its own (at
    ``params["p"]``), whose modulus and rows no other call shares; without
    a ``sweep``, the check gets the primes 5..97 and `Sweep`'s default caps,
    whatever the environment says."""
    sweep = sweep or Sweep(primes_in(5, 97))
    shard = Shard(suite_id, params.get("p"), engine, sweep, fault_suite)
    return run_instance(suite_id, params, shard)


# acceptance criteria results recorded by tests/test_acceptance.py;
# echoed after the run so the one-line verdicts survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
