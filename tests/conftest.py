from hypothesis import settings

from hypercheck.suites import REGISTRY, Shard, run_instance

# the sandbox pins everything to one contended core, so per-example wall-clock
# deadlines flake on cold caches; example counts stay at their defaults
settings.register_profile("single-core", deadline=None)
settings.load_profile("single-core")


def sweep_reports(suite_id, sweep, engine="both"):
    """The report of every instance of ``suite_id`` over ``sweep``, run as the
    runner runs them: each shard (value of the first axis) under one `Shard`."""
    gen = REGISTRY[suite_id].gen
    for first in gen.firsts(sweep):
        shard = Shard(suite_id, first, engine, sweep, None)
        for params in gen.points(first, sweep):
            yield run_instance(suite_id, params, engine, sweep, None, shard)


# acceptance criteria results recorded by tests/test_acceptance.py;
# echoed after the run so the one-line verdicts survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
