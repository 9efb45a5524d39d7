"""README claims that name program values: the suite table and the budget defaults."""

import re
from pathlib import Path

from hypercheck.suites import REGISTRY, Sweep

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_suite_table_names_exactly_the_registry():
    table = README.split("| group | suites | checks |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[2] for line in table.splitlines() if line.startswith("| ")]
    named = [sid for cell in rows for sid in re.findall(r"`([^`]+)`", cell)]
    assert sorted(named) == sorted(REGISTRY)


def test_budget_defaults_match_the_sweep():
    defaults = dict(re.findall(r"`VERIFY_BUDGET_(\w+)` \([^)]*default (\d+)\)", README))
    assert {name.lower() + "_max": int(value) for name, value in defaults.items()} == {
        "binomial_max": Sweep.binomial_max,
        "series_max": Sweep.series_max,
        "identity_max": Sweep.identity_max,
    }
