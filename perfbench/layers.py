"""Per-layer metrics from the spans of one traced `verify` run.

A span's layer is its name up to the first dot (``_kernel``, ``series``,
``padic``, ``special``, ``identities``, ``suites``, ``cli``).  Its self
time is its duration minus the durations of its direct children; calls
nest on one thread, so children never overlap each other or stick out of
their parent.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from pathlib import Path

LAYERS = ("_kernel", "series", "padic", "special", "identities", "suites", "cli")

# The suites the four workloads run; each gets a `suite.<id>.s` metric on
# every workload (0 where it does not run) so the metric set is fixed.
SUITE_IDS = (
    "thm1", "sun", "rv", "corollary", "lemma1", "lemma2", "lemma4", "lemma4-binom",
    "lemma5", "lemma5-poch", "babbage", "chain-reflect", "chain-jet", "chain-backward",
    "chain-binom", "chain-forward", "chain-block", "chain-convolution", "chain-weighted",
    "chain-product", "gessel", "conj-1/2", "conj-1/3", "conj-1/4", "conj-1/6",
    "identity-alt", "identity-harmonic", "identity-tail", "identity-shifted",
    "identity-chain", "identity-partfrac", "identity-convolution", "identity-taylor",
    "identity-negation",
)

# Function spans whose calls and self time are reported on their own,
# besides the layer totals; True adds the summed series length `terms`.
FUNCTIONS = (
    ("series.window_sum_exact", True),
    ("series.term_scaled", False),
    ("series.binomial_scaled", False),
    ("series.factorial_scaled", False),
    ("series.pochhammer_exact", False),
    ("padic.PrimePower", False),
    ("padic.residue_from_rational", False),
    ("special.bernoulli_polynomial_mod", False),
    ("special.euler_polynomial_mod", False),
)


def load_spans(path: Path) -> list:
    """Spans that child.py pickled during this benchmark run (empty if it died first).

    Only ever called on a file the benchmark's own child just wrote.
    """
    if not path.exists():
        return []
    with path.open("rb") as fh:
        return pickle.load(fh)


def suite_metric(suite_id: str) -> str:
    return f"suite.{suite_id.replace('/', '_')}.s"


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one traced run."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    terms: dict[str, int] = defaultdict(int)
    fn_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    suite_s: dict[str, float] = defaultdict(float)
    instance_ms: list[float] = []
    errors = 0
    generate_s = 0.0
    for (name, start, end, _, _, note), self_s in zip(spans, own):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        fn_self[name] += self_s
        layer_calls[layer] += 1
        layer_self[layer] += self_s
        if isinstance(note, int):
            terms[name] += note
        if name == "suites.run_instance":
            suite_id, failed = note
            suite_s[suite_id] += end - start
            instance_ms.append((end - start) * 1000.0)
            errors += failed
        elif name == "suites.instances_for":
            generate_s += end - start
    instance_ms.sort()

    # metric names start with a letter, so the `_kernel` layer reports as `kernel`
    kernel = "_kernel.series_window_mod"
    m: dict[str, tuple[float, str]] = {
        "kernel.calls": (calls[kernel], "count"),
        "kernel.terms": (terms[kernel], "count"),
        "kernel.terms_per_s": (
            terms[kernel] / layer_self["_kernel"] if layer_self["_kernel"] else 0.0,
            "1/s",
        ),
    }
    for layer in LAYERS:
        m[f"{layer.lstrip('_')}.self_s"] = (layer_self[layer], "s")
    for layer in ("special", "identities"):
        m[f"{layer}.calls"] = (layer_calls[layer], "count")
    for name, with_terms in FUNCTIONS:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (fn_self[name], "s")
        if with_terms:
            m[f"{name}.terms"] = (terms[name], "count")
    m.update(
        {
            "suites.instances": (calls["suites.run_instance"], "count"),
            "suites.errors": (errors, "count"),
            "suites.generate_s": (generate_s, "s"),
            "suites.instance_p50_ms": (_quantile(instance_ms, 0.50), "ms"),
            "suites.instance_p99_ms": (_quantile(instance_ms, 0.99), "ms"),
        }
    )
    for suite_id in SUITE_IDS:
        m[suite_metric(suite_id)] = (suite_s[suite_id], "s")
    return m
