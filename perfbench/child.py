"""The half of the benchmark that runs inside one `verify` process.

    python3 perfbench/child.py setup -- VERIFY_ARGS...
    python3 perfbench/child.py trace SPANS_FILE -- VERIFY_ARGS...

``setup`` runs ``verify`` up to the point where the first instance would
start, then exits 0.  The parent times
the whole process, so the figure covers interpreter start, imports,
argument parsing and instance generation, and nothing after.

``trace`` wraps the public entry points of each hypercheck module (the
table in `install`), runs ``verify`` to completion and pickles the spans
to SPANS_FILE before exiting with ``verify``'s exit code.  A span is the
tuple ``(name, start, end, parent, instance, note)``: ``parent`` is the
index of the enclosing span or -1, ``instance`` the ordinal of the
``run_instance`` call it belongs to (0 outside any), and ``note`` the
series length ``k_stop`` for kernel and oracle calls, ``(suite id, error?)``
for ``run_instance``, else None.

The hypercheck package must be importable (the parent sets PYTHONPATH).
"""

from __future__ import annotations

import gc
import inspect
import pickle
import sys
import time
import types

from hypercheck import _kernel, cli, identities, padic, series, special, suites


def rebind(old, new) -> None:
    """Point every module global and closure cell that holds `old` at `new`.

    Modules import each other's functions by name (``suites`` binds
    ``residue_from_rational``; the identity suites capture their case
    builders in closures), so patching one module attribute would miss
    calls.  Class attributes are never touched here: wrap methods with
    `setattr` on the class.
    """
    module_dicts = {
        id(m.__dict__) for name, m in sys.modules.items() if name.split(".")[0] == "hypercheck"
    }
    own_cells = {id(c) for c in new.__closure__ or ()}
    for ref in gc.get_referrers(old):
        if isinstance(ref, dict) and id(ref) in module_dicts:
            for key, value in list(ref.items()):
                if value is old:
                    ref[key] = new
        elif isinstance(ref, types.CellType) and id(ref) not in own_cells:
            ref.cell_contents = new


def public_functions(module) -> list[str]:
    """Names of the functions a module defines (not imports) without a leading underscore."""
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack = [-1]
        self._instance = 0
        self._next_instance = 1

    def wrap(self, name: str, fn, note=None, starts_instance: bool = False):
        """A wrapper around `fn` that records one span per call.

        `note(args, kwargs, result)` extracts the span's note; `result` is
        None when the call raised.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            outer = self._instance
            if starts_instance:
                self._instance = self._next_instance
                self._next_instance += 1
            instance = self._instance
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                self._instance = outer
                spans[idx] = (
                    name,
                    t0,
                    t1,
                    parent,
                    instance,
                    None if note is None else note(args, kwargs, result),
                )

        return traced

    def wrap_function(self, module, attr: str, layer: str, **kw) -> None:
        old = getattr(module, attr, None)
        if old is None:
            print(f"perfbench: {module.__name__}.{attr} is gone; not traced", file=sys.stderr)
            return
        rebind(old, self.wrap(f"{layer}.{attr}", old, **kw))

    def wrap_method(self, cls, attr: str, name: str) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr)))


def _arg(pos: int, key: str):
    def note(args, kwargs, result):
        return args[pos] if len(args) > pos else kwargs[key]

    return note


def _instance_note(args, kwargs, result):
    suite_id = args[0] if args else kwargs["suite_id"]
    return suite_id, result is None or result.error is not None


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points.

    ``padic`` is traced only at context construction and rational
    reduction: its other functions and the Residue/ScaledUnit operators run
    once per term, and wrapping them would mostly time the tracer.
    """
    tracer.wrap_function(_kernel, "series_window_mod", "_kernel", note=_arg(5, "k_stop"))
    for attr in public_functions(series):
        note = _arg(2, "k_stop") if attr == "window_sum_exact" else None
        tracer.wrap_function(series, attr, "series", note=note)
    tracer.wrap_method(series.QuarticFamily, "term_scaled", "series.term_scaled")
    tracer.wrap_method(padic.PrimePower, "__init__", "padic.PrimePower")
    tracer.wrap_function(padic, "residue_from_rational", "padic")
    for module, layer in ((special, "special"), (identities, "identities")):
        for attr in public_functions(module):
            tracer.wrap_function(module, attr, layer)
    tracer.wrap_function(suites, "instances_for", "suites")
    tracer.wrap_function(suites, "run_instance", "suites", note=_instance_note, starts_instance=True)
    tracer.wrap_function(cli, "run", "cli")


class _FirstInstance(Exception):
    pass


def _stop(*args, **kwargs):
    raise _FirstInstance


def setup(argv: list[str]) -> int:
    rebind(suites.run_instance, _stop)
    try:
        code = cli.main(argv)
    except _FirstInstance:
        code = 0
    return code


def trace(spans_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv)
    with open(spans_file, "wb") as fh:
        pickle.dump(tracer.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return code


def main(args: list[str]) -> int:
    split = args.index("--")
    head, argv = args[:split], args[split + 1 :]
    if head == ["setup"]:
        return setup(argv)
    if len(head) == 2 and head[0] == "trace":
        return trace(head[1], argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
