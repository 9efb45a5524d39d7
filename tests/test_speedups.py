"""Parity of the compiled series kernel with the pure-Python one.

The committed ``_speedups.c`` is compiled into a temporary directory (never
into the package, where the dispatcher would pick it up) and loaded with
importlib.  Skipped when no C compiler or ``Python.h`` is available.
"""

import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hypercheck
from hypercheck import _kernel, _kernel_py
from hypercheck.errors import NegativeValuation, PoleInLowerParameter

C_SOURCE = Path(hypercheck.__file__).with_name("_speedups.c")


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = Path(sysconfig.get_paths()["include"])
    if shutil.which(cc[0]) is None or not (include / "Python.h").exists():
        pytest.skip("no C compiler or Python.h to build the compiled kernel")
    out = tmp_path_factory.mktemp("speedups") / (
        "_speedups" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    proc = subprocess.run(
        [*cc, "-shared", "-fPIC", "-O2", f"-I{include}", str(C_SOURCE), "-o", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("hypercheck._speedups", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outcome(kernel, window):
    try:
        return kernel.series_window_mod(*window)
    except (NegativeValuation, PoleInLowerParameter) as ex:
        return type(ex), str(ex)


def assert_same(compiled, window):
    upper, lower, zn, zd, _, k_stop, p, e = window
    assert _kernel._fits_compiled(upper, lower, zn, zd, k_stop, p, e)
    assert outcome(compiled, window) == outcome(_kernel_py, window)


HALF = ((1, 2), (1, 2))  # the 2F1 at x = 1/2


@pytest.mark.parametrize(
    "window, expect",
    [
        ((HALF, ((1, 1),), 1, 1, 0, 7**2, 7, 2), int),  # p^r truncation
        ((HALF, ((1, 1),), 1, 1, 2 * 5, 3 * 5, 5, 6), int),  # block r = 2
        ((((-3, 1), (1, 2)), ((1, 1),), 1, 1, 0, 40, 7, 3), int),  # dead upper
        ((((1, 2), (1, 3)), ((-2, 1),), 1, 1, 0, 10, 7, 2), PoleInLowerParameter),
        (((), (), 1, 1, 0, 12, 5, 2), NegativeValuation),  # 1/5!
    ],
)
def test_compiled_kernel_matches_pure_on_edge_windows(compiled, window, expect):
    assert_same(compiled, window)
    got = outcome(_kernel_py, window)
    assert (got[0] if isinstance(got, tuple) else type(got)) is expect


@st.composite
def windows(draw):
    p = draw(st.sampled_from((5, 7, 11, 13)))
    unit_den = st.integers(min_value=1, max_value=12).filter(lambda d: d % p)
    param = st.tuples(st.integers(min_value=-3 * p, max_value=3 * p), unit_den)
    k_stop = draw(
        st.one_of(
            st.sampled_from((p, p * p, p**3)),
            st.integers(min_value=0, max_value=4 * p),
        )
    )
    return (
        tuple(draw(st.lists(param, max_size=3))),
        tuple(draw(st.lists(param, max_size=2))),
        draw(st.integers(min_value=-40, max_value=40)),
        draw(unit_den),
        draw(st.integers(min_value=0, max_value=k_stop)),
        k_stop,
        p,
        draw(st.integers(min_value=1, max_value=6)),
    )


@given(windows())
def test_compiled_kernel_matches_pure_on_random_windows(compiled, window):
    assert_same(compiled, window)
