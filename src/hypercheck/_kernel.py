"""Series-kernel backend selection.

The compiled kernel (``_speedups``, Cython) is preferred when it was built
and the call fits its 64-bit domain; otherwise the pure-Python kernel runs.
Both kernels give identical results and are cross-checked in the test
suite.
"""

from __future__ import annotations

from . import _kernel_py

try:
    from . import _speedups
except ImportError:  # extension not built; pure Python carries on
    _speedups = None

# Domain limits of the compiled kernel: modulus and parameter magnitudes
# must keep every product inside 64x64 -> 128 bit arithmetic.
_MAX_MODULUS = 1 << 62
_MAX_PARAM = 1 << 30
_MAX_K = 1 << 31


def backend_name() -> str:
    """Which kernel actually runs for in-range calls: 'ext' or 'pure'."""
    return "pure" if _speedups is None else "ext"


def _fits_compiled(upper, lower, zn, zd, k_stop, p, e) -> bool:
    if p**e >= _MAX_MODULUS or k_stop >= _MAX_K:
        return False
    for num, den in (*upper, *lower):
        if abs(num) >= _MAX_PARAM or den >= _MAX_PARAM:
            return False
    return abs(zn) < _MAX_MODULUS and zd < _MAX_MODULUS


def series_window_mod(upper, lower, zn, zd, k_start, k_stop, p, e) -> int:
    if _speedups is not None and _fits_compiled(upper, lower, zn, zd, k_stop, p, e):
        return _speedups.series_window_mod(upper, lower, zn, zd, k_start, k_stop, p, e)
    return _kernel_py.series_window_mod(upper, lower, zn, zd, k_start, k_stop, p, e)
