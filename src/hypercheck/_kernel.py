"""The modular series kernel: resumable walks of F(x; N) mod p^e.

`series_window_mod` is the single hot loop of the whole checker: it sums a
window ``k_start <= k < k_stop`` of the terms of

    F(x; N) = sum_{k<N} (x)_k (1-x)_k / (k!)^2

mod p^e, the one series the paper studies.  x = xn / xd is passed as a
reduced integer pair with xd > 0 prime to p, so the kernel does no
rational arithmetic.  Term 0 is 1 and each step multiplies by

    t_{k+1} / t_k = (xn + k xd)(xd - xn + k xd) / (xd (k+1))^2.

`k_stop` must stay the sixth positional argument: perfbench's tracer
counts ``args[5]`` as the terms a call asks for.

Term k is carried as ``p^v * num / den`` with ``num``, ``den`` mod m = p^e
and ``den`` a unit: p-powers are stripped from every factor into ``v``, so
p-divisible factors cost no precision.  The prefix sum of the terms below
k is carried as ``acc / den`` over the same denominator, so a step
multiplies ``num`` by the numerator step and both ``acc`` and ``den`` by
the denominator step, and the only inversion is ``den^-1`` at the end of
a walk (Montgomery's simultaneous-inversion trick, Math. Comp. 48 (1987)).

Every term is a p-adic integer: t_k(x) = C(x+k-1, k) C(k-x, k), and a
binomial C(Y, k) maps Z_p into Z_p.  So v never goes negative, and a walk
that finds it negative raises `InternalError`.  A walk ends early only on
a zero factor, which happens only for an integer x (at step -x for x <= 0
and at step x - 1 for x >= 1): term j = step + 1 and every later term
vanish, so the sum stays at prefix(j) for every stop past j.

The suites ask for the same series (same x, p and e) many times, with
different stops: the length-p, n*p and p^r sums and the blocks
[r*p, (r+1)*p).  So each series has one `_Walker`, and a window [a, b) is
prefix(b) - prefix(a) mod p^e.  The walker keeps a checkpoint
``(k, v, num, acc)`` at every stop k it was asked for, with ``den``
divided out when it is stored: term k is ``p^v * num`` and the sum of the
terms below k is ``acc``, both mod p^e.  A prefix resumes from the nearest
checkpoint at or below its stop, so stops may come in any order, every
term is built once per series, and a stop asked for again costs no step.

The walkers live in a table bounded by `WALKER_LIMIT` and evicted least
recently used first.  Sweeps such as ``sun`` build thousands of series
that are each asked for once; unbounded, their checkpoints would hold
memory for the whole run.  The bound covers the series one suite shares
with the next ones at the same primes (372 on the thm1/rv/chain-block
sweep to p = 499).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

from .errors import InternalError

WALKER_LIMIT = 384

# (xn, xd, p, e) -> walker, least recently used first
_WALKERS: dict[tuple, _Walker] = {}


def backend_name() -> str:
    """Which series kernel runs: always the pure-Python one."""
    return "pure"


class _Walker:
    """Checkpointed prefix sums of F(xn/xd; N) mod p^e."""

    __slots__ = ("xn", "xd", "p", "e", "m", "checkpoints", "dead")

    def __init__(self, xn: int, xd: int, p: int, e: int):
        self.xn, self.xd, self.p, self.e = xn, xd, p, e
        self.m = p**e
        self.checkpoints = [(0, 0, 1, 0)]  # (k, v, num, acc), sorted by k
        self.dead = None  # (j, prefix(j)) once term j is zero

    def prefix(self, stop: int) -> int:
        """The sum of the terms below ``stop`` mod p^e."""
        if self.dead is not None and stop >= self.dead[0]:
            return self.dead[1]
        i = bisect_right(self.checkpoints, stop, key=itemgetter(0)) - 1
        k, v, num, acc = self.checkpoints[i]
        if k == stop:
            return acc
        p, e, m, xn, xd = self.p, self.e, self.m, self.xn, self.xd
        yn = xd - xn  # 1 - x = yn / xd
        ds0 = xd * xd
        den = 1
        powers = [p**j for j in range(e)]
        while True:
            if v < e:
                acc = (acc + num * powers[v]) % m
            # step to term k+1: multiply by p^(nv - v) * f g / (ds0 h^2)
            f, g, h = xn + k * xd, yn + k * xd, k + 1
            if f == 0 or g == 0:
                self.dead = (k + 1, acc * pow(den, -1, m) % m)
                return self.dead[1]
            nv = v
            while f % p == 0:
                f //= p
                nv += 1
            while g % p == 0:
                g //= p
                nv += 1
            while h % p == 0:
                h //= p
                nv -= 2
            if nv < 0:
                raise InternalError(f"term {k + 1} of F({xn}/{xd}) is not {p}-integral")
            ds = ds0 * h * h % m
            num = num * f * g % m
            acc = acc * ds % m
            den = den * ds % m
            v = nv
            k += 1
            if k == stop:
                inverse = pow(den, -1, m)
                acc = acc * inverse % m
                self.checkpoints.insert(i + 1, (k, v, num * inverse % m, acc))
                return acc


def _walker(xn: int, xd: int, p: int, e: int) -> _Walker:
    key = (xn, xd, p, e)
    walker = _WALKERS.pop(key, None)
    if walker is None:
        walker = _Walker(xn, xd, p, e)
        if len(_WALKERS) >= WALKER_LIMIT:
            del _WALKERS[next(iter(_WALKERS))]
    _WALKERS[key] = walker
    return walker


def series_window_mod(xn, xd, p, e, k_start, k_stop) -> int:
    """The sum of terms ``k_start <= k < k_stop`` of F(xn/xd; N) mod p^e."""
    walker = _walker(xn, xd, p, e)
    high = walker.prefix(k_stop)
    return (high - walker.prefix(min(k_start, k_stop))) % walker.m
