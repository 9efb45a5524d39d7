"""The modular series kernel: resumable walks of a term recurrence mod p^e.

`series_window_mod` is the single hot loop of the whole checker: it sums a
window of terms of a truncated hypergeometric series mod p^e.  Parameters
are passed pre-validated as integer pairs so the kernel does no rational
arithmetic:

* ``upper`` / ``lower``: sequences of ``(num, den)`` with den > 0 and
  den coprime to p (the parameter a contributes a factor a + k).
* ``zn, zd``: numerator/denominator of the p-coprime argument z.
* The window is ``k_start <= k < k_stop``; term 0 is 1.

Term k is carried as ``p^v * num / den`` with ``num``, ``den`` mod m = p^e
and ``den`` a unit: p-powers are stripped from every factor into ``v``, so
p-divisible factors cost no precision.  The prefix sum of the terms below
k is carried as ``acc / den`` over the same denominator, so a step
multiplies ``num`` by the numerator step and both ``acc`` and ``den`` by
the denominator step, and the only inversion is ``den^-1`` at the end of
a walk (Montgomery's simultaneous-inversion trick, Math. Comp. 48 (1987)).

The suites ask for the same series (same parameters, p and e) many times,
with different stops: the length-p, n*p and p^r sums and the blocks
[r*p, (r+1)*p).  So each series has one `_Walker`, and a window [a, b) is
prefix(b) - prefix(a) mod p^e.  The walker keeps a checkpoint
``(k, v, num, acc)`` at every stop k it was asked for, with ``den``
divided out when it is stored: term k is ``p^v * num`` and the sum of the
terms below k is ``acc``, both mod p^e.  A prefix resumes from the nearest
checkpoint at or below its stop, so stops may come in any order, every
term is built once per series, and a stop asked for again costs no step.

Failures: a zero upper factor kills term j and every later one, so the sum
stays at prefix(j) for every stop past j.  A zero lower factor (a pole) or
a term with p in its denominator (negative valuation) means term j cannot
be built; a stop at or before j still gets its prefix, and any stop past j
raises a fresh exception of the same type and message, every time.  A step
checks the dead upper first, then the pole, then the valuation, so the
first of them decides j.

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

from .errors import NegativeValuation, PoleInLowerParameter

WALKER_LIMIT = 384

# (upper, lower, zn, zd, p, e) -> walker, least recently used first
_WALKERS: dict[tuple, _Walker] = {}


def backend_name() -> str:
    """Which series kernel runs: always the pure-Python one."""
    return "pure"


class _Walker:
    """Checkpointed prefix sums of one series mod p^e."""

    __slots__ = ("upper", "lower", "p", "e", "m", "ns0", "ds0", "checkpoints", "end")

    def __init__(self, upper, lower, zn: int, zd: int, p: int, e: int):
        self.upper, self.lower, self.p, self.e = upper, lower, p, e
        self.m = m = p**e
        ns0 = zn  # numerator step without the upper factors: zn * prod(lower dens)
        for _, d in lower:
            ns0 *= d
        ds0 = zd  # denominator step without (k+1) and the lower factors
        for _, d in upper:
            ds0 *= d
        self.ns0, self.ds0 = ns0 % m, ds0 % m
        self.checkpoints = [(0, 0, 1, 0)]  # (k, v, num, acc), sorted by k
        # (j, prefix(j), exception or None) once term j is dead or unbuildable
        self.end = None

    def prefix(self, stop: int) -> int:
        """The sum of the terms below ``stop`` mod p^e."""
        if self.end is not None and stop >= self.end[0]:
            return self._past_end(stop)
        i = bisect_right(self.checkpoints, stop, key=itemgetter(0)) - 1
        k, v, num, acc = self.checkpoints[i]
        if k == stop:
            return acc
        m = self.m
        den = 1
        p, e, ns0, ds0, upper, lower = self.p, self.e, self.ns0, self.ds0, self.upper, self.lower
        powers = [p**j for j in range(e)]
        while True:
            if v < e:
                acc = (acc + num * powers[v]) % m
            # step to term k+1: multiply by p^(nv - v) * ns / ds
            nv = v
            ns = ns0
            for an, ad in upper:
                f = an + k * ad
                if f == 0:
                    return self._end_at(k + 1, acc, den, None, stop)
                while f % p == 0:
                    f //= p
                    nv += 1
                ns *= f
            f = k + 1
            while f % p == 0:
                f //= p
                nv -= 1
            ds = ds0 * f
            for bn, bd in lower:
                f = bn + k * bd
                if f == 0:
                    message = f"lower parameter {bn}/{bd} hits a pole at k={k}"
                    return self._end_at(k + 1, acc, den, (PoleInLowerParameter, message), stop)
                while f % p == 0:
                    f //= p
                    nv -= 1
                ds *= f
            if nv < 0:
                message = f"term {k + 1} has negative p-adic valuation"
                return self._end_at(k + 1, acc, den, (NegativeValuation, message), stop)
            ds %= m
            num = num * ns % m
            acc = acc * ds % m
            den = den * ds % m
            v = nv
            k += 1
            if k == stop:
                inverse = pow(den, -1, m)
                acc = acc * inverse % m
                self.checkpoints.insert(i + 1, (k, v, num * inverse % m, acc))
                return acc

    def _end_at(self, j: int, acc: int, den: int, failure, stop: int) -> int:
        """Record that term j is dead (no failure) or cannot be built."""
        m = self.m
        self.end = (j, acc * pow(den, -1, m) % m, failure)
        return self._past_end(stop)

    def _past_end(self, stop: int) -> int:
        j, value, failure = self.end
        if failure is not None and stop > j:
            kind, message = failure
            raise kind(message)
        return value


def _walker(upper, lower, zn: int, zd: int, p: int, e: int) -> _Walker:
    key = (upper, lower, zn, zd, p, e)
    walker = _WALKERS.pop(key, None)
    if walker is None:
        walker = _Walker(upper, lower, zn, zd, p, e)
        if len(_WALKERS) >= WALKER_LIMIT:
            del _WALKERS[next(iter(_WALKERS))]
    _WALKERS[key] = walker
    return walker


def series_window_mod(upper, lower, zn, zd, k_start, k_stop, p, e) -> int:
    """The sum of terms ``k_start <= k < k_stop`` mod p^e."""
    walker = _walker(upper, lower, zn, zd, p, e)
    high = walker.prefix(k_stop)
    return (high - walker.prefix(min(k_start, k_stop))) % walker.m
