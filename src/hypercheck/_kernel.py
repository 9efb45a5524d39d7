"""The modular series kernel: resumable walks of F(x; N) mod p^e.

`_Walker.reach` is the single hot loop of the whole checker: it walks the
terms of

    F(x; N) = sum_{k<N} (x)_k (1-x)_k / (k!)^2

mod p^e, the one series the paper studies, for `series_window_mod` (the
sum of a window ``k_start <= k < k_stop``) and `series_term_mod` (one
term, for lemmas 4 and 5).  x = xn / xd is passed as a reduced integer
pair with xd > 0 prime to p, so the kernel does no rational arithmetic.
Term 0 is 1 and each step multiplies by

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

The step from k has three factors, f = xn + k xd, g = xd - xn + k xd and
h = k + 1, and p divides each at one residue of k mod p: kf = -xn/xd,
kg = (xn - xd)/xd and p - 1.  Only these special steps, at most three in
any p consecutive k, can meet a p-power or a zero factor (zero is
divisible by p).  So a walk goes in blocks, each one loop of plain steps
up to the next special k and then that special step.  The plain steps
have unit factors, so v stays fixed and the loop tests nothing: it adds
``num * pv`` to ``acc`` with pv = p^v, or 0 once v >= e.  The special step
reuses the loop's f, g and pv and adds only the p-stripping, the exit on
a zero factor and the test of v.

The suites ask for the same series (same x, p and e) many times, with
different stops: the length-p, n*p and p^r sums and the blocks
[r*p, (r+1)*p).  So each series has one `_Walker`, and a window [a, b) is
prefix(b) - prefix(a) mod p^e.  The walker keeps a checkpoint
``(k, v, num, acc)`` at every stop k it was asked for, with ``den``
divided out when it is stored: term k is ``p^v * num`` and the sum of the
terms below k is ``acc``, both mod p^e.  A prefix resumes from the nearest
checkpoint at or below its stop, so stops may come in any order, every
term is built once per series, and a stop asked for again costs no step.
A term read adds no checkpoint: the walker keeps one cursor, the state
``(k, v, num, acc)`` at the last term read, and every walk starts from
the higher of the cursor and the nearest checkpoint not past its stop.
So lemma4's reads of terms k + r*p, rising per series, cost one step
each and no memory.

`_walker` is the walker table: an `lru_cache` on `_Walker` keyed by
(xn, xd, p, e) and bounded by `WALKER_LIMIT`.  Sweeps such as ``sun``
build thousands of series that are each asked for once; unbounded, their
checkpoints would hold memory for the whole run.  The bound covers the
series one suite shares with the next ones at the same primes (372 on the
thm1/rv/chain-block sweep to p = 499).  Past it the bound is a cliff:
that sweep has four quartic series per prime, 388 at p = 523, and once
they outnumber the table each one is evicted just before the next suite
asks for it again: in process (fastest of three runs, a shared two-core
x86-64 host) the sweep took 0.14 s of CPU at ``--p-max 499``, 0.15 s at
521, 0.29 s at 523 and 0.15 s at 523 with an unbounded table.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from operator import itemgetter

from .errors import InternalError

WALKER_LIMIT = 384


def backend_name() -> str:
    """Which series kernel runs: always the pure-Python one."""
    return "pure"


class _Walker:
    """Checkpointed prefix sums and a term cursor of F(xn/xd; N) mod p^e."""

    __slots__ = ("xn", "xd", "p", "e", "m", "powers", "kf", "kg", "checkpoints", "cursor", "dead")

    def __init__(self, xn: int, xd: int, p: int, e: int):
        self.xn, self.xd, self.p, self.e = xn, xd, p, e
        self.m = p**e
        inverse = pow(xd, -1, p)
        self.kf, self.kg = -xn * inverse % p, (xn - xd) * inverse % p  # p divides f, g
        self.powers = [p**j for j in range(e)]
        self.checkpoints = [(0, 0, 1, 0)]  # (k, v, num, acc), sorted by k
        self.cursor = (0, 0, 1, 0)  # the state at the last term read
        self.dead = None  # (j, prefix(j)) once term j is zero

    def reach(self, stop: int, term: bool) -> int:
        """Term ``stop`` if ``term``, else the sum of the terms below it, mod
        p^e.  A term read moves the cursor; a sum adds a checkpoint."""
        if self.dead is not None and stop >= self.dead[0]:
            return 0 if term else self.dead[1]
        i = bisect_right(self.checkpoints, stop, key=itemgetter(0)) - 1
        state = self.checkpoints[i]
        if state[0] < self.cursor[0] <= stop:
            state = self.cursor
        k, v, num, acc = state
        p, e, m, powers, xn, xd = self.p, self.e, self.m, self.powers, self.xn, self.xd
        kf, kg = self.kf, self.kg
        yn = xd - xn  # 1 - x = yn / xd
        ds0 = xd * xd
        den = 1
        while k < stop:
            r = k % p
            j = min(k + min((kf - r) % p, (kg - r) % p, p - 1 - r), stop)  # next special k
            f, g = xn + k * xd, yn + k * xd
            pv = powers[v] if v < e else 0
            for h in range(k + 1, j + 1):  # plain steps k .. j-1: no test, v fixed
                ds = ds0 * h * h
                acc = (acc + num * pv) * ds % m
                num = num * f * g % m
                den = den * ds % m
                f += xd
                g += xd
            k = j
            if k == stop:
                break
            # the special step to term k+1, with f, g at k: strip p into v
            acc = (acc + num * pv) % m
            if f == 0 or g == 0:
                self.dead = (k + 1, acc * pow(den, -1, m) % m)
                return 0 if term else self.dead[1]
            h = k + 1
            while f % p == 0:
                f //= p
                v += 1
            while g % p == 0:
                g //= p
                v += 1
            while h % p == 0:
                h //= p
                v -= 2
            if v < 0:
                raise InternalError(f"term {k + 1} of F({xn}/{xd}) is not {p}-integral")
            ds = ds0 * h * h % m
            num = num * f * g % m
            acc = acc * ds % m
            den = den * ds % m
            k += 1
        inverse = pow(den, -1, m)
        num, acc = num * inverse % m, acc * inverse % m
        if term:
            self.cursor = (k, v, num, acc)
            return num * powers[v] % m if v < e else 0
        if self.checkpoints[i][0] < stop:
            self.checkpoints.insert(i + 1, (k, v, num, acc))
        return acc


_walker = lru_cache(maxsize=WALKER_LIMIT)(_Walker)


def series_window_mod(xn, xd, p, e, k_start, k_stop) -> int:
    """The sum of terms ``k_start <= k < k_stop`` of F(xn/xd; N) mod p^e."""
    walker = _walker(xn, xd, p, e)
    high = walker.reach(k_stop, False)
    return (high - walker.reach(min(k_start, k_stop), False)) % walker.m


def series_term_mod(xn, xd, p, e, n) -> int:
    """Term n of F(xn/xd; N) mod p^e."""
    return _walker(xn, xd, p, e).reach(n, True)
