"""Pure-Python series kernel.

`series_window_mod` is the single hot loop of the whole checker: it walks
the term recurrence of a truncated hypergeometric sum and accumulates a
window of terms mod p^e.  The compiled twin in ``_speedups.pyx`` computes
the same function (same values, same exceptions at the same k) with one
modular inversion per term; ``tests/test_speedups.py`` pins the two
together.

Parameters are passed pre-validated as integer pairs so the kernel does
no rational arithmetic:

* ``upper`` / ``lower``: sequences of ``(num, den)`` with den > 0 and
  den coprime to p (the parameter a contributes a factor a + k).
* ``zn, zd``: numerator/denominator of the p-coprime argument z.
* The window is ``k_start <= k < k_stop``; term 0 is 1.

Term k is carried as ``p^v * num / den`` with ``num``, ``den`` mod m = p^e
and ``den`` a unit: p-powers are stripped from every factor into ``v``, so
p-divisible factors cost no precision.  The window sum is carried as
``acc / den`` over the same denominator, so a step multiplies ``num`` by
the numerator step and both ``acc`` and ``den`` by the denominator step,
and the only inversion is ``den^-1`` at the end (Montgomery's
simultaneous-inversion trick, Math. Comp. 48 (1987)).  A zero upper
factor kills all later terms (the sum is then exactly a polynomial); a
zero lower factor is a pole and raises.
"""

from __future__ import annotations

from .errors import NegativeValuation, PoleInLowerParameter


def series_window_mod(
    upper: tuple[tuple[int, int], ...],
    lower: tuple[tuple[int, int], ...],
    zn: int,
    zd: int,
    k_start: int,
    k_stop: int,
    p: int,
    e: int,
) -> int:
    m = p**e
    powers = [p**i for i in range(e)]
    ns0 = zn  # numerator step without the upper factors: zn * prod(lower dens)
    for _, d in lower:
        ns0 *= d
    ds0 = zd  # denominator step without (k+1) and the lower factors
    for _, d in upper:
        ds0 *= d
    ns0 %= m
    ds0 %= m
    acc = 0  # the window sum so far is acc / den
    v = 0  # term k is p^v * num / den
    num = den = 1
    for k in range(k_stop):
        if k >= k_start and v < e:
            acc = (acc + num * powers[v]) % m
        if k + 1 >= k_stop:
            break
        # step to term k+1: multiply by p^(nv - v) * ns / ds
        nv = v
        ns = ns0
        dead = False
        for an, ad in upper:
            f = an + k * ad
            if f == 0:
                dead = True
                break
            while f % p == 0:
                f //= p
                nv += 1
            ns *= f
        if dead:
            break  # every later term is exactly zero
        f = k + 1
        while f % p == 0:
            f //= p
            nv -= 1
        ds = ds0 * f
        for bn, bd in lower:
            f = bn + k * bd
            if f == 0:
                raise PoleInLowerParameter(
                    f"lower parameter {bn}/{bd} hits a pole at k={k}"
                )
            while f % p == 0:
                f //= p
                nv -= 1
            ds *= f
        if nv < 0:
            raise NegativeValuation(f"term {k + 1} has negative p-adic valuation")
        ds %= m
        num = num * ns % m
        acc = acc * ds % m
        den = den * ds % m
        v = nv
    return acc * pow(den, -1, m) % m
