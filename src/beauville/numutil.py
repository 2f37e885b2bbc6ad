"""Small integer helpers shared by the group and field machinery.

Everything here is exact integer arithmetic; nothing imports numpy.
"""
from __future__ import annotations

from functools import lru_cache

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_PROOF_BOUND = 3317044064679887385961981  # psi_13, see is_prime


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41, exact below PRIME_PROOF_BOUND, the least
    strong pseudoprime to them all (Sorenson and Webster, Math. Comp. 2017)."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a tuple of (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 7
    # wheel mod 30 over 7, 11, 13, 17, 19, 23, 29, 31, ...
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += steps[i]
        i = (i + 1) % 8
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))
