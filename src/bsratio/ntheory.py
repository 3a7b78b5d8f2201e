"""Prime generation, primality, Moebius function, and discrete-log tables.

Everything here is a pure function of its arguments; no global mutable
state, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24 (covers 2^63).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array.

    Odd-only sieve on one bitmap of limit/2 flags, flag i standing for
    2i + 1: at 1e7 that is 5 MB, as much as the array it returns.
    """
    limit = int(limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2  # flag 0 stands for 1, which is not prime; 2 takes its place
    return primes


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^63."""
    n = int(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def moebius(k: int) -> int:
    """mu(k) for k >= 1."""
    k = int(k)
    if k < 1:
        raise ValueError("moebius requires k >= 1")
    factors = _prime_factors(k)
    if any(k % (p * p) == 0 for p in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    fac = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            fac.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        fac.append(n)
    return fac


def find_primitive_root(q: int) -> int:
    """Least primitive root modulo an odd prime q."""
    q = int(q)
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"{q} is not an odd prime")
    factors = _prime_factors(q - 1)
    g = 2
    while True:
        if all(pow(g, (q - 1) // r, q) != 1 for r in factors):
            return g
        g += 1


@dataclass(frozen=True)
class PrimeField:
    """An odd prime q with its least primitive root and discrete-log tables.

    pow_table[k] = g^k mod q for k = 0..q-2; dlog[a] = k with g^k = a mod q
    for a = 1..q-1 (dlog[0] is the sentinel -1).  Character j evaluates as
    chi_j(g^k) = e(jk/(q-1)).
    """

    q: int
    g: int
    pow_table: np.ndarray

    @property
    def n(self) -> int:
        """Order of the character group, q - 1."""
        return self.q - 1

    @cached_property
    def dlog(self) -> np.ndarray:
        """The inverse of pow_table, built on first read: only the verifier
        needs it, and at q ~ 1e6 it is 8 MB of random scatter."""
        dlog = np.full(self.q, -1, dtype=np.int64)
        dlog[self.pow_table] = np.arange(self.n, dtype=np.int64)
        return dlog


def build_field(q: int) -> PrimeField:
    """Construct the PrimeField for an odd prime q.

    The power table is built blockwise (g^(iB+j) = (g^B)^i * g^j mod q) with
    B = isqrt(n) + 1, so the work is O(q) numpy operations and about
    2 sqrt(q) Python multiply-mods rather than a length-q Python loop.
    """
    q = int(q)
    g = find_primitive_root(q)
    n = q - 1

    block = math.isqrt(n) + 1
    row = np.empty(block, dtype=np.int64)
    x = 1
    for j in range(block):
        row[j] = x
        x = x * g % q
    nblocks = (n + block - 1) // block
    col = np.empty(nblocks, dtype=np.int64)
    gb = pow(g, block, q)
    y = 1
    for i in range(nblocks):
        col[i] = y
        y = y * gb % q
    prod = col[:, None] * row[None, :]
    # reduce mod q by floor division: numpy's int64 division by a scalar is
    # much faster than its remainder
    prod -= q * (prod // q)
    return PrimeField(q=q, g=g, pow_table=prod.reshape(-1)[:n])


def prime_reciprocal_sum(x: float) -> float:
    """Sum of 1/p over primes p <= x, compensated (exact rounding via fsum)."""
    if x < 2:
        raise ValueError("prime_reciprocal_sum requires x >= 2")
    primes = sieve_primes(int(math.floor(x)))
    return math.fsum(1.0 / primes.astype(np.float64))
