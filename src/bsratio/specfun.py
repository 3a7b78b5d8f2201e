"""Special functions and the numeric constants used throughout.

digamma is scipy.special's, elementwise, behind a domain check; the
Hurwitz zeta function zeta(s, x) at integer s >= 2, prime_zeta and the
constants are computed here from scratch with explicit truncation control
so repeated evaluation is bit-identical.  hurwitz_zeta sums 7 direct terms
and the Euler-Maclaurin tail with 9 Bernoulli terms, at array speed; it is
within 1.1 eps of a 30-digit reference on (0, 1].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .ntheory import moebius

EULER_GAMMA = float(np.euler_gamma)


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x), elementwise, for x > 0."""
    if np.any(x <= 0):
        raise ValueError("digamma requires x > 0")
    return sp.psi(x)


# Hurwitz zeta by Euler-Maclaurin: _HZ_TERMS direct terms, then one tail
# correction for each of the K = 9 Bernoulli numbers B_2, B_4, ..., B_18,
# kept as exact (numerator, denominator) pairs
_HZ_TERMS = 7
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798),
)
_BLOCK = 1 << 14  # points per block: a few float64 temporaries stay in cache


def _integer_power(base: np.ndarray, s: int) -> np.ndarray:
    """base**s for an integer s >= 1 by binary powering; base is overwritten."""
    out = None
    while s > 1:
        if s & 1:
            out = base.copy() if out is None else np.multiply(out, base, out=out)
        np.multiply(base, base, out=base)
        s >>= 1
    return base if out is None else np.multiply(out, base, out=out)


@lru_cache(maxsize=None)
def _tail_coefficients(s: int) -> tuple[float, ...]:
    """B_2k/(2k)! (s)_(2k-1) for k = 1..K, each rounded once from the exact
    rational; (s)_j is the rising factorial s(s+1)...(s+j-1)."""
    out = []
    rising = s  # (s)_1
    for k, (num, den) in enumerate(_BERNOULLI, start=1):
        out.append(num * rising / (den * math.factorial(2 * k)))  # int / int rounds once
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return tuple(out)


def hurwitz_zeta(s: int, x) -> np.ndarray:
    """zeta(s, x) = sum_{m>=0} (x+m)^-s, elementwise, for an integer s >= 2
    and float64 x > 0, by Euler-Maclaurin summation.

    With N = _HZ_TERMS = 7, K = 9 and y = x + N,

        zeta(s, x) = sum_{m<N} (x+m)^-s + y^(1-s)/(s-1) + y^-s/2
                     + sum_{k=1}^{K} B_2k/(2k)! (s)_(2k-1) y^(-s-2k+1) + R,

    the last sum in Horner form in 1/y^2.  For real s the remainder R is
    below the first omitted term (Johansson, Numer. Algorithms 69, 2015):
    at most 6.4e-17 of the value for x in (0, 1] and s <= 30.  The terms
    with m >= 1 and y^-s are reciprocals raised by binary powering; x^-s,
    the largest term, comes from pow, which keeps it within an ulp where a
    raised reciprocal would carry s times the reciprocal's rounding.
    Against 30-digit mpmath, at s = 2..12, 15, 20, 30 and 807 points of
    (0, 1] down to 1e-7, the relative error was at most 1.09 eps
    (scipy.special.zeta's: 4.7 eps).
    """
    try:
        s = operator.index(s)
    except TypeError:
        raise ValueError("hurwitz_zeta requires an integer s") from None
    if s < 2:
        raise ValueError("hurwitz_zeta requires s >= 2")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0):
        raise ValueError("hurwitz_zeta requires x > 0")
    coeffs = _tail_coefficients(s)
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _BLOCK):
        xb, acc = flat[lo : lo + _BLOCK], out[lo : lo + _BLOCK]
        y = xb + _HZ_TERMS
        w = np.divide(1.0, y)
        buf = w * w
        poly = np.full_like(w, coeffs[-1])
        for c in coeffs[-2::-1]:
            poly *= buf
            poly += c
        poly *= w
        poly += 0.5
        y /= s - 1
        poly += y  # y/(s-1) + 1/2 + the Bernoulli terms, all times y^-s
        np.multiply(_integer_power(w, s), poly, out=acc)
        for m in range(_HZ_TERMS - 1, 0, -1):  # smallest terms first
            np.add(xb, m, out=buf)
            np.divide(1.0, buf, out=buf)
            acc += _integer_power(buf, s)
        acc += np.power(xb, -float(s), out=buf)  # x^-s by pow: see above
    return out.reshape(x.shape)


def prime_zeta(s: int) -> float:
    """P(s) = sum over primes of p^(-s), integer s >= 2.

    Moebius inversion of log zeta: P(s) = sum_k mu(k)/k * log zeta(ks).
    Terms decay like 2^(-ks); the loop stops once they underflow.
    """
    if s < 2:
        raise ValueError("prime_zeta requires s >= 2")
    total = 0.0
    k = 1
    while True:
        zc = float(sp.zetac(k * s))  # zeta(ks) - 1, accurate near 0
        if zc == 0.0:
            break
        m = moebius(k)
        if m:
            total += m * math.log1p(zc) / k
        k += 1
        if k * s > 1100:
            break
    return total


# --- constants -------------------------------------------------------------

_A_HEAD_CUTOFF = 10**6


@lru_cache(maxsize=1)
def power_sum_constant() -> float:
    """Limit constant of the prime-power congruence-sum bound.

    A = sum_{m>=2} (1/m) sum_{k=m(m-1)/2}^{m(m+1)/2 - 1} 1/k, evaluated via
    the equivalent series  gamma/2 + (1/2) sum_{j>=3} psi(a(j))/a(j)  with
    a(j) = j(j-1)/2: exact digamma head to j = J = 1e6, then the
    Euler-Maclaurin tail in closed form.  With f(x) = psi(a)/a,
    f(x) = (4 log x - 2 log 2)/x^2 + (4 log x - 2 log 2 - 2)/x^3
    + O(log x/x^4), so

        sum_{j>J} f(j) = (4 log J + 4 - 2 log 2)/J + (2 log J - log 2)/J^2
                         - f(J)/2 + O(log J/J^3).

    The dropped terms (the x^-4 integral and f'(J)/12) are ~1e-17 at
    J = 1e6 (the tail is 2.5e-17 from a 40-digit reference), below the
    rounding of the head.
    """
    head = 0.0
    for lo in range(3, _A_HEAD_CUTOFF + 1, 500_000):  # two blocks bound the temporaries
        hi = min(lo + 500_000 - 1, _A_HEAD_CUTOFF)
        j = np.arange(lo, hi + 1, dtype=np.float64)
        a = 0.5 * (j * j - j)
        head += float(np.sum(sp.psi(a) / a))

    J = float(_A_HEAD_CUTOFF)
    aJ = 0.5 * (J * J - J)
    lJ, l2 = math.log(J), math.log(2.0)
    tail = (4 * lJ + 4 - 2 * l2) / J + (2 * lJ - l2) / (J * J) - float(sp.psi(aJ)) / aJ / 2
    return EULER_GAMMA / 2.0 + 0.5 * (head + tail)


@lru_cache(maxsize=1)
def minimize_harmonic_loglog() -> tuple[int, float]:
    """Minimize c(k) = (1/4) H_((k-1)/2) - log log k over odd k in [3, 1e4]."""
    ks = np.arange(3, 10_001, 2)
    half = (ks - 1) // 2
    harm = np.cumsum(1.0 / np.arange(1, half[-1] + 1, dtype=np.float64))
    c = 0.25 * harm[half - 1] - np.log(np.log(ks))
    i = int(np.argmin(c))
    return int(ks[i]), float(c[i])


@lru_cache(maxsize=1)
def meissel_mertens() -> float:
    """Meissel-Mertens constant via the prime-power form.

    M = gamma - sum_{m>=2} P(m)/m; the dropped tail beyond the last
    nonzero P(m) is below 2^-55.
    """
    total = 0.0
    for m in range(2, 60):
        pm = prime_zeta(m)
        if pm == 0.0:
            break
        total += pm / m
    return EULER_GAMMA - total


@dataclass(frozen=True)
class ConstantsTable:
    euler_gamma: float
    meissel_mertens: float
    power_sum_constant: float
    harmonic_loglog_min: float
    k_opt: int


@lru_cache(maxsize=1)
def constants_table() -> ConstantsTable:
    """All constants, computed once; repeated calls are bit-identical."""
    k_opt, c_min = minimize_harmonic_loglog()
    return ConstantsTable(
        euler_gamma=EULER_GAMMA,
        meissel_mertens=meissel_mertens(),
        power_sum_constant=power_sum_constant(),
        harmonic_loglog_min=c_min,
        k_opt=k_opt,
    )
