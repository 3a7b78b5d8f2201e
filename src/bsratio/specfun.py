"""Special functions and the numeric constants used throughout.

digamma is scipy.special's, elementwise, behind a domain check; prime_zeta
and the constants are computed here from scratch with explicit truncation
control so repeated evaluation is bit-identical.
"""

from __future__ import annotations

import math
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
