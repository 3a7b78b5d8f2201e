"""Test-only oracles: direct references that nothing in the program calls."""

import math

import numpy as np

from bsratio.errors import VerificationError
from bsratio.fft import _check_finite
from bsratio.ntheory import PrimeField
from bsratio.primesum import _EulerContext, _sum

_EPS = np.finfo(np.float64).eps


def dft_naive(x: np.ndarray) -> np.ndarray:
    """Direct O(n^2) DFT with compensated per-bin accumulation.

    X[j] = sum_k x[k] e(-jk/n).  This is the oracle dft_fast is tested
    against; keep it free of any FFT machinery.
    """
    x = _check_finite(x)
    n = x.shape[0]
    out = np.empty(n, dtype=np.complex128)
    k = np.arange(n, dtype=np.int64)
    for j in range(n):
        ang = -2.0 * np.pi * ((j * k) % n).astype(np.float64) / n
        terms = x * (np.cos(ang) + 1j * np.sin(ang))
        out[j] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return out


def truncated_log_L(s: int, j: int, field: PrimeField, P: int) -> complex:
    """log L_P(s, chi_j) for integer s >= 2 and a nonprincipal character.

    Computed as log L(s, chi_j) + sum_{p<=P} log(1 - chi_j(p) p^-s); every
    factor sits in the unit disc around 1 and the accumulated argument
    stays below pi, so principal-branch logs land on the Euler branch.
    The result must respect |log L_P| <= P^(1-s)/(s-1); violating that is
    an internal error, asserted here.
    """
    if s < 2:
        raise ValueError("truncated_log_L requires s >= 2")
    n = field.n
    j = int(j) % n
    if j == 0:
        raise ValueError("principal character not allowed; use the zeta closed form")
    ctx = _EulerContext(field, P)
    lval = ctx.l_values(s)[j]
    ang = (2.0 * np.pi / n) * ((j * ctx.dlogs) % n).astype(np.float64)
    with np.errstate(under="ignore"):
        z = np.exp(1j * ang) * ctx.pfloat ** (-float(s))
        corr = np.log(1.0 - z)
    total = complex(np.log(lval) + complex(_sum(corr.real), _sum(corr.imag)))
    bound = float(ctx.P) ** (1 - s) / (s - 1)
    slack = 1e-11 + 16 * _EPS * math.log2(max(n, 2)) * len(ctx.primes) ** 0.5
    if abs(total) > bound * (1 + 1e-6) + slack:
        raise VerificationError(
            f"|log L_P({s}, chi_{j})| = {abs(total):.3e} exceeds bound {bound:.3e}"
        )
    return total


def power_head_closed_form(ctx: _EulerContext) -> float:
    """sum_{p<=P} sum_{m>=2} (n [ord_q p | m] - 1)/(m p^m) by geometric
    closed forms in the order e_p of p mod q: sum_{m>=2} 1/(m p^m) is
    -log(1 - 1/p) - 1/p, and its restriction to e_p | m is
    -log(1 - p^-e_p)/e_p when e_p >= 2."""
    n = ctx.field.n
    live = ctx.live
    # off the live primes the restriction is an exact 0.0, and n * 0.0 - x == -x
    all_m = -np.log1p(-1.0 / ctx.pfloat) - 1.0 / ctx.pfloat
    terms = -all_m
    e, p, a = ctx.orders[live].astype(np.float64), ctx.pfloat[live], all_m[live]
    with np.errstate(under="ignore"):
        on_orbit = np.where(e >= 2, -np.log1p(-(p**-e)) / e, a)
    terms[live] = n * on_orbit - a
    return _sum(terms)
