"""Explicit bounds: the prime-power sum bounds, the R(q) envelope for
the case without an exceptional zero with its empirical normalized band,
and the prime-reciprocal inequality check.

The bounds and the envelope take q elementwise, a scalar or a column;
report_columns checks them over a results table (pipeline.load_rows).
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import constants_table, digamma
from .ntheory import prime_reciprocal_sum

DUSART_MIN_X = 2278383

_ENV_LO = math.exp(-1.87)
_ENV_HI = math.exp(0.51)
# math.log, not np.log: numpy's log is an ulp off at some q (44 odd primes
# below 1e7), and the envelope ends stay those of the scalar formula
_log = np.vectorize(math.log, otypes=[float])

NORMALIZED_BAND = (0.19, 0.68)


def simple_bound(q):
    """Uniform bound on (q-1) S_q(b): A + (pi^2/6 - A)/q.

    Decreases monotonically to A along growing q; below 1.608 from q = 7 on.
    """
    if np.any(q < 3):
        raise ValueError("q must be an odd prime >= 3")
    a = constants_table().power_sum_constant
    return a + (math.pi**2 / 6 - a) / q


def refined_bound(q):
    """Sharper digamma form: ((q-1)/q)(A + psi(2/q) - psi(1/q)) - (q-1)/2.

    Its maximum over primes q <= 1e4 is 1.6001849662..., attained at q = 233
    (q = 229 follows 3.2e-11 lower).  The published "below 1.600177, at
    q = 229" is what this formula gives with A truncated to 1.60008.
    """
    if np.any(q < 3):
        raise ValueError("q must be an odd prime >= 3")
    a = constants_table().power_sum_constant
    return ((q - 1) / q) * (a + digamma(2.0 / q) - digamma(1.0 / q)) - (q - 1) / 2


def envelope_interval(q):
    """(e^-1.87 / log q, e^0.51 log q): the no-exceptional-zero envelope
    evaluated at exponent offset 0."""
    lq = _log(q)
    return _ENV_LO / lq, _ENV_HI * lq


def report_columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The simple and refined bounds at each q of a results table, whether
    R(q) sits inside the envelope, and whether the stored R_norm lies in the
    empirical band (0.19, 0.68).

    The envelope only holds above an unspecified effective threshold, so
    below q = 1000 a miss is a reported flag, not a failed assertion.
    """
    lo, hi = envelope_interval(rows.q)
    band_lo, band_hi = NORMALIZED_BAND
    return (
        simple_bound(rows.q),
        refined_bound(rows.q),
        (lo < rows.R) & (rows.R < hi),
        (band_lo < rows.R_norm) & (rows.R_norm < band_hi),
    )


def check_dusart(x: float) -> bool:
    """|sum_{p<=x} 1/p - log log x - M| <= 0.2/(log x)^3, valid from
    x = 2278383 on; a non-finite x is refused."""
    if not DUSART_MIN_X <= x < math.inf:
        raise ValueError(f"check_dusart requires a finite x >= {DUSART_MIN_X}, got {x}")
    s = prime_reciprocal_sum(x)
    m = constants_table().meissel_mertens
    return abs(s - math.log(math.log(x)) - m) <= 0.2 / math.log(x) ** 3
