"""Explicit bounds: the prime-power sum bounds, the R(q) envelope for
the case without an exceptional zero with its empirical normalized band,
and the prime-reciprocal inequality check.

The per-q checks take any record with .q and .R, such as a
ratio.RatioRecord or a record of the table pipeline.load_rows reads from
a results CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import constants_table, digamma
from .ntheory import prime_reciprocal_sum

DUSART_MIN_X = 2278383

_ENV_LO = math.exp(-1.87)
_ENV_HI = math.exp(0.51)

NORMALIZED_BAND = (0.19, 0.68)


@dataclass(frozen=True)
class BoundReport:
    q: int
    simple_bound: float
    refined_bound: float
    envelope_ok: bool
    normalized_ok: bool


def simple_bound(q: int) -> float:
    """Uniform bound on (q-1) S_q(b): A + (pi^2/6 - A)/q.

    Decreases monotonically to A along growing q; below 1.608 from q = 7 on.
    """
    if q < 3:
        raise ValueError("q must be an odd prime >= 3")
    a = constants_table().power_sum_constant
    return a + (math.pi**2 / 6 - a) / q


def refined_bound(q: int) -> float:
    """Sharper digamma form: ((q-1)/q)(A + psi(2/q) - psi(1/q)) - (q-1)/2.

    Its maximum over primes q <= 1e4 is 1.6001849662..., attained at q = 233
    (q = 229 follows 3.2e-11 lower).  The published "below 1.600177, at
    q = 229" is what this formula gives with A truncated to 1.60008.
    """
    if q < 3:
        raise ValueError("q must be an odd prime >= 3")
    a = constants_table().power_sum_constant
    return ((q - 1) / q) * (a + digamma(2.0 / q) - digamma(1.0 / q)) - (q - 1) / 2


def envelope_interval(q: int) -> tuple[float, float]:
    """(e^-1.87 / log q, e^0.51 log q): the no-exceptional-zero envelope
    evaluated at exponent offset 0."""
    lq = math.log(q)
    return _ENV_LO / lq, _ENV_HI * lq


def check_envelope(record) -> bool:
    """True iff R(q) sits inside the envelope; reads only record.q and
    record.R.

    The theoretical statement only holds above an unspecified effective
    threshold, so below q = 1000 a miss is a report, not a failed
    assertion.
    """
    lo, hi = envelope_interval(record.q)
    return lo < record.R < hi


def normalized_in_band(record) -> bool:
    """True iff R(q) (log q)^(3/4) lies in the empirical band (0.19, 0.68);
    reads only record.q and record.R."""
    v = record.R * math.log(record.q) ** 0.75
    return NORMALIZED_BAND[0] < v < NORMALIZED_BAND[1]


def check_dusart(x: float) -> bool:
    """|sum_{p<=x} 1/p - log log x - M| <= 0.2/(log x)^3, valid from
    x = 2278383 on."""
    if x < DUSART_MIN_X:
        raise ValueError(f"check_dusart requires x >= {DUSART_MIN_X}")
    s = prime_reciprocal_sum(x)
    m = constants_table().meissel_mertens
    return abs(s - math.log(math.log(x)) - m) <= 0.2 / math.log(x) ** 3


def report_for(record) -> BoundReport:
    """Assemble the per-q bound report row; reads only record.q and
    record.R."""
    return BoundReport(
        q=record.q,
        simple_bound=simple_bound(record.q),
        refined_bound=refined_bound(record.q),
        envelope_ok=check_envelope(record),
        normalized_ok=normalized_in_band(record),
    )
