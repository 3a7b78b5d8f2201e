"""Independent verification of log R(q) through truncated Euler products.

The Euler product over primes is split at P = A*q.  The head (p <= P) is
a finite sum evaluated exactly; the tail collapses, via Moebius inversion,
to values of truncated L-functions L_P(s, chi) = prod_{p>P} (1-chi(p)p^-s)^-1
at integer s = km >= 2 (plus the single km=1 term, the log R of the direct
per-character oracle ratio.log_ratio_naive, never the FFT).  Both
truncation remainders have closed-form bounds

    |E1(q,P,M)|   <= P(q-1) / (M(M-1)(P-1)P^M)          (depth in m)
    |E2(q,P,M,K)| <= 2P(q-1) / (K^2 (P-1)(P^K - 1))     (depth in k)

so M and K can be chosen to push E1+E2 below any requested 10^-delta.

Every prime-side sum is one orbit routine, _prime_orbit_sum(u): as j
runs over all characters, chi_{ju}(p) = e(ju*dlog(p)/n) sweeps the
(n/g')-th roots of unity g' = gcd(u*dlog(p), n) times each, and
prod_{t<m} (1 - e(t/m) x) = 1 - x^m collapses every inner product to a
real log.  It is the head sum, negated, at u = 1 and the prime side of
T(u) at u >= 2, so the verifier is O(#distinct km * (q log q + pi(P))).
Each context takes g = gcd(dlog(p), n) once per prime; since
gcd(dlog(p)/g, n/g) = 1, gcd(u*dlog(p), n) = g*gcd(u, n/g), and an orbit
term g' log(1 - p^-e) with e = u*n/g' >= n/g is an exact 0.0 in doubles
once p^-(n/g) is far below the least subnormal, so only the few primes of
small order n/g ever reach pow and log1p.  Every array sum goes through
ratio._class_sum, exact but for two roundings, at numpy speed.

The L-values at s = km >= 2 are the length-(q-1) character spectrum of the
Hurwitz zeta weights zeta(s, a/q), a = 1..q-1.  specfun.hurwitz_zeta
evaluates them at array speed by Euler-Maclaurin summation: 7 direct
terms, then the tail with 9 Bernoulli terms, whose remainder is at most
6.4e-17 of the value.  Against 30-digit mpmath the weights were within
1.1 eps (scipy.special.zeta: 4.7 eps), at about a sixth of
scipy.special.zeta's time.

verify_ratio also splits its total into a prime part sigma1 and a
prime-power part sigma2.  As the head sum is
sum_p sum_{m>=1} (n [ord_q p | m] - 1)/(m p^m), sigma2 is the head sum less
its m = 1 terms plus the m >= 2 tail, which one pass over the T(u) returns
with the m >= 1 tail; sigma1 is the difference.  Summing sigma1 "directly"
only rearranges the same terms, so it would be no independent check.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from math import gcd

import numpy as np
from scipy import special as sp

from .bounds import simple_bound
from .errors import CostGuardError, VerificationError
from .fft import char_spectrum
from .ntheory import PrimeField, build_field, moebius, sieve_primes
from .ratio import NAIVE_MAX_Q, _class_sum, log_ratio_naive
from .specfun import constants_table, hurwitz_zeta

DEFAULT_A = 20
# the km=1 term runs the direct O(q^2) route, so its limit is the verifier's
VERIFY_MAX_Q = NAIVE_MAX_Q

_EPS = np.finfo(np.float64).eps
# p^-e rounds to 0.0 once e*log2(p) > 1075 (2^-1075 is half the least
# subnormal); the margin covers the rounding of e*log2(p) and of pow
_UNDERFLOW_BITS = 1100.0


@dataclass(frozen=True)
class TruncationPlan:
    """Truncation depths with their certified remainder bounds."""

    A: int
    P: int
    M: int
    K: int
    delta: int
    e1_bound: float
    e2_bound: float


@dataclass(frozen=True)
class SigmaSplit:
    """log R(q) split into its prime part and prime-power part.

    prime_sum + power_sum == total bit-exactly as stored.
    """

    q: int
    prime_sum: float
    power_sum: float
    total: float
    plan: TruncationPlan


def _log_e1(q: int, P: int, M: int) -> float:
    return (
        math.log(P)
        + math.log(q - 1)
        - math.log(M)
        - math.log(M - 1)
        - math.log(P - 1)
        - M * math.log(P)
    )


def _log_e2(q: int, P: int, K: int) -> float:
    lpk = K * math.log(P)
    log_pk_m1 = lpk + math.log1p(-math.exp(-lpk)) if lpk < 700 else lpk
    return math.log(2) + math.log(P) + math.log(q - 1) - 2 * math.log(K) - math.log(P - 1) - log_pk_m1


def choose_plan(q: int, A: int = DEFAULT_A, delta: int = 8) -> TruncationPlan:
    """Minimal M, then minimal K, putting each remainder below 10^-delta / 2.

    Both bounds decay geometrically, so the loops terminate for any delta.
    A plan whose largest exponent u = M*K would overflow the Hurwitz zeta
    weight zeta(u, 1/q) > q^u raises ValueError.
    """
    if A < 1 or delta < 1:
        raise ValueError("choose_plan requires A >= 1 and delta >= 1")
    P = A * q
    target = math.log(0.5) - delta * math.log(10.0)
    M = 2
    while _log_e1(q, P, M) >= target:
        M += 1
    K = 1
    while _log_e2(q, P, K) >= target:
        K += 1
    if M * K * math.log(q) > math.log(np.finfo(np.float64).max):
        raise ValueError(f"delta={delta} is too deep at q={q}: zeta(M*K, 1/q) overflows at M*K = {M * K}")
    return TruncationPlan(
        A=A,
        P=P,
        M=M,
        K=K,
        delta=delta,
        e1_bound=math.exp(_log_e1(q, P, M)),
        e2_bound=math.exp(_log_e2(q, P, K)),
    )


def _sum(terms: np.ndarray) -> float:
    """sum(terms) by ratio._class_sum, within a rounding of math.fsum;
    terms, a fresh temporary, is overwritten."""
    return _class_sum(0.0, terms, np.empty_like(terms))[0]


class _EulerContext:
    """Per-(field, P) scratch, fixed once built: sieved primes, their
    discrete logs, their gcds g = gcd(dlog p, n) and orders n/g, and the
    indices `live` of the primes whose p^-(n/g) does not underflow (every
    other orbit term is an exact 0.0)."""

    def __init__(self, field: PrimeField, P: int):
        if P < field.q:
            raise ValueError("P must be at least q")
        self.field = field
        self.P = int(P)
        primes = sieve_primes(self.P)
        primes = primes[primes != field.q]
        self.primes = primes
        self.pfloat = primes.astype(np.float64)
        self.dlogs = field.dlog[primes % field.q]
        self.gcds = np.gcd(self.dlogs, field.n)
        self.orders = field.n // self.gcds
        self.live = np.flatnonzero(self.orders * np.log2(self.pfloat) < _UNDERFLOW_BITS)

    def l_values(self, s: int) -> np.ndarray:
        """L(s, chi_j) for every j (principal included at j=0) via
        L(s,chi) = q^-s sum_a chi(a) zeta(s, a/q).  The Hurwitz zeta values
        come from specfun.hurwitz_zeta: 7 direct terms and an Euler-Maclaurin
        tail with 9 Bernoulli terms, within 1.1 eps of a 30-digit reference
        from s = 2 to 30."""
        q = self.field.q
        f = np.zeros(q)
        f[1:] = hurwitz_zeta(s, np.arange(1, q) / q)
        return char_spectrum(self.field, f) * float(q) ** (-s)

    def tails(self, M: int, K: int) -> tuple[float, float]:
        """The Moebius tails sum_u c_u T(u) over m >= 1 and over m >= 2, in
        one pass: u = km with k <= K, m <= M, mu(k) != 0 and
        (k,m) != (1,1), and c_u the net coefficient sum mu(k)/(km) of each
        range.  For u <= min(M,K) the m >= 1 divisor sums cancel to an
        IEEE-exact zero; T(u) is evaluated once for each u whose coefficient
        in either tail is not zero."""
        c1: dict[int, float] = defaultdict(float)
        c2: dict[int, float] = defaultdict(float)
        for m in range(1, M + 1):
            for k in range(1, K + 1):
                mk = moebius(k)
                if mk and (k, m) != (1, 1):
                    c1[k * m] += mk / (k * m)
                    if m >= 2:
                        c2[k * m] += mk / (k * m)
        tail1 = tail2 = 0.0
        for u in sorted(c1):
            if c1[u] != 0.0 or c2[u] != 0.0:
                t = _orbit_log_sum(self, u)
                tail1 += c1[u] * t
                tail2 += c2[u] * t
        return tail1, tail2


def _prepare(q: int, A: int, delta: int) -> tuple[PrimeField, TruncationPlan, _EulerContext]:
    """Cost guard (VERIFY_MAX_Q, read at call time), field, truncation plan
    and Euler context for one q."""
    if q > VERIFY_MAX_Q:
        raise CostGuardError(f"verifier refused for q={q} > {VERIFY_MAX_Q}")
    plan = choose_plan(q, A, delta)
    field = build_field(q)
    return field, plan, _EulerContext(field, plan.P)


def head_sum(field: PrimeField, P: int) -> float:
    """r(q,P) = -sum_{chi != chi0} sum_{p<=P} log(1 - chi(p)/p), the
    negated prime orbit sum at u = 1; imaginary parts cancel in conjugate
    pairs, so the total is real exactly."""
    return -_prime_orbit_sum(_EulerContext(field, P), 1)


def _prime_orbit_sum(ctx: _EulerContext, u: int) -> float:
    """sum_{p<=P} sum_{j=1}^{n-1} log|1 - chi_(ju)(p) p^-u| for any u >= 1:
    per prime, g' log(1 - p^(-u n/g')) - log(1 - p^-u), g' = gcd(u dlog p, n)."""
    # g' = g*gcd(u, n/g); u*n/g' >= n/g, so off the live primes the orbit
    # term is an exact zero
    live = ctx.live
    order = ctx.orders[live]
    shared = np.gcd(u, order)
    g2 = ctx.gcds[live] * shared
    with np.errstate(under="ignore"):
        orbit = g2 * np.log1p(-ctx.pfloat[live] ** (-(u * (order // shared)).astype(np.float64)))
        plain = np.log1p(-ctx.pfloat ** (-float(u)))
    return _sum(orbit) - _sum(plain)


def _orbit_log_sum(ctx: _EulerContext, u: int) -> float:
    """T(u) = sum_{j=1}^{n-1} Re log L_P(u, chi_(ju mod n)), u >= 2.

    L-part over the orbit of multiples of gcd(u, n), plus the prime orbit
    sum; the j=0 (principal) term, for which
    L_P(u, chi0) = zeta(u) prod_{p<=P}(1 - p^-u), is subtracted.
    """
    field = ctx.field
    n = field.n
    gs = gcd(u, n)
    idx = gs * np.arange(n // gs)
    lsum = gs * _sum(np.log(np.abs(ctx.l_values(u)[idx])))
    princ = math.log1p(float(sp.zetac(u))) + math.log1p(-float(field.q) ** (-u))
    total = lsum - princ + _prime_orbit_sum(ctx, u)

    bound = (n - 1) * float(ctx.P) ** (1 - u) / (u - 1)
    slack = 1e-10 + 16 * _EPS * math.log2(max(n, 2)) * n
    if abs(total) > bound * (1 + 1e-6) + slack:
        raise VerificationError(f"orbit sum T({u}) = {total:.3e} exceeds bound {bound:.3e}")
    return total


def moebius_tail(field: PrimeField, plan: TruncationPlan, l1_values) -> float:
    """S(q,P,M,K): the Moebius-inverted tail of the split Euler product.

    The unique km=1 term is sum_chi Re log[L(1,chi) prod_{p<=P}(1-chi(p)/p)]
    = sum_chi log|L(1,chi)| - r(q,P); only magnitudes of the supplied
    L(1,chi) values enter (Re log is branch-independent).
    """
    l1 = np.abs(np.asarray(l1_values))
    if l1.shape[0] != field.n - 1:
        raise ValueError(f"need {field.n - 1} L(1,chi) values, got {l1.shape[0]}")
    if float(np.min(l1)) <= 0.0:
        raise ValueError("L(1,chi) magnitudes must be positive")
    ctx = _EulerContext(field, plan.P)
    return _sum(np.log(l1)) + _prime_orbit_sum(ctx, 1) + ctx.tails(plan.M, plan.K)[0]


def verify_ratio(q: int, A: int = DEFAULT_A, delta: int = 8) -> SigmaSplit:
    """Recompute log R(q) from prime sums, truncation certified to 10^-delta.

    log_R_check = head_sum + moebius_tail, whose km=1 term is
    sum(log|L(1,chi)|) - head_sum; the heads cancel, leaving
    sum(log|L(1,chi)|), which is the log R of the direct O(q^2) oracle
    ratio.log_ratio_naive, plus the km >= 2 tail.  That tail sums to zero
    only up to the truncation remainders E1+E2, and its cancellation is
    the one check of the orbit sums T(u) that the prime-power part reuses.
    So the check compares the FFT route against the direct L(1,chi) sums
    plus a truncated Euler product; the 10^-delta certificate covers
    E1+E2, not rounding.  The returned split carries the prime-power part
    computed by the same machinery, with the prime part as the difference
    (re-rounded so the stored identity is bit-exact).
    """
    field, plan, ctx = _prepare(q, A, delta)
    tail1, tail2 = ctx.tails(plan.M, plan.K)
    total = log_ratio_naive(field).log_R + tail1
    power = _power_sum(ctx, plan, tail2)
    prime = total - power
    return SigmaSplit(q=q, prime_sum=prime, power_sum=power, total=prime + power, plan=plan)


def _power_head(ctx: _EulerContext) -> float:
    """The prime-power part's head over p <= P: the head sum
    sum_p sum_{m>=1} (n [ord_q p | m] - 1)/(m p^m) less its m = 1 terms."""
    first = np.where(ctx.orders == 1, ctx.field.n - 1.0, -1.0) / ctx.pfloat
    return -_prime_orbit_sum(ctx, 1) - _sum(first)


def _power_sum(ctx: _EulerContext, plan: TruncationPlan, tail: float) -> float:
    """Prime-power part: its head plus the m >= 2 Moebius tail, checked
    against bounds.simple_bound."""
    q = ctx.field.q
    value = _power_head(ctx) + tail
    bound = simple_bound(q)
    if abs(value) > bound + 10.0 ** (-plan.delta):
        raise VerificationError(f"q={q}: |prime-power sum| = {abs(value):.6f} violates bound {bound:.6f}")
    return value


def prime_power_sum(q: int, A: int = DEFAULT_A, delta: int = 8) -> float:
    """The prime-power part of log R(q), certified to 10^-delta."""
    _, plan, ctx = _prepare(q, A, delta)
    return _power_sum(ctx, plan, ctx.tails(plan.M, plan.K)[1])


def mertens_constant_q1(split: SigmaSplit) -> float:
    """Mertens constant M(q,1) of the progression 1 mod q.

    Inverts prime_sum = (q-1) M(q,1) - M + 1/q  (q prime, so the sum of
    1/p over p | q is 1/q).
    """
    consts = constants_table()
    return (split.prime_sum + consts.meissel_mertens - 1.0 / split.q) / (split.q - 1)
