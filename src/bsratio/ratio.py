"""log R(q) = sum over nonprincipal characters of log L(1, chi).

Three routes to the same number:

* FFT      -- the production route.  With h = (q-1)/2 and a_k = g^k mod q,
              a_{k+h} = q - a_k, so each parity class folds onto a
              length-h sequence.  Odd characters come from the transform of
              d_k = ((2 a_k - q)/q) e(-k/(q-1)); even ones, through the
              reflection formula log Gamma(x) + log Gamma(1-x) =
              log pi - log sin(pi x), from the transform of the
              cyclotomic-unit weights y_k = log sin(pi b_k/q) with
              b_k = min(a_k, q - a_k).  No log Gamma is evaluated, and one
              bin of each conjugate pair is consumed, with weight 2.
* DIGAMMA  -- every character through sum_a chi(a) psi(a/q) on the full
              length-(q-1) spectrum; used as a cross-check of the FFT route.
* NAIVE    -- the unfolded per-character sums (linear and log Gamma
              weights) evaluated by direct O(q^2) summation, no FFT code
              shared; the oracle for both.  Only the bins a parity class
              consumes are summed, in sqrt(q)-blocks (_naive_abs_sums).

Each route ends in _record, the single assembly step: it takes the
magnitudes of each parity class with their prefactor and weights, guards
against a degenerate spectrum, sums the logs and computes err_est.  Its
sums go through math.fsum: the parity prefactors grow like q log q while
log R stays O(1), so the final additions cancel massively and plain
accumulation would lose the 1e-10 cross-method target.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from . import fft
from .errors import CostGuardError, DegenerateSpectrumError
from .ntheory import PrimeField

LOG_2PI = math.log(2.0 * math.pi)
_EPS = np.finfo(np.float64).eps
_DEGENERATE = 1e-30

NAIVE_MAX_Q = 100_000


class Method(enum.Enum):
    FFT = "fft"
    DIGAMMA = "digamma"
    NAIVE = "naive"


@dataclass(frozen=True)
class RatioRecord:
    q: int
    odd_part: float
    even_part: float
    method: Method
    err_est: float

    @property
    def log_R(self) -> float:
        return self.odd_part + self.even_part

    @property
    def R(self) -> float:
        return math.exp(self.log_R)


def _linear_weights(q: int) -> np.ndarray:
    return np.arange(q, dtype=np.float64) / q


def _loggamma_weights(q: int) -> np.ndarray:
    f = np.zeros(q)
    f[1:] = sp.gammaln(np.arange(1, q) / q)
    return f


def _digamma_weights(q: int) -> np.ndarray:
    f = np.zeros(q)
    f[1:] = sp.psi(np.arange(1, q) / q)
    return f


def _guard_bins(mag: np.ndarray, q: int, what: str) -> None:
    if mag.size and float(np.min(mag)) < _DEGENERATE:
        raise DegenerateSpectrumError(
            f"q={q}: {what} character sum below {_DEGENERATE:g}; "
            "L(1,chi) cannot vanish, so this is a precision failure"
        )


def _odd_pref(q: int) -> float:
    # log L(1,chi) = log(pi/sqrt q) + log|sum_a (a/q) chi(a)| for odd chi
    return ((q - 1) / 2) * (math.log(math.pi) - math.log(q) / 2)


def _even_pref(q: int) -> float:
    # log L(1,chi) = log(2/sqrt q) + log|sum_a chi(a) log Gamma(a/q)| for even chi
    return ((q - 3) / 2) * (math.log(2.0) - math.log(q) / 2)


def _paired_bins(spec: np.ndarray, lo: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """|spec[m]| for lo <= m <= s/2, with weights: bins m and s - m are
    conjugate, so each bin counts for its pair (2) unless m = s - m (1)."""
    m = np.arange(lo, s // 2 + 1)
    return np.abs(spec[m]), np.where(2 * m == s, 1.0, 2.0)


def _record(q: int, method: Method, n: int, odd: tuple, even: tuple) -> RatioRecord:
    """The one assembly step from spectrum magnitudes to a RatioRecord.

    Each parity class is (pref, |S_j|, w, sum|x|): its part of log R is
    pref + sum_j w_j log|S_j|, with w_j the number of characters bin j
    stands for.  err_est is the forward budget 4 eps log2(n) sum|x|
    sum_j w_j/|S_j| over both classes (per-bin FFT error ~ eps log2(n)
    sum|x| for a length-n transform of x, relative to each consumed bin);
    heuristic, not certified.  sum|x| = 0 marks magnitudes that no
    transform produced, which carry no budget.
    """
    parts, budget = [], 0.0
    for what, (pref, mag, w, sum_abs_x) in (("odd", odd), ("even", even)):
        _guard_bins(mag, q, what)
        parts.append(math.fsum([pref] + (w * np.log(mag)).tolist()))
        budget += sum_abs_x * float(np.sum(w / mag))
    err_est = float(4.0 * _EPS * math.log2(max(n, 2)) * budget)
    return RatioRecord(q, parts[0], parts[1], method, err_est)


def log_ratio_fft(field: PrimeField) -> RatioRecord:
    """Production route: each parity class from one length-h transform,
    h = (q-1)/2.  See the module docstring for the fold.

    Odd class: for odd chi_{2m+1} the terms at k and k + h combine to
    ((2 a_k - q)/q) e((2m+1)k/(q-1)), so the sum is conj(D[m]) with D the
    transform of d; D[h-1-m] = conj(D[m]).

    Even class: for even chi_{2m} the terms at k and k + h combine, by the
    reflection formula, to (log pi - y_k) e(-mk/h), and the constant drops
    out for m != 0: the sum is -Y[m] with Y the transform of y, and
    Y[h-m] = conj(Y[m]).  b_k <= h keeps sin well conditioned (at a = q-1,
    sin(pi a/q) would lose about q eps of relative accuracy).  At q = 3
    the class is empty.

    Each magnitude is logged once per conjugate pair.  Both transforms go
    through fft.dft_fast, so the second reuses the chirp kernel the first
    one built (unless h is a power of two, which needs none).
    """
    q, h = field.q, field.n // 2
    a = field.pow_table[:h]
    d = ((2 * a - q) / q) * np.exp((-2j * np.pi / field.n) * np.arange(h))
    y = np.log(np.sin((np.pi / q) * np.minimum(a, q - a)))
    odd = (_odd_pref(q), *_paired_bins(fft.dft_fast(d), 0, h - 1), float(np.sum(np.abs(d))))
    even = (_even_pref(q), *_paired_bins(fft.dft_fast(y), 1, h), float(np.sum(np.abs(y))))
    return _record(q, Method.FFT, h, odd, even)


def log_ratio_digamma(field: PrimeField) -> RatioRecord:
    """Cross-check route: log R = -(q-2) log q + sum_j log|sum_a chi_j(a) psi(a/q)|."""
    q = field.q
    f = _digamma_weights(q)
    spec = fft.char_spectrum(field, f)
    sum_abs_f = float(np.sum(np.abs(f)))
    # log|L(1,chi_j)| = -log q + log|S_j|, split by parity class: chi_j(-1) = (-1)^j
    odd = (-((q - 1) / 2) * math.log(q), np.abs(spec[1::2]), 1.0, sum_abs_f)
    even = (-((q - 3) / 2) * math.log(q), np.abs(spec[2::2]), 1.0, sum_abs_f)
    return _record(q, Method.DIGAMMA, q - 1, odd, even)


def _naive_abs_sums(field: PrimeField) -> np.ndarray:
    """|S_j| for j = 0..n-1 (n = q-1), S_j = sum_k f(g^k) e(jk/n) by direct
    summation (no FFT), with the weights each parity class consumes:
    f(a) = a/q for odd j, f(a) = log Gamma(a/q) for even j (bin 0 included).

    Only bins j <= n/2 are summed; both weight vectors are real, so
    S_{n-j} = conj(S_j) gives the rest.  Each sum is blocked as
    k = k1 B + k0 with B = isqrt(n) and x zero-padded to a multiple of B:
    e(jk/n) = e((j k0 mod n)/n) e((j B k1 mod n)/n), so a block of rows is
    one matrix product over k0 and one elementwise product over k1, and
    each bin costs O(sqrt n) index work beside its n terms.
    """
    q, n = field.q, field.n
    h = n // 2
    B = math.isqrt(n)
    n1 = -(-n // B)
    omega = np.exp((2j * np.pi / n) * np.arange(n))
    k0 = np.arange(B, dtype=np.int64)
    k1 = B * np.arange(n1, dtype=np.int64)
    step = 2 * max(1, (1 << 20) // max(B, n1))  # temporaries <= ~2^20 entries
    out = np.empty(n)
    for f_res, first in ((_linear_weights(q), 1), (_loggamma_weights(q), 0)):
        x = np.zeros(n1 * B)
        x[:n] = f_res[field.pow_table]
        xt = x.reshape(n1, B).T
        for j0 in range(first, h + 1, step):
            js = np.arange(j0, min(j0 + step, h + 1), 2, dtype=np.int64)[:, None]
            inner = omega[(js * k0) % n] @ xt
            out[js[:, 0]] = np.abs(np.sum(inner * omega[(js * k1) % n], axis=1))
    out[h + 1 :] = out[h - 1 : 0 : -1]
    return out


def log_ratio_naive(field: PrimeField) -> RatioRecord:
    """Oracle route: direct per-character sums, O(q^2)."""
    q = field.q
    if q > NAIVE_MAX_Q:
        raise CostGuardError(f"naive method refused for q={q} > {NAIVE_MAX_Q}")
    abs_s = _naive_abs_sums(field)
    # no transform, so no rounding budget; the even class is empty at q = 3
    odd = (_odd_pref(q), abs_s[1::2], 1.0, 0.0)
    even = (_even_pref(q), abs_s[2::2], 1.0, 0.0)
    return _record(q, Method.NAIVE, field.n, odd, even)


def naive_l1_magnitudes(field: PrimeField) -> np.ndarray:
    """|L(1, chi_j)| for j = 1..q-2, from the direct per-character sums.

    Odd j: (pi/sqrt q) |sum_a (a/q) chi_j(a)|; even j:
    (2/sqrt q) |sum_a chi_j(a) log Gamma(a/q)|.  Shares no FFT code, so
    the km=1 term of the prime-sum verifier, which carries log R, is
    independent of dft_fast.
    """
    q = field.q
    if q > NAIVE_MAX_Q:
        raise CostGuardError(f"naive method refused for q={q} > {NAIVE_MAX_Q}")
    abs_s = _naive_abs_sums(field)
    rootq = math.sqrt(q)
    mags = np.empty(q - 1)
    mags[1::2] = (math.pi / rootq) * abs_s[1::2]
    mags[2::2] = (2.0 / rootq) * abs_s[2::2]
    _guard_bins(mags[1:], q, "per-character")
    return mags[1:]


def log_H(q: int) -> float:
    """log of the normalization H(q) = 2 sqrt(q) (q/(2 pi))^((q-1)/2).

    Evaluated in log space; H itself overflows doubles near q ~ 400.
    """
    if q < 3:
        raise ValueError("log_H requires q >= 3")
    lq = math.log(q)
    return math.fsum([math.log(2.0), 0.5 * lq, ((q - 1) / 2) * (lq - LOG_2PI)])


def log_hreg(record: RatioRecord) -> float:
    """log(h(q) Reg(q)) = log R(q) + log H(q)."""
    return record.log_R + log_H(record.q)
