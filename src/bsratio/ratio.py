"""log R(q) = sum over nonprincipal characters of log L(1, chi).

Three routes to the same number:

* log_ratio_fft     -- the production route.  With h = (q-1)/2 and
                       a_k = g^k mod q, a_{k+h} = q - a_k, so the real array
                       x = (y + c, y - c), c_k = (a_k - q/2)/q,
                       y_k = log sin(pi min(a_k, q - a_k)/q), carries both
                       parity classes: in its transform the odd bins are the
                       (a/q)-sums of the odd characters and the even bins
                       j >= 2, by the reflection formula log Gamma(x) +
                       log Gamma(1-x) = log pi - log sin(pi x), -2 times
                       their log Gamma sums.  Bins 0..h (weight 2, bin h
                       weight 1) come from one complex length-h transform
                       of z_k = x_{2k} + i x_{2k+1} and the real-FFT split
                       step; no log Gamma is evaluated.
* log_ratio_digamma -- every character through sum_a chi(a) psi(a/q) on the
                       full length-(q-1) spectrum; used as a cross-check of
                       the FFT route.
* log_ratio_naive   -- the oracle for both, sharing no FFT code: each
                       |L(1, chi_j)| from its unfolded sum (linear or log
                       Gamma weights) by direct O(q^2) summation
                       (naive_l1_magnitudes, which the prime-sum verifier
                       uses too), assembled by _record with no prefactor.
                       Only the bins a parity class consumes are summed, in
                       sqrt(q)-blocks, and q above NAIVE_MAX_Q is refused.

Each route ends in _record, the single assembly step: it takes the
magnitudes of each parity class with their prefactor and weights, guards
against a degenerate spectrum, sums the logs and computes err_est, a
norm-wise budget for the one transform the magnitudes came from.  Its
class sums are exact but for two roundings (_class_sum): the parity
prefactors grow like q log q while log R stays O(1), so the final
additions cancel massively and plain accumulation would lose the 1e-10
cross-method target.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class RatioRecord:
    q: int
    odd_part: float
    even_part: float
    err_est: float

    @property
    def log_R(self) -> float:
        return self.odd_part + self.even_part

    @property
    def R(self) -> float:
        return math.exp(self.log_R)


def _guard_bins(mag: np.ndarray, q: int, what: str) -> None:
    if mag.size and float(np.minimum.reduce(mag)) < _DEGENERATE:
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


def _class_sum(pref: float, p: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """pref + sum(p), in effect exactly, and sum|p_i|; p is overwritten
    and t, a scratch array of p's size, too.

    The sum is the error-free ExtractVector split of Rump, Ogita and
    Oishi (SIAM J. Sci. Comput. 31(1), 2008), vectorised.  With n = len(p),
    mu = max|p_i| and sigma a power of two >= (n+2) mu
    (sigma < 4 (n+2) mu), hi_i = (sigma + p_i) - sigma and lo_i = p_i - hi_i
    are exact: p_i = hi_i + lo_i, the hi_i are multiples of u sigma
    (u = eps/2) whose partial sums stay below sigma, so np.add.reduce adds
    them without error in any order, and |lo_i| <= u sigma.  Only two
    roundings are left.  np.add.reduce adds an array pairwise, in blocks
    of at most 128 terms that pass each term through at most 25 additions, so
    the sum of the lo_i errs by at most
    delta = (25 + log2 n) u sum|lo_i| <= (25 + log2 n) n u^2 sigma
    < 4 (25 + log2 n) n (n+2) u^2 mu, and the final fsum of three terms
    rounds once.  So for any finite p, signs and magnitudes mixed as they
    may be, the result is pref + sum(p) within delta plus half an ulp, and
    math.fsum's within delta plus 2 ulp; primesum's sums rely on that.
    Against the 2 eps sum_j w_j >= 4 u n that _record budgets for a class
    sum, delta is a share below (25 + log2 n)(n + 2) u mu, under 3e-6 at
    any q <= 1e7: a class holds at most (q-1)/2 bins of weight 1 or
    (q-1)/4 of weight 2, and |log(|X_j|/s)| <= 69 between the degeneracy
    guard's 1e-30 and ||x||_1 < 1e15, so (n + 2) mu < 3.5e8.
    """
    np.abs(p, out=t)
    # the ufuncs' own reduce: np.sum and np.max wrap it in Python calls
    # that cost more than the sum itself at small q
    mu = float(np.maximum.reduce(t, initial=0.0))
    abs_sum = float(np.add.reduce(t))
    sigma = math.ldexp(1.0, (p.size + 1).bit_length() + math.frexp(mu)[1])
    np.add(p, sigma, out=t)
    t -= sigma  # hi
    p -= t  # lo
    return math.fsum([pref, float(np.add.reduce(t)), float(np.add.reduce(p))]), abs_sum


def _norm(v: np.ndarray) -> float:
    # ||v||_2 of a real or complex array; einsum runs its own loop, not a
    # BLAS dot, which splits long inputs across the ambient BLAS threads
    # and would make err_est's bytes follow them
    v = v.view(np.float64)
    return math.sqrt(float(np.einsum("i,i->", v, v)))


def _record(q: int, odd: tuple, even: tuple, transform: tuple | None = None) -> RatioRecord:
    """The one assembly step from spectrum magnitudes to a RatioRecord.

    Each parity class is (pref, |X_j|/s, w, s): its part of log R is
    pref + sum_j w_j log(|X_j|/s), with w_j the number of characters bin j
    stands for and s an exact power-of-two scale, summed by _class_sum.
    The weights of a class add up to its number of characters, (q-1)/2
    odd and (q-3)/2 even ones.  The magnitude arrays are overwritten.
    transform is (L, ||x||_2) for the one length-L transform of the signal
    x behind every |X_j|, or None when no transform produced them (then
    err_est = 0).

    err_est is a norm-wise budget; heuristic, not certified.  With
    n = q - 1 bins and x the n real weights the signal holds, the
    computed spectrum is taken to satisfy
        ||dX||_2 <= eps sqrt(n) ((4 log2 L + 2) ||x||_2 + 3 sqrt n):
    4 eps log2(L) sqrt(n) ||x||_2 for the transform (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 24), and the rounding
    of each weight, |dx_k| <= eps (3 + 2|x_k|), pushed through it exactly
    (Parseval).  Cauchy-Schwarz over all n bins turns that into
    sum_j w_j |dX_j|/|X_j| <= ||dX||_2 (sum_j w_j/|X_j|^2)^(1/2), the
    consumed bins standing for their conjugates.  The rounding of abs, log,
    the prefactor and the class sum adds 2 eps (|pref| + sum_j w_j (1 +
    |log(|X_j|/s)|)) per class; the class sum takes a vanishing share of it.
    """
    parts, inv_sq, rounding = [], 0.0, 0.0
    for what, count, (pref, mag, w, s) in (("odd", (q - 1) / 2, odd), ("even", (q - 3) / 2, even)):
        _guard_bins(mag, q, what)
        t = np.multiply(mag, mag)
        np.divide(w, t, out=t)
        inv_sq += float(np.add.reduce(t)) / (s * s)
        logs = np.log(mag, out=mag)
        logs *= w
        part, abs_sum = _class_sum(pref, logs, t)
        parts.append(part)
        rounding += abs(pref) + count + abs_sum
    err_est = 0.0
    if transform is not None:
        length, norm_x = transform
        root_n = math.sqrt(q - 1)
        dx = root_n * ((4.0 * math.log2(max(length, 2)) + 2.0) * norm_x + 3.0 * root_n)
        err_est = float(_EPS * (dx * math.sqrt(inv_sq) + 2.0 * rounding))
    return RatioRecord(q, parts[0], parts[1], err_est)


def _log_index_signal(field: PrimeField) -> np.ndarray:
    # x = (y + c, y - c) of log_ratio_fft, built in place; c is the one
    # temporary, and it is gone before the transform allocates its buffers
    q, h = field.q, field.n // 2
    a = field.pow_table[:h]
    x = np.empty(field.n)
    y = x[:h]  # y, then y + c
    np.minimum(a, field.pow_table[h:], out=y)  # q - a_k = a_{k+h}
    y *= np.pi / q
    np.log(np.sin(y, out=y), out=y)
    c = a - q / 2
    c /= q
    np.subtract(y, c, out=x[h:])
    y += c
    return x


def log_ratio_fft(field: PrimeField) -> RatioRecord:
    """Production route: both parity classes from one length-h transform,
    h = (q-1)/2.

    x has the length-(q-1) transform X_j = sum_k x_k e(-jk/(q-1)).  As c
    flips sign and y repeats between the halves of x, odd j see only 2c
    and even j only 2y:
      odd j  : X_j = conj(sum_a (a/q) chi_j(a)),
      even j : X_j = conj(sum_a chi_j(a) log sin(pi a/q))
                   = -2 conj(sum_a chi_j(a) log Gamma(a/q))  (j != 0).
    min(a_k, q - a_k) <= h keeps sin well conditioned (at a = q-1,
    sin(pi a/q) would lose about q eps of relative accuracy), and log sin
    runs on h points only.

    X is real-input, so bins 0..h carry every character: bin j stands for
    itself and its conjugate q-1-j (weight 2), except j = h (weight 1).
    With Z the transform of the zero-copy view z_k = x_{2k} + i x_{2k+1},
      X_j = (Z_j + conj Z_{h-j})/2 - (i/2) e(-j/(q-1)) (Z_j - conj Z_{h-j}),
    indices mod h, computed as Q + alpha (P - Q) with P = Z_j,
    Q = conj Z_{h-j} and alpha = (1 - i e(-j/(q-1)))/2.  Odd bins are the
    odd class; even bins j >= 2, halved, the even class, each with its
    class prefactor (_odd_pref, _even_pref).  At q = 3 (h = 1) the even
    class is empty.
    """
    q, n = field.q, field.n
    h = n // 2
    x = _log_index_signal(field)
    z = x.view(np.complex128)
    transform = (h, _norm(x))
    zj = fft.dft_fast(z)
    # X_j = Q + alpha (P - Q) for j = 1..h-1; Q goes to z's memory, free now
    p, qc = zj[1:], np.conjugate(zj[:0:-1], out=z[1:])
    p -= qc
    alpha = fft.twiddle_range(h, n)[1:]
    alpha *= -0.5j
    alpha += 0.5
    p *= alpha
    p += qc
    # |X_j| of the odd bins j = 1, 3, .. and of the even bins j = 2, 4, ..
    # up to h, each class contiguous
    mag = np.empty(h)
    ho = (h + 1) // 2  # odd bins
    np.abs(p[0::2], out=mag[: h // 2])
    np.abs(p[1::2], out=mag[ho : ho + (h - 1) // 2])
    # bin h closes its class: X_h = Re Z_0 - Im Z_0 (Z_h = Z_0, e(-h/(q-1)) = -1)
    last = ho - 1 if h % 2 else h - 1
    mag[last] = abs(zj[0].real - zj[0].imag)
    mag[ho:] *= 0.5  # the even class, |X_j|/2
    w = np.full(h, 2.0)
    w[last] = 1.0
    odd = (_odd_pref(q), mag[:ho], w[:ho], 1.0)
    even = (_even_pref(q), mag[ho:], w[ho:], 2.0)
    return _record(q, odd, even, transform)


def log_ratio_digamma(field: PrimeField) -> RatioRecord:
    """Cross-check route: log R = -(q-2) log q + sum_j log|sum_a chi_j(a) psi(a/q)|."""
    q = field.q
    f = np.zeros(q)
    f[1:] = sp.psi(np.arange(1, q) / q)
    spec = fft.char_spectrum(field, f)
    # log|L(1,chi_j)| = -log q + log|S_j|, split by parity class: chi_j(-1) = (-1)^j
    odd = (-((q - 1) / 2) * math.log(q), np.abs(spec[1::2]), 1.0, 1.0)
    even = (-((q - 3) / 2) * math.log(q), np.abs(spec[2::2]), 1.0, 1.0)
    return _record(q, odd, even, (q - 1, _norm(f[1:])))


def naive_l1_magnitudes(field: PrimeField) -> np.ndarray:
    """|L(1, chi_j)| for j = 1..q-2 by direct summation, no FFT code shared.

    Odd j: (pi/sqrt q) |S_j| with f(a) = a/q; even j: (2/sqrt q) |S_j| with
    f(a) = log Gamma(a/q) (bin 0 included), S_j = sum_k f(g^k) e(jk/n),
    n = q-1.  Only bins j <= n/2 are summed; both weight vectors are real,
    so S_{n-j} = conj(S_j) gives the rest.  Each sum is blocked as
    k = k1 B + k0 with B = isqrt(n) and x zero-padded to a multiple of B:
    e(jk/n) = e((j k0 mod n)/n) e((j B k1 mod n)/n), so a block of rows is
    one matrix product over k0 and one elementwise product over k1, and
    each bin costs O(sqrt n) index work beside its n terms.  q above
    NAIVE_MAX_Q raises CostGuardError before any of that work.
    """
    q = field.q
    if q > NAIVE_MAX_Q:
        raise CostGuardError(f"naive method refused for q={q} > {NAIVE_MAX_Q}")
    n = field.n
    h = n // 2
    B = math.isqrt(n)
    n1 = -(-n // B)
    omega = np.exp((2j * np.pi / n) * np.arange(n))
    k0 = np.arange(B, dtype=np.int64)
    k1 = B * np.arange(n1, dtype=np.int64)
    step = 2 * max(1, (1 << 20) // max(B, n1))  # temporaries <= ~2^20 entries
    linear = np.arange(q, dtype=np.float64) / q
    loggamma = np.zeros(q)
    loggamma[1:] = sp.gammaln(np.arange(1, q) / q)
    rootq = math.sqrt(q)
    mags = np.empty(n)
    for f_res, first, scale in ((linear, 1, math.pi / rootq), (loggamma, 0, 2.0 / rootq)):
        x = np.zeros(n1 * B)
        x[:n] = f_res[field.pow_table]
        xt = x.reshape(n1, B).T
        for j0 in range(first, h + 1, step):
            js = np.arange(j0, min(j0 + step, h + 1), 2, dtype=np.int64)[:, None]
            inner = omega[(js * k0) % n] @ xt
            mags[js[:, 0]] = scale * np.abs(np.sum(inner * omega[(js * k1) % n], axis=1))
    mags[h + 1 :] = mags[h - 1 : 0 : -1]
    _guard_bins(mags[1:], q, "per-character")
    return mags[1:]


def log_ratio_naive(field: PrimeField) -> RatioRecord:
    """Oracle route: log R = sum_j log|L(1, chi_j)| over naive_l1_magnitudes,
    O(q^2)."""
    mags = naive_l1_magnitudes(field)
    # _record overwrites its magnitudes, and the caller of
    # naive_l1_magnitudes may keep the array; no transform, so err_est = 0
    odd = (0.0, mags[0::2].copy(), 1.0, 1.0)
    even = (0.0, mags[1::2].copy(), 1.0, 1.0)
    return _record(field.q, odd, even)


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
