"""Arbitrary-length DFTs and character-sum spectra.

A character sum over all residues, sum_a chi_j(a) f(a), becomes a plain
length-(q-1) DFT once the residues are reindexed by the discrete log of a
primitive root g: with x[k] = f(g^k) the j-th spectrum entry is
sum_k x[k] e(jk/(q-1)), where e(t) = exp(2 pi i t).

A length n = s r is split into its 11-smooth part s, whose prime factors
are the radices scipy.fft runs natively, and its rough part r (Cooley and
Tukey, Math. Comp. 19, 1965): s-point transforms down the columns of the
s x r array x, one twiddle e(-j k/n) per entry, then r-point transforms
along its rows.  The s-point transforms come from scipy.fft.  The r-point
ones use Bluestein's chirp-z reduction (IEEE Trans. Audio Electroacoust.
18(4), 1970) to a cyclic convolution of length
scipy.fft.next_fast_len(2r - 1); all s rows share one chirp kernel, and
their transforms run in place on buffers _bluestein allocates itself.
Every scipy.fft call uses one worker.  Twiddles e(-k/m) come from
twiddle(), which splits the integer k as k1 B + k0 (B = isqrt(m) + 1) and
multiplies entries of two tables of about sqrt(m) points, so a length-r
chirp costs about 2 sqrt(2r) cos/sin evaluations instead of r complex
exponentials.  The chirp reduces k^2 mod 2r exactly in integers first,
and the split's twiddle index j k is below n, so accuracy is uniform up
to lengths around 1e7.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.fft as _sfft

from .ntheory import PrimeField


def _fft(x: np.ndarray, overwrite: bool = False, axis: int = -1) -> np.ndarray:
    # workers pinned to 1: output must not depend on ambient thread counts
    return _sfft.fft(x, axis=axis, workers=1, overwrite_x=overwrite)


def _ifft(x: np.ndarray) -> np.ndarray:
    # runs only on buffers _bluestein allocated itself, so it may overwrite x
    return _sfft.ifft(x, workers=1, overwrite_x=True)


def _unit_roots(j: np.ndarray, m: int) -> np.ndarray:
    # e(-j/m) with j shifted into (-m/2, m/2] first, so |angle| <= pi
    j = np.where(2 * j > m, j - m, j)
    return np.exp((-2j * np.pi / m) * j)


def twiddle(k: np.ndarray, m: int) -> np.ndarray:
    """e(-k/m) for an int64 array of integers 0 <= k < m.

    With B = isqrt(m) + 1 and k = k1 B + k0, 0 <= k0 < B, the result is
    e(-k1 B/m) e(-k0/m): the product of an entry from each of two tables
    of at most B + 1 points.  Every table entry comes from the exact
    integer k1 B or k0, shifted by -m into (-m/2, m/2], so the angle never
    exceeds pi; against a 30-digit reference the error was at most 2.5 eps
    in samples at m up to 2e6.
    """
    B = math.isqrt(m) + 1
    k1 = k // B
    out = _unit_roots(B * np.arange(m // B + 1, dtype=np.int64), m).take(k1)
    k1 *= -B
    k1 += k  # now k0 = k - k1 B
    out *= _unit_roots(np.arange(B, dtype=np.int64), m).take(k1)
    return out


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError("input must be a nonempty 1-d sequence")
    if not np.isfinite(x).all():
        raise ValueError("input contains NaN or Inf")
    return np.ascontiguousarray(x, dtype=np.complex128)


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


@lru_cache(maxsize=1)
def _chirp_kernel(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chirp w[k] = e(-k^2/(2n)) and the transformed convolution kernel.

    k^2 is reduced mod 2n in integer arithmetic and the chirp taken from
    twiddle(), so the argument never exceeds pi and the twiddles stay
    accurate at any length.  The kernel's mirror image is copied from its
    own first half and transformed in place.  n is the rough part of a
    transform length.  One entry is cached: the production route runs one
    transform of length h = (q-1)/2 per q, and the full-length spectra
    (digamma route, verifier) use q-1 = 2h, whose rough part is h's, so
    every transform one q touches shares one kernel; a second entry would
    only hold the previous q's.  Both arrays are read-only, since every
    call of that length shares them.
    """
    k = np.arange(n, dtype=np.int64)
    k *= k
    k %= 2 * n
    w = twiddle(k, 2 * n)
    size = _sfft.next_fast_len(2 * n - 1, real=False)
    b = np.zeros(size, dtype=np.complex128)
    np.conjugate(w, out=b[:n])
    b[size - n + 1 :] = b[n - 1 : 0 : -1]
    bhat = _fft(b, overwrite=True)
    w.setflags(write=False)
    bhat.setflags(write=False)
    return w, bhat


def _bluestein(x: np.ndarray) -> np.ndarray:
    # the DFT of each row of x (1-d or 2-d); both inner transforms overwrite
    # a, which nothing outside this call sees
    n = x.shape[-1]
    w, bhat = _chirp_kernel(n)
    a = np.zeros(x.shape[:-1] + bhat.shape, dtype=np.complex128)
    np.multiply(x, w, out=a[..., :n])
    a = _fft(a, overwrite=True)
    a *= bhat
    a = _ifft(a)
    return np.multiply(a[..., :n], w)


def _smooth_part(n: int) -> int:
    s = 1
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
            s *= p
    return s


def dft_fast(x: np.ndarray) -> np.ndarray:
    """DFT with the same contract as dft_naive, in O(n log n).

    With n = s r, s the 11-smooth part of n, and input and output indexed
    as m = m1 r + m2 and k = k1 + s k2,
        X[k1 + s k2] = sum_m2 e(-m2 k2/r) e(-m2 k1/n) sum_m1 x[m1 r + m2] e(-m1 k1/s):
    the library transform of length s down the columns of x.reshape(s, r),
    the twiddle e(-k1 m2/n), then Bluestein along the s rows of length r.
    An 11-smooth length (s = n) goes straight to the library transform, a
    length with no prime factor up to 11 (s = 1) straight to Bluestein.
    """
    x = _check_finite(x)
    n = x.shape[0]
    s = _smooth_part(n)
    if s == n:
        return _fft(x)
    if s == 1:
        return _bluestein(x)
    r = n // s
    y = _fft(x.reshape(s, r), axis=0)
    y *= twiddle(np.outer(np.arange(s, dtype=np.int64), np.arange(r, dtype=np.int64)), n)
    return _bluestein(y).T.ravel()


def char_spectrum(field: PrimeField, f: np.ndarray) -> np.ndarray:
    """All character sums mod q of a real-valued map on {1,..,q-1}.

    f is an array of length q indexed by residue (entry 0 unused).  Returns
    S with S[j] = sum_{a=1}^{q-1} chi_j(a) f(a) under
    chi_j(g^k) = e(jk/(q-1)); S[0] is the plain sum of f over the residues,
    S[q-1-j] = conj(S[j]), and chi_j(-1) = (-1)^j, so the odd characters
    sit at odd j.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape[0] != field.q:
        raise ValueError("array f must have length q, indexed by residue")
    # with x[k] = f(g^k), sum_k x[k] e(+jk/n) = conj(DFT x) for real x;
    # dft_fast rejects NaN and Inf
    return np.conj(dft_fast(f[field.pow_table]))
