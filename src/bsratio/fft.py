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
The split's twiddle is chirp-factored by Bluestein's own identity
j k = ((j + k)^2 - j^2 - k^2)/2: three in-place products with entries
of one table C_m = e(-m^2/(2n)), m < s + r - 1, instead of an s x r
index matrix.  Every scipy.fft call uses one worker.  Every table of
unit roots e(-k/m) comes from twiddle(), which splits the integer k as
k1 B + k0 (B = isqrt(m) + 1) and multiplies entries of two tables of
about sqrt(m) points, so a length-r chirp costs about 2 sqrt(2r)
cos/sin evaluations instead of r complex exponentials; twiddle_range()
is the same product for consecutive k, without the index arithmetic.
Both chirps reduce m^2 mod 2n (k^2 mod 2r) exactly in integers first, so
accuracy is uniform up to lengths around 1e7.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.fft as _sfft

from .ntheory import PrimeField

_BLOCK = 1 << 14


def _fft(x: np.ndarray, overwrite: bool = False, axis: int = -1) -> np.ndarray:
    # workers pinned to 1: output must not depend on ambient thread counts
    return _sfft.fft(x, axis=axis, workers=1, overwrite_x=overwrite)


def _ifft(x: np.ndarray) -> np.ndarray:
    # runs only on buffers _bluestein allocated itself, so it may overwrite x
    return _sfft.ifft(x, workers=1, overwrite_x=True)


def _twiddle_tables(m: int) -> tuple[int, np.ndarray, np.ndarray]:
    # B = isqrt(m) + 1 and e(-j/m) at j = k1 B (k1 <= m // B) and at j = k0
    # (k0 < B), each exact integer j shifted into (-m/2, m/2] first so that
    # |angle| <= pi; only the k1 above m/(2B) move, as k0 <= m/2 for m >= 2
    B = math.isqrt(m) + 1
    j = B * np.arange(m // B + 1, dtype=np.int64)
    j[m // (2 * B) + 1 :] -= m
    step = -2j * np.pi / m
    return B, np.exp(step * j), np.exp(step * np.arange(B, dtype=np.int64))


def twiddle(k: np.ndarray, m: int) -> np.ndarray:
    """e(-k/m) for a 1-d int64 array of integers 0 <= k < m, m >= 2.

    With B = isqrt(m) + 1 and k = k1 B + k0, 0 <= k0 < B, the result is
    e(-k1 B/m) e(-k0/m): the product of an entry from each of two tables
    of at most B + 1 points.  Every table entry comes from the exact
    integer k1 B or k0, shifted by -m into (-m/2, m/2], so the angle never
    exceeds pi; against a 30-digit reference the error was at most 2.5 eps
    in samples at m up to 2e6.
    """
    B, coarse, fine = _twiddle_tables(m)
    out = np.empty(k.shape, dtype=np.complex128)
    # in blocks, so that the index and gather temporaries stay in cache
    for lo in range(0, k.size, _BLOCK):
        kb, ob = k[lo : lo + _BLOCK], out[lo : lo + _BLOCK]
        k1 = kb // B
        coarse.take(k1, out=ob)
        k1 *= -B
        k1 += kb  # now k0 = k - k1 B
        ob *= fine.take(k1)
    return out


def twiddle_range(count: int, m: int) -> np.ndarray:
    """e(-k/m) for k = 0..count-1, count <= m.

    The outer product of twiddle()'s two tables, flattened: bitwise equal
    to twiddle(np.arange(count), m), with no index arithmetic and no
    gather.
    """
    B, coarse, fine = _twiddle_tables(m)
    return np.multiply.outer(coarse[: -(-count // B)], fine).reshape(-1)[:count]


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError("input must be a nonempty 1-d sequence")
    if not np.isfinite(x).all():
        raise ValueError("input contains NaN or Inf")
    return np.ascontiguousarray(x, dtype=np.complex128)


def _chirp(count: int, n: int) -> np.ndarray:
    # e(-k^2/(2n)) for k = 0..count-1, k^2 reduced mod 2n in integers first
    k = np.arange(count, dtype=np.int64)
    k *= k
    k %= 2 * n
    return twiddle(k, 2 * n)


@lru_cache(maxsize=1)
def _chirp_kernel(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chirp w[k] = e(-k^2/(2n)) and the transformed convolution kernel.

    The chirp comes from _chirp(), so its argument never exceeds pi and
    it stays accurate at any length.  The kernel's mirror image is copied
    from its own first half and transformed in place.  n is the rough
    part of a transform length.  One entry is cached: the production
    route runs one transform of length h = (q-1)/2 per q, and the
    full-length spectra (digamma route, verifier) use q-1 = 2h, whose
    rough part is h's, so every transform one q touches shares one
    kernel; a second entry would only hold the previous q's.  Both arrays
    are read-only, since every call of that length shares them.
    """
    w = _chirp(n, n)
    size = _sfft.next_fast_len(2 * n - 1, real=False)
    b = np.empty(size, dtype=np.complex128)
    np.conjugate(w, out=b[:n])
    b[n : size - n + 1] = 0.0
    b[size - n + 1 :] = b[n - 1 : 0 : -1]
    bhat = _fft(b, overwrite=True)
    w.setflags(write=False)
    bhat.setflags(write=False)
    return w, bhat


def _bluestein(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # the DFT of each row of x (1-d or 2-d), into out; both inner
    # transforms overwrite a, which nothing outside this call sees
    n = x.shape[-1]
    w, bhat = _chirp_kernel(n)
    a = np.empty(x.shape[:-1] + bhat.shape, dtype=np.complex128)
    a[..., n:] = 0.0
    np.multiply(x, w, out=a[..., :n])
    a = _fft(a, overwrite=True)
    a *= bhat
    a = _ifft(a)[..., :n]
    a *= w
    out[...] = a  # a plain copy strides through a transposed out faster than a product
    return out


def _split_twiddle(y: np.ndarray, n: int) -> None:
    # y[k1, m2] *= e(-k1 m2/n) in place, chirp-factored by Bluestein's
    # identity k1 m2 = ((k1 + m2)^2 - k1^2 - m2^2)/2:
    # e(-k1 m2/n) = C[k1 + m2] conj(C[k1]) conj(C[m2]), C[m] = e(-m^2/(2n)),
    # one table of s + r - 1 points
    s, r = y.shape
    c = _chirp(s + r - 1, n)
    y *= np.ndarray((s, r), np.complex128, c, 0, (c.itemsize, c.itemsize))  # C[k1 + m2]
    np.conjugate(c, out=c)
    y *= c[:s, None]
    y *= c[:r]


def _smooth_part(n: int) -> int:
    s = 1
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
            s *= p
    return s


def dft_fast(x: np.ndarray) -> np.ndarray:
    """X[j] = sum_k x[k] e(-jk/n) of a nonempty finite 1-d x, in O(n log n).

    With n = s r, s the 11-smooth part of n, and input and output indexed
    as m = m1 r + m2 and k = k1 + s k2,
        X[k1 + s k2] = sum_m2 e(-m2 k2/r) e(-m2 k1/n) sum_m1 x[m1 r + m2] e(-m1 k1/s):
    the library transform of length s down the columns of x.reshape(s, r),
    the twiddle e(-k1 m2/n), chirp-factored (_split_twiddle), then
    Bluestein along the s rows of length r, written straight into the
    transposed output order.  An 11-smooth length (s = n) goes straight
    to the library transform, a length with no prime factor up to 11
    (s = 1) straight to Bluestein.
    """
    x = _check_finite(x)
    n = x.shape[0]
    s = _smooth_part(n)
    if s == n:
        return _fft(x)
    if s == 1:
        return _bluestein(x, np.empty_like(x))
    r = n // s
    y = _fft(x.reshape(s, r), axis=0)
    _split_twiddle(y, n)
    # X[k1 + s k2] lands at out[k1, k2] of the (r, s) transpose of y's own
    # memory (y is C-ordered), free once Bluestein's pre-chirp has read it
    out = y.reshape(r, s)
    _bluestein(y, out.T)
    return out.reshape(n)


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
