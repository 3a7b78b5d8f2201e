import mpmath
import numpy as np
import pytest

from bsratio import fft
from bsratio.fft import char_spectrum, dft_fast, twiddle, twiddle_range
from bsratio.ntheory import sieve_primes

from oracles import dft_naive


class TestDftNaive:
    def test_single(self):
        c = 2.5 - 1j
        assert dft_naive(np.array([c])).tolist() == [c]

    def test_delta(self):
        out = dft_naive(np.array([1.0, 0, 0, 0]))
        assert np.allclose(out, np.ones(4), atol=1e-15)

    def test_constant(self):
        out = dft_naive(np.array([1.0, 1, 1, 1]))
        assert np.allclose(out, [4, 0, 0, 0], atol=1e-15)


class TestDftFast:
    def test_matches_naive_all_small_n(self, rng):
        for n in list(range(1, 65)) + [96, 100, 127, 128, 255, 256, 500, 512]:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a, b = dft_fast(x), dft_naive(x)
            scale = np.max(np.abs(b))
            assert np.max(np.abs(a - b)) <= 1e-10 * max(scale, 1.0), f"n={n}"

    def test_delta_n6(self):
        out = dft_fast(np.array([1.0, 0, 0, 0, 0, 0]))
        assert np.allclose(out, np.ones(6), atol=1e-14)

    def test_linearity(self, rng):
        n = 60
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = 1.7 - 0.3j, -0.9 + 2.1j
        lhs = dft_fast(a * x + b * y)
        rhs = a * dft_fast(x) + b * dft_fast(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_parseval(self, rng):
        for n in (12, 100, 1023, 4096):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            X = dft_fast(x)
            lhs = float(np.sum(np.abs(X) ** 2))
            rhs = n * float(np.sum(np.abs(x) ** 2))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dft_fast(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            dft_naive(np.array([np.inf, 0.0]))

    # n == 1, power of two, 11-smooth (library only), 2 * 499 (split with Bluestein rows)
    @pytest.mark.parametrize("n", [1, 256, 1000, 998])
    def test_input_left_unchanged(self, rng, n):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        before = x.tobytes()
        dft_fast(x)
        assert x.tobytes() == before

    def test_cached_kernel_read_only_and_unchanged(self, rng):
        # verify-sample's pattern: a second transform of one length hits the
        # cache and must find the kernel as the first call left it; 998 =
        # 2 * 499 runs its rows through the kernel of the rough part 499
        n = 998
        fft._chirp_kernel.cache_clear()
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        first = dft_fast(x)
        w, bhat = fft._chirp_kernel(n // 2)
        saved = (w.tobytes(), bhat.tobytes())
        assert not w.flags.writeable and not bhat.flags.writeable
        assert np.array_equal(dft_fast(x), first)
        info = fft._chirp_kernel.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        assert (w.tobytes(), bhat.tobytes()) == saved

    # s = n (11-smooth), s = 1 (no factor up to 11), and both parts nontrivial
    @pytest.mark.parametrize(
        "n,rough", [(1155, None), (1024, None), (1009, 1009), (221, 221), (998, 499), (884, 221)]
    )
    def test_split_shapes_vs_naive(self, rng, n, rough):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fft._chirp_kernel.cache_clear()
        a, b = dft_fast(x), dft_naive(x)
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
        assert fft._chirp_kernel.cache_info().misses == (rough is not None)
        if rough is not None:
            fft._chirp_kernel(rough)  # the one cached kernel is the rough part's
            assert fft._chirp_kernel.cache_info().hits == 1

    def test_split_all_small_radices_vs_numpy(self, rng):
        n = 2 * 3 * 5 * 7 * 11 * 13  # 2310 rows of 13 points
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = dft_fast(x), np.fft.fft(x)
        assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)


def _longdouble_bins(x, bins):
    """X_j = sum_k x_k e(-jk/n) at the given bins, with no transform code:
    the exact integer index jk mod n, shifted into (-n/2, n/2], then cos
    and sin in np.longdouble and long-double sums."""
    n = x.shape[0]
    two_pi_over_n = 8 * np.arctan(np.longdouble(1)) / n
    k = np.arange(n, dtype=np.int64)
    re, im = x.real.astype(np.longdouble), x.imag.astype(np.longdouble)
    out = []
    for j in bins:
        idx = (j * k) % n
        idx[2 * idx > n] -= n
        ang = two_pi_over_n * idx.astype(np.longdouble)
        c, s = np.cos(ang), np.sin(ang)
        out.append(complex(float(np.sum(re * c + im * s)), float(np.sum(im * c - re * s))))
    return np.array(out)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
class TestBinAccuracy:
    # a split shape near 1e5 (12 x 8333) and a band one (16 x 28211), four
    # fixed bins each, against a reference good to far below double eps
    @pytest.mark.parametrize("n", [99996, 451376])
    def test_bins_vs_longdouble_reference(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        bins = [1, 12345, n // 2 + 1, n - 2]
        err = np.abs(dft_fast(x)[bins] - _longdouble_bins(x, bins))
        eps = np.finfo(np.float64).eps
        assert float(np.max(err)) <= 8 * eps * float(np.linalg.norm(x))


class TestTwiddle:
    EPS = np.finfo(np.float64).eps

    @staticmethod
    def _err_in_eps(got, ks, m):
        with mpmath.workdps(30):
            worst = max(
                abs(mpmath.mpc(complex(v)) - mpmath.expjpi(mpmath.mpf(-2 * int(k)) / m))
                for v, k in zip(got, ks)
            )
        return float(worst) / TestTwiddle.EPS

    # 10, 9998 and 950018 are 2 mod 4; 1999964 is 0 mod 4
    @pytest.mark.parametrize("m", [10, 9998, 950018, 1999964])
    def test_vs_30_digit_reference(self, m):
        rng = np.random.default_rng(m)
        ks = np.unique(np.concatenate([[0, 1, m // 4, m // 2, m - 1], rng.integers(0, m, 300)]))
        assert self._err_in_eps(twiddle(ks.astype(np.int64), m), ks, m) <= 8.0


    # the split step's consecutive run: the same table products, no gather
    @pytest.mark.parametrize("m", [2, 3, 10, 9998, 1999964])
    def test_range_is_twiddle_bitwise(self, m):
        for count in sorted({1, m // 2, m}):
            ref = twiddle(np.arange(count, dtype=np.int64), m)
            assert twiddle_range(count, m).tobytes() == ref.tobytes()


def _brute_spectrum(f, weights):
    """Character sums directly from the dlog table, no transform code."""
    q, n = f.q, f.q - 1
    sums = np.zeros(n, dtype=np.complex128)
    for j in range(n):
        for a in range(1, q):
            chi = np.exp(2j * np.pi * j * f.dlog[a] / n)
            sums[j] += chi * weights[a]
    return sums


class TestCharSpectrum:
    def test_shares_the_production_kernel(self, field):
        # h = 509 and q - 1 = 2 * 509 have the same rough part, so the
        # full-length spectrum reuses the kernel the production route built
        from bsratio.ratio import log_ratio_fft

        f = field(1019)
        w = np.zeros(f.q)
        w[1:] = np.arange(1, f.q) / f.q
        fft._chirp_kernel.cache_clear()
        log_ratio_fft(f)
        char_spectrum(f, w)
        char_spectrum(f, w)
        info = fft._chirp_kernel.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_q3_linear(self, field):
        spec = char_spectrum(field(3), np.array([0.0, 1 / 3, 2 / 3]))
        assert spec[1].real == pytest.approx(-1 / 3, abs=1e-15)
        assert abs(spec[1].imag) <= 1e-15

    def test_q5_orthogonality(self, field):
        spec = char_spectrum(field(5), np.array([0.0, 1, 1, 1, 1]))
        assert spec[0] == pytest.approx(4.0)
        assert np.max(np.abs(spec[1:])) <= 1e-13

    def test_q7_vs_brute(self, field, rng):
        f = field(7)
        w = np.zeros(7)
        w[1:] = rng.standard_normal(6)
        spec = char_spectrum(f, w)
        brute = _brute_spectrum(f, w)
        assert np.max(np.abs(spec - brute)) <= 1e-12

    def test_conjugate_symmetry(self, field, rng):
        for q in sieve_primes(500)[1:]:
            f = field(int(q))
            w = np.zeros(f.q)
            w[1:] = rng.standard_normal(f.q - 1)
            s = char_spectrum(f, w)
            assert np.max(np.abs(s[1:] - np.conj(s[1:][::-1]))) <= 1e-9 * max(
                1.0, float(np.max(np.abs(s)))
            )

    def test_parity_sign_flip(self, field, rng):
        # replacing f(a) by f(-a) flips exactly the odd-j sums
        for q in sieve_primes(100)[1:]:
            f = field(int(q))
            w = np.zeros(f.q)
            w[1:] = rng.standard_normal(f.q - 1)
            wneg = np.zeros(f.q)
            wneg[1:] = w[1:][::-1]  # -a mod q = q - a
            s1 = char_spectrum(f, w)
            s2 = char_spectrum(f, wneg)
            n = f.q - 1
            signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            assert np.max(np.abs(s2 - signs * s1)) <= 1e-10 * max(1.0, float(np.max(np.abs(s1))))
