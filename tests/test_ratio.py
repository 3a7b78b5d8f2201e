import math
import warnings

import numpy as np
import pytest

from bsratio.errors import CostGuardError
from bsratio.ntheory import sieve_primes
from bsratio.ratio import (
    NAIVE_MAX_Q,
    _class_sum,
    _odd_pref,
    log_H,
    log_hreg,
    log_ratio_digamma,
    log_ratio_fft,
    log_ratio_naive,
    naive_l1_magnitudes,
)

LOG_R3 = math.log(math.pi / (3 * math.sqrt(3)))


class TestOddLogSum:
    """log_ratio_fft(...).odd_part, the sum of log L(1, chi) over odd chi."""

    def test_q3_closed_form(self, field):
        assert log_ratio_fft(field(3)).odd_part == pytest.approx(LOG_R3, abs=1e-14)

    def test_q5_vs_naive(self, field):
        rec = log_ratio_naive(field(5))
        assert log_ratio_fft(field(5)).odd_part == pytest.approx(rec.odd_part, abs=1e-12)

    def test_q101_vs_digamma_subtotal(self, field):
        rec = log_ratio_digamma(field(101))
        assert log_ratio_fft(field(101)).odd_part == pytest.approx(rec.odd_part, abs=1e-10)


# relative class numbers h^-(q) of Q(zeta_q) for the odd primes q <= 97 (OEIS A000927)
H_MINUS = {
    3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 3, 29: 8, 31: 9, 37: 37, 41: 121,
    43: 211, 47: 695, 53: 4889, 59: 41241, 61: 76301, 67: 853513, 71: 3882809,
    73: 11957417, 79: 100146415, 83: 838216959, 89: 13379363737, 97: 411322824001,
}


class TestRelativeClassNumber:
    """odd_part = h log pi - (3h/2) log q + (h-1) log 2q + log h^-(q), h = (q-1)/2:
    the product of the odd L(1, chi) through h^- = 2q prod_odd(-B_{1,chi}/2)."""

    @pytest.mark.parametrize("q", sorted(H_MINUS))
    def test_odd_part_vs_pinned_h_minus(self, field, q):
        mp = pytest.importorskip("mpmath")
        h = (q - 1) // 2
        with mp.workdps(30):
            ref = float(
                h * mp.log(mp.pi) - mp.mpf(3 * h) / 2 * mp.log(q)
                + (h - 1) * mp.log(2 * q) + mp.log(H_MINUS[q])
            )
        rec = log_ratio_fft(field(q))
        assert abs(rec.odd_part - ref) <= rec.err_est / 10


class TestEvenLogSum:
    """log_ratio_fft(...).even_part, the sum over even nonprincipal chi."""

    def test_q3_empty(self, field):
        assert log_ratio_fft(field(3)).even_part == 0.0

    def test_q5_quadratic_character(self, field):
        # the single even character mod 5 is quadratic:
        # L(1,chi) = 2 log((1+sqrt 5)/2) / sqrt 5
        closed = math.log(2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5))
        even = log_ratio_fft(field(5)).even_part
        assert even == pytest.approx(closed, abs=1e-13)
        rec = log_ratio_naive(field(5))
        assert even == pytest.approx(rec.even_part, abs=1e-12)

    def test_q101_vs_digamma_subtotal(self, field):
        rec = log_ratio_digamma(field(101))
        assert log_ratio_fft(field(101)).even_part == pytest.approx(rec.even_part, abs=1e-10)


class TestLogRatioFft:
    def test_q3(self, field):
        rec = log_ratio_fft(field(3))
        assert rec.R == pytest.approx(0.604600, abs=1e-5)
        assert rec.R == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-10)

    def test_q3_class_number_closure(self, field):
        rec = log_ratio_fft(field(3))
        assert abs(rec.log_R + log_H(3)) <= 1e-12  # h(3) = Reg(3) = 1

    def test_q163_vs_naive(self, field):
        a = log_ratio_fft(field(163))
        b = log_ratio_naive(field(163))
        assert a.log_R == pytest.approx(b.log_R, abs=1e-10)

    def test_record_identities(self, field):
        rec = log_ratio_fft(field(101))
        assert rec.odd_part + rec.even_part == rec.log_R
        assert rec.R == math.exp(rec.log_R)
        assert rec.R > 0


class TestFoldedRoute:
    # both parities of h = (q-1)/2: 5, 13, 17, 29, 1009 even; 3, 7, 163, 1999
    # odd; h = 1 (q = 3) and h = 8 (q = 17) take dft_fast's n == 1 and
    # power-of-two branches, so the split step sees those outputs too
    @pytest.mark.parametrize("q", [3, 5, 7, 13, 17, 29, 163, 1009, 1999])
    def test_parity_parts_vs_naive(self, field, q):
        a = log_ratio_fft(field(q))
        b = log_ratio_naive(field(q))
        assert abs(a.odd_part - b.odd_part) <= 2e-12
        assert abs(a.even_part - b.even_part) <= 2e-12

    def test_one_packed_transform(self, field, monkeypatch):
        import scipy.special

        import bsratio.fft

        lengths = []
        dft_fast = bsratio.fft.dft_fast

        def counting(x):
            lengths.append(len(x))
            return dft_fast(x)

        def no_gammaln(*args, **kwargs):
            raise AssertionError("the production route evaluated log Gamma")

        monkeypatch.setattr(bsratio.fft, "dft_fast", counting)
        monkeypatch.setattr(scipy.special, "gammaln", no_gammaln)
        # h = 504 is 11-smooth and needs no chirp kernel; h = 509 has a
        # rough part and builds one
        for q, misses in ((1009, 0), (1019, 1)):
            lengths.clear()
            bsratio.fft._chirp_kernel.cache_clear()
            log_ratio_fft(field(q))
            info = bsratio.fft._chirp_kernel.cache_info()
            assert (info.hits, info.misses) == (0, misses)
            assert lengths == [(q - 1) // 2]


class TestLogRatioDigamma:
    @pytest.mark.parametrize("q,tol", [(3, 1e-12), (5, 1e-12), (1009, 1e-9)])
    def test_matches_fft(self, field, q, tol):
        a = log_ratio_fft(field(q))
        b = log_ratio_digamma(field(q))
        assert b.log_R == pytest.approx(a.log_R, abs=tol)


class TestLogRatioNaive:
    def test_q7_vs_fft(self, field):
        a = log_ratio_fft(field(7))
        b = log_ratio_naive(field(7))
        assert b.log_R == pytest.approx(a.log_R, abs=1e-12)

    def test_q3_twelve_digits(self, field):
        rec = log_ratio_naive(field(3))
        assert rec.R == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-12)

    def test_q23_vs_digamma(self, field):
        a = log_ratio_digamma(field(23))
        b = log_ratio_naive(field(23))
        assert b.log_R == pytest.approx(a.log_R, abs=1e-11)

    def test_cost_guard(self, field):
        class Fake:
            q = NAIVE_MAX_Q + 2

        with pytest.raises(CostGuardError):
            log_ratio_naive(Fake())


class TestCrossMethodScan:
    def test_pairwise_small_scan(self, field):
        for q in sieve_primes(300)[1:]:
            f = field(int(q))
            a, b, c = log_ratio_fft(f), log_ratio_digamma(f), log_ratio_naive(f)
            assert abs(a.log_R - c.log_R) <= 1e-10
            assert abs(a.log_R - b.log_R) <= 1e-9

    def test_spectrum_magnitudes_healthy(self, field):
        # every per-character magnitude must sit far above the degeneracy floor
        for q in sieve_primes(500)[1:]:
            mags = naive_l1_magnitudes(field(int(q)))
            assert float(np.min(mags)) > 1e-20

    def test_normalized_band_soft(self, field):
        # empirical band; report outliers without failing
        outliers = []
        for q in sieve_primes(2000)[2:]:
            rec = log_ratio_fft(field(int(q)))
            v = rec.R * math.log(rec.q) ** 0.75
            if not 0.19 < v < 0.68:
                outliers.append((rec.q, v))
        if outliers:
            warnings.warn(f"normalized values outside (0.19, 0.68): {outliers}")


class TestLogH:
    def test_q3_value(self):
        assert log_H(3) == pytest.approx(math.log(3 * math.sqrt(3) / math.pi), abs=1e-13)

    def test_q3_closure(self, field):
        assert log_ratio_fft(field(3)).log_R + log_H(3) == pytest.approx(0.0, abs=1e-12)

    def test_monotone(self):
        qs = sieve_primes(1000)[1:]
        vals = [log_H(int(q)) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLogHReg:
    def test_q3_unit(self, field):
        assert log_hreg(log_ratio_fft(field(3))) == pytest.approx(0.0, abs=1e-12)

    def test_q5_regulator_closed_form(self, field):
        # h(5) = 1 and Reg(Q(zeta_5)) = 2 log((1+sqrt 5)/2)
        closed = math.log(2 * math.log((1 + math.sqrt(5)) / 2))
        assert log_hreg(log_ratio_fft(field(5))) == pytest.approx(closed, abs=1e-12)

    def test_asymptotic_sanity(self, field):
        for q in (10007, 50021, 99991):
            rec = log_ratio_fft(field(q))
            lead = (q / 2) * (math.log(q) - math.log(2 * math.pi))
            assert abs(log_hreg(rec) / lead - 1.0) < 0.05


class TestErrEstimate:
    # err_est of the two-transform route under the l1 budget this one replaced
    L1_BUDGET = {
        101: 3.967790616039893e-12,
        1009: 2.0973111406294826e-10,
        4903: 2.8338670075122754e-09,
        30011: 5.295295390373041e-08,
        99991: 3.624162900399459e-07,
    }

    def test_grows_with_q(self, field):
        e = [log_ratio_fft(field(q)).err_est for q in (101, 1009, 10007)]
        assert e[0] < e[1] < e[2]
        assert all(v > 0 for v in e)

    def test_covers_gap_to_naive_tenfold(self, field):
        # the transform term alone misses this at q = 5 (3.8e-15 against a
        # gap of 8.9e-16): the rounding term is needed
        for q in sieve_primes(3000)[1:]:
            f = field(int(q))
            rec = log_ratio_fft(f)
            assert abs(rec.log_R - log_ratio_naive(f).log_R) <= rec.err_est / 10, int(q)

    @pytest.mark.parametrize("q", sorted(L1_BUDGET))
    def test_no_looser_than_l1_budget(self, field, q):
        assert log_ratio_fft(field(q)).err_est <= self.L1_BUDGET[q]

    # (fft, digamma) err_est as the budget stood before _record took the
    # log in place and summed the weights by class: a rewrite of the
    # assembly step must not drop or rescale a term of either route
    PINNED = {
        1019: (3.3133360047104195e-11, 2.1759723543384443e-11),
        20021: (9.470033443878558e-10, 6.010011994964727e-10),
        99991: (5.503872641446453e-09, 3.469651835849785e-09),
    }

    @pytest.mark.parametrize("q", sorted(PINNED))
    def test_pinned_budget_of_both_routes(self, field, q):
        fft_est, digamma_est = self.PINNED[q]
        assert log_ratio_fft(field(q)).err_est == pytest.approx(fft_est, rel=1e-9, abs=0)
        assert log_ratio_digamma(field(q)).err_est == pytest.approx(digamma_est, rel=1e-9, abs=0)


class TestClassSum:
    @staticmethod
    def _check(pref, p):
        ref = math.fsum([pref] + p.tolist())
        abs_ref = math.fsum(np.abs(p).tolist())
        # contiguous, and strided as log_ratio_fft passes each class
        strided = np.empty(2 * p.size)
        for arg in (p.copy(), strided[1::2]):
            arg[:] = p
            got, abs_sum = _class_sum(pref, arg, np.empty(p.size))
            assert abs(got - ref) <= math.ulp(ref)
            assert abs(abs_sum - abs_ref) <= 1e-12 * abs_ref

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 250001])
    def test_random_vs_fsum(self, rng, n):
        for scale in (1e-3, 1.0, 40.0):
            self._check(float(rng.standard_normal()) * 1e3, scale * rng.standard_normal(n))

    @pytest.mark.parametrize("q", [1009, 99991, 999983])
    def test_cancellation_vs_fsum(self, rng, q):
        # one parity class at q: a prefactor of size q log q / 4 against
        # weighted logs that sum to -pref + O(1), as in log_ratio_fft
        pref, n = _odd_pref(q), (q - 1) // 4
        p = rng.uniform(0.0, -2.0 * pref / n, n)
        p += (-pref - float(np.sum(p))) / n + rng.standard_normal(n) / math.sqrt(n)
        self._check(pref, p)

    def test_empty_class(self, field):
        assert _class_sum(-1.25, np.empty(0), np.empty(0)) == (-1.25, 0.0)
        rec = log_ratio_fft(field(3))
        assert rec.even_part == 0.0


def _log_r_unfolded_mp(mp, f):
    """log R(q) at the working precision of mp from the unfolded direct
    sums: every character j = 1..q-2 over all q-1 residues, linear weights
    a/q for odd j and log Gamma(a/q) for even j."""
    q, n = f.q, f.n
    a = [mp.mpf(int(v)) / q for v in f.pow_table]
    weights = (a, [mp.loggamma(v) for v in a])
    cos = [mp.cospi(mp.mpf(2 * m) / n) for m in range(n)]
    sin = [mp.sinpi(mp.mpf(2 * m) / n) for m in range(n)]
    total = (mp.mpf(q - 1) / 2) * (mp.log(mp.pi) - mp.log(q) / 2)
    total += (mp.mpf(q - 3) / 2) * (mp.log(2) - mp.log(q) / 2)
    for j in range(1, n):
        x = weights[0] if j % 2 else weights[1]
        idx = [(j * k) % n for k in range(n)]
        re = mp.fdot(x, [cos[i] for i in idx])
        im = mp.fdot(x, [sin[i] for i in idx])
        total += mp.log(re * re + im * im) / 2
    return total


class TestBlockedNaiveRoute:
    # n = q-1 < B^2 (B = isqrt n) for 3, 7, 13, 101, 1009, so x is padded;
    # h = (q-1)/2 is even for 5, 13, 101, 1009 and odd for 3, 7
    @pytest.mark.parametrize("q", [3, 5, 7, 13, 101, 1009])
    def test_bins_vs_dft_naive(self, field, q):
        from scipy.special import gammaln

        from oracles import dft_naive

        f = field(q)
        a = f.pow_table.astype(np.float64) / q
        rootq = math.sqrt(q)
        ref = np.empty(q - 1)
        ref[1::2] = (math.pi / rootq) * np.abs(dft_naive(a))[1::2]
        ref[2::2] = (2.0 / rootq) * np.abs(dft_naive(gammaln(a)))[2::2]
        got = naive_l1_magnitudes(f)
        assert got.shape == (q - 2,)
        assert np.max(np.abs(got - ref[1:]) / ref[1:]) <= 1e-13

    def test_no_fft_code_reached(self, field, monkeypatch):
        import numpy.fft
        import scipy.fft

        import bsratio.fft

        class FftReached(Exception):
            pass

        def boom(*args, **kwargs):
            raise FftReached

        for module, attr in (
            (bsratio.fft, "dft_fast"),
            (bsratio.fft, "_bluestein"),
            (scipy.fft, "fft"),
            (numpy.fft, "fft"),
        ):
            monkeypatch.setattr(module, attr, boom)
        f = field(1009)
        with pytest.raises(FftReached):
            log_ratio_fft(f)
        assert naive_l1_magnitudes(f).shape == (1007,)
        assert math.isfinite(log_ratio_naive(f).log_R)

    def test_oracle_leaves_the_magnitudes_intact(self, field, monkeypatch):
        # a caller that keeps the array (the traced benchmark hands it on
        # to moebius_tail) must see it as naive_l1_magnitudes returned it
        import bsratio.ratio as ratio

        orig, kept = ratio.naive_l1_magnitudes, []

        def keeping(f):
            kept.append(orig(f))
            return kept[-1]

        monkeypatch.setattr(ratio, "naive_l1_magnitudes", keeping)
        log_ratio_naive(field(101))
        assert len(kept) == 1
        assert kept[0].tobytes() == orig(field(101)).tobytes()

    @pytest.mark.parametrize("q", [101, 409])
    def test_log_r_vs_30_digit_reference(self, field, q):
        mp = pytest.importorskip("mpmath")
        f = field(q)
        with mp.workdps(30):
            ref = _log_r_unfolded_mp(mp, f)
            assert abs(log_ratio_naive(f).log_R - ref) <= 1e-13
            assert abs(log_ratio_fft(f).log_R - ref) <= 1e-13


class TestOneAssembly:
    """Every log R, the verifier's km=1 term included, comes out of _record."""

    @pytest.mark.parametrize("route", ["fft", "digamma", "naive", "verify"])
    def test_record_called_once(self, field, monkeypatch, route):
        import bsratio.ratio as ratio
        from bsratio.primesum import verify_ratio

        orig, calls = ratio._record, []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return orig(*args, **kwargs)

        monkeypatch.setattr(ratio, "_record", counting)
        run = {
            "fft": lambda: log_ratio_fft(field(101)),
            "digamma": lambda: log_ratio_digamma(field(101)),
            "naive": lambda: log_ratio_naive(field(101)),
            "verify": lambda: verify_ratio(101),
        }[route]
        run()
        assert calls == [101]
