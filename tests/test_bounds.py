import math

import numpy as np
import pytest

from bsratio import pipeline
from bsratio.bounds import (
    check_dusart,
    envelope_interval,
    refined_bound,
    report_columns,
    simple_bound,
)
from bsratio.ntheory import sieve_primes
from bsratio.specfun import power_sum_constant


def _table(*qs):
    """The results table of the rows compute_range writes for qs."""
    rows = [pipeline._parse_line(pipeline._worker((q, False))[0].rstrip("\n"), 2) for q in qs]
    return np.rec.fromrecords(rows, dtype=pipeline.ROW_DTYPE)


class TestSimpleBound:
    def test_below_1608_from_7(self):
        for q in sieve_primes(1000)[3:]:
            assert simple_bound(int(q)) <= 1.608

    def test_limit(self):
        assert simple_bound(10**9 + 7) == pytest.approx(power_sum_constant(), abs=1e-8)

    def test_q3_formula(self):
        a = power_sum_constant()
        assert simple_bound(3) == a + (math.pi**2 / 6 - a) / 3

    def test_monotone_decreasing(self):
        qs = [int(q) for q in sieve_primes(10**4)[1:]]
        vals = [simple_bound(q) for q in qs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestRefinedBound:
    def test_peak_values(self):
        # peak region values pinned against the 30-digit evaluation in
        # TestRefinedBoundReference
        assert refined_bound(229) == pytest.approx(1.600184966176142, abs=1e-12)
        assert refined_bound(233) == pytest.approx(1.600184966208130, abs=1e-12)

    def test_max_location(self):
        qs = [int(q) for q in sieve_primes(10**4)[1:]]
        vals = np.array([refined_bound(q) for q in qs])
        assert float(vals.max()) < 1.600186
        assert qs[int(np.argmax(vals))] == 233

    def test_never_exceeds_simple(self):
        for q in sieve_primes(10**4)[1:]:
            q = int(q)
            assert refined_bound(q) <= simple_bound(q) + 1e-12

    def test_asymptotic(self):
        assert abs(refined_bound(10**6 + 3) - power_sum_constant()) < 0.01


class TestColumns:
    def test_columns_equal_scalar_calls(self):
        qs = sieve_primes(10**4)[1:]
        for f in (simple_bound, refined_bound):
            assert f(qs).tolist() == [f(q) for q in qs.tolist()]
        lo, hi = envelope_interval(qs)
        assert list(zip(lo.tolist(), hi.tolist())) == [envelope_interval(q) for q in qs.tolist()]

    @pytest.mark.parametrize("f", [simple_bound, refined_bound])
    def test_domain(self, f):
        with pytest.raises(ValueError):
            f(np.array([3, 5, 2]))


def _refined_bound_mp(mp, q, a):
    q = mp.mpf(q)
    return ((q - 1) / q) * (a + mp.psi(0, 2 / q) - mp.psi(0, 1 / q)) - (q - 1) / 2


@pytest.fixture(scope="module")
def mp30():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        yield mp


@pytest.fixture(scope="module")
def power_sum_constant_mp(mp30):
    """A from its defining double series
    sum_{m>=2} (1/m) (psi(m(m+1)/2) - psi(m(m-1)/2)), at 30 digits."""
    mp = mp30
    return mp.nsum(
        lambda m: (mp.psi(0, m * (m + 1) / 2) - mp.psi(0, m * (m - 1) / 2)) / m,
        [2, mp.inf],
        method="richardson",
    )


class TestRefinedBoundReference:
    """refined_bound and A against 30-digit mpmath, sharing no code with
    bsratio.specfun."""

    def test_power_sum_constant(self, power_sum_constant_mp):
        assert abs(power_sum_constant() - float(power_sum_constant_mp)) <= 5e-16

    def test_scan_to_1e4(self, mp30, power_sum_constant_mp):
        qs = [int(q) for q in sieve_primes(10**4)[1:]]
        ref = [_refined_bound_mp(mp30, q, power_sum_constant_mp) for q in qs]
        worst = max(abs(refined_bound(q) - float(r)) for q, r in zip(qs, ref))
        assert worst <= 5e-12
        i = max(range(len(qs)), key=ref.__getitem__)
        assert qs[i] == 233
        assert abs(ref[i] - mp30.mpf("1.600184966208130")) <= 1e-15

    def test_published_figure_uses_truncated_constant(self, mp30):
        # "max below 1.600177, at q = 229" is reproduced with A = 1.60008
        qs = [int(q) for q in sieve_primes(10**4)[1:]]
        a = mp30.mpf("1.60008")
        ref = [_refined_bound_mp(mp30, q, a) for q in qs]
        i = max(range(len(qs)), key=ref.__getitem__)
        assert qs[i] == 229
        assert abs(ref[i] - mp30.mpf("1.6001766585")) <= 1e-10
        assert ref[i] < 1.600177


class TestEnvelope:
    def test_interval_shape(self):
        lo, hi = envelope_interval(1009)
        assert 0 < lo < hi

    def test_scan_above_threshold(self):
        _, _, envelope_ok, _ = report_columns(_table(1009, 2003, 5003))
        assert envelope_ok.all()

    def test_q3_reported_only(self):
        # below the reporting threshold the value is informational: a flag,
        # not an exception
        _, _, envelope_ok, _ = report_columns(_table(3))
        assert envelope_ok.dtype == bool and envelope_ok.shape == (1,)

    def test_normalized_band(self):
        _, _, _, normalized_ok = report_columns(_table(1009))
        assert normalized_ok.all()


class TestDusart:
    def test_at_threshold(self):
        assert check_dusart(2278383)

    def test_domain(self):
        for x in (10**6, math.inf, math.nan):
            with pytest.raises(ValueError):
                check_dusart(x)


class TestReportRow:
    def test_without_sigma2(self):
        simple, _, _, _ = report_columns(_table(101))
        assert simple[0] == simple_bound(101)
