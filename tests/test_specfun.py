import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsratio
from bsratio.specfun import (
    EULER_GAMMA,
    constants_table,
    digamma,
    hurwitz_zeta,
    meissel_mertens,
    minimize_harmonic_loglog,
    power_sum_constant,
    prime_zeta,
)
from bsratio.ntheory import build_field, sieve_primes
from bsratio.primesum import _EulerContext


class TestDigamma:
    def test_classical_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-15)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-14)

    def test_harmonic_identity(self):
        # psi(n) = H_{n-1} - gamma
        h9 = math.fsum(1.0 / k for k in range(1, 10))
        assert digamma(10) == pytest.approx(h9 - EULER_GAMMA, abs=1e-14)

    def test_recurrence_random(self, rng):
        for x in rng.uniform(1e-2, 10.0, size=100):
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12 * max(1.0, 1.0 / x)

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(-0.5)

    def test_array_equals_scalar_calls(self, rng):
        x = rng.uniform(1e-7, 10.0, size=1000)
        assert digamma(x).tolist() == [digamma(v) for v in x.tolist()]
        with pytest.raises(ValueError):
            digamma(np.array([0.5, 0.0, 2.0]))


class TestHurwitzZeta:
    XS = np.concatenate(
        [[1 / 99991, 1e-6, 0.1, 0.5, 0.898, 1 - 1 / 99991, 1.0], np.linspace(0.005, 1.0, 60)]
    )

    @pytest.mark.parametrize("s", [2, 3, 4, 6, 9, 15, 30])
    def test_vs_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.zeta(s, mpmath.mpf(x))) for x in self.XS.tolist()])
        rel = np.abs(hurwitz_zeta(s, self.XS) - ref) / ref
        # 1.09 eps measured; with x^-s as a reciprocal raised to s it read
        # 4.4 eps at s = 6 and 20 eps at s = 30, and failed here from s = 6 on
        assert np.max(rel) <= 4 * np.finfo(np.float64).eps

    def test_shape_and_scalar(self):
        x = np.full((2, 3), 0.25)
        assert hurwitz_zeta(2, x).shape == (2, 3)
        assert hurwitz_zeta(np.int64(3), 1.0) == pytest.approx(1.2020569031595942, rel=1e-15)

    @pytest.mark.parametrize("s", [2.0, 2.5, "2", 1, 0, -3])
    def test_domain_s(self, s):
        with pytest.raises(ValueError):
            hurwitz_zeta(s, np.array([0.5]))

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan])
    def test_domain_x(self, bad):
        with pytest.raises(ValueError):
            hurwitz_zeta(2, np.array([0.5, bad, 1.0]))

    @pytest.mark.parametrize("q", [101, 4703])
    def test_principal_bin(self, q):
        # sum_a zeta(u, a/q) = q^u zeta(u) (1 - q^-u): the j = 0 bin of L(u, chi)
        from scipy.special import zetac

        ctx = _EulerContext(build_field(q), q)
        for u in (2, 3, 4, 6, 9):
            want = (1.0 + float(zetac(u))) * (1.0 - float(q) ** -u)
            got = ctx.l_values(u)[0]
            assert abs(got - want) <= 4 * q * np.finfo(np.float64).eps * want, u


class TestPrimeZeta:
    def test_p2_vs_sieve(self):
        x = 10**6
        head = math.fsum(1.0 / p**2 for p in sieve_primes(x).tolist())
        v = prime_zeta(2)
        assert head < v < head + 1.0 / x  # tail below sum_{n>x} n^-2

    def test_large_s_tiny(self):
        assert prime_zeta(60) == pytest.approx(2.0**-60, rel=1e-4)


def _alpha(j):
    return j * (j - 1) // 2


def _double_sum_partial(M):
    """sum_{m=2..M} (1/m) sum_{k=a(m)}^{a(m+1)-1} 1/k from raw harmonic blocks."""
    total = []
    for m in range(2, M + 1):
        ks = np.arange(_alpha(m), _alpha(m + 1), dtype=np.float64)
        total.append(math.fsum(1.0 / ks) / m)
    return math.fsum(total)


class TestPowerSumConstant:
    def test_nine_decimals(self):
        assert abs(power_sum_constant() - 1.6000883438) <= 1e-9

    def test_partial_forms_agree(self):
        # identical truncation at m = M: the double sum telescopes to the
        # digamma form plus the Abel boundary term H_{a(M+1)-1}/M - gamma/M
        M = 2000
        from scipy.special import psi

        js = np.arange(3, M + 1, dtype=np.float64)
        a = js * (js - 1) / 2
        digamma_partial = EULER_GAMMA / 2 + 0.5 * math.fsum(psi(a) / a)
        boundary_h = math.fsum(1.0 / np.arange(1, _alpha(M + 1), dtype=np.float64))
        lhs = _double_sum_partial(M)
        rhs = digamma_partial + boundary_h / M - EULER_GAMMA / M
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_partial_sums_increasing(self):
        from scipy.special import psi

        vals = [psi(_alpha(j)) / _alpha(j) for j in range(3, 30)]
        assert all(v > 0 for v in vals)  # each term positive, so partials increase


class TestMinimizeHarmonicLoglog:
    def test_optimum_at_55(self):
        k, v = minimize_harmonic_loglog()
        assert k == 55
        assert v < -0.4152617906

    def test_c3_worse_than_c55(self):
        def c(k):
            h = math.fsum(1.0 / j for j in range(1, (k - 1) // 2 + 1))
            return 0.25 * h - math.log(math.log(k))

        assert c(3) > c(55)
        assert minimize_harmonic_loglog()[1] == pytest.approx(c(55), abs=1e-14)


class TestMeisselMertens:
    def test_ten_decimals(self):
        assert abs(meissel_mertens() - 0.2614972128) <= 1e-10

    def test_both_forms_agree(self):
        # log-form head over sieved primes + prime-zeta tail vs production
        x = 10**6
        primes = sieve_primes(x).astype(np.float64)
        head = math.fsum(np.log1p(-1.0 / primes) + 1.0 / primes)
        tail = []
        for m in range(2, 60):
            pm = prime_zeta(m) - math.fsum(primes ** (-float(m)))
            tail.append(-pm / m)
        form1 = EULER_GAMMA + head + math.fsum(tail)
        assert abs(form1 - meissel_mertens()) <= 1e-10

    def test_mertens_window_3e6(self):
        from bsratio.ntheory import prime_reciprocal_sum

        x = 3 * 10**6
        s = prime_reciprocal_sum(x)
        assert abs(s - math.log(math.log(x)) - meissel_mertens()) <= 0.2 / math.log(x) ** 3


class TestConstantsTable:
    def test_recomputation_bit_identical(self):
        t1 = constants_table()
        constants_table.cache_clear()
        power_sum_constant.cache_clear()
        meissel_mertens.cache_clear()
        minimize_harmonic_loglog.cache_clear()
        t2 = constants_table()
        assert t1 == t2

    def test_invariants(self):
        t = constants_table()
        assert abs(t.meissel_mertens - 0.2614972128) <= 1e-10
        assert abs(t.power_sum_constant - 1.6000883438) <= 1e-9
        assert t.k_opt == 55

    def test_import_loads_no_quadrature_or_optimizer(self):
        # the package needs scipy.special and scipy.fft only; scipy.integrate
        # would drag in scipy.optimize and scipy.sparse on every import
        src = str(Path(bsratio.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, bsratio; bsratio.specfun.constants_table(); "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"
