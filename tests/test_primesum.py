import math
from math import fsum, gcd

import numpy as np
import pytest
from scipy.special import zetac

from bsratio import primesum
from bsratio.errors import CostGuardError
from bsratio.ntheory import sieve_primes
from bsratio.primesum import (
    _EulerContext,
    _orbit_log_sum,
    _power_head,
    choose_plan,
    head_sum,
    mertens_constant_q1,
    moebius_tail,
    prime_power_sum,
    verify_ratio,
)
from bsratio.ratio import _class_sum, log_ratio_fft, log_ratio_naive, naive_l1_magnitudes
from bsratio.specfun import meissel_mertens, power_sum_constant

from oracles import power_head_closed_form, truncated_log_L

LOG_R3 = math.log(math.pi / (3 * math.sqrt(3)))


def _e1_closed(q, P, M):
    return P * (q - 1) / (M * (M - 1) * (P - 1) * P**M)


def _e2_closed(q, P, K):
    return 2 * P * (q - 1) / (K**2 * (P - 1) * (P**K - 1))


class TestChoosePlan:
    def test_q101_bounds(self):
        plan = choose_plan(101, A=20, delta=8)
        assert plan.P == 2020
        assert plan.e1_bound == pytest.approx(_e1_closed(101, 2020, plan.M), rel=1e-12)
        assert plan.e2_bound == pytest.approx(_e2_closed(101, 2020, plan.K), rel=1e-12)
        assert plan.e1_bound + plan.e2_bound < 1e-8

    def test_m3_suffices_for_q101(self):
        # e1 for M=3 is already below 1e-8 at P=2020
        assert _e1_closed(101, 2020, 3) < 1e-8
        assert choose_plan(101, A=20, delta=8).M <= 3

    def test_monotone_in_delta(self):
        prev_m, prev_k = 0, 0
        for delta in range(1, 13):
            plan = choose_plan(101, A=20, delta=delta)
            assert plan.M >= prev_m and plan.K >= prev_k
            prev_m, prev_k = plan.M, plan.K

    def test_domain(self):
        with pytest.raises(ValueError):
            choose_plan(101, A=0, delta=8)

    def test_refuses_overflowing_exponent(self, monkeypatch):
        # M*K*ln(101) is 664.6 at delta = 39 and 780.0 at delta = 40, against
        # ln(DBL_MAX) = 709.78: zeta(M*K, 1/q) > q^(M*K) must stay finite
        plan = choose_plan(101, delta=39)
        assert plan.M * plan.K == 144
        with pytest.raises(ValueError, match=r"delta=40 .* q=101: .* M\*K = 169"):
            choose_plan(101, delta=40)

        def no_sieve(n):
            raise AssertionError("sieved before the plan was checked")

        monkeypatch.setattr(primesum, "sieve_primes", no_sieve)
        for call in (verify_ratio, prime_power_sum):
            with pytest.raises(ValueError, match=r"M\*K = 169"):
                call(101, delta=40)


def _brute_head_sum(f, P):
    """-sum_{chi != chi0} sum_{p <= P} log(1 - chi(p)/p) by direct complex logs."""
    n = f.q - 1
    total = []
    for p in sieve_primes(P).tolist():
        if p == f.q:
            continue
        d = int(f.dlog[p % f.q])
        js = np.arange(1, n)
        z = np.exp(2j * np.pi * ((js * d) % n) / n) / p
        total.append(fsum(np.log(np.abs(1.0 - z))))
    return -fsum(total)


class TestHeadSum:
    def test_q3_hand_value(self, field):
        # single prime p=2 with chi(2) = -1: -log(1 + 1/2)
        assert head_sum(field(3), 3) == pytest.approx(math.log(2.0 / 3.0), abs=1e-15)

    def test_q5_vs_brute(self, field):
        assert head_sum(field(5), 10) == pytest.approx(_brute_head_sum(field(5), 10), abs=1e-13)

    def test_orthogonality_recombination(self, field):
        # same totals via character orthogonality on several small cases
        for q, P in ((7, 70), (13, 130), (101, 1010)):
            f = field(q)
            assert head_sum(f, P) == pytest.approx(_brute_head_sum(f, P), abs=1e-12)

    def test_skips_q_itself(self, field):
        # p = q contributes log(1 - 0) = 0; P >= q must not blow up
        f = field(5)
        assert math.isfinite(head_sum(f, 5))


def _brute_truncated_log_L(f, s, j, P, pmax=10**6):
    """Euler product over P < p <= pmax plus the closed tail bound."""
    n = f.q - 1
    total = 0.0 + 0.0j
    for p in sieve_primes(pmax).tolist():
        if p <= P or p == f.q:
            continue
        chi = np.exp(2j * np.pi * ((j * int(f.dlog[p % f.q])) % n) / n)
        total += -np.log(1.0 - chi * float(p) ** (-s))
    return total, pmax ** (1 - s) / (s - 1)


class TestTruncatedLogL:
    def test_bound_respected(self, field):
        for q in (7, 101):
            f = field(q)
            P = 20 * q
            for s in (2, 3, 5):
                for j in range(1, min(f.n, 7)):
                    v = truncated_log_L(s, j, f, P)
                    assert abs(v) <= P ** (1 - s) / (s - 1) * (1 + 1e-6) + 1e-10

    def test_q7_vs_brute_product(self, field):
        f = field(7)
        v = truncated_log_L(2, 1, f, 14)
        brute, tail = _brute_truncated_log_L(f, 2, 1, 14)
        assert abs(v - brute) <= tail + 1e-12

    def test_conjugate_symmetry(self, field):
        f = field(11)
        for s in (2, 4):
            for j in (1, 2, 3):
                a = truncated_log_L(s, j, f, 110)
                b = truncated_log_L(s, f.n - j, f, 110)
                assert abs(a - np.conj(b)) <= 1e-12

    def test_domain(self, field):
        with pytest.raises(ValueError):
            truncated_log_L(1, 1, field(7), 70)
        with pytest.raises(ValueError):
            truncated_log_L(2, 0, field(7), 70)


class TestOrbitIdentity:
    def test_vs_per_character(self, field):
        # sum_j Re log L_P(u, chi_{ju}) straight from truncated_log_L,
        # principal powers through the zeta closed form
        for q, u in ((7, 2), (7, 3), (13, 4), (101, 2)):
            f = field(q)
            n = f.n
            P = 10 * q
            ctx = _EulerContext(f, P)
            brute = []
            for j in range(1, n):
                idx = (j * u) % n
                if idx == 0:
                    princ = math.log1p(float(zetac(u))) + math.log1p(-float(q) ** (-u))
                    pr = ctx.pfloat
                    princ += fsum(np.log1p(-pr ** (-float(u))))
                    brute.append(princ)
                else:
                    brute.append(_ctx_log_L(ctx, u, idx).real)
            assert _orbit_log_sum(ctx, u) == pytest.approx(fsum(brute), abs=1e-11)


def _full_orbit_log_sum(ctx, u):
    """T(u) as first written: a gcd per u and every prime, math.fsum; also
    returns the full array of orbit terms."""
    n = ctx.field.n
    gs = gcd(u, n)
    lsum = gs * fsum(np.log(np.abs(ctx.l_values(u)[gs * np.arange(n // gs)])))
    princ = math.log1p(float(zetac(u))) + math.log1p(-float(ctx.field.q) ** (-u))
    g2 = np.gcd(u * ctx.dlogs, n)
    with np.errstate(under="ignore"):
        orbit = g2 * np.log1p(-ctx.pfloat ** (-(u * (n // g2)).astype(np.float64)))
        plain = np.log1p(-ctx.pfloat ** (-float(u)))
    return lsum - princ + fsum(orbit) - fsum(plain), orbit


class TestOrbitSumShortcuts:
    @pytest.mark.parametrize("q", [101, 1009, 4703])
    def test_against_full_evaluation(self, field, q, monkeypatch):
        # record each T(u) of the tails verify_ratio runs
        sums = {}
        orbit_log_sum = primesum._orbit_log_sum

        def recorded(ctx, u):
            sums[u] = orbit_log_sum(ctx, u)
            return sums[u]

        monkeypatch.setattr(primesum, "_orbit_log_sum", recorded)
        plan = choose_plan(q)
        ctx = _EulerContext(field(q), plan.P)
        ctx.tails(plan.M, plan.K)
        assert sums
        dead = np.ones(ctx.primes.size, dtype=bool)
        dead[ctx.live] = False
        # at q = 101 every order n/g <= 100 keeps p^-(n/g) above 2^-1100
        assert dead.any() == (q > 101) and not dead.all()
        for u, value in sums.items():
            full, orbit = _full_orbit_log_sum(ctx, u)
            assert value == pytest.approx(full, abs=1e-13)
            # the underflow cut only skips exact zeros
            assert np.all(orbit[dead] == 0.0)

    def test_gcd_identity(self):
        # gcd(u d, n) = g gcd(u, n/g) with g = gcd(d, n)
        r = np.random.default_rng(23)
        n = r.integers(2, 10**7, size=20000)
        d = r.integers(0, n)
        u = r.integers(1, 65, size=n.size)
        g = np.gcd(d, n)
        assert np.array_equal(g * np.gcd(u, n // g), np.gcd(u * d, n))


class TestSharedSum:
    def test_general_arrays_against_fsum(self):
        # the verifier's arrays: mixed signs, magnitudes 1e-300 to 1e3,
        # sometimes nearly cancelling
        r = np.random.default_rng(2008)
        u = np.finfo(np.float64).eps / 2
        for _ in range(300):
            n = int(r.integers(0, 3001))
            lo, hi = np.sort(r.uniform(-300.0, 3.0, size=2))
            p = r.choice([-1.0, 1.0], size=n) * 10.0 ** r.uniform(lo, hi, size=n)
            if r.random() < 0.3:
                p[n // 2 :] = -r.permutation(p[: n - n // 2])
            want = fsum(p)
            mu = float(np.max(np.abs(p), initial=0.0))
            sigma = math.ldexp(1.0, (n + 1).bit_length() + math.frexp(mu)[1])
            got = _class_sum(0.0, p.copy(), np.empty(n))[0]
            bound = 2 * math.ulp(want) + (25 + math.log2(max(n, 1))) * n * u * u * sigma
            assert abs(got - want) <= bound


def _ctx_log_L(ctx, s, j):
    return truncated_log_L(s, j, ctx.field, ctx.P)


class TestMoebiusTail:
    def test_q7_reconstruction(self, field):
        f = field(7)
        plan = choose_plan(7, A=10, delta=6)
        l1 = naive_l1_magnitudes(f)
        total = head_sum(f, plan.P) + moebius_tail(f, plan, l1)
        rec = log_ratio_fft(f)
        assert abs(total - rec.log_R) <= 1e-6 + rec.err_est

    def test_dropped_terms_within_budget(self, field):
        # coarse plan vs fine plan differ by less than the coarse bounds
        f = field(101)
        l1 = naive_l1_magnitudes(f)
        coarse = choose_plan(101, A=20, delta=4)
        fine = choose_plan(101, A=20, delta=12)
        tc = head_sum(f, coarse.P) + moebius_tail(f, coarse, l1)
        tf = head_sum(f, fine.P) + moebius_tail(f, fine, l1)
        assert abs(tc - tf) <= coarse.e1_bound + coarse.e2_bound + 1e-12

    def test_rejects_bad_l1(self, field):
        f = field(7)
        plan = choose_plan(7, delta=6)
        with pytest.raises(ValueError):
            moebius_tail(f, plan, np.ones(3))


class TestVerifyRatio:
    def test_q3_closed_form(self):
        split = verify_ratio(3, delta=8)
        assert split.total == pytest.approx(LOG_R3, abs=1e-8)

    # 30011 and 99991 reach up to the cost guard, VERIFY_MAX_Q = 1e5
    @pytest.mark.parametrize("q,delta", [(101, 8), (499, 6), (30011, 8), (99991, 8)])
    def test_cross_path(self, field, q, delta):
        split = verify_ratio(q, delta=delta)
        rec = log_ratio_fft(field(q))
        assert abs(split.total - rec.log_R) <= 10.0 ** (-delta) + rec.err_est

    def test_error_budget_vs_naive(self, field):
        for q in (7, 101, 499):
            split = verify_ratio(q, delta=8)
            rec = log_ratio_naive(field(q))
            assert abs(split.total - rec.log_R) <= 1e-8

    def test_split_identities(self):
        split = verify_ratio(101, delta=8)
        assert split.prime_sum + split.power_sum == split.total
        bound = power_sum_constant() + (math.pi**2 / 6 - power_sum_constant()) / split.q
        assert abs(split.power_sum) <= bound

    def test_cost_guard(self):
        with pytest.raises(CostGuardError):
            verify_ratio(100003)

    def test_cost_guard_reads_limit_at_call_time(self, monkeypatch):
        monkeypatch.setattr(primesum, "VERIFY_MAX_Q", 100)
        for call in (verify_ratio, prime_power_sum):
            with pytest.raises(CostGuardError, match="q=101 > 100"):
                call(101)

    def test_each_orbit_sum_once(self, monkeypatch):
        # q=4903 under the default plan A=20, delta=8: P=98060, M=K=3.  The
        # m >= 1 tail needs T(4), T(6), T(9) (u=2, 3 cancel to zero); the
        # m >= 2 tail of the prime-power part needs T(2), T(3), T(4), T(6), T(9)
        calls = []
        orbit = primesum._orbit_log_sum

        def counted(ctx, u):
            calls.append(u)
            return orbit(ctx, u)

        monkeypatch.setattr(primesum, "_orbit_log_sum", counted)
        split = verify_ratio(4903)
        assert (split.plan.A, split.plan.P, split.plan.M, split.plan.K) == (20, 98060, 3, 3)
        assert sorted(calls) == [2, 3, 4, 6, 9]


def _brute_sigma2(f, pmax=10**6, mmax=40):
    """sum over nonprincipal chi, p <= pmax, 2 <= m <= mmax of chi(p^m)/(m p^m),
    by orthogonality: sum_chi chi(p^m) = (q-1)[ord_q(p) | m] - 1."""
    n = f.q - 1
    primes = sieve_primes(pmax)
    primes = primes[primes != f.q]
    d = f.dlog[primes % f.q]
    order = n // np.gcd(d, n)
    pf = primes.astype(np.float64)
    total = 0.0
    for m in range(2, mmax + 1):
        chi_sum = np.where(m % order == 0, n - 1, -1).astype(np.float64)
        with np.errstate(under="ignore"):
            total += float(np.sum(chi_sum * pf ** (-float(m)))) / m
    return total


class TestPowerHead:
    @pytest.mark.parametrize("q", [3, 7, 101, 4703, 20011])
    def test_head_sum_less_first_terms(self, field, q):
        ctx = _EulerContext(field(q), choose_plan(q).P)
        assert abs(_power_head(ctx) - power_head_closed_form(ctx)) <= 1e-15


class TestPrimePowerSum:
    @pytest.mark.parametrize("q", [7, 101, 997])
    def test_bound(self, q):
        v = prime_power_sum(q, delta=6)
        a = power_sum_constant()
        assert abs(v) < a + (math.pi**2 / 6 - a) / q

    def test_q7_brute(self, field):
        v = prime_power_sum(7, delta=8)
        brute = _brute_sigma2(field(7))
        # brute truncation: primes > 1e6 contribute < (q-1) * sum 1/(2 p^2)
        assert abs(v - brute) <= 1e-6 + 6 / 10**6

    def test_stays_bounded(self):
        a = power_sum_constant()
        for q in (101, 499, 997):
            assert abs(prime_power_sum(q, delta=6)) <= a + 1


class TestPrimeSumSplit:
    def test_q101_dual_path(self, field):
        rec = log_ratio_fft(field(101))
        split = verify_ratio(101, delta=8)
        # the stored prime part must sit within 2e-8-ish of the fft log_R - sigma2
        assert abs(split.prime_sum - (rec.log_R - split.power_sum)) <= 2e-8 + rec.err_est

    def test_q3_total(self):
        split = verify_ratio(3, delta=8)
        assert split.prime_sum + split.power_sum == pytest.approx(LOG_R3, abs=1e-7)

    def test_sign_scan(self):
        negatives = 0
        qs = [int(q) for q in sieve_primes(100)[1:]]
        for q in qs:
            split = verify_ratio(q, delta=6)
            negatives += split.prime_sum < 0
        assert negatives >= len(qs) * 0.8  # most small q have negative prime part


class TestMertensConstants:
    def test_algebraic_inversion(self):
        split = verify_ratio(101, delta=8)
        m_q1 = mertens_constant_q1(split)
        # reconstruct the defining relation exactly
        reconstructed = (101 - 1) * m_q1 - meissel_mertens() + 1.0 / 101
        assert reconstructed == pytest.approx(split.prime_sum, abs=1e-12)

    def test_empirical_progression_sum(self):
        # sum of 1/p over p <= 1e7, p = 1 mod 101, against its asymptotic
        split = verify_ratio(101, delta=8)
        m_q1 = mertens_constant_q1(split)
        primes = sieve_primes(10**7)
        sel = primes[primes % 101 == 1].astype(np.float64)
        empirical = fsum(1.0 / sel) - math.log(math.log(10**7)) / 100
        assert abs(empirical - m_q1) < 0.02

    def test_scaled_boundedness(self):
        for q in (101, 211, 499):
            split = verify_ratio(q, delta=6)
            assert abs((q - 1) * mertens_constant_q1(split)) < 5.0
