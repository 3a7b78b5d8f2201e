import math

import numpy as np
import pytest

from bsratio.ntheory import (
    build_field,
    find_primitive_root,
    is_prime,
    moebius,
    prime_reciprocal_sum,
    sieve_primes,
)
from bsratio.specfun import meissel_mertens


def _oracle_sieve(limit):
    """Sieve over a flag for every integer up to limit, unlike the odd-only
    bitmap it checks."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _oracle_mu(limit):
    """Linear-time Moebius table via smallest prime factors."""
    mu = np.ones(limit + 1, dtype=np.int64)
    primes = _oracle_sieve(limit)
    for p in primes:
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


class TestSieve:
    def test_small(self):
        assert sieve_primes(10).tolist() == [2, 3, 5, 7]

    def test_boundary(self):
        assert sieve_primes(2).tolist() == [2]
        assert sieve_primes(1).size == 0

    def test_against_oracle_to_1e6(self):
        got = sieve_primes(10**6)
        assert got.shape[0] == 78498
        assert np.array_equal(got, _oracle_sieve(10**6))

    def test_large_limits_against_oracle(self):
        for limit in (2**21 - 1, 2**21, 2**21 + 1, 3 * 10**6 + 17):
            assert np.array_equal(sieve_primes(limit), _oracle_sieve(limit))

    def test_against_oracle_to_1e7(self):
        got = sieve_primes(10**7)
        assert got.shape[0] == 664579
        assert np.array_equal(got, _oracle_sieve(10**7))


class TestIsPrime:
    def test_trivial(self):
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(11)  # 2q+1 for q=5

    def test_large_prime_vs_trial_division(self):
        n = 10**9 + 7
        r = math.isqrt(n)
        by_trial = all(n % d for d in range(2, r + 1))
        assert is_prime(n) and by_trial

    def test_agreement_with_sieve_to_1e6(self):
        primes = set(sieve_primes(10**6).tolist())
        for n in range(10**6 + 1):
            assert is_prime(n) == (n in primes)

    def test_strong_pseudoprimes(self):
        # classic base-2 strong pseudoprimes must be rejected
        for n in (2047, 3215031751, 3825123056546413051):
            assert not is_prime(n)


class TestMoebius:
    @pytest.mark.parametrize("k,expected", [(1, 1), (6, 1), (12, 0), (30, -1), (49, 0)])
    def test_values(self, k, expected):
        assert moebius(k) == expected

    def test_against_table(self):
        mu = _oracle_mu(5000)
        for k in range(1, 5001):
            assert moebius(k) == mu[k]

    def test_multiplicative(self):
        mu = _oracle_mu(10**6)
        for m in range(1, 1001):
            for n in range(1, 1001):
                if math.gcd(m, n) == 1:
                    assert mu[m * n] == mu[m] * mu[n]

    def test_domain(self):
        with pytest.raises(ValueError):
            moebius(0)


def _order(g, q):
    k, x = 1, g % q
    while x != 1:
        x = x * g % q
        k += 1
    return k


class TestPrimitiveRoot:
    @pytest.mark.parametrize("q,g", [(3, 2), (5, 2), (7, 3)])
    def test_known(self, q, g):
        assert find_primitive_root(q) == g
        assert _order(g, q) == q - 1

    def test_least_root_small_primes(self):
        for q in sieve_primes(200)[1:]:
            q = int(q)
            g = find_primitive_root(q)
            assert _order(g, q) == q - 1
            # leastness: no smaller generator
            for h in range(2, g):
                assert _order(h, q) != q - 1

    def test_rejects_non_primes(self):
        for bad in (4, 9, 2, 1):
            with pytest.raises(ValueError):
                find_primitive_root(bad)


class TestPrimeField:
    def test_q5_dlog(self):
        f = build_field(5)
        assert {a: int(f.dlog[a]) for a in range(1, 5)} == {1: 0, 2: 1, 4: 2, 3: 3}

    def test_q3_dlog(self):
        f = build_field(3)
        assert {a: int(f.dlog[a]) for a in range(1, 3)} == {1: 0, 2: 1}

    def test_invariants_exhaustive_to_1e4(self):
        for q in sieve_primes(10**4)[1:]:
            f = build_field(int(q))
            n = f.q - 1
            # dlog restricted to units is a bijection onto 0..n-1
            assert np.array_equal(np.sort(f.dlog[1:]), np.arange(n))
            # g^dlog[a] == a for every a
            assert np.array_equal(f.pow_table[f.dlog[1:]], np.arange(1, f.q))
            assert f.dlog[1] == 0
            assert f.dlog[f.q - 1] == n // 2

    def test_blockwise_matches_plain_loop(self):
        # the block power-table construction against a straight loop
        f = build_field(9973)
        x, q, g = 1, 9973, f.g
        for k in range(q - 1):
            assert f.pow_table[k] == x
            x = x * g % q

    @pytest.mark.parametrize("q", [3, 5, 7, 101])
    def test_small_blocks_match_plain_loop(self, q):
        # isqrt(q-1) + 1 powers per block: one block at q = 3, several from q = 5 on
        f = build_field(q)
        assert f.pow_table.tolist() == [pow(f.g, k, q) for k in range(q - 1)]

    def test_sampled_powers_near_1e7(self, rng):
        # the top of the paper's range, where the blockwise products that
        # build_field reduces by floor division reach q^2 ~ 1e14
        q = 9_999_991
        f = build_field(q)
        k = rng.integers(0, q - 1, size=10_000)
        assert f.pow_table[k].tolist() == [pow(f.g, int(v), q) for v in k]

    def test_dlog_built_on_first_read(self):
        f = build_field(101)
        assert "dlog" not in vars(f)
        assert f.dlog is f.dlog
        assert "dlog" in vars(f)


class TestPrimeReciprocalSum:
    def test_four_terms(self):
        expected = math.fsum([1 / 2, 1 / 3, 1 / 5, 1 / 7])
        assert prime_reciprocal_sum(10) == pytest.approx(expected, abs=1e-15)

    def test_monotone(self):
        xs = [2, 10, 100, 1000, 10**4, 10**5]
        vals = [prime_reciprocal_sum(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_mertens_window_at_threshold(self):
        x = 2278383
        s = prime_reciprocal_sum(x)
        assert abs(s - math.log(math.log(x)) - meissel_mertens()) <= 0.2 / math.log(x) ** 3

    def test_domain(self):
        with pytest.raises(ValueError):
            prime_reciprocal_sum(1.5)
