"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its runtime.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete.
"""

import math
import re
import time

import numpy as np
import pytest

from bsratio.bounds import check_dusart, refined_bound
from bsratio.cli import main as cli_main
from bsratio.figures import MARGIN_T, PLOT_H, scatter_scale
from bsratio.ntheory import build_field, sieve_primes
from bsratio.pipeline import compute_range, load_rows, summarize
from bsratio.primesum import prime_power_sum, verify_ratio
from bsratio.ratio import log_H, log_ratio_digamma, log_ratio_fft, log_ratio_naive
from bsratio.specfun import minimize_harmonic_loglog, power_sum_constant

R3 = math.pi / (3 * math.sqrt(3))


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def _report(num, ok, timer, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} ({timer.seconds:.2f}s) {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_r3_via_cli(tmp_path):
    out = tmp_path / "q3.csv"
    with _Timer() as t:
        assert cli_main(["compute", "--from", "3", "--to", "3", "--out", str(out)]) == 0
        rows = load_rows(out)
    ok = (
        len(rows) == 1
        and abs(rows[0].R - 0.604600) <= 1e-5
        and abs(rows[0].R - R3) <= 1e-10
        and t.seconds < 1.0
    )
    _report(1, ok, t, f"R(3)={rows[0].R!r}")


def test_criterion_02_class_number_closure():
    with _Timer() as t:
        rec = log_ratio_fft(build_field(3))
        resid = rec.log_R + log_H(3)
    ok = abs(resid) <= 1e-12 and t.seconds < 1.0
    _report(2, ok, t, f"log R(3) + log H(3) = {resid:.3e}")


def test_criterion_03_constant_via_cli(capsys):
    power_sum_constant.cache_clear()
    from bsratio.specfun import constants_table

    constants_table.cache_clear()
    with _Timer() as t:
        assert cli_main(["constants"]) == 0
        printed = capsys.readouterr().out
    m = re.search(r"power_sum_constant\s+([0-9.]+)", printed)
    val = float(m.group(1))
    ok = abs(val - 1.6000883438) <= 1e-9 and t.seconds < 5.0
    _report(3, ok, t, f"A = {val!r}")


def test_criterion_04_refined_bound_spec_claims():
    # Max over primes 3 <= q <= 1e4 of the digamma form, against the
    # independent 30-digit reference (re-derived in tests/test_bounds.py).
    # The published "below 1.600177, at q=229" is what the formula gives
    # with A truncated to 1.60008; with the full A the maximum is at q=233,
    # 3.2e-11 above the runner-up q=229.
    with _Timer() as t:
        qs = [int(q) for q in sieve_primes(10**4)[1:]]
        vals = np.array([refined_bound(q) for q in qs])
        vmax = float(vals.max())
        argmax = qs[int(np.argmax(vals))]
    ok = (
        vmax < 1.600185
        and abs(vmax - 1.600184966208130) <= 1e-12
        and argmax == 233
        and t.seconds < 10.0
    )
    _report(4, ok, t, f"max={vmax!r} at q={argmax}")


def test_criterion_05_harmonic_loglog_minimum():
    minimize_harmonic_loglog.cache_clear()
    with _Timer() as t:
        k, v = minimize_harmonic_loglog()
    ok = k == 55 and v < -0.4152617906 and t.seconds < 1.0
    _report(5, ok, t, f"k={k} value={v!r}")


def test_criterion_06_cross_method_agreement():
    with _Timer() as t:
        worst = 0.0
        worst_q = 0
        for q in sieve_primes(2000)[1:]:
            f = build_field(int(q))
            a = log_ratio_fft(f).log_R
            b = log_ratio_digamma(f).log_R
            c = log_ratio_naive(f).log_R
            d = max(abs(a - b), abs(a - c), abs(b - c))
            if d > worst:
                worst, worst_q = d, int(q)
    ok = worst <= 1e-9 and t.seconds < 300.0
    _report(6, ok, t, f"worst pairwise {worst:.3e} at q={worst_q}")


def _sample_primes(lo, hi, count):
    primes = sieve_primes(hi)
    primes = primes[primes >= lo]
    targets = np.linspace(lo, hi, count)
    picks = sorted({int(primes[np.argmin(np.abs(primes - x))]) for x in targets})
    return picks


def test_criterion_07_certified_verifier():
    with _Timer() as t:
        sample = _sample_primes(5, 2000, 20)
        worst = 0.0
        for q in sample:
            rec = log_ratio_fft(build_field(q))
            split = verify_ratio(q, delta=8)
            diff = abs(split.total - rec.log_R)
            assert diff <= 1e-8 + rec.err_est, f"q={q}: {diff:.3e}"
            worst = max(worst, diff)
    ok = t.seconds < 600.0
    _report(7, ok, t, f"{len(sample)} primes, worst |diff| {worst:.3e}")


def test_criterion_08_power_sum_bound_scan():
    a = power_sum_constant()
    with _Timer() as t:
        worst = 0.0
        for q in sieve_primes(2000)[1:]:
            q = int(q)
            s2 = prime_power_sum(q, delta=5)
            bound = a + (math.pi**2 / 6 - a) / q
            assert abs(s2) <= bound, f"q={q}"
            if q >= 7:
                assert abs(s2) <= 1.608, f"q={q}"
            worst = max(worst, abs(s2))
    _report(8, True, t, f"max |sigma2| = {worst:.6f} over primes <= 2000")


def test_criterion_09_dusart_checks():
    with _Timer() as t:
        ok = all(check_dusart(x) for x in (2278383, 3 * 10**6, 10**7))
    ok = ok and t.seconds < 30.0
    _report(9, ok, t, "x in {2278383, 3e6, 1e7}")


@pytest.fixture(scope="module")
def sweep_1e5(tmp_path_factory):
    """The desk-scale sweep, run once at both thread counts."""
    base = tmp_path_factory.mktemp("sweep")
    t0 = time.perf_counter()
    compute_range(3, 10**5, out=base / "t8.csv", threads=8)
    t_8 = time.perf_counter() - t0
    t0 = time.perf_counter()
    compute_range(3, 10**5, out=base / "t1.csv", threads=1)
    t_1 = time.perf_counter() - t0
    return base, t_1, t_8


def test_criterion_10_desk_scale_sweep(sweep_1e5, tmp_path):
    base, t_1, t_8 = sweep_1e5
    with _Timer() as t:
        assert (base / "t1.csv").read_bytes() == (base / "t8.csv").read_bytes()
        rows = load_rows(base / "t1.csv")
        in_band = [r for r in rows if r.q >= 5 and 0.19 < r.R_norm < 0.68]
        eligible = [r for r in rows if r.q >= 5]
        frac = len(in_band) / len(eligible)
        max_row = max(rows, key=lambda r: r.R)

        out_dir = tmp_path / "figs"
        assert cli_main(["stats", "--in", str(base / "t1.csv"), "--out-dir", str(out_dir)]) == 0
        s = summarize(rows)
        mean_checks = []
        for name, normalized, mean in (
            ("values_scatter.svg", False, s.mean_R),
            ("normalized_scatter.svg", True, s.mean_R_norm),
        ):
            svg = (out_dir / name).read_text()
            emitted = float(re.search(r'class="mean"[^/]*y1="([0-9.]+)"', svg).group(1))
            _, _, ylo, yhi = scatter_scale(rows, normalized)
            expected = MARGIN_T + PLOT_H - (mean - ylo) / (yhi - ylo) * PLOT_H
            mean_checks.append(abs(emitted - expected) <= 0.01)

    ok = (
        frac >= 0.999
        and max_row.q == 3
        and all(mean_checks)
        and t_1 < 1800.0
        and t_8 < 300.0
    )
    _report(
        10,
        ok,
        t,
        f"band {frac:.4%}, max R at q={max_row.q}, sweep 1-thread {t_1:.0f}s / 8-thread {t_8:.0f}s",
    )


def test_criterion_11_determinism(tmp_path):
    with _Timer() as t:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        compute_range(3, 10**4, out=a, threads=1)
        compute_range(3, 10**4, out=b, threads=8)
        same_threads = a.read_bytes() == b.read_bytes()

        torn = tmp_path / "torn.csv"
        full = a.read_bytes()
        torn.write_bytes(full[: int(len(full) * 0.6)])
        compute_range(3, 10**4, out=torn, resume=True)
        same_resume = torn.read_bytes() == full
    ok = same_threads and same_resume
    _report(11, ok, t, f"thread-identical={same_threads} resume-identical={same_resume}")


def test_criterion_12_property_suites(rng, field):
    from scipy.special import gammaln

    from bsratio.fft import dft_fast
    from oracles import dft_naive, truncated_log_L
    from bsratio.specfun import EULER_GAMMA, digamma

    with _Timer() as t:
        # transform oracle equivalence at assorted lengths <= 512
        for n in (1, 2, 3, 17, 64, 96, 255, 500, 512):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d = np.max(np.abs(dft_fast(x) - dft_naive(x)))
            assert d <= 1e-10 * max(1.0, float(np.max(np.abs(dft_naive(x)))))
        # Parseval
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        assert float(np.sum(np.abs(dft_fast(x)) ** 2)) == pytest.approx(
            4096 * float(np.sum(np.abs(x) ** 2)), rel=1e-10
        )
        # special-function identities
        for u in rng.uniform(0.05, 0.95, size=50):
            lhs = gammaln(u) + gammaln(1 - u)
            assert abs(lhs - math.log(math.pi / math.sin(math.pi * u))) <= 1e-12 * max(1, abs(lhs))
        for u in rng.uniform(0.05, 9.0, size=50):
            assert abs(digamma(u + 1) - digamma(u) - 1 / u) <= 1e-12 * max(1.0, 1 / u)
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
        # truncated-log bound assertions active on a grid
        f = field(101)
        for s in (2, 3, 4):
            for j in (1, 2, 50):
                v = truncated_log_L(s, j, f, 2020)
                assert abs(v) <= 2020 ** (1 - s) / (s - 1) * (1 + 1e-6) + 1e-10
    _report(12, True, t, "transform oracle, Parseval, reflection/recurrence, tail bounds")
