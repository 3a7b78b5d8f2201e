"""The names the benchmark's traced runs read from the program.

perfbench/rep.py wraps layer functions by name and reports one value per
layer on its last stdout line, as JSON.  A layer that is renamed away or
never called shows up as a missing name or a null or non-finite value,
which the benchmark cannot parse as a metric.  So can the values a
traced run adds outside layer_metrics: the chirp-cache counters and the
memory the cache retains.  This runs the traced sweep-small-q and
verify-sample bodies in-process on tiny inputs, and the whole traced
benchmark on its smoke inputs, where every metric of every workload must
come out a finite number.
"""

from __future__ import annotations

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REP_PATH = ROOT / "perfbench" / "rep.py"


@pytest.fixture(scope="module")
def rep():
    spec = importlib.util.spec_from_file_location("perfbench_rep", REP_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(rep, workload, spec, csv_path, probe=False):
    tracer = rep.Tracer()
    l1_by_q: dict = {}
    calls0 = rep.chirp_cache_info()
    try:
        rep.install(tracer, l1_by_q)
        body_idx = tracer.open("body")
        rep.run_body(workload, spec, str(csv_path), 1)
        tracer.close(body_idx)
        probe_idx = None
        if probe:
            probe_idx = len(tracer.spans)
            rep.probe_primesum(tracer, spec["qs"], l1_by_q)
    finally:
        tracer.unwrap()
    calls1 = rep.chirp_cache_info()
    layers = rep.layer_metrics(tracer.spans, body_idx, probe_idx)
    layers["fft.chirp_cache_retained_mb"] = rep.chirp_retained_mb()
    return tracer, layers, calls0, calls1


def _assert_contract(tracer, layers, calls0, calls1):
    assert tracer.missing == []
    for name, value in layers.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
    assert isinstance(layers["fft.chirp_cache_retained_mb"], float)
    json.dumps(layers, allow_nan=False)
    assert calls0 is not None and calls1 is not None
    assert calls1.hits + calls1.misses > calls0.hits + calls0.misses


def test_traced_small_q_sweep(rep, tmp_path):
    spec = dict(q_lo=3, q_hi=200, threads=1)
    _assert_contract(*_traced(rep, "sweep-small-q", spec, tmp_path / "sweep.csv"))


def test_traced_verify_sample_with_probes(rep, tmp_path):
    tracer, layers, calls0, calls1 = _traced(
        rep, "verify-sample", dict(qs=[107, 223]), tmp_path / "verify.out", probe=True
    )
    _assert_contract(tracer, layers, calls0, calls1)
    for name in ("primesum.head_sum_s", "primesum.moebius_tail_s", "primesum.prime_power_sum_s"):
        assert layers[name] > 0.0, name


def test_every_workload_reaches_a_rough_length(rep):
    # a body whose transform lengths are all 11-smooth never builds a chirp
    # kernel, and the chirp-cache metrics of its traced run come out null
    from bsratio.fft import _smooth_part
    from bsratio.ntheory import sieve_primes

    def rough(q):
        h = (int(q) - 1) // 2
        return _smooth_part(h) < h

    size = rep.SIZES["real"]
    for workload in ("sweep-small-q", "sweep-pool"):
        spec = rep.make_inputs(workload, 0, size, 0)
        assert spec["q_lo"] <= 53 <= spec["q_hi"] and rough(53)  # h = 2 * 13

    # a band window is band_len consecutive primes of [band_lo, band_hi)
    primes = sieve_primes(size["band_hi"] - 1)
    run = longest = 0
    for q in primes[primes >= size["band_lo"]]:
        run = 0 if rough(q) else run + 1
        longest = max(longest, run)
    assert longest < size["band_len"]

    for seed in range(1000):
        qs = rep.make_inputs("verify-sample", seed, size, 0)["qs"]
        assert any(rough(q) for q in qs), seed


def _no_constant(name):
    raise ValueError(f"non-finite constant {name} in a result line")


def test_traced_smoke_run_every_metric_finite_on_every_workload():
    # a result line with a NaN, an Infinity or a null metric is what a
    # benchmark driver cannot read; any one workload having one is enough
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(lines) == len(spec["workloads"])
    assert proc.stdout.splitlines()[-1] == lines[-1]
    for line, workload in zip(lines, spec["workloads"]):
        res = json.loads(line, parse_constant=_no_constant)
        assert res["correct"] is True and res["failed"] == 0, workload["name"]
        assert list(res["metrics"]) == [m["name"] for m in spec["per_layer"]]
        for name, metric in res["metrics"].items():
            value = metric["value"]
            finite = type(value) in (int, float) and math.isfinite(value)
            assert finite, (workload["name"], name, value)
