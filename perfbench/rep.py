"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/rep.py '<json config>'

The config names the workload, seed, size table (real or smoke), the kind
of repetition and a scratch directory.  The repetition

1. times ``import bsratio`` plus the first ``specfun.constants_table()``
   (the set-up a user pays once per process);
2. builds the workload's inputs from the seed;
3. runs the timed body, with the layer functions wrapped in spans when the
   kind is traced, between two runs of a fixed calibration task;
4. checks the outputs against independent references (the first
   repetition of a run, and every band repetition, whose inputs differ),
   and later repetitions byte for byte against the first;
5. prints one JSON record as its last stdout line.

Spans are (name, start, end, parent, info) tuples kept in memory and
written to a file when the repetition ends.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

_T0 = time.perf_counter()
import bsratio  # noqa: E402

_T1 = time.perf_counter()
bsratio.specfun.constants_table()
_T2 = time.perf_counter()

import random  # noqa: E402
from bisect import bisect_right  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from bsratio import fft, ntheory, pipeline, primesum, ratio  # noqa: E402

# Inputs per size table.  Sweeps cover [3, sweep_q_max + jitter].  The band
# is band_len consecutive primes in [band_lo, band_hi), a new window for each
# repetition (each cycle of a traced run): window k lies in stratum
# (offset + BAND_STRIDE k) of band_strata equal strata, so that a run samples
# transform lengths from across the band (the padded length, and with it
# the cost, is constant over long runs of consecutive q).  verify-sample
# draws one prime per stratum of [verify_lo, verify_hi).
SIZES = {
    "real": dict(
        sweep_q_max=10_000, sweep_jitter=100,
        band_lo=900_000, band_hi=1_000_000, band_len=8, band_strata=24,
        verify_lo=1000, verify_hi=5000, verify_count=12,
        naive_rows=3, paranoid_rows=1, pool_rows=4,
    ),
    "smoke": dict(
        sweep_q_max=300, sweep_jitter=20,
        band_lo=20_000, band_hi=30_000, band_len=3, band_strata=4,
        verify_lo=100, verify_hi=400, verify_count=3,
        naive_rows=2, paranoid_rows=2, pool_rows=2,
    ),
}
NAIVE_TOL = 1e-9  # acceptance criterion 6
VERIFY_TOL = 1e-8  # acceptance criterion 7, plus the FFT's err_est
NAIVE_CHECK_MAX_Q = 5000
BAND_STRIDE = 5  # coprime to band_strata


def make_inputs(workload: str, seed: int, size: dict, window: int) -> dict:
    """The workload's inputs; the same (workload, seed, window) gives the
    same inputs, and only the band's depend on the window index."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("sweep-small-q", "sweep-pool"):
        q_hi = size["sweep_q_max"] + rng.randrange(size["sweep_jitter"])
        primes = [int(p) for p in ntheory.sieve_primes(q_hi)[1:]]
        small = [p for p in primes if p <= NAIVE_CHECK_MAX_Q]
        return dict(
            q_lo=3, q_hi=q_hi,
            threads=2 if workload == "sweep-pool" else 1,
            naive_qs=sorted(rng.sample(small, size["naive_rows"])),
            pool_qs=sorted(rng.sample(primes, size["pool_rows"])),
        )
    if workload == "band-large-q":
        primes = ntheory.sieve_primes(size["band_hi"] - 1)
        primes = primes[primes >= size["band_lo"]]
        strata, width = size["band_strata"], (size["band_hi"] - size["band_lo"]) / size["band_strata"]
        lo = size["band_lo"] + width * ((rng.randrange(strata) + BAND_STRIDE * window) % strata)
        first, last = np.searchsorted(primes, [lo, lo + width])
        window_rng = random.Random(f"{workload}:{seed}:{window}")
        start = window_rng.randrange(first, last - size["band_len"] + 1)
        qs = [int(p) for p in primes[start : start + size["band_len"]]]
        return dict(
            q_lo=qs[0], q_hi=qs[-1], threads=1,
            paranoid_qs=sorted(window_rng.sample(qs, size["paranoid_rows"])),
        )
    if workload == "verify-sample":
        lo, hi, count = size["verify_lo"], size["verify_hi"], size["verify_count"]
        primes = [int(p) for p in ntheory.sieve_primes(hi - 1)]
        width = (hi - lo) / count
        qs = []
        for i in range(count):
            x = lo + width * (i + rng.random())
            qs.append(primes[bisect_right(primes, x) - 1])
        return dict(qs=sorted(set(qs)))
    raise ValueError(f"unknown workload {workload!r}")


# --- tracing -------------------------------------------------------------------


class Tracer:
    """Wraps module attributes so each call records a span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, modules: tuple, attr: str, name: str, info=None) -> None:
        """Replace attr, in each of modules that binds it, by a wrapper that
        records a span; info(args, result) gives the span's info.  When no
        module binds attr, the name is recorded as missing."""
        bound = [m for m in modules if hasattr(m, attr)]
        if not bound:
            self.missing.append(f"{modules[0].__name__}.{attr}")
        for module in bound:
            orig = getattr(module, attr)

            def wrapper(*args, _orig=orig, **kwargs):
                idx = self.open(name)
                try:
                    result = _orig(*args, **kwargs)
                finally:
                    self.close(idx)
                if info is not None:
                    self.spans[idx][4] = info(args, result)
                return result

            self._undo.append((module, attr, orig))
            setattr(module, attr, wrapper)

    def unwrap(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()


def install(tracer: Tracer, l1_by_q: dict) -> None:
    """Wrap every layer at each binding its callers may use.

    pipeline binds build_field, is_prime, sieve_primes and log_ratio_fft at
    import, and primesum binds build_field and sieve_primes, so those are
    wrapped where they are bound.  log_ratio_fft and char_spectrum look up
    fft.dft_fast at call time, and verify_ratio imports
    ratio.naive_l1_magnitudes inside the function; the bindings in ratio
    and primesum are wrapped too, should those imports move to the top.
    """
    q_of_first = lambda args, res: int(args[0])  # noqa: E731
    rec_info = lambda args, res: [res.q, res.err_est]  # noqa: E731
    length = lambda args, res: int(np.shape(args[0])[0])  # noqa: E731

    def keep_l1(args, res):
        l1_by_q[args[0].q] = res
        return args[0].q

    tracer.wrap((pipeline, primesum), "sieve_primes", "ntheory.sieve_primes", q_of_first)
    tracer.wrap((pipeline, primesum, ntheory), "build_field", "ntheory.build_field", q_of_first)
    tracer.wrap((pipeline,), "is_prime", "ntheory.is_prime")
    tracer.wrap((fft, ratio, primesum), "dft_fast", "fft.dft_fast", length)
    tracer.wrap((pipeline, ratio), "log_ratio_fft", "ratio.log_ratio_fft", rec_info)
    tracer.wrap((ratio, primesum), "naive_l1_magnitudes", "ratio.naive_l1_magnitudes", keep_l1)
    tracer.wrap((primesum,), "verify_ratio", "primesum.verify_ratio", q_of_first)
    for attr in ("head_sum", "moebius_tail", "prime_power_sum"):
        tracer.wrap((primesum,), attr, f"primesum.{attr}")
    tracer.wrap((pipeline,), "compute_range", "pipeline.compute_range")


def probe_primesum(tracer: Tracer, qs: list[int], l1_by_q: dict) -> None:
    """Time the public prime-sum layers that verify_ratio reaches only
    through private helpers, on the same q, under a root span of their own."""
    root = tracer.open("probe")
    for q in qs:
        field = ntheory.build_field(q)
        plan = primesum.choose_plan(q)
        if hasattr(primesum, "head_sum"):
            primesum.head_sum(field, plan.P)
        if hasattr(primesum, "moebius_tail") and q in l1_by_q:
            primesum.moebius_tail(field, plan, l1_by_q[q])
        if hasattr(primesum, "prime_power_sum"):
            primesum.prime_power_sum(q)
    tracer.close(root)


LAYER_TIMES = {
    "ntheory.sieve_s": "ntheory.sieve_primes",
    "ntheory.build_field_s": "ntheory.build_field",
    "ntheory.is_prime_s": "ntheory.is_prime",
    "fft.dft_fast_s": "fft.dft_fast",
    "ratio.log_ratio_fft_s": "ratio.log_ratio_fft",
    "ratio.naive_l1_s": "ratio.naive_l1_magnitudes",
    "primesum.verify_ratio_s": "primesum.verify_ratio",
    "primesum.head_sum_s": "primesum.head_sum",
    "primesum.moebius_tail_s": "primesum.moebius_tail",
    "primesum.prime_power_sum_s": "primesum.prime_power_sum",
    "pipeline.compute_range_s": "pipeline.compute_range",
}
PROBED = ("primesum.head_sum", "primesum.moebius_tail", "primesum.prime_power_sum")
# names slated for removal: reported as None once gone, not as zero time
REMOVABLE = ("ratio.naive_l1_magnitudes",) + PROBED


def gone(name: str) -> bool:
    module, attr = name.split(".")
    return not hasattr(getattr(bsratio, module), attr)


def layer_metrics(spans: list[list], body_idx: int, probe_idx: int | None) -> dict:
    """Per-layer totals and self times.  Layer times come from the spans
    under the body; the prime-sum probes from the spans under the probe."""
    root_of: list[int] = []
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        parent = span[3]
        root_of.append(i if parent is None else root_of[parent])
        if parent is not None:
            child_time[parent] += dur[i]

    def totals(root):
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        for i, span in enumerate(spans):
            if root_of[i] == root:
                total[span[0]] = total.get(span[0], 0.0) + dur[i]
                self_t[span[0]] = self_t.get(span[0], 0.0) + dur[i] - child_time[i]
        return total, self_t

    total, self_t = totals(body_idx)
    if probe_idx is not None:
        probed = totals(probe_idx)[0]
        total.update({k: v for k, v in probed.items() if k in PROBED})

    out: dict[str, float | int | None] = {}
    for metric, name in LAYER_TIMES.items():
        out[metric] = None if name in REMOVABLE and gone(name) else total.get(name, 0.0)
    out["ratio.self_s"] = self_t.get("ratio.log_ratio_fft", 0.0)
    out["pipeline.self_s"] = self_t.get("pipeline.compute_range", 0.0)

    under_body = [s for i, s in enumerate(spans) if root_of[i] == body_idx]
    sizes = [s[4] for s in under_body if s[0] == "fft.dft_fast"]
    out["fft.dft_fast_calls"] = len(sizes)
    out["fft.points"] = int(sum(sizes))
    nlogn = sum(n * np.log2(n) for n in sizes if n > 1)
    out["fft.ns_per_nlogn"] = 1e9 * total.get("fft.dft_fast", 0.0) / nlogn if nlogn else None
    recs = [s[4] for s in under_body if s[0] == "ratio.log_ratio_fft"]
    worst = max(recs, key=lambda r: r[1]) if recs else [None, None]
    out["ratio.err_est_max_q"], out["ratio.err_est_max"] = worst

    body = dur[body_idx]
    # time inside no named layer: the body's own loop plus pipeline.self_s
    uncovered = body - child_time[body_idx] + out["pipeline.self_s"]
    out["trace.coverage"] = 1.0 - uncovered / body
    out["busy_s"] = body - uncovered
    out["body_s"] = body
    return out


# --- workloads -----------------------------------------------------------------


def run_body(workload: str, spec: dict, csv_path: str, threads: int) -> list:
    """The timed body.  Calls go through module attributes so that traced
    wrappers are seen.  Sweeps write csv_path; verify-sample returns
    [q, log_R, err_est, verified log_R] per q."""
    outputs = []
    if workload == "verify-sample":
        for q in spec["qs"]:
            rec = ratio.log_ratio_fft(ntheory.build_field(q))
            split = primesum.verify_ratio(q)
            outputs.append([q, rec.log_R, rec.err_est, split.total])
    else:
        pipeline.compute_range(spec["q_lo"], spec["q_hi"], csv_path, threads=threads)
    return outputs


def read_rows(csv_path: str) -> tuple[str, list[str]]:
    with open(csv_path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    return lines[0], [ln for ln in lines[1:] if ln]


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.max_abs_err: float | None = None

    def add(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)

    def err(self, value: float) -> None:
        self.max_abs_err = value if self.max_abs_err is None else max(self.max_abs_err, value)


def check_sweep(workload: str, spec: dict, csv_path: str, scratch: str, checks: Checks) -> None:
    """Rows against sieve_primes, the naive oracle, the digamma route (band)
    and the serial formatting (pool)."""
    header, rows = read_rows(csv_path)
    checks.add(header == pipeline.CSV_HEADER, f"header {header!r}")
    expected = ntheory.sieve_primes(spec["q_hi"])
    expected = [int(p) for p in expected[expected >= spec["q_lo"]]]
    by_q = {}
    for i, q in enumerate(expected):
        fields = rows[i].split(",") if i < len(rows) else []
        ok = len(fields) == 8 and int(fields[0]) == q
        checks.add(ok, f"row {i + 1}: expected q={q}, got {fields[:1]}")
        if ok:
            by_q[q] = fields
    checks.add(len(rows) == len(expected), f"{len(rows)} rows for {len(expected)} primes")

    for q in spec.get("naive_qs", []):
        ref = ratio.log_ratio_naive(ntheory.build_field(q)).log_R
        got = float(by_q[q][2]) if q in by_q else float("inf")
        checks.err(abs(got - ref))
        checks.add(abs(got - ref) <= NAIVE_TOL, f"q={q}: |fft - naive| = {abs(got - ref):.3e}")

    for q in spec.get("paranoid_qs", []):
        alt = ratio.log_ratio_digamma(ntheory.build_field(q)).log_R
        fields = by_q.get(q)
        d = abs(float(fields[2]) - alt) if fields else float("inf")
        err_est = float(fields[5]) if fields else 0.0
        checks.add(d <= 10.0 * max(err_est, 1e-15), f"q={q}: |fft - digamma| = {d:.3e}")

    if workload == "sweep-pool":
        one = os.path.join(scratch, "serial-one.csv")
        line_of = dict(zip(expected, rows))
        for q in spec["pool_qs"]:
            pipeline.compute_range(q, q, one, threads=1)
            serial = read_rows(one)[1]
            ok = serial == [line_of.get(q)]
            checks.add(ok, f"q={q}: pool row differs from serial row")


def check_verify(outputs: list, checks: Checks) -> None:
    """Acceptance criterion 7's gate on each sampled q."""
    for q, log_r, err_est, total in outputs:
        d = abs(log_r - total)
        checks.err(d)
        checks.add(d <= VERIFY_TOL + err_est, f"q={q}: |fft - verify| = {d:.3e}")


def check_same(path: str, ref_path: str, checks: Checks) -> None:
    """A repeated run must reproduce the first run's output exactly."""
    with open(path, encoding="utf-8") as fh:
        got = fh.read().split("\n")
    with open(ref_path, encoding="utf-8") as fh:
        ref = fh.read().split("\n")
    for i in range(max(len(got), len(ref))):
        a = got[i] if i < len(got) else None
        b = ref[i] if i < len(ref) else None
        checks.add(a == b, f"line {i + 1} differs from the first repetition")


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children (pool
    workers), in MB; ru_maxrss is in KiB on Linux."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def calibrate() -> float:
    """Seconds this process takes for a fixed task that shares no code with
    the program: an integer loop and numpy's own FFT.  It measures how fast
    the core runs at this moment, which drifts by up to 2x on a shared box;
    run.py scales the timings by it."""
    x = np.random.default_rng(0).standard_normal(1 << 15) + 0j
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    for _ in range(150):
        np.fft.fft(x)
    return time.perf_counter() - t0


def chirp_retained_mb() -> float | None:
    """Resident memory released by clearing the chirp-kernel cache."""
    clear = getattr(getattr(fft, "_chirp_kernel", None), "cache_clear", None)
    if clear is None:
        return None
    page = os.sysconf("SC_PAGE_SIZE")

    def rss() -> float:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * page / 1e6

    before = rss()
    clear()
    gc.collect()
    return before - rss()


def chirp_cache_info():
    kernel = getattr(fft, "_chirp_kernel", None)
    info = getattr(kernel, "cache_info", None)
    return info() if info is not None else None


def main(cfg: dict) -> dict:
    workload, kind, rep = cfg["workload"], cfg["kind"], cfg["rep"]
    spec = make_inputs(workload, cfg["seed"], SIZES[cfg["size"]], cfg["window"])
    same_inputs = workload != "band-large-q"
    threads = spec.get("threads", 1) if kind == "plain" else 1
    out_path = os.path.join(cfg["scratch"], f"rep{rep}.out")
    record = dict(
        kind=kind,
        rep=rep,
        window=cfg["window"],
        threads=threads,
        setup_s=_T2 - _T0,
        constants_table_s=_T2 - _T1,
        numpy=np.__version__,
        scipy=scipy.__version__,
        bsratio_file=bsratio.__file__,
        inputs=spec,
        body_s=None,
        items=0,
    )
    checks = Checks()
    tracer = Tracer() if kind == "traced" else None
    l1_by_q: dict = {}
    cache0 = chirp_cache_info()
    if tracer is not None and cache0 is None:
        tracer.missing.append("bsratio.fft._chirp_kernel.cache_info")
    try:
        calib_before = calibrate()
        if tracer is not None:
            install(tracer, l1_by_q)
            body_idx = tracer.open("body")
        t0 = time.perf_counter()
        outputs = run_body(workload, spec, out_path, threads)
        body_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(body_idx)
        record["peak_rss_mb"] = peak_rss_mb()
        cache1 = chirp_cache_info()
        record["calib_s"] = (calib_before + calibrate()) / 2
        if tracer is not None:
            retained = chirp_retained_mb()
            probe_idx = None
            if workload == "verify-sample":
                probe_idx = len(tracer.spans)
                probe_primesum(tracer, spec["qs"], l1_by_q)
            tracer.unwrap()

        if workload == "verify-sample":
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{o!r}\n" for o in outputs))
            check_verify(outputs, checks)
            items = len(outputs)
        else:
            items = len(read_rows(out_path)[1])
            record["bytes_written"] = os.path.getsize(out_path)
            if rep == 0 or not same_inputs:
                check_sweep(workload, spec, out_path, cfg["scratch"], checks)
        if rep > 0 and same_inputs:
            check_same(out_path, os.path.join(cfg["scratch"], "rep0.out"), checks)
        record.update(body_s=body_s, items=items)
    except Exception:  # a crash in the program counts as a failed check
        checks.add(False, traceback.format_exc(limit=4))
        return finish(record, checks)
    finally:
        if tracer is not None:
            tracer.unwrap()

    if cache0 is not None and cache1 is not None:
        hits = cache1.hits - cache0.hits
        record["chirp"] = [hits, hits + cache1.misses - cache0.misses]
    if tracer is not None:
        layers = layer_metrics(tracer.spans, body_idx, probe_idx)
        layers["pipeline.bytes_written"] = record.get("bytes_written", 0)
        layers["fft.chirp_cache_retained_mb"] = retained
        record["layers"] = layers
        record["missing"] = tracer.missing
        record["trace_file"] = os.path.join(cfg["scratch"], f"spans-rep{rep}.json")
        with open(record["trace_file"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": tracer.spans}, fh)
    return finish(record, checks)


def finish(record: dict, checks: Checks) -> dict:
    record.update(
        checks=checks.attempted,
        failed=checks.failed,
        messages=checks.messages,
        max_abs_err=checks.max_abs_err,
    )
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
