"""Projected cost of a full sweep to q = 1e7, from measured samples.

    python3 perfbench/run.py --workload sweep-small-q --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload band-large-q --seed 1 --seconds 25 --trace 1
    python3 perfbench/project.py

Reads the newest traced results of the two workloads under perfbench/out/.
The per-prime time of a serial sweep is taken from the spans: the time from
one prime's build_field to the next one's (the transform, the flags and the
row's formatting and write).  It is fitted as t(q) = a + c q ln q, with
relative residuals and each workload weighted equally, and the fit is
summed over every odd prime up to 1e7.
Peak memory is fitted as m0 + m1 q_max through each workload's median peak.
Nothing is measured at 1e7: the output is a projection and gates nothing.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"
TARGET = 10**7
SOURCES = ("sweep-small-q", "band-large-q")


def newest(workload: str) -> dict:
    files = sorted(OUT.glob(f"{workload}-seed*-trace1.json"), key=lambda p: p.stat().st_mtime)
    if not files:
        sys.exit(f"no traced results of {workload} under {OUT}: run run.py --workload {workload} --trace 1")
    return json.loads(files[-1].read_text())


def per_prime_times(result: dict) -> tuple[list[int], list[float]]:
    qs, ts = [], []
    for path in result["trace_files"]:
        spans = json.loads(Path(path).read_text())["spans"]
        ranges = [i for i, s in enumerate(spans) if s[0] == "pipeline.compute_range"]
        for r in ranges:
            fields = [s for s in spans if s[3] == r and s[0] == "ntheory.build_field"]
            ends = [s[1] for s in fields[1:]] + [spans[r][2]]
            qs += [s[4] for s in fields]
            ts += [end - s[1] for s, end in zip(fields, ends)]
    return qs, ts


def odd_primes(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0][1:].astype(np.float64)


def main() -> int:
    results = {w: newest(w) for w in SOURCES}
    q, t, w = [], [], []
    for res in results.values():
        wq, wt = per_prime_times(res)
        q += wq
        t += wt
        w += [1.0 / len(wq)] * len(wq)  # each workload weighs the same in the fit
    q, t, w = np.array(q, dtype=np.float64), np.array(t), np.sqrt(w)
    x = q * np.log(q)
    design = np.stack([w / t, w * x / t], axis=1)
    (a, c), *_ = np.linalg.lstsq(design, w, rcond=None)
    rel = (a + c * x - t) / t
    primes = odd_primes(TARGET)
    serial_s = float(primes.size * a + c * np.sum(primes * np.log(primes)))

    pts = [(max(r["inputs"]["q_hi"], 3), r["end_to_end"]["peak_rss_mb"]) for r in results.values()]
    (q0, m_0), (q1, m_1) = sorted(pts)
    slope = (m_1 - m_0) / (q1 - q0)
    peak_mb = m_0 + slope * (TARGET - q0)

    nproc = results["band-large-q"]["environment"]["nproc"]
    projection = {
        "label": "PROJECTION, not a measurement; not gated",
        "target_q": TARGET,
        "primes": int(primes.size),
        "time_fit": {"model": "t(q) = a + c*q*ln(q) seconds per prime", "a": a, "c": c,
                     "samples": int(t.size), "q_range": [int(q.min()), int(q.max())],
                     "rms_relative_residual": float(np.sqrt(np.mean(rel**2)))},
        "serial_core_hours": serial_s / 3600,
        "ideal_wall_hours_at_nproc": serial_s / 3600 / nproc,
        "nproc": nproc,
        "memory_fit": {"model": "peak_mb = m0 + m1*q_max, through two points", "points": pts,
                       "m1_mb_per_q": slope, "residual": "none: two points, zero degrees of freedom"},
        "peak_rss_mb_at_target": peak_mb,
        "environment": results["band-large-q"]["environment"],
        "seeds": {name: r["seed"] for name, r in results.items()},
    }
    (OUT / "projection.json").write_text(json.dumps(projection, indent=1) + "\n")
    print(f"PROJECTION to q={TARGET:.0e} ({primes.size} primes), from {t.size} measured primes "
          f"in [{int(q.min())}, {int(q.max())}]; not gated")
    print(f"  per-prime time  t(q) = {a:.4g} s + {c:.4g} s * q ln q   (rms relative residual {projection['time_fit']['rms_relative_residual']:.3f})")
    print(f"  serial sweep    {serial_s / 3600:.1f} core-hours; {serial_s / 3600 / nproc:.1f} h on {nproc} cores if perfectly parallel")
    print(f"  peak memory     {peak_mb:.0f} MB per process at q={TARGET:.0e} ({slope * 1e6:.0f} MB per 1e6 of q; two-point fit, no residual)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
