"""Benchmark of bsratio: sweep throughput, peak memory, set-up time and
output correctness on four workloads, plus a traced per-layer run.

    python3 perfbench/run.py --workload sweep-small-q --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 --smoke

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each repetition runs in a fresh interpreter (perfbench/rep.py),
so set-up time and peak memory are per process and no cache carries over
between repetitions.  Repetitions continue until --seconds have passed (at
least MIN_REPS); the reported figures are medians over repetitions.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
traced run alternates untraced and traced repetitions, so that it can
report the tracing overhead and the pool's parallel efficiency.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; a
fuller record (inputs, environment, every repetition) is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep-small-q", "band-large-q", "sweep-pool", "verify-sample")
MIN_REPS = 2
RUN_DEADLINE_S = 150  # start no repetition after this; the run must end by 180 s
BLAS_THREADS = "1"
# Time the calibration task in rep.py takes on the baseline's 2-core Xeon VM
# (perfbench/README.md) when it is calm.
# Gated timings are given in reference seconds: wall seconds scaled by
# CALIB_REF_S / the calibration time measured around the same body.
CALIB_REF_S = 0.22

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ntheory.sieve_s": "s",
    "ntheory.build_field_s": "s",
    "ntheory.is_prime_s": "s",
    "fft.dft_fast_s": "s",
    "fft.dft_fast_calls": "count",
    "fft.points": "count",
    "fft.ns_per_nlogn": "ns",
    "fft.chirp_cache_hit_ratio": "ratio",
    "fft.chirp_cache_hits": "count",
    "fft.chirp_cache_calls": "count",
    "fft.chirp_cache_retained_mb": "MB",
    "ratio.log_ratio_fft_s": "s",
    "ratio.self_s": "s",
    "ratio.err_est_max": "1",
    "ratio.naive_l1_s": "s",
    "primesum.verify_ratio_s": "s",
    "primesum.head_sum_s": "s",
    "primesum.moebius_tail_s": "s",
    "primesum.prime_power_sum_s": "s",
    "pipeline.compute_range_s": "s",
    "pipeline.self_s": "s",
    "pipeline.bytes_written": "B",
    "pipeline.parallel_eff": "ratio",
    "specfun.constants_table_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def rep_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # one BLAS thread: the naive route's matmul must not depend on the box
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_rep(cfg: dict, timeout: float) -> dict:
    """One repetition in a fresh interpreter, in its own process group so
    that pool workers die with it on a timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(cfg)],
        cwd=ROOT,
        env=rep_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
    _wait_group_gone(proc.pid)
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (stderr or "").strip().splitlines()[-5:]
        return {"kind": cfg["kind"], "rep": cfg["rep"], "checks": 1, "failed": 1,
                "messages": [f"repetition exited {proc.returncode}: " + " | ".join(tail)]}


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    os.killpg(pgid, signal.SIGKILL)


def environment(first: dict) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "git": None,
        "cpu": None,
        "caches": {},
    }
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        env["git"] = res.stdout.strip() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
            env["caches"][f"L{level}{kind[0].lower()}"] = size
    except OSError:
        pass
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    kinds = ["plain"]
    if trace:
        # the traced run is single-process; the pool is compared with an
        # untraced serial run for the tracing overhead
        kinds = ["plain", "plain-serial", "traced"] if workload == "sweep-pool" else ["plain", "traced"]
    scratch = OUT / f"scratch-{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    reps: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(reps) >= max(MIN_REPS, len(kinds)) and elapsed >= seconds:
                break
            if reps and elapsed >= RUN_DEADLINE_S:
                break
            # one input window per cycle of kinds, so that a traced
            # repetition is compared with an untraced one on the same inputs
            cycle, pos = divmod(len(reps), len(kinds))
            cfg = dict(workload=workload, seed=seed, size=size, rep=len(reps), window=cycle,
                       kind=kinds[pos], scratch=str(scratch))
            reps.append(run_rep(cfg, timeout=max(5.0, 175.0 - elapsed)))
    finally:
        for path in scratch.glob("*.out"):
            path.unlink()
    return summarize(workload, seed, trace, reps, scratch)


def summarize(workload: str, seed: int, trace: bool, reps: list[dict], scratch: Path) -> dict:
    attempted = sum(r["checks"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    ok = [r for r in reps if r.get("body_s")]
    plain = [r for r in ok if r["kind"] == "plain"]
    errs = [r.get("max_abs_err") for r in reps if r.get("max_abs_err") is not None]
    e2e = {
        "setup_s": median(r["setup_s"] * CALIB_REF_S / r["calib_s"] for r in ok),
        "items_per_s": median(r["items"] * r["calib_s"] / (r["body_s"] * CALIB_REF_S) for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }
    report = {
        "setup_s (wall)": median(r["setup_s"] for r in ok),
        "items_per_s (wall)": median(r["items"] / r["body_s"] for r in plain),
        "calib_s": median(r["calib_s"] for r in ok),
        "fail_frac": failed / attempted if attempted else None,
        "max_abs_err": max(errs) if errs else None,
    }
    layers = per_layer(ok) if trace else {}
    values = layers if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    metrics = {k: {"value": values.get(k), "unit": u} for k, u in units.items()}
    correct = failed == 0 and len(ok) == len(reps)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "end_to_end": e2e,
        "layers": layers,
        "report": report,
        "inputs": reps[0].get("inputs") if reps else None,
        "environment": environment(reps[0] if reps else {}),
        "messages": [m for r in reps for m in r.get("messages", [])][:10],
        "missing": sorted({m for r in ok for m in r.get("missing", [])}),
        "trace_files": [r["trace_file"] for r in ok if "trace_file" in r],
        "reps": [{k: v for k, v in r.items() if k != "messages"} for r in reps],
        "scratch": str(scratch),
    }


def ref_s(rep: dict, key: str) -> float:
    """A timing of one repetition in calibration units."""
    return rep[key] / rep["calib_s"]


def per_layer(ok: list[dict]) -> dict:
    traced = [r for r in ok if r["kind"] == "traced"]
    if not traced:
        return {}
    out = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    hits = median(r["chirp"][0] for r in traced if "chirp" in r)
    calls = median(r["chirp"][1] for r in traced if "chirp" in r)
    out["fft.chirp_cache_hits"] = hits
    out["fft.chirp_cache_calls"] = calls
    out["fft.chirp_cache_hit_ratio"] = hits / calls if calls else None
    out["specfun.constants_table_s"] = median(r["constants_table_s"] for r in ok)
    # ratios within each cycle: adjacent repetitions on the same inputs
    by_window: dict[int, dict[str, dict]] = {}
    for r in ok:
        by_window.setdefault(r["window"], {})[r["kind"]] = r
    overhead, efficiency = [], []
    for cycle in by_window.values():
        traced_r = cycle.get("traced")
        serial_r = cycle.get("plain-serial", cycle.get("plain"))
        plain_r = cycle.get("plain")
        if traced_r and serial_r and serial_r["threads"] == 1:
            overhead.append(ref_s(traced_r, "body_s") / ref_s(serial_r, "body_s") - 1.0)
        if traced_r and plain_r:
            busy = traced_r["layers"]["busy_s"] / traced_r["calib_s"]
            efficiency.append(busy / (plain_r["threads"] * ref_s(plain_r, "body_s")))
    out["trace.overhead_frac"] = median(overhead)
    out["pipeline.parallel_eff"] = median(efficiency)
    out.pop("busy_s")
    out.pop("body_s")
    return out


def show(res: dict) -> None:
    """Human-readable block: every metric by name with its unit."""
    env = res["environment"]
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  reps={len(res['reps'])}  "
          f"nproc={env['nproc']}  blas_threads={env['blas_threads']}  git={env['git']}")
    print(f"   inputs: {json.dumps(res['inputs'])}")
    rows = [(k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
    if res["trace"]:
        rows = [(k, res["end_to_end"][k], u) for k, u in END_TO_END.items()] + rows
        rows.append(("ratio.err_est_max_q", res["layers"].get("ratio.err_est_max_q"), "q (where err_est_max occurs)"))
    rows += [
        ("setup_s (wall)", res["report"]["setup_s (wall)"], "s"),
        ("items_per_s (wall)", res["report"]["items_per_s (wall)"], "1/s"),
        ("calib_s", res["report"]["calib_s"], f"s (reference {CALIB_REF_S} s)"),
        ("fail_frac", res["report"]["fail_frac"], f"ratio ({res['failed']}/{res['attempted']} checks)"),
    ]
    err = res["report"]["max_abs_err"]
    rows.append(("max_abs_err", err, "1" if err is not None else "(no FFT-free reference at this q)"))
    for name, value, unit in rows:
        text = "null" if value is None else f"{value:.6g}"
        print(f"   {name:28s} {text:>14s} {unit}")
    if res["missing"]:
        print(f"   null: not measured, gone from the program: {', '.join(res['missing'])}")
    for msg in res["messages"]:
        print(f"   FAIL: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bsratio" / "__init__.py").is_file():
        print(f"error: no bsratio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    size = "smoke" if args.smoke else "real"
    last = None
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace), size)
        name = f"{workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
        (OUT / name).write_text(json.dumps(res, indent=1) + "\n")
        show(res)
        last = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(last), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
