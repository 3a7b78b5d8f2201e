"""Command-line interface.

Subcommands: compute, verify, sigma, constants, hreg, stats, bounds.
`verify` and `sigma` are two reports on one verifier pass: the prime-sum
total of primesum.verify_ratio, with its prime / prime-power split, checked
against the FFT route's log R(q).  main is the one error boundary: bad
input exits 2, a failed check exits 1, an interrupt exits 130.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import figures, pipeline, primesum, ratio
from .errors import SchemaError, VerificationError
from .ntheory import build_field, is_prime
from .specfun import constants_table


def _require_odd_prime(q: int) -> int:
    if q < 3 or not is_prime(q):
        raise ValueError(f"q={q} is not an odd prime")
    return q


def _verifier_pass(args):
    """The prime-sum split of log R(q) (cost guard first, so a refused q
    never reaches the FFT), the FFT route's record, the gap between the
    two totals, and the one tolerance that gap must meet: the certified
    10^-delta plus the FFT route's err_est."""
    q = _require_odd_prime(args.q)
    split = primesum.verify_ratio(q, A=args.A, delta=args.delta)
    rec = ratio.log_ratio_fft(build_field(q))
    return split, rec, abs(split.total - rec.log_R), 10.0 ** (-args.delta) + rec.err_est


def _cmd_compute(args) -> int:
    last = pipeline.compute_range(
        args.from_q,
        args.to_q,
        out=args.out,
        threads=args.threads,
        resume=args.resume,
        paranoid=args.paranoid,
    )
    print(
        f"range [{args.from_q}, {args.to_q}] -> {Path(args.out)} "
        f"(completed through {last}, threads={args.threads})"
    )
    return 0


def _cmd_verify(args) -> int:
    split, rec, diff, tol = _verifier_pass(args)
    plan = split.plan
    print(f"q={split.q} A={plan.A} P={plan.P} M={plan.M} K={plan.K} delta={plan.delta}")
    print("checks     fft route against direct O(q^2) L(1,chi) sums + truncated Euler product")
    print(f"fft        {rec.log_R!r}")
    print(f"prime-sum  {split.total!r}")
    print(f"difference {diff:.3e}")
    print(
        f"tolerance  {tol:.3e}  (certified truncation E1+E2 {plan.e1_bound + plan.e2_bound:.3e}, "
        f"not rounding; + err_est {rec.err_est:.3e})"
    )
    ok = diff <= tol
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_sigma(args) -> int:
    split, rec, diff, tol = _verifier_pass(args)
    if diff > tol:
        raise VerificationError(
            f"q={split.q}: prime-sum total and fft log R differ by {diff:.3e} > {tol:.3e}"
        )
    print(f"q={split.q} delta={split.plan.delta}")
    print(f"sigma1 (primes)        {split.prime_sum!r}")
    print(f"sigma2 (prime powers)  {split.power_sum!r}")
    print(f"sum                    {split.total!r}")
    print(f"log R (fft)            {rec.log_R!r}")
    print(f"|sigma2| bound         {bounds_mod.simple_bound(split.q)!r}")
    print(f"M(q,1) (p = 1 mod q)   {primesum.mertens_constant_q1(split)!r}")
    return 0


def _cmd_constants(args) -> int:
    t = constants_table()
    rows = [
        ("euler_gamma", f"{t.euler_gamma:.16f}"),
        ("meissel_mertens", f"{t.meissel_mertens:.16f}"),
        ("power_sum_constant", f"{t.power_sum_constant:.16f}"),
        ("harmonic_loglog_min", f"{t.harmonic_loglog_min:.16f}"),
        ("k_opt", str(t.k_opt)),
    ]
    width = max(len(name) for name, _ in rows)
    for name, val in rows:
        print(f"{name:<{width}}  {val}")
    print()
    print("name,value")
    for name, val in rows:
        print(f"{name},{val}")
    return 0


def _cmd_hreg(args) -> int:
    q = _require_odd_prime(args.q)
    field = build_field(q)
    rec = ratio.log_ratio_fft(field)
    print(f"log H(q)     {ratio.log_H(q)!r}")
    print(f"log R(q)     {rec.log_R!r}")
    print(f"log h*Reg    {ratio.log_hreg(rec)!r}")
    return 0


def _cmd_stats(args) -> int:
    rows = pipeline.load_rows(args.in_path)
    if not len(rows):
        raise SchemaError(f"{args.in_path}: no data rows")
    summary = pipeline.summarize(rows)
    print(f"rows            {summary.count}")
    print(f"mean R          {summary.mean_R!r}")
    print(f"mean R_norm     {summary.mean_R_norm!r}")
    print(f"min R           {summary.min_R!r} at q={summary.min_q}")
    print(f"max R           {summary.max_R!r} at q={summary.max_q}")
    print(f"2q+1 prime      {summary.count_2qp1} rows, mean R {summary.mean_R_2qp1!r}")
    print(f"2q-1 prime      {summary.count_2qm1} rows, mean R {summary.mean_R_2qm1!r}")
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for normalized, stem in ((False, "values"), (True, "normalized")):
        figures.plot_scatter(rows, normalized, outdir / f"{stem}_scatter.svg")
        if len(rows) >= 2:  # one row has no spread to bin
            figures.plot_histogram(rows, normalized, outdir / f"{stem}_hist.svg")
    print(f"figures -> {outdir}")
    return 0


def _cmd_bounds(args) -> int:
    rows = pipeline.load_rows(args.in_path)
    # checked first, so a refused x prints no row; reported last
    dusart_ok = None if args.dusart_x is None else bounds_mod.check_dusart(args.dusart_x)
    columns = bounds_mod.report_columns(rows)
    print("q,simple_bound,refined_bound,envelope_ok,normalized_ok")
    for q, simple, refined, env, band in zip(rows.q.tolist(), *(c.tolist() for c in columns)):
        print(f"{q},{simple:.10f},{refined:.10f},{int(env)},{int(band)}")
    n_env, n_band = (int(c.sum()) for c in columns[2:])
    print(f"# envelope ok: {n_env}/{len(rows)}   normalized band ok: {n_band}/{len(rows)}")
    if dusart_ok is None:
        return 0
    print(f"# dusart at x={args.dusart_x}: {'ok' if dusart_ok else 'VIOLATED'}")
    return 0 if dusart_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bsratio", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="batch-compute R(q) over a prime range")
    p.add_argument("--from", dest="from_q", type=int, required=True)
    p.add_argument("--to", dest="to_q", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--paranoid", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="cross-check one q against the prime-sum route")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=int, default=8)
    p.add_argument("--A", type=int, default=primesum.DEFAULT_A)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sigma", help="prime / prime-power split of log R(q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=int, default=8)
    p.add_argument("--A", type=int, default=primesum.DEFAULT_A)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("constants", help="print the constants table")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("hreg", help="print log H(q), log R(q), log h*Reg")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_hreg)

    p = sub.add_parser("stats", help="summary statistics and SVG figures")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bounds", help="bound report for a results CSV")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--dusart-x", dest="dusart_x", type=float, default=None)
    p.set_defaults(func=_cmd_bounds)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:  # argparse's SystemExit (--help, usage errors) passes through
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except BrokenPipeError:  # the reader left early, as in `bsratio stats ... | head`
        # point stdout at devnull so the exit-time flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, what a shell reports for a killed writer
    except KeyboardInterrupt:  # rows already written stay, and --resume continues after them
        try:
            print("interrupted", file=sys.stderr)
        except KeyboardInterrupt:  # timeout(1) signals the process, then its group
            pass
        return 130  # 128 + SIGINT, what a shell reports for an interrupted command
    except VerificationError as exc:
        print(f"FAIL: {exc}")
        return 1
    except (ValueError, OSError) as exc:  # bad input, cost guard, damaged or missing file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
