"""Batch computation over prime ranges: CSV persistence, resume, and
deterministic parallel scheduling.

One CSV row per prime, schema
    q,g,log_R,R,R_norm,err_est,flag_2qp1,flag_2qm1
with floats serialized as shortest round-trip decimals and flags as 0/1.
Rows are written in ascending q regardless of worker completion order, so
the output bytes are independent of the thread count.
"""

from __future__ import annotations

import math
import os
import signal
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .ntheory import build_field, is_prime, sieve_primes
from .ratio import log_ratio_digamma, log_ratio_fft

CSV_HEADER = "q,g,log_R,R,R_norm,err_est,flag_2qp1,flag_2qm1"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StatsRow:
    q: int
    g: int
    log_R: float
    R: float
    R_norm: float
    err_est: float
    flag_2qp1: bool
    flag_2qm1: bool


def _format_row(row: StatsRow) -> str:
    return (
        f"{row.q},{row.g},{row.log_R!r},{row.R!r},{row.R_norm!r},"
        f"{row.err_est!r},{int(row.flag_2qp1)},{int(row.flag_2qm1)}\n"
    )


def _worker(args: tuple[int, bool]) -> tuple[str, float | None]:
    q, paranoid = args
    field = build_field(q)
    rec = log_ratio_fft(field)
    row = StatsRow(
        q=q,
        g=field.g,
        log_R=rec.log_R,
        R=rec.R,
        R_norm=rec.R * math.log(q) ** 0.75,
        err_est=rec.err_est,
        flag_2qp1=is_prime(2 * q + 1),
        flag_2qm1=is_prime(2 * q - 1),
    )
    disagreement = None
    if paranoid:
        alt = log_ratio_digamma(field)
        d = abs(alt.log_R - row.log_R)
        if d > 10.0 * max(row.err_est, 1e-15):
            disagreement = d
    return _format_row(row), disagreement


def _interrupt_once(signum, frame) -> None:
    # a second interrupt would land in the unwinding the first one started,
    # half-way through a lock's release or the pool's teardown.  A no-op
    # handler, not SIG_IGN: a second signal already pending would then be
    # reported as "ignored due to race condition"
    signal.signal(signal.SIGINT, lambda *_: None)
    raise KeyboardInterrupt


def _parse_line(line: str, lineno: int) -> StatsRow:
    parts = line.rstrip("\n").split(",")
    if len(parts) != 8:
        raise SchemaError(f"line {lineno}: expected 8 fields, got {len(parts)}")
    try:
        return StatsRow(
            q=int(parts[0]),
            g=int(parts[1]),
            log_R=float(parts[2]),
            R=float(parts[3]),
            R_norm=float(parts[4]),
            err_est=float(parts[5]),
            flag_2qp1=bool(int(parts[6])),
            flag_2qm1=bool(int(parts[7])),
        )
    except ValueError as exc:
        raise SchemaError(f"line {lineno}: {exc}") from exc


def _scan_resume(path: Path, expected: np.ndarray) -> tuple[int, int]:
    """Validate an existing output file for resumption.

    Returns (rows_done, keep_bytes).  A torn final line (crash artifact) is
    allowed and dropped via keep_bytes; anything else malformed, a header
    mismatch, or a q-sequence that is not a prefix of the expected primes
    is a hard error -- the file is never silently overwritten.
    """
    data = path.read_bytes()
    if not data:
        return 0, 0
    lines = data.split(b"\n")
    # data ends with '\n' iff lines[-1] == b''; otherwise lines[-1] is a torn
    # trailing write, which keep excludes so that resume restarts after the
    # last whole row
    complete = lines[:-1]
    if not complete:
        raise SchemaError(f"{path}: truncated header; refusing to resume")
    if complete[0].decode("utf-8", "replace") != CSV_HEADER:
        raise SchemaError(f"{path}: header does not match schema v{SCHEMA_VERSION}")
    rows_done = 0
    keep = len(complete[0]) + 1
    for i, raw in enumerate(complete[1:], start=2):
        line = raw.decode("utf-8", "replace")
        row = _parse_line(line, i)
        if rows_done >= expected.size or row.q != int(expected[rows_done]):
            raise SchemaError(f"{path}: line {i}: unexpected q={row.q}")
        rows_done += 1
        keep += len(raw) + 1
    return rows_done, keep


def compute_range(
    q_min: int,
    q_max: int,
    out: str | os.PathLike,
    threads: int = 1,
    resume: bool = False,
    paranoid: bool = False,
) -> int | None:
    """One StatsRow per prime in [q_min, q_max], written in ascending q;
    returns the range's last prime, or None when it holds none.

    With resume=True, rows already on disk are kept and only the remainder
    is computed; the final file is byte-identical to an uninterrupted run.
    It runs min(threads, primes left to compute) pool workers, or runs
    serially in this process when that is at most 1.  With a pool (main
    thread only), the workers ignore SIGINT, and an interrupt terminates
    them rather than waiting on their chunks.
    """
    if not 3 <= q_min <= q_max:
        raise ValueError("need 3 <= q_min <= q_max")
    path = Path(out)
    primes = sieve_primes(q_max)
    primes = primes[primes >= max(q_min, 3)]

    done = 0
    if resume and path.exists():
        done, keep = _scan_resume(path, primes)
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        mode = "a"
    else:
        mode = "w"

    todo = [int(q) for q in primes[done:]]
    flagged: list[tuple[int, float]] = []
    with open(path, mode, encoding="utf-8", newline="") as fh, ExitStack() as stack:
        if mode == "w":
            fh.write(CSV_HEADER + "\n")
        args = [(q, paranoid) for q in todo]
        workers = min(threads, len(todo))
        if workers <= 1:
            results = map(_worker, args)
        else:
            # while workers start, an interrupt is only noted: raised in an
            # at-fork hook it is lost, and in a starting worker it kills it
            caught = []
            previous = signal.signal(signal.SIGINT, lambda *_: caught.append(True))
            stack.callback(signal.signal, signal.SIGINT, previous)
            pool = stack.enter_context(Pool(workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)))
            if caught:
                raise KeyboardInterrupt
            signal.signal(signal.SIGINT, _interrupt_once)
            results = pool.imap(_worker, args, chunksize=max(1, len(args) // (8 * workers)))
        for (line, dis), q in zip(results, todo):
            fh.write(line)
            fh.flush()
            if dis is not None:
                flagged.append((q, dis))
    for q, d in flagged:
        print(f"warning: q={q}: fft/digamma disagreement {d:.3e}", file=sys.stderr)

    return int(primes[-1]) if primes.size else None


def load_rows(path: str | os.PathLike) -> list[StatsRow]:
    """Parse a results CSV; malformed rows raise with their line numbers."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file")
    if lines[0] != CSV_HEADER:
        raise SchemaError(f"{path}: header does not match schema v{SCHEMA_VERSION}")
    rows = []
    bad: list[str] = []
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            rows.append(_parse_line(line, i))
        except SchemaError as exc:
            bad.append(str(exc))
    if bad:
        raise SchemaError(f"{path}: malformed rows:\n  " + "\n  ".join(bad))
    return rows


@dataclass(frozen=True)
class Summary:
    count: int
    mean_R: float
    mean_R_norm: float
    min_R: float
    min_q: int
    max_R: float
    max_q: int
    count_2qp1: int
    mean_R_2qp1: float | None
    count_2qm1: int
    mean_R_2qm1: float | None


def summarize(rows: list[StatsRow]) -> Summary:
    """Counts, means and extremes of nonempty rows."""
    r = np.array([row.R for row in rows])
    rn = np.array([row.R_norm for row in rows])
    qs = np.array([row.q for row in rows])
    p1 = np.array([row.flag_2qp1 for row in rows])
    m1 = np.array([row.flag_2qm1 for row in rows])
    i_min, i_max = int(np.argmin(r)), int(np.argmax(r))

    def _mean(mask: np.ndarray, vals: np.ndarray) -> float | None:
        return float(np.mean(vals[mask])) if mask.any() else None

    return Summary(
        count=len(rows),
        mean_R=float(np.mean(r)),
        mean_R_norm=float(np.mean(rn)),
        min_R=float(r[i_min]),
        min_q=int(qs[i_min]),
        max_R=float(r[i_max]),
        max_q=int(qs[i_max]),
        count_2qp1=int(p1.sum()),
        mean_R_2qp1=_mean(p1, r),
        count_2qm1=int(m1.sum()),
        mean_R_2qm1=_mean(m1, r),
    )
