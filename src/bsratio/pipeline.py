"""Batch computation over prime ranges: CSV persistence, resume, and
deterministic parallel scheduling.

One CSV row per prime, schema
    q,g,log_R,R,R_norm,err_est,flag_2qp1,flag_2qm1
with floats serialized as shortest round-trip decimals and flags as 0/1.
Rows are written in ascending q regardless of worker completion order, so
the output bytes are independent of the thread count.  One reader, _read,
parses the file both for resume and for load_rows.
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
# the results table load_rows returns: one record per row, one field per
# column.  Aligned, so that each float column reduces as a contiguous array
# of the same values would: an unaligned column is summed in buffered
# blocks, which moves np.mean's last bits
ROW_DTYPE = np.dtype(list(zip(CSV_HEADER.split(","), 2 * ["i8"] + 4 * ["f8"] + 2 * ["?"])), align=True)


def _format_row(row: tuple) -> str:
    q, g, log_R, R, R_norm, err_est, flag_2qp1, flag_2qm1 = row
    return f"{q},{g},{log_R!r},{R!r},{R_norm!r},{err_est!r},{int(flag_2qp1)},{int(flag_2qm1)}\n"


def _worker(args: tuple[int, bool]) -> tuple[str, float | None]:
    q, paranoid = args
    field = build_field(q)
    rec = log_ratio_fft(field)
    row = (q, field.g, rec.log_R, rec.R, rec.R * math.log(q) ** 0.75, rec.err_est,
           is_prime(2 * q + 1), is_prime(2 * q - 1))
    disagreement = None
    if paranoid:
        alt = log_ratio_digamma(field)
        d = abs(alt.log_R - rec.log_R)
        if d > 10.0 * max(rec.err_est, 1e-15):
            disagreement = d
    return _format_row(row), disagreement


def _interrupt_once(signum, frame) -> None:
    # a second interrupt would land in the unwinding the first one started,
    # half-way through a lock's release or the pool's teardown.  A no-op
    # handler, not SIG_IGN: a second signal already pending would then be
    # reported as "ignored due to race condition"
    signal.signal(signal.SIGINT, lambda *_: None)
    raise KeyboardInterrupt


def _parse_line(line: str, lineno: int) -> tuple:
    parts = line.split(",")
    if len(parts) != 8:
        raise SchemaError(f"line {lineno}: expected 8 fields, got {len(parts)}")
    try:
        return (int(parts[0]), int(parts[1]), *map(float, parts[2:6]),
                bool(int(parts[6])), bool(int(parts[7])))
    except ValueError as exc:
        raise SchemaError(f"line {lineno}: {exc}") from exc


def _read(path: Path) -> tuple[np.ndarray, int]:
    """The results table of a results file's whole lines, one ROW_DTYPE
    record per row, and the byte length of those lines; what follows the
    last newline is the caller's to judge.

    An empty file reads as no rows in 0 bytes.  Bytes without a newline
    (a torn header), a header other than CSV_HEADER, or any malformed
    whole line -- a blank one included -- raise SchemaError, which names
    every bad line.
    """
    data = path.read_bytes()
    keep = data.rfind(b"\n") + 1
    if not keep:
        if data:
            raise SchemaError(f"{path}: truncated header")
        return np.empty(0, dtype=ROW_DTYPE), 0
    lines = data[:keep].decode("utf-8", "replace").split("\n")[:-1]
    del data  # the parse needs only the lines: free the file's bytes first
    if lines[0] != CSV_HEADER:
        raise SchemaError(f"{path}: header does not match schema v{SCHEMA_VERSION}")
    rows, bad = np.empty(len(lines) - 1, dtype=ROW_DTYPE), []
    for i, line in enumerate(lines[1:], start=2):
        try:
            rows[i - 2] = _parse_line(line, i)
        except SchemaError as exc:
            bad.append(str(exc))
        except OverflowError as exc:  # an integer beyond int64
            bad.append(f"line {i}: {exc}")
    if bad:
        raise SchemaError(f"{path}: malformed rows:\n  " + "\n  ".join(bad))
    return rows, keep


def _scan_resume(path: Path, expected: np.ndarray) -> tuple[int, int]:
    """Validate an existing output file for resumption.

    Returns (rows_done, keep_bytes).  A torn final line (crash artifact) is
    allowed and dropped via keep_bytes; anything else malformed, a header
    mismatch, or a q-sequence that is not a prefix of the expected primes
    is a hard error -- the file is never silently overwritten.
    """
    rows, keep = _read(path)
    n = min(len(rows), len(expected))
    wrong = np.flatnonzero(rows["q"][:n] != expected[:n])
    i = int(wrong[0]) if wrong.size else n
    if i < len(rows):
        raise SchemaError(f"{path}: line {i + 2}: unexpected q={rows['q'][i]}")
    return len(rows), keep


def compute_range(
    q_min: int,
    q_max: int,
    out: str | os.PathLike,
    threads: int = 1,
    resume: bool = False,
    paranoid: bool = False,
) -> int | None:
    """One CSV row per prime in [q_min, q_max], written in ascending q;
    returns the range's last prime, or None when it holds none.

    With resume=True, rows already on disk are kept and only the remainder
    is computed; the final file is byte-identical to an uninterrupted run.
    It runs min(threads, primes left to compute) pool workers (threads
    below 1 is a ValueError, raised before the file is touched), or runs
    serially in this process when that is at most 1.  With a pool (main
    thread only), the workers ignore SIGINT, and an interrupt terminates
    them rather than waiting on their chunks.
    """
    if not 3 <= q_min <= q_max:
        raise ValueError("need 3 <= q_min <= q_max")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    path = Path(out)
    primes = sieve_primes(q_max)
    primes = primes[primes >= max(q_min, 3)]

    done = keep = 0
    if resume and path.exists():
        done, keep = _scan_resume(path, primes)
        with open(path, "r+b") as fh:
            fh.truncate(keep)
    # a resumed file without its header line starts over
    mode = "a" if keep else "w"

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


def load_rows(path: str | os.PathLike) -> np.recarray:
    """The results table of a CSV, one ROW_DTYPE record per row; a damaged
    file -- one that --resume refuses, or a torn final line -- raises."""
    path = Path(path)
    rows, keep = _read(path)
    if not keep:
        raise SchemaError(f"{path}: empty file")
    if keep != path.stat().st_size:
        raise SchemaError(f"{path}: torn final line {len(rows) + 2}")
    return rows.view(np.recarray)


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


def summarize(rows: np.recarray) -> Summary:
    """Counts, means and extremes of a nonempty results table."""
    r, p1, m1 = rows.R, rows.flag_2qp1, rows.flag_2qm1
    i_min, i_max = int(np.argmin(r)), int(np.argmax(r))

    def _mean(mask: np.ndarray) -> float | None:
        return float(np.mean(r[mask])) if mask.any() else None

    return Summary(
        count=len(rows),
        mean_R=float(np.mean(r)),
        mean_R_norm=float(np.mean(rows.R_norm)),
        min_R=float(r[i_min]),
        min_q=int(rows.q[i_min]),
        max_R=float(r[i_max]),
        max_q=int(rows.q[i_max]),
        count_2qp1=int(p1.sum()),
        mean_R_2qp1=_mean(p1),
        count_2qm1=int(m1.sum()),
        mean_R_2qm1=_mean(m1),
    )
