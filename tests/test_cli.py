import argparse
import dataclasses
import errno
import io
import itertools
import math
import os
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import pytest

import bsratio
from bsratio import bounds, figures, pipeline, primesum, ratio
from bsratio.cli import main
from bsratio.errors import VerificationError
from bsratio.ntheory import sieve_primes

ABOVE_GUARD = 100003  # the least prime above primesum.VERIFY_MAX_Q = 100000


def _assert_error_exit_2(argv, capsys) -> str:
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in out + err
    return err


@pytest.mark.parametrize("command", ["verify", "sigma"])
def test_cost_guard_exits_2(command, capsys):
    assert str(ABOVE_GUARD) in _assert_error_exit_2([command, "--q", str(ABOVE_GUARD)], capsys)


@pytest.mark.parametrize("command", ["verify", "sigma"])
def test_verify_guard_before_fft_route(command, monkeypatch, capsys):
    def no_fft(field):
        raise AssertionError("log_ratio_fft ran before the cost guard")

    monkeypatch.setattr(ratio, "log_ratio_fft", no_fft)
    assert main([command, "--q", str(ABOVE_GUARD)]) == 2


@pytest.mark.parametrize(
    "command,target", [("verify", "verify_ratio"), ("sigma", "verify_ratio")]
)
def test_verification_error_is_fail_exit_1(command, target, monkeypatch, capsys):
    def disagree(*args, **kwargs):
        raise VerificationError("routes disagree")

    monkeypatch.setattr(primesum, target, disagree)
    assert main([command, "--q", "101"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL: routes disagree")


def test_verify_pass_states_what_it_checks(capsys):
    assert main(["verify", "--q", "101"]) == 0
    out = capsys.readouterr().out
    assert "direct O(q^2) L(1,chi) sums + truncated Euler product" in out
    assert "not rounding" in out
    assert out.rstrip().endswith("PASS")


def test_sigma_reports_the_verifier_split(capsys):
    assert main(["sigma", "--q", "101"]) == 0
    lines = capsys.readouterr().out.splitlines()
    split = primesum.verify_ratio(101)
    assert lines[1:4] == [
        f"sigma1 (primes)        {split.prime_sum!r}",
        f"sigma2 (prime powers)  {split.power_sum!r}",
        f"sum                    {split.total!r}",
    ]
    assert lines[-2:] == [
        f"|sigma2| bound         {bounds.simple_bound(101)!r}",
        f"M(q,1) (p = 1 mod q)   {primesum.mertens_constant_q1(split)!r}",
    ]


@pytest.mark.parametrize("command", ["verify", "sigma"])
def test_one_gate_for_verify_and_sigma(command, monkeypatch, capsys):
    # a gap of 1.5 * 10^-delta passes no gate of 10^-delta + err_est
    exact, shift = primesum.verify_ratio(101), 1.5e-8
    off = dataclasses.replace(exact, total=exact.total + shift, prime_sum=exact.prime_sum + shift)
    monkeypatch.setattr(primesum, "verify_ratio", lambda *args, **kwargs: off)
    assert main([command, "--q", "101"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "sigma"])
@pytest.mark.parametrize("flag", ["--delta", "--A"])
def test_bad_plan_argument_exits_2(command, flag, capsys):
    _assert_error_exit_2([command, "--q", "101", flag, "0"], capsys)


@pytest.mark.parametrize("command", ["verify", "sigma"])
def test_overflowing_delta_exits_2_without_warnings(command, recwarn, capsys):
    # at q = 101, delta = 40 plans M = K = 13 and zeta(169, 1/101) overflows
    err = _assert_error_exit_2([command, "--q", "101", "--delta", "40"], capsys)
    assert "delta=40" in err and "q=101" in err and "M*K = 169" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["verify", "sigma", "hreg"])
def test_not_an_odd_prime_exits_2(command, capsys):
    assert "q=100 is not an odd prime" in _assert_error_exit_2([command, "--q", "100"], capsys)


@pytest.mark.parametrize("command", ["stats", "bounds"])
def test_bad_csv_exits_2(command, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("q,g,log_R\n3,2,-0.1\n")
    _assert_error_exit_2([command, "--in", str(bad)], capsys)


@pytest.mark.parametrize("command", ["stats", "bounds"])
def test_blank_line_in_csv_exits_2(command, tmp_path, capsys):
    csv = tmp_path / "r.csv"
    pipeline.compute_range(3, 50, out=csv)
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:4] + ["\n"] + lines[4:]))
    assert "line 5: expected 8 fields" in _assert_error_exit_2([command, "--in", str(csv)], capsys)


@pytest.mark.parametrize("command", ["stats", "bounds"])
def test_missing_input_exits_2(command, tmp_path, capsys):
    _assert_error_exit_2([command, "--in", str(tmp_path / "absent.csv")], capsys)


@pytest.mark.parametrize("lo,hi", [(2, 100), (50, 40)])
def test_compute_bad_range_exits_2(lo, hi, tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    argv = ["compute", "--from", str(lo), "--to", str(hi), "--out", str(out_path)]
    _assert_error_exit_2(argv, capsys)
    assert not out_path.exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_compute_threads_below_1_exits_2(threads, tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    argv = ["compute", "--from", "3", "--to", "50", "--out", str(out_path), "--threads", threads]
    assert f"threads >= 1, got {threads}" in _assert_error_exit_2(argv, capsys)
    assert not out_path.exists()


def test_compute_damaged_resume_exits_2(tmp_path, capsys):
    damaged = tmp_path / "r.csv"
    damaged.write_text("not,the,header\n")
    argv = ["compute", "--from", "3", "--to", "50", "--out", str(damaged), "--resume"]
    _assert_error_exit_2(argv, capsys)
    assert damaged.read_text() == "not,the,header\n"


def test_stats_reads_its_csv_once(tmp_path, monkeypatch, capsys):
    csv = tmp_path / "r.csv"
    pipeline.compute_range(3, 200, out=csv)
    load_rows, calls = pipeline.load_rows, []

    def counting(path):
        calls.append(path)
        return load_rows(path)

    for module in (pipeline, figures):  # every binding, so no read escapes the count
        if hasattr(module, "load_rows"):
            monkeypatch.setattr(module, "load_rows", counting)
    figs = tmp_path / "figs"
    assert main(["stats", "--in", str(csv), "--out-dir", str(figs)]) == 0
    assert len(calls) == 1
    assert len(list(figs.glob("*.svg"))) == 4


def test_stats_empty_input_error(tmp_path, capsys):
    empty = tmp_path / "e.csv"
    empty.write_text(pipeline.CSV_HEADER + "\n")
    argv = ["stats", "--in", str(empty), "--out-dir", str(tmp_path / "figs")]
    assert "no data rows" in _assert_error_exit_2(argv, capsys)


def test_stats_needs_two_rows_for_histograms(tmp_path, capsys):
    one = tmp_path / "one.csv"
    pipeline.compute_range(3, 3, out=one)
    figs = tmp_path / "figs"
    assert main(["stats", "--in", str(one), "--out-dir", str(figs)]) == 0
    assert sorted(p.name for p in figs.iterdir()) == ["normalized_scatter.svg", "values_scatter.svg"]


def test_bounds_report(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    assert main(["compute", "--from", "3", "--to", "1100", "--out", str(csv)]) == 0
    capsys.readouterr()
    # R (and R_norm with it) scaled out of the envelope and the band on two
    # rows in three, so that each flag takes both values
    scaled = [
        (q, g, log_R, R * s, R * s * math.log(q) ** 0.75, err, f1, f2)
        for s, (q, g, log_R, R, R_norm, err, f1, f2) in zip(
            itertools.cycle((1.0, 1 / 300, 300.0)), pipeline.load_rows(csv).tolist()
        )
    ]
    csv.write_text(pipeline.CSV_HEADER + "\n" + "".join(map(pipeline._format_row, scaled)))
    assert main(["bounds", "--in", str(csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q,simple_bound,refined_bound,envelope_ok,normalized_ok"
    primes = [int(p) for p in sieve_primes(1100)[1:]]
    assert [int(line.split(",")[0]) for line in lines[1:-1]] == primes
    # every line against a reference built row by row from scalars: the two
    # bounds at int q, the envelope from math.log(q), the band from R_norm
    rows = pipeline.load_rows(csv)
    band_lo, band_hi = bounds.NORMALIZED_BAND
    want, n_env, n_band = [], 0, 0
    for q, R, R_norm in zip(rows.q.tolist(), rows.R.tolist(), rows.R_norm.tolist()):
        env = math.exp(-1.87) / math.log(q) < R < math.exp(0.51) * math.log(q)
        band = band_lo < R_norm < band_hi
        n_env, n_band = n_env + env, n_band + band
        want.append(
            f"{q},{bounds.simple_bound(q):.10f},{bounds.refined_bound(q):.10f},{int(env)},{int(band)}"
        )
    assert lines[1:-1] == want
    n = len(primes)
    assert 0 < n_env < n and 0 < n_band < n
    assert lines[-1] == f"# envelope ok: {n_env}/{n}   normalized band ok: {n_band}/{n}"

    # a refused x prints no row
    for x in ("10", "inf", "nan"):
        assert "a finite x" in _assert_error_exit_2(["bounds", "--in", str(csv), "--dusart-x", x], capsys)


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises EPIPE."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, s):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_stdout_exits_141_quietly(tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["constants"]) == 141
        # the exit-time flush then goes to devnull, not to the closed pipe
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_interrupt_exits_130_and_resumes(tmp_path, monkeypatch, capsys):
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    argv = ["compute", "--from", "3", "--to", "200", "--out"]
    assert main(argv + [str(full)]) == 0
    worker, rows = pipeline._worker, []

    def interrupted_after_ten_rows(arg):
        if len(rows) == 10:
            raise KeyboardInterrupt
        rows.append(arg)
        return worker(arg)

    monkeypatch.setattr(pipeline, "_worker", interrupted_after_ten_rows)
    capsys.readouterr()
    assert main(argv + [str(part)]) == 130
    out, err = capsys.readouterr()
    assert (out, err) == ("", "interrupted\n")
    assert len(part.read_text().splitlines()) == 1 + 10  # header and the finished rows
    monkeypatch.setattr(pipeline, "_worker", worker)
    assert main(argv + [str(part), "--resume"]) == 0
    assert part.read_bytes() == full.read_bytes()


def test_interrupt_while_parsing_exits_130(monkeypatch, capsys):
    def interrupted(self, args=None, namespace=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", interrupted)
    assert main(["verify", "--q", "101"]) == 130
    assert capsys.readouterr() == ("", "interrupted\n")


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["verify"], 2), (["nosuch"], 2)])
def test_parser_exit_passes_through(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_double_sigint_stops_the_pool_and_resumes(tmp_path):
    # timeout(1) sends SIGINT to the process and then to its group, which
    # holds the pool workers too; each run gets a session of its own.  A
    # lost interrupt (exit 0), a broken cleanup (exit 1) or a hang fails.
    # A second SIGINT that lands after main has handled the first, in the
    # interpreter's teardown, may end the process by SIGINT, which a shell
    # reports as 130 too
    src = str(Path(bsratio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "bsratio.cli", "compute", "--from", "3", "--to", "30000",
            "--threads", "2", "--out"]
    full = tmp_path / "full.csv"
    subprocess.run(argv + [str(full)], env=env, check=True, stdout=subprocess.DEVNULL)
    for run, gap in enumerate((0.0, 0.01, 0.1)):  # seconds between the two SIGINTs
        part = tmp_path / f"part{run}.csv"
        proc = subprocess.Popen(argv + [str(part)], env=env, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            # about 100 rows on disk: the pool is running, with chunks pending
            while not part.exists() or part.stat().st_size < 10_000:
                assert proc.poll() is None, "the run ended before it could be interrupted"
                time.sleep(0.01)
            os.kill(proc.pid, signal.SIGINT)
            time.sleep(gap)
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(15) in (130, -signal.SIGINT), proc.stderr.read().decode()
            deadline = time.monotonic() + 5
            while _group_alive(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _group_alive(proc.pid), "a pool worker outlived the interrupt"
        finally:
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stderr.close()
        assert part.read_bytes() != full.read_bytes()
        subprocess.run(argv + [str(part), "--resume"], env=env, check=True, stdout=subprocess.DEVNULL)
        assert part.read_bytes() == full.read_bytes()
