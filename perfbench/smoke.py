"""The benchmark's own test: every workload, plain and traced, on tiny inputs.

    python3 -m pytest -q perfbench/smoke.py

It checks the output contract that BENCHMARK.json declares, that the same
seed gives the same inputs, and that the benchmark refuses to run without
the program's sources.  The file name keeps it out of the repository's
test collection; it takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def check_run(trace: int) -> str:
    proc = run("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    found = results(proc.stdout)
    assert len(found) == len(SPEC["workloads"])
    for res in found:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            metric = res["metrics"][m["name"]]
            assert set(metric) == {"value", "unit"} and metric["unit"] == m["unit"]
            if not trace:
                assert isinstance(metric["value"], float) and metric["value"] > 0
    assert json.loads(proc.stdout.splitlines()[-1]) == found[-1]
    return proc.stdout


def test_plain_run_reports_every_end_to_end_metric():
    out = check_run(0)
    names = [line[3:31].strip() for line in out.splitlines() if line.startswith("   ")]
    for name in ("setup_s", "items_per_s", "peak_rss_mb", "fail_frac", "max_abs_err"):
        assert names.count(name) == len(SPEC["workloads"]), name


def test_traced_run_reports_every_layer():
    out = check_run(1)
    runs = out.split("== ")[1:]
    by_workload = {block.split()[0]: block for block in runs}
    assert set(by_workload) == {w["name"] for w in SPEC["workloads"]}
    # null only stands for a layer whose function is gone upstream
    for m in SPEC["per_layer"]:
        values = [r["metrics"][m["name"]]["value"] for r in results(out)]
        assert all(v is None or isinstance(v, (int, float)) for v in values), m["name"]
        assert any(v is not None for v in values), m["name"]


def test_workload_names_match_benchmark_json():
    proc = run("--workload", "no-such-workload", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    for w in SPEC["workloads"]:
        assert w["name"] in proc.stderr


def test_same_seed_same_inputs():
    outs = HERE / "out"
    seen = []
    for _ in range(2):
        proc = run("--workload", "verify-sample", "--seed", "5", "--seconds", "0", "--smoke")
        assert proc.returncode == 0, proc.stderr
        seen.append(json.loads((outs / "verify-sample-seed5-trace0-smoke.json").read_text())["inputs"])
    assert seen[0] == seen[1]


def test_refuses_without_program_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for src in HERE.glob("*.py"):
        shutil.copy(src, bare / "perfbench")
    try:
        proc = run("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert not results(proc.stdout)
    finally:
        shutil.rmtree(bare)
