import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsratio
from bsratio.errors import SchemaError
from bsratio.figures import (
    MARGIN_L,
    MARGIN_T,
    PLOT_H,
    PLOT_W,
    freedman_diaconis_edges,
    plot_histogram,
    plot_scatter,
    scatter_scale,
)
from bsratio.ntheory import build_field, sieve_primes
from bsratio.pipeline import (
    CSV_HEADER,
    ROW_DTYPE,
    _format_row,
    compute_range,
    load_rows,
    summarize,
)


@pytest.fixture(scope="module")
def csv100(tmp_path_factory):
    path = tmp_path_factory.mktemp("batch") / "r100.csv"
    compute_range(3, 100, out=path)
    return path


@pytest.fixture(scope="module")
def rows100(csv100):
    return load_rows(csv100)


class TestComputeRange:
    def test_row_count(self, csv100):
        rows = load_rows(csv100)
        assert len(rows) == 24  # primes 3..97
        assert [r.q for r in rows][:4] == [3, 5, 7, 11]

    def test_resume_idempotent(self, csv100, monkeypatch):
        before = csv100.read_bytes()

        def boom(args):
            raise AssertionError("resume recomputed a finished range")

        monkeypatch.setattr("bsratio.pipeline._worker", boom)
        compute_range(3, 100, out=csv100, resume=True)
        assert csv100.read_bytes() == before

    def test_thread_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        compute_range(3, 700, out=a, threads=1)
        compute_range(3, 700, out=b, threads=2)
        assert a.read_bytes() == b.read_bytes()

    def test_row_independent_of_blas_threads(self, tmp_path):
        # from q = 20021 on a BLAS dot would split err_est's norm across the
        # ambient BLAS threads; the row must not depend on their number
        src = str(Path(bsratio.__file__).resolve().parents[1])
        rows = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.csv"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            code = f"from bsratio.pipeline import compute_range; compute_range(20021, 20021, out={str(out)!r})"
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            rows.append(out.read_bytes())
        assert rows[0] == rows[1]

    def test_torn_line_resume(self, csv100, tmp_path):
        full = csv100.read_bytes()
        torn = tmp_path / "torn.csv"
        for cut in (17, 1):  # inside the last row; only its newline
            torn.write_bytes(full[: len(full) - cut])
            with pytest.raises(SchemaError, match="torn final line 25"):
                load_rows(torn)
            compute_range(3, 100, out=torn, resume=True)
            assert torn.read_bytes() == full

    def test_resume_empty_file_writes_the_header(self, csv100, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        compute_range(3, 100, out=empty, resume=True)
        assert empty.read_bytes() == csv100.read_bytes()

    def test_resume_header_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,the,right,header\n1,2,3,4\n")
        with pytest.raises(SchemaError):
            compute_range(3, 100, out=bad, resume=True)

    def test_resume_wrong_primes(self, tmp_path, csv100):
        lines = csv100.read_text().splitlines()
        shuffled = "\n".join([lines[0], lines[2], lines[1]]) + "\n"
        bad = tmp_path / "wrong.csv"
        bad.write_text(shuffled)
        with pytest.raises(SchemaError):
            compute_range(3, 100, out=bad, resume=True)

    def test_resume_names_first_unexpected_q(self, tmp_path, csv100):
        lines = csv100.read_text().splitlines()
        bad = tmp_path / "wrong.csv"
        bad.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
        with pytest.raises(SchemaError, match="line 2: unexpected q=5$"):
            compute_range(3, 100, out=bad, resume=True)
        # 14 primes lie in [3, 50]: the 15th row, q = 53, is beyond them
        longer = tmp_path / "longer.csv"
        longer.write_bytes(csv100.read_bytes())
        with pytest.raises(SchemaError, match="line 16: unexpected q=53$"):
            compute_range(3, 50, out=longer, resume=True)
        assert longer.read_bytes() == csv100.read_bytes()

    def test_malformed_interior_line(self, tmp_path, csv100):
        lines = csv100.read_text().splitlines()
        lines[2] = "garbage"
        bad = tmp_path / "mal.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            compute_range(3, 100, out=bad, resume=True)

    def test_paranoid_builds_each_field_once(self, csv100, tmp_path, monkeypatch):
        import bsratio.pipeline as pipeline

        built = []

        def counting(q):
            built.append(q)
            return build_field(q)

        monkeypatch.setattr(pipeline, "build_field", counting)
        out = tmp_path / "p.csv"
        compute_range(3, 100, out=out, paranoid=True)
        assert sorted(built) == [r.q for r in load_rows(csv100)]
        assert out.read_bytes() == csv100.read_bytes()

    def test_pool_no_larger_than_its_work(self, tmp_path, monkeypatch):
        import bsratio.pipeline as pipeline

        asked = []

        class FakePool:
            def __init__(self, processes, *args):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, iterable, chunksize=1):
                return map(func, iterable)

        monkeypatch.setattr(pipeline, "Pool", FakePool)
        out = tmp_path / "few.csv"
        compute_range(3, 7, out=out, threads=64)
        assert asked and max(asked) <= 3
        assert [r.q for r in load_rows(out)] == [3, 5, 7]

    def test_range_validation(self, tmp_path):
        with pytest.raises(ValueError):
            compute_range(2, 100, out=tmp_path / "x.csv")

    def test_returns_last_prime(self, tmp_path):
        assert compute_range(3, 100, out=tmp_path / "m.csv") == 97
        assert compute_range(24, 28, out=tmp_path / "none.csv") is None


class TestCsvRoundTrip:
    def test_exact(self, csv100):
        rows = load_rows(csv100).tolist()
        text = CSV_HEADER + "\n" + "".join(_format_row(r) for r in rows)
        reparsed = []
        for i, line in enumerate(text.splitlines()[1:], start=2):
            from bsratio.pipeline import _parse_line

            reparsed.append(_parse_line(line, i))
        assert reparsed == rows

    def test_flags_consistent(self, csv100):
        from bsratio.ntheory import is_prime

        for r in load_rows(csv100):
            assert r.flag_2qp1 == is_prime(2 * r.q + 1)
            assert r.flag_2qm1 == is_prime(2 * r.q - 1)
            assert r.R_norm == pytest.approx(r.R * math.log(r.q) ** 0.75, abs=0)


class TestSummarize:
    def test_single_q3(self, tmp_path):
        path = tmp_path / "q3.csv"
        compute_range(3, 3, out=path)
        s = summarize(load_rows(path))
        assert s.count == 1
        assert s.mean_R == pytest.approx(0.604600, abs=1e-5)
        assert s.max_q == 3

    def test_max_at_3(self, rows100):
        s = summarize(rows100)
        assert s.max_q == 3

    def test_subgroups(self, rows100):
        s = summarize(rows100)
        assert s.count_2qp1 <= s.count and s.count_2qm1 <= s.count
        assert s.count_2qp1 > 0 and s.mean_R_2qp1 is not None

    def test_column_means_match_contiguous_arrays(self):
        # past numpy's 8192-element reduction buffer, the mean of an
        # unaligned column differs from this one in the last bits
        r = np.random.default_rng(1).random(20000)
        records = [(3, 2, 0.0, v, v, 0.0, True, False) for v in r.tolist()]
        rows = np.rec.fromrecords(records, dtype=ROW_DTYPE)
        s = summarize(rows)
        assert s.mean_R == s.mean_R_norm == s.mean_R_2qp1 == float(np.mean(r))

    def test_malformed_rows_reported_with_lines(self, tmp_path, csv100):
        lines = csv100.read_text().splitlines()
        lines[3] = lines[3].replace(",", ";", 2)
        bad = tmp_path / "bad2.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="line 4"):
            load_rows(bad)

    def test_out_of_range_integer_named(self, tmp_path, csv100):
        lines = csv100.read_text().splitlines()
        lines[7] = "9" * 20 + lines[7][lines[7].index(","):]
        bad = tmp_path / "huge.csv"
        bad.write_text("\n".join(lines) + "\n")
        for read in (load_rows, lambda p: compute_range(3, 100, out=p, resume=True)):
            with pytest.raises(SchemaError, match="line 8: Python int too large"):
                read(bad)

    def test_blank_line_refused_as_by_resume(self, tmp_path, csv100):
        lines = csv100.read_text().splitlines()
        lines.insert(5, "")
        bad = tmp_path / "blank.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="line 6: expected 8 fields, got 1"):
            load_rows(bad)
        with pytest.raises(SchemaError, match="line 6"):
            compute_range(3, 100, out=bad, resume=True)


class TestScatter:
    def test_element_counts(self, rows100, tmp_path):
        out = tmp_path / "s.svg"
        plot_scatter(rows100, normalized=False, out_path=out)
        svg = out.read_text()
        assert svg.count("<circle") == 24
        assert svg.count('class="mean"') == 1
        assert svg.count('class="pt highlight"') == 1  # q=3 present

    def test_deterministic(self, rows100, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        plot_scatter(rows100, normalized=True, out_path=a)
        plot_scatter(rows100, normalized=True, out_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_mean_line_matches_summary(self, rows100, tmp_path):
        out = tmp_path / "m.svg"
        plot_scatter(rows100, normalized=False, out_path=out)
        svg = out.read_text()
        m = re.search(r'class="mean"[^/]*y1="([0-9.]+)"', svg)
        emitted = float(m.group(1))
        s = summarize(rows100)
        _, _, ylo, yhi = scatter_scale(rows100, normalized=False)
        expected = MARGIN_T + PLOT_H - (s.mean_R - ylo) / (yhi - ylo) * PLOT_H
        assert emitted == pytest.approx(expected, abs=0.01)

    def test_points_match_the_per_row_formula(self, rows100, tmp_path):
        out = tmp_path / "p.svg"
        plot_scatter(rows100, normalized=True, out_path=out)
        xlo, xhi, ylo, yhi = scatter_scale(rows100, normalized=True)
        expected = [
            (
                f"{MARGIN_L + (int(r.q) - xlo) / (xhi - xlo) * PLOT_W:.3f}",
                f"{MARGIN_T + PLOT_H - (float(r.R_norm) - ylo) / (yhi - ylo) * PLOT_H:.3f}",
            )
            for r in rows100
        ]
        assert re.findall(r'cx="([0-9.]+)" cy="([0-9.]+)"', out.read_text()) == expected


class TestHistogram:
    def test_partition_and_subset(self, rows100):
        values = np.array([r.R for r in rows100])
        edges = freedman_diaconis_edges(values)
        counts, _ = np.histogram(values, bins=edges)
        assert counts.sum() == len(rows100)
        for mask_attr in ("flag_2qp1", "flag_2qm1"):
            mask = np.array([getattr(r, mask_attr) for r in rows100])
            sub, _ = np.histogram(values[mask], bins=edges)
            assert (sub <= counts).all()

    def test_translation_covariance(self):
        vals = np.array([0.1, 0.4, 0.45, 0.8, 1.3, 2.0, 2.2, 3.1])
        e1 = freedman_diaconis_edges(vals)
        e2 = freedman_diaconis_edges(vals + 7.25)
        assert np.allclose(e2 - e1, 7.25, atol=1e-12)

    def test_svg_written_and_deterministic(self, rows100, tmp_path):
        a, b = tmp_path / "h1.svg", tmp_path / "h2.svg"
        plot_histogram(rows100, normalized=False, out_path=a)
        plot_histogram(rows100, normalized=False, out_path=b)
        assert a.read_bytes() == b.read_bytes()
        svg = a.read_text()
        assert 'class="bar-total"' in svg and 'class="mean"' in svg


def _synthetic_rows(n: int, seed: int) -> np.ndarray:
    """n ROW_DTYPE rows at the first n odd primes (q = 3 first, with the
    largest R): R, R_norm and the flags from a 32-bit LCG, every float a
    dyadic rational, so the table is the same on any platform."""
    rows = np.zeros(n, dtype=ROW_DTYPE)
    rows["q"] = [int(p) for p in sieve_primes(20 * n)[1 : n + 1]]
    x = seed
    for i in range(n):
        x = (1664525 * x + 1013904223) % 2**32
        r = 3.5 if i == 0 else 0.25 + (x >> 8) / 2**24 * 2.5
        rows[i]["R"], rows[i]["R_norm"] = r, r * (1 + (x % 7) / 8)
        rows[i]["flag_2qp1"], rows[i]["flag_2qm1"] = bool(x & 1 << 4), bool(x & 1 << 5)
    return rows.view(np.recarray)


class TestFigureBytes:
    """The sha256 of each SVG: any change to the emitted bytes, a float
    expression's operation order included, fails here."""

    TABLES = {
        "synthetic": lambda: _synthetic_rows(600, seed=2029),
        "equal_R": lambda: np.array(
            [(3, 2, 0.0, 1.0, 1.5, 0.0, True, False), (5, 2, 0.0, 1.0, 1.5, 0.0, False, True)],
            dtype=ROW_DTYPE,
        ).view(np.recarray),
    }
    SHA256 = {
        "equal_R": {
            "values_scatter.svg": "7c7b333ad814298eb243ea15a1cfc0808cc8b0ab4f0db59b694d6f0e81fa1e00",
            "values_hist.svg": "fd923afc1252df897737722b8ef9d4cbc864cef70baef74125c8c29afee895f8",
            "normalized_scatter.svg": "7fb29ad326e489802e4045ff6bfe11b00f50ef572f27550f3b2363319bfd77b8",
            "normalized_hist.svg": "f5180881163d8d3e9223657427bc2620d859f3c5ecb6009355a4c0bbdd7dbf03",
        },
        "synthetic": {
            "values_scatter.svg": "707e5ad4741b7b70ff4d0f2e715d83c14708b1265bdec012b143faf93c8bee25",
            "values_hist.svg": "cbf82fc0a719b9c87f580d7c62a6c73fd01750f61d463094a1676dcca5e904ee",
            "normalized_scatter.svg": "a88f60823e47a1ed5651480354d4fbe3d0a933c6d1dc24dfcf11b22200234b4f",
            "normalized_hist.svg": "c93be26f2ae2d106bcbc0bf4e36ea9c93c0dde629ce76b35d04b1277afcbde2c",
        },
    }

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_sha256(self, table, tmp_path):
        rows = self.TABLES[table]()
        got = {}
        for normalized, stem in ((False, "values"), (True, "normalized")):
            for kind, plot in (("scatter", plot_scatter), ("hist", plot_histogram)):
                out = tmp_path / f"{stem}_{kind}.svg"
                plot(rows, normalized, out)
                got[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert got == self.SHA256[table]


class TestStatsRowShape:
    def test_format_parse_identity(self):
        row = (17, 3, -1.2345678901234567, 0.2912, 0.55, 1.25e-13, False, True)
        from bsratio.pipeline import _parse_line

        assert _parse_line(_format_row(row).rstrip("\n"), 2) == row
