import io
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from poseamm import bench, cli, fileio
from poseamm.bench import (SceneConfig, generate_absolute_scene,
                           generate_relative_scene, run_sweep)
from poseamm.exceptions import ParseError


ABSOLUTE_FILE = """\
absolute
# point xyz, bearing xyz, offset xyz
1 2 3  0 0 1  0 0 0
4 5 6  0 1 0  0.1 0.2 0.3
7 8 9  1 0 0  -0.1 0 0
"""


class TestParseCorrespondenceFile:
    def test_valid_absolute_file(self, tmp_path):
        path = tmp_path / "abs.txt"
        path.write_text(ABSOLUTE_FILE)
        kind, corrs = fileio.parse_correspondence_file(path)
        assert kind == "absolute"
        assert len(corrs) == 3
        np.testing.assert_array_equal(corrs.points[0], [1, 2, 3])

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("absolute\n1 2 3 0 0 1 0 0\n")
        with pytest.raises(ParseError, match="line 2"):
            fileio.parse_correspondence_file(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("absolute\n1 2 3 0 0 one 0 0 0\n")
        with pytest.raises(ParseError, match="line 2"):
            fileio.parse_correspondence_file(path)

    def test_pluecker_violation_rejected(self, tmp_path):
        path = tmp_path / "rel.txt"
        # direction.moment = 0.1 on the first line
        path.write_text("relative\n1 0 0  0.1 0 0  0 1 0  0 0 0\n")
        with pytest.raises(ParseError, match="line 2: direction.moment"):
            fileio.parse_correspondence_file(path)

    def test_bearing_renormalized(self, tmp_path):
        path = tmp_path / "abs.txt"
        path.write_text("absolute\n1 2 3  0 0 5  0 0 0\n")
        _, corrs = fileio.parse_correspondence_file(path)
        np.testing.assert_allclose(corrs.bearings[0], [0, 0, 1], atol=1e-15)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing but comments\n")
        with pytest.raises(ParseError):
            fileio.parse_correspondence_file(path)

    def test_small_violation_projected_out(self, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("relative\n1 0 0  1e-8 1 0  0 1 0  0 0 0\n")
        _, corrs = fileio.parse_correspondence_file(path)
        assert abs(corrs.d1[0] @ corrs.m1[0]) < 1e-15

    def test_round_trip_preserves_values(self, tmp_path):
        _, corrs = generate_relative_scene(SceneConfig(seed=2, noise_sigma_px=1.0))
        path = tmp_path / "rel.txt"
        fileio.write_correspondence_file(path, "relative", corrs)
        kind, loaded = fileio.parse_correspondence_file(path)
        assert kind == "relative"
        np.testing.assert_allclose(loaded.d1, corrs.d1, atol=1e-15)
        np.testing.assert_allclose(loaded.m2, corrs.m2, atol=1e-15)


class TestSweepCsv:
    def _records(self):
        return run_sweep(SceneConfig(seed=3), "absolute", [0.0, 2.0], trials=3,
                         measure_time=False)

    def test_round_trip_bytes(self, tmp_path):
        records = self._records()
        text = fileio.records_to_csv(records)
        assert fileio.csv_round_trip(text) == text

    def test_read_write_file(self, tmp_path):
        records = self._records()
        path = tmp_path / "sweep.csv"
        fileio.write_sweep_csv(records, path)
        loaded = fileio.read_sweep_csv(path)
        assert loaded == records

    def test_bad_header_raises(self):
        with pytest.raises(ParseError, match="line 1"):
            fileio.read_sweep_csv(io.StringIO("nope\n"))

    def test_bad_row_names_line(self):
        text = fileio.CSV_HEADER + "\n0,0,amm-gpnp,1,2\n"
        with pytest.raises(ParseError, match="line 2"):
            fileio.read_sweep_csv(io.StringIO(text))

    # Fields that int or float would read, but that do not read back to
    # their own bytes, and fields that read as nothing at all.
    @pytest.mark.parametrize("row", [
        "x,0,amm-gpnp,1,2,0,3,0.5,1", "0,0,amm-gpnp,1,2,0,3,0.5,",
        "0,0,amm-gpnp,1,2,0,3,0.5,2", "0,0,amm-gpnp,1,2,0,3,0.5,yes",
        "0,1_0,amm-gpnp,1,2,0,3,0.5,1", "0, 3,amm-gpnp,1,2,0,3,0.5,1",
        "0,03,amm-gpnp,1,2,0,3,0.5,1", "0,+3,amm-gpnp,1,2,0,3,0.5,1",
        "0,0,amm-gpnp,1,2,1.0,3,0.5,1", "0,0,amm-gpnp,1,2,0,3 ,0.5,1",
        "0,0,amm-gpnp,1_0,2,0,3,0.5,1", "0,0,amm-gpnp,1,2 ,0,3,0.5,1",
        " 0,0,amm-gpnp,1,2,0,3,0.5,1", "0,0,amm-gpnp,1,2,0,3,\t0.5,1",
        "0,0,amm-gpnp,0.1,2,0,3,0.5,1", "1.50,0,amm-gpnp,1,2,0,3,0.5,1",
        "0,0,amm-gpnp,1,1e0,0,3,0.5,1", "0,0,amm-gpnp,1,2,0,3,NaN,1",
        "0,0,amm-gpnp,Infinity,2,0,3,0.5,1",
    ])
    def test_malformed_field_raises(self, row):
        text = f"{fileio.CSV_HEADER}\n0,0,amm-gpnp,1,2,0,3,0.5,1\n{row}\n"
        with pytest.raises(ParseError, match="line 3: malformed CSV field"):
            fileio.csv_round_trip(text)


class TestSweepCsvLineBreaks:
    # str.splitlines also breaks lines at these; only "\n" ends a row.
    BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("char", BREAKS, ids=[hex(ord(c)) for c in BREAKS])
    def test_solver_name_round_trips(self, tmp_path, char):
        records = run_sweep(SceneConfig(seed=3), "absolute", [0.0], trials=2,
                            measure_time=False)
        records = [replace(r, solver_name=f"amm{char}gpnp") for r in records]
        text = fileio.records_to_csv(records)
        assert fileio.read_sweep_csv(io.StringIO(text)) == records
        assert fileio.csv_round_trip(text) == text
        path = tmp_path / "sweep.csv"
        fileio.write_sweep_csv(records, path)
        assert fileio.read_sweep_csv(path) == records
        assert fileio.records_to_csv(fileio.read_sweep_csv(path)).encode() == path.read_bytes()

    def test_crlf_file_still_parses(self, tmp_path):
        records = run_sweep(SceneConfig(seed=3), "absolute", [0.0, 2.0], trials=2,
                            measure_time=False)
        data = fileio.records_to_csv(records).replace("\n", "\r\n").encode()
        path = tmp_path / "sweep.csv"
        path.write_bytes(data)
        assert fileio.read_sweep_csv(path) == records
        assert fileio.read_sweep_csv(io.BytesIO(data)) == records


class TestUndecodableSweepCsv:
    # One row whose solver field ends in a byte that is not UTF-8.
    DATA = (fileio.CSV_HEADER.encode() + b"\n0,0,amm-gpnp,1,2,0,3,0.5,1\n"
            b"0,1,amm-gpnp\xff,1,2,0,3,0.5,1\n")

    def test_path(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_bytes(self.DATA)
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            fileio.read_sweep_csv(path)

    @pytest.mark.parametrize("stream", ["strict-text", "binary"])
    def test_stream(self, stream):
        source = io.BytesIO(self.DATA)
        if stream == "strict-text":
            source = io.TextIOWrapper(source, encoding="utf-8")
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            fileio.read_sweep_csv(source)

    def test_header(self):
        with pytest.raises(ParseError, match="line 1: missing or unexpected CSV header"):
            fileio.read_sweep_csv(io.BytesIO(b"\xff" + self.DATA))

    def test_earlier_faulty_row_wins(self):
        data = self.DATA.replace(b"0,0,amm-gpnp,1,2", b"0,0,amm-gpnp,x,2")
        with pytest.raises(ParseError, match="line 2: malformed CSV field"):
            fileio.read_sweep_csv(io.BytesIO(data))

    def test_round_trip(self):
        text = self.DATA.decode("utf-8", errors="surrogateescape")
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            fileio.csv_round_trip(text)

    def test_utf8_solver_name_still_reads(self):
        text = self.DATA.replace(b"\xff", "\u00e9".encode()).decode()
        assert fileio.csv_round_trip(text) == text


class TestCliBench:
    def test_zero_noise_bench(self, capsys):
        code = cli.main(["bench", "absolute-central", "--trials", "5",
                         "--noise", "0:1:0", "--seed", "7",
                         "--solver", "amm-gpnp"])
        assert code == 0
        out = capsys.readouterr().out
        records = fileio.read_sweep_csv(io.StringIO(out))
        assert len(records) == 5
        assert all(r.rot_err_frobenius < 1e-6 for r in records)
        assert all(r.wall_time_ns == 0 for r in records)

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2

    def test_repeat_invocation_identical_bytes(self, capsys):
        args = ["bench", "relative-noncentral", "--trials", "3",
                "--noise", "0:2:4", "--seed", "9"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_summary_appends_mean_rows(self, capsys):
        code = cli.main(["bench", "absolute-central", "--trials", "4",
                         "--noise", "0:2:2", "--seed", "1", "--summary"])
        assert code == 0
        records = fileio.read_sweep_csv(io.StringIO(capsys.readouterr().out))
        data_rows = [r for r in records if r.trial_index >= 0]
        mean_rows = [r for r in records if r.trial_index == -1]
        assert len(data_rows) == 4 * 2 * 2  # levels x solvers x trials
        assert len(mean_rows) == 2 * 2     # levels x solvers

    def test_solver_family_mismatch_exits_2(self, capsys):
        code = cli.main(["bench", "absolute-central", "--solver", "amm-gec",
                         "--trials", "1"])
        assert code == 2

    def test_bad_noise_grid_exits_2(self, capsys):
        code = cli.main(["bench", "absolute-central", "--noise", "10:1:0",
                         "--trials", "1"])
        assert code == 2

    @staticmethod
    def _noise_grid_error(capsys, noise):
        code = cli.main(["bench", "absolute-central", f"--noise={noise}", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        return captured.err

    @pytest.mark.parametrize("noise", ["0:1:inf", "nan:1:2", "0:inf:1", "0:nan:1"])
    def test_non_finite_noise_grid_exits_2(self, capsys, noise):
        assert "must be finite" in self._noise_grid_error(capsys, noise)

    def test_negative_noise_minimum_exits_2(self, capsys):
        assert "min must be >= 0" in self._noise_grid_error(capsys, "-1:1:0")

    @pytest.mark.parametrize("noise", ["0:1:10000", "0:1e-4:2"])
    def test_noise_grid_over_level_cap_exits_2(self, capsys, noise):
        # 10001 and 20001 levels; the protocol grid 0:2:10 has 6.
        assert "more than 10000 levels" in self._noise_grid_error(capsys, noise)

    def test_noise_grid_at_level_cap(self):
        assert len(cli._parse_noise_grid("0:1:9999")) == cli._MAX_NOISE_LEVELS

    @staticmethod
    def _size_error(capsys, monkeypatch, options):
        # The bounds are checked before any scene or task list is built.
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep must not start")
        monkeypatch.setattr(bench, "run_sweep", unreachable)
        monkeypatch.setattr(bench, "generate_absolute_scene", unreachable)
        code = cli.main(["bench", "absolute-central"] + options)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        return captured.err

    def test_trials_over_cap_exits_2(self, capsys, monkeypatch):
        # 10**12 trials x 11 levels; 50_000 x 3 levels is just over the cap.
        for trials, noise in (("1000000000000", "0:1:10"), ("50000", "0:1:2")):
            err = self._size_error(capsys, monkeypatch,
                                   ["--trials", trials, "--noise", noise])
            assert f"at most {cli._MAX_TRIAL_LEVELS}" in err

    def test_points_over_cap_exits_2(self, capsys, monkeypatch):
        for points in ("100000000", str(cli._MAX_POINTS + 1)):
            err = self._size_error(capsys, monkeypatch,
                                   ["--trials", "1", "--points", points])
            assert f"points must be at most {cli._MAX_POINTS}" in err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["bench", "absolute-noncentral", "--trials", "2",
                         "--noise", "0:1:0", "--out", str(out)])
        assert code == 0
        records = fileio.read_sweep_csv(out)
        assert len(records) == 4  # 2 trials x 2 solvers


class TestCliSolve:
    def _write_absolute_scene(self, tmp_path, seed=5):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=seed))
        path = tmp_path / "scene.txt"
        fileio.write_correspondence_file(path, "absolute", corrs)
        return truth, path

    def _write_relative_scene(self, tmp_path, seed=5, rig="non_central"):
        truth, corrs = generate_relative_scene(SceneConfig(seed=seed, rig=rig))
        path = tmp_path / "scene.txt"
        fileio.write_correspondence_file(path, "relative", corrs)
        return truth, path

    def _parse_pose(self, text):
        lines = {line.split(":")[0]: line.split(":", 1)[1].split()
                 for line in text.strip().splitlines()}
        rotation = np.array([float(x) for x in lines["rotation"]]).reshape(3, 3)
        translation = np.array([float(x) for x in lines["translation"]])
        return rotation, translation

    def test_absolute_round_trip(self, tmp_path, capsys):
        truth, path = self._write_absolute_scene(tmp_path)
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gpnp"])
        assert code == 0
        rotation, translation = self._parse_pose(capsys.readouterr().out)
        assert np.linalg.norm(rotation - truth.rotation) < 1e-6
        assert np.linalg.norm(translation - truth.translation) < 1e-6

    def test_relative_round_trip(self, tmp_path, capsys):
        truth, path = self._write_relative_scene(tmp_path)
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gec"])
        assert code == 0
        rotation, translation = self._parse_pose(capsys.readouterr().out)
        assert np.linalg.norm(rotation - truth.rotation) < 1e-5
        assert np.linalg.norm(translation - truth.translation) < 1e-5

    def test_singular_translation_block_exits_1(self, tmp_path, capsys):
        # One point-to-ray correspondence leaves the depth along the ray
        # free: the translation block has no unique minimizer.
        path = tmp_path / "one.txt"
        path.write_text("absolute\n1 2 5 0 0 1 0 0 0\n")
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gpnp",
                         "--t0", "0,0,0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: translation block is singular; no unique minimizer\n"
        assert captured.out == ""

    def test_pluecker_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rel.txt"
        path.write_text("relative\n1 0 0  0.1 0 0  0 1 0  0 0 0\n")
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gec"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: line 2: direction.moment")

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        _, path = self._write_absolute_scene(tmp_path)
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gec"])
        assert code == 2

    def test_malformed_file_exits_2_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("absolute\n1 2 3 0 0 1 0 0 0\n1 2 3\n")
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gpnp"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        code = cli.main(["solve", "--input", "/nonexistent/file.txt",
                         "--solver", "amm-gpnp"])
        assert code == 2

    def test_explicit_t0(self, tmp_path, capsys):
        truth, path = self._write_absolute_scene(tmp_path)
        t0 = ",".join(str(x) for x in truth.translation)
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-upnp",
                         "--t0=" + t0])
        assert code == 0
        rotation, translation = self._parse_pose(capsys.readouterr().out)
        assert np.linalg.norm(rotation - truth.rotation) < 1e-5

    def test_solver_error_exits_1_names_error(self, tmp_path, capsys):
        # All bearings parallel from one center: rank-deficient depth system.
        lines = ["absolute"]
        for i in range(4):
            lines.append(f"{i + 2} 0 0  1 0 0  0 0 0")
        path = tmp_path / "degenerate.txt"
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-upnp",
                         "--t0", "0,0,0"])
        assert code == 1
        assert "stacked depth system lost column rank" in capsys.readouterr().err

    @pytest.mark.parametrize("t0", [[], ["--t0", "0,0,0"]])
    def test_central_relative_rig_exits_1(self, tmp_path, capsys, t0):
        _, path = self._write_relative_scene(tmp_path, rig="central")
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gec"] + t0)
        assert code == 1
        assert "the translation scale is unobservable" in capsys.readouterr().err


# ---------------------------------------------------------------- references

@np.errstate(over="ignore")
def reference_load_line(direction, moment, lineno):
    """The per-line Plücker loader as it was, plus the non-finite check
    after renormalization. -> the line's (direction, moment) fields."""
    d = np.asarray(direction, dtype=float)
    m = np.asarray(moment, dtype=float)
    n = float(np.linalg.norm(d))
    if n < 1e-12:
        raise ParseError(f"line {lineno}: zero direction vector")
    d = d / n
    m = m / n
    if not (math.isfinite(n) and np.isfinite(m).all()):
        raise ParseError(f"line {lineno}: non-finite field")
    residual = float(d @ m)
    if abs(residual) > 1e-6:
        raise ParseError(
            f"line {lineno}: direction.moment = {residual:g} exceeds {1e-6:g}")
    return [*d, *(m - residual * d)]


@np.errstate(over="ignore")
def reference_parse(path):
    """The line-loop parser as it was, building one row of fields per line,
    plus the non-finite checks: right after a line's numbers are counted,
    and after each renormalization. -> (kind, (N, 9 or 12) rows)."""
    kind = None
    rows = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if kind is None:
                if line not in ("absolute", "relative"):
                    raise ParseError(
                        f"line {lineno}: expected header 'absolute' or "
                        f"'relative', got {line!r}")
                kind = line
                continue
            tokens = line.split()
            try:
                values = [float(tok) for tok in tokens]
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric field") from None
            width = 9 if kind == "absolute" else 12
            if len(values) != width:
                raise ParseError(
                    f"line {lineno}: expected {width} fields, got {len(values)}")
            if not all(math.isfinite(v) for v in values):
                raise ParseError(f"line {lineno}: non-finite field")
            if kind == "absolute":
                bearing = np.array(values[3:6])
                n = np.linalg.norm(bearing)
                if n < 1e-12:
                    raise ParseError(f"line {lineno}: zero bearing vector")
                if not math.isfinite(n):
                    raise ParseError(f"line {lineno}: non-finite field")
                rows.append([*values[0:3], *(bearing / n), *values[6:9]])
            else:
                rows.append(reference_load_line(values[0:3], values[3:6], lineno)
                            + reference_load_line(values[6:9], values[9:12], lineno))
    if kind is None:
        raise ParseError(f"{path}: missing kind header")
    return kind, np.array(rows, dtype=float).reshape(-1, 9 if kind == "absolute" else 12)


def reference_write(path, kind, rows):
    """The per-line writer as it was, on the rows of _set_rows."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(kind + "\n")
        for fields in rows:
            stream.write(" ".join("%.17g" % x for x in fields) + "\n")


def _set_rows(kind, corrs):
    """The (N, 9 or 12) file rows of a set, fields in file order."""
    if kind == "absolute":
        return np.hstack([corrs.points, corrs.bearings, corrs.offsets])
    return np.hstack([corrs.d1, corrs.m1, corrs.d2, corrs.m2])


def _scene(kind, n, seed=1234567):
    config = SceneConfig(num_correspondences=n, noise_sigma_px=2.0, seed=seed)
    if kind == "absolute":
        return generate_absolute_scene(config)[1]
    return generate_relative_scene(config)[1]


class TestParserMatchesReference:
    @pytest.mark.parametrize("kind", ["absolute", "relative"])
    def test_generated_file_rows(self, tmp_path, kind):
        path = tmp_path / f"{kind}.txt"
        fileio.write_correspondence_file(path, kind, _scene(kind, 2000))
        got_kind, got = fileio.parse_correspondence_file(path)
        ref_kind, ref = reference_parse(path)
        assert got_kind == ref_kind == kind
        got_rows, ref_rows = _set_rows(kind, got), ref
        assert got_rows.shape == ref_rows.shape == (2000, 9 if kind == "absolute" else 12)
        eps = np.finfo(float).eps
        slack = 4.0 * eps * np.linalg.norm(ref_rows, axis=1)
        assert (np.abs(got_rows - ref_rows).max(axis=1) <= slack).all()

    @pytest.mark.parametrize("kind", ["absolute", "relative"])
    def test_parse_memory_peak(self, tmp_path, kind):
        # Fields go straight into one float buffer: no record per line and
        # no list of all tokens. The record loop peaked at 1.2-1.7 MB here.
        path = tmp_path / f"{kind}.txt"
        fileio.write_correspondence_file(path, kind, _scene(kind, 2000))
        fileio.parse_correspondence_file(path)
        tracemalloc.start()
        try:
            fileio.parse_correspondence_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("kind", ["absolute", "relative"])
    def test_unnormalized_file_rows(self, tmp_path, kind):
        # scaled bearings and directions, moments rescaled with them, and a
        # small Plücker violation to project out
        rng = np.random.default_rng(4)
        rows = _set_rows(kind, _scene(kind, 50))
        for start in ((3,) if kind == "absolute" else (0, 6)):
            scale = rng.uniform(0.01, 100.0, size=(50, 1))
            rows[:, start:start + 3] *= scale
            if kind == "relative":
                rows[:, start + 3:start + 6] = (
                    rows[:, start + 3:start + 6] * scale + 1e-8 * rows[:, start:start + 3])
        path = tmp_path / "scaled.txt"
        path.write_text(kind + "\n" + "".join(
            " ".join("%.17g" % x for x in row) + "  # a comment\n\n" for row in rows))
        got = _set_rows(kind, fileio.parse_correspondence_file(path)[1])
        ref = reference_parse(path)[1]
        slack = 4.0 * np.finfo(float).eps * np.linalg.norm(ref, axis=1)
        assert (np.abs(got - ref).max(axis=1) <= slack).all()


# One faulty line per fault kind; each must be the first fault of its line.
ABSOLUTE_FAULTS = {
    "field count": "1 2 3 0 0 1 0 0",
    "non-numeric": "1 2 3 0 0 one 0 0 0",
    "non-finite": "nan 2 3 0 0 1 0 0 0",
    "zero bearing": "1 2 3 0 0 0 0 0 0",
    "overflow": "1 2 3 1e200 1e200 0 0 0 0",
}
RELATIVE_FAULTS = {
    "field count": "1 0 0 0 0 0 0 1 0 0 0",
    "non-numeric": "1 0 0 0 0 0 0 1 0 0 0 x",
    "non-finite": "1 0 0 0 inf 0 0 1 0 0 0 0",
    "zero direction": "0 0 0 0 0 0 0 1 0 0 0 0",
    "overflow": "1e200 1e200 0 0 0 0 0 1 0 0 0 0",
    "moment overflow": "1e-11 0 0 0 1e300 0 0 1 0 0 0 0",
    "pluecker": "1 0 0 0.1 0 0 0 1 0 0 0 0",
    "pluecker line 2": "1 0 0 0 0 0 0 1 0 0 1 0",
}


def _two_fault_cases():
    for kind, faults in (("absolute", ABSOLUTE_FAULTS), ("relative", RELATIVE_FAULTS)):
        for first in faults:
            for second in faults:
                if first != second:
                    yield kind, first, second


class TestFirstFaultReported:
    @staticmethod
    def _error(parse, path):
        with pytest.raises(ParseError) as info:
            parse(path)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("kind,first,second", list(_two_fault_cases()))
    def test_earlier_line_wins(self, tmp_path, kind, first, second):
        faults = ABSOLUTE_FAULTS if kind == "absolute" else RELATIVE_FAULTS
        good = [" ".join("%.17g" % x for x in row)
                for row in _set_rows(kind, _scene(kind, 6, seed=3))]
        lines = ["# two faulty lines", kind, good[0], "", good[1],
                 faults[first] + "  # first", good[2], "# comment",
                 faults[second], good[3]]
        path = tmp_path / "faulty.txt"
        path.write_text("\n".join(lines) + "\n")
        got = self._error(fileio.parse_correspondence_file, path)
        assert got == self._error(reference_parse, path)
        assert got[1].startswith("line 6:")

    @pytest.mark.parametrize("kind,fault", [
        *(("absolute", f) for f in ABSOLUTE_FAULTS),
        *(("relative", f) for f in RELATIVE_FAULTS)])
    def test_single_fault_matches_reference(self, tmp_path, kind, fault):
        faults = ABSOLUTE_FAULTS if kind == "absolute" else RELATIVE_FAULTS
        path = tmp_path / "faulty.txt"
        path.write_text(f"{kind}\n{faults[fault]}\n")
        got = self._error(fileio.parse_correspondence_file, path)
        assert got == self._error(reference_parse, path)
        assert got[1].startswith("line 2:")
        assert got[0] is ParseError
        if fault.startswith("pluecker"):
            assert "direction.moment" in got[1]

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("relative\n# no records\n")
        kind, corrs = fileio.parse_correspondence_file(path)
        assert kind == "relative" and len(corrs) == 0


class TestWriterMatchesReference:
    @pytest.mark.parametrize("kind", ["absolute", "relative"])
    @pytest.mark.parametrize("n", [1, 20, 2000])
    def test_bytes(self, tmp_path, kind, n):
        corrs = _scene(kind, n, seed=n)
        reference_write(tmp_path / "ref.txt", kind, _set_rows(kind, corrs))
        expected = (tmp_path / "ref.txt").read_bytes()
        fileio.write_correspondence_file(tmp_path / "set.txt", kind, corrs)
        assert (tmp_path / "set.txt").read_bytes() == expected

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown kind"):
            fileio.write_correspondence_file(tmp_path / "x.txt", "sideways",
                                             _scene("absolute", 1))
        assert not (tmp_path / "x.txt").exists()


class TestNonFiniteInput:
    @pytest.mark.parametrize("text", [
        "absolute\n1 2 3  0 0 1  0 0 0\nnan 2 3  0 0 1  0 0 0\n",
        "relative\n1 0 0  0 0 0  0 1 0  0 0 0\n1 0 0  0 inf 0  0 1 0  0 0 0\n",
        "relative\n1 0 0  0 0 0  0 1 0  0 0 0\n1e200 1e200 0  0 0 0  0 1 0  0 0 0\n",
    ], ids=["nan-point", "inf-moment", "overflowing-direction"])
    def test_solve_exits_2_names_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        solver = "amm-gpnp" if text.startswith("absolute") else "amm-gec"
        code = cli.main(["solve", "--input", str(path), "--solver", solver])
        assert code == 2
        assert "line 3: non-finite field" in capsys.readouterr().err

    @pytest.mark.parametrize("t0", ["nan,0,0", "0,inf,0", "0,0,-1e400"])
    def test_non_finite_t0_exits_2(self, tmp_path, capsys, t0):
        path = tmp_path / "scene.txt"
        fileio.write_correspondence_file(path, "absolute", _scene("absolute", 20))
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gpnp",
                         "--t0", t0])
        assert code == 2
        assert "--t0 must be finite" in capsys.readouterr().err


class TestUndecodableInput:
    @pytest.mark.parametrize("data,line", [
        (b"absolute\n1 2 3 0 0 1 0 0 0 \xff\n", 2),
        (b"\xffabsolute\n1 2 3 0 0 1 0 0 0\n", 1),
        (b"absolute\n1 2 3 0 0 1 0 0 0\n4 5 6 0 1 0 0 0 0 # caf\xe9\n", 3),
        (b"relative\n1 0 0  0 0 0  0 1 0  0 0 0\n1 0 0  0 0 0  0 \xc3 0  0 0 0\n", 3),
    ], ids=["field", "header", "latin-1-comment", "truncated-sequence"])
    def test_solve_exits_2_names_line(self, tmp_path, capsys, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"line {line}: not valid UTF-8"):
            fileio.parse_correspondence_file(path)
        solver = "amm-gec" if data.startswith(b"relative") else "amm-gpnp"
        code = cli.main(["solve", "--input", str(path), "--solver", solver])
        assert code == 2
        assert f"line {line}: not valid UTF-8" in capsys.readouterr().err

    def test_earlier_faulty_line_wins(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"absolute\n1 2 3 0 0 1 0 0\n1 2 3 0 0 1 0 0 0 \xff\n")
        with pytest.raises(ParseError, match="line 2: expected 9 fields"):
            fileio.parse_correspondence_file(path)

    def test_utf8_comment_is_accepted(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_bytes("absolute # café\n1 2 3 0 0 1 0 0 0\n".encode("utf-8"))
        kind, corrs = fileio.parse_correspondence_file(path)
        assert kind == "absolute" and len(corrs) == 1


class TestInvalidSolverOptions:
    CASES = [(["--tol", "inf"], "tol_outer must be finite"),
             (["--tol", "nan"], "tol_outer must be finite"),
             (["--tol", "0"], "tol_outer must be positive"),
             (["--max-iters", "0"], "max_outer_iters must be at least 1")]
    IDS = ["inf-tol", "nan-tol", "zero-tol", "zero-iters"]

    @pytest.mark.parametrize("options,message", CASES, ids=IDS)
    def test_solve_exits_2(self, tmp_path, capsys, options, message):
        path = tmp_path / "scene.txt"
        fileio.write_correspondence_file(path, "absolute", _scene("absolute", 20))
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gpnp",
                         "--t0", "0,0,0"] + options)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    @pytest.mark.parametrize("options,message", CASES, ids=IDS)
    def test_bench_exits_2(self, capsys, options, message):
        code = cli.main(["bench", "absolute-central", "--trials", "1",
                         "--noise", "0:1:0"] + options)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def test_import_loads_no_process_machinery():
    # Sweeps run in one process, so importing the CLI must not pay for
    # the process-pool modules.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = ("import sys, poseamm.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
