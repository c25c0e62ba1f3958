import io

import numpy as np
import pytest

from poseamm import cli, fileio
from poseamm.bench import (SceneConfig, generate_absolute_scene,
                           generate_relative_scene, run_sweep)
from poseamm.exceptions import ConstraintViolation, ParseError


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
        np.testing.assert_array_equal(corrs[0].point, [1, 2, 3])

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
        with pytest.raises(ConstraintViolation, match="line 2"):
            fileio.parse_correspondence_file(path)

    def test_bearing_renormalized(self, tmp_path):
        path = tmp_path / "abs.txt"
        path.write_text("absolute\n1 2 3  0 0 5  0 0 0\n")
        _, corrs = fileio.parse_correspondence_file(path)
        np.testing.assert_allclose(corrs[0].ray.bearing, [0, 0, 1], atol=1e-15)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing but comments\n")
        with pytest.raises(ParseError):
            fileio.parse_correspondence_file(path)

    def test_small_violation_projected_out(self, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("relative\n1 0 0  1e-8 1 0  0 1 0  0 0 0\n")
        _, corrs = fileio.parse_correspondence_file(path)
        line = corrs[0].line1
        assert abs(line.direction @ line.moment) < 1e-15

    def test_round_trip_preserves_values(self, tmp_path):
        _, corrs = generate_relative_scene(SceneConfig(seed=2, noise_sigma_px=1.0))
        path = tmp_path / "rel.txt"
        fileio.write_correspondence_file(path, "relative", corrs)
        kind, loaded = fileio.parse_correspondence_file(path)
        assert kind == "relative"
        for original, parsed in zip(corrs, loaded):
            np.testing.assert_allclose(parsed.line1.direction,
                                       original.line1.direction, atol=1e-15)
            np.testing.assert_allclose(parsed.line2.moment,
                                       original.line2.moment, atol=1e-15)


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
        assert "RankDeficientSystem" in capsys.readouterr().err

    @pytest.mark.parametrize("t0", [[], ["--t0", "0,0,0"]])
    def test_central_relative_rig_exits_1(self, tmp_path, capsys, t0):
        _, path = self._write_relative_scene(tmp_path, rig="central")
        code = cli.main(["solve", "--input", str(path), "--solver", "amm-gec"] + t0)
        assert code == 1
        assert "RankDeficientSystem" in capsys.readouterr().err
