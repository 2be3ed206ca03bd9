import json
import subprocess
import sys

import numpy as np
import pytest

from omnisim import prototype_scene_path
from omnisim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_scene_file(tmp_path, name="scene.json", **overrides):
    doc = {
        "frequency_hz": 3.6e9,
        "panel": {"rows": 2, "cols": 4, "dx_m": 0.04, "dy_m": 0.04,
                  "group_rows": 2, "group_cols": 2,
                  "center": [0, 0, 0], "normal": [0, 0, 1.0]},
        "state_table": [
            {"reflection": {"amp": 0.46, "phase_deg": 20.0},
             "refraction": {"amp": 0.58, "phase_deg": 300.0}},
            {"reflection": {"amp": 0.55, "phase_deg": 215.0},
             "refraction": {"amp": 0.81, "phase_deg": 123.0}},
        ],
        "bs": {"antennas": [[0.3, 0.1, 1.4], [-0.2, 0.0, 1.2]]},
        "users": [[0.4, 0.2, -0.9], [-0.3, 0.1, 1.0]],
        "power": {"tx_dbm": 20.0, "bandwidth_hz": 1e6,
                  "noise_figure_db": 5.0},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLinkBudget:
    def test_prototype_chain_totals_minus_55_99(self, capsys):
        code, out, _ = run_cli(capsys, "linkbudget",
                               "--config", prototype_scene_path(),
                               "--ios-gain-db", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "received_dbm -55.99"
        assert lines[0] == "tx_power_dbm 1"
        assert any(line == "lna_db 14.3" for line in lines)

    def test_channel_item_overrides(self, capsys):
        code, out, _ = run_cli(capsys, "linkbudget",
                               "--config", prototype_scene_path(),
                               "--ios-gain-db", "0",
                               "--tx-ios-db", "-44.86",
                               "--ios-rx-db", "-40.48")
        assert code == 0
        expected = 1 + 10 - 44.86 + 0 - 40.48 + 10 + 14.3
        final = out.strip().splitlines()[-1]
        assert final == f"received_dbm {format(expected, '.6g')}"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--ios-gain-db", "--tx-ios-db", "--ios-rx-db"])
    def test_non_finite_item_is_validation_error(self, capsys, flag, value):
        # flag=value, so argparse does not read "-inf" as an option
        required = [] if flag == "--ios-gain-db" else ["--ios-gain-db", "0"]
        code, out, err = run_cli(capsys, "linkbudget",
                                 "--config", prototype_scene_path(),
                                 *required, f"{flag}={value}")
        assert code == 2
        assert out == ""
        payload = json.loads(err)["error"]
        assert payload["type"] == "validation"
        assert flag in payload["message"]


class TestSimulate:
    def test_greedy_group_reports_16_group_states(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "simulate",
                               "--config", prototype_scene_path(),
                               "--optimizer", "greedy",
                               "--granularity", "group",
                               "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["command"] == "simulate"
        states = report["outcome"]["config"]["group_states"]
        assert len(states) == 16
        assert set(states) <= {0, 1}
        assert report["outcome"]["objective_bps_hz"] > 0
        assert all(r > 0 for r in report["outcome"]["per_user_rate_bps_hz"])
        assert "objective" in err or err == "" or "simulate" in err

    @pytest.mark.parametrize("optimizer,extra", [
        ("greedy", []),
        ("random", ["--trials", "20"]),
        ("statistical", ["--samples", "10", "--k-factor-db", "8"]),
    ])
    def test_byte_identical_reruns(self, capsys, tmp_path, optimizer, extra):
        paths = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"report_{tag}.json"
            code, _, _ = run_cli(capsys, "simulate",
                                 "--config", prototype_scene_path(),
                                 "--optimizer", optimizer,
                                 "--granularity", "group",
                                 "--seed", "9", *extra,
                                 "--out", str(out_path))
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_nan_k_factor_is_validation_error(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "simulate",
                               "--config", small_scene_file(tmp_path),
                               "--optimizer", "statistical", "--samples", "4",
                               "--k-factor-db", "nan", "--out", str(out_path))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"
        assert not out_path.exists()

    @pytest.mark.parametrize("optimizer",
                             ["greedy", "exhaustive", "random", "statistical"])
    def test_negative_seed_is_validation_error(self, capsys, tmp_path, optimizer):
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "simulate",
                               "--config", small_scene_file(tmp_path),
                               "--optimizer", optimizer, "--seed", "-1",
                               "--out", str(out_path))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"
        assert not out_path.exists()

    @pytest.mark.parametrize("k_factor", ["inf", "-inf"])
    def test_infinite_k_factors_are_valid(self, capsys, tmp_path, k_factor):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "simulate",
                             "--config", small_scene_file(tmp_path),
                             "--optimizer", "statistical", "--samples", "4",
                             f"--k-factor-db={k_factor}", "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["outcome"]["objective_bps_hz"] > 0

    def test_degenerate_count_goes_to_stderr_only(self, capsys, tmp_path):
        """Two users at one point make every channel rank-deficient."""
        scene = small_scene_file(tmp_path, users=[[0.4, 0.2, 0.9], [0.4, 0.2, 0.9]])
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "simulate", "--config", scene,
                               "--optimizer", "exhaustive",
                               "--granularity", "group", "--out", str(out_path))
        assert code == 0
        assert "(4 evaluations, 4 degenerate)" in err
        text = out_path.read_text()
        assert "degenerate_evaluations" not in text
        assert json.loads(text)["outcome"]["degenerate_channel"] is True

    def test_exhaustive_on_small_scene(self, capsys, tmp_path):
        scene = small_scene_file(tmp_path)
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "simulate", "--config", scene,
                             "--optimizer", "exhaustive",
                             "--granularity", "group",
                             "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["outcome"]["evaluations"] == 4  # 2 groups, 2 states


class TestPattern:
    def test_csv_format_and_determinism(self, capsys, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"pattern_{tag}.csv"
            code, _, _ = run_cli(capsys, "pattern",
                                 "--config", prototype_scene_path(),
                                 "--side", "both",
                                 "--step-deg", "1",
                                 "--out", str(out_path))
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "angle_deg,power_db,side"
        assert len(lines) == 1 + 2 * 179
        sides = {line.split(",")[2] for line in lines[1:]}
        assert sides == {"reflection", "refraction"}

    def test_step_larger_than_range_degenerates(self, capsys, tmp_path):
        out_path = tmp_path / "single.csv"
        code, _, _ = run_cli(capsys, "pattern",
                             "--config", prototype_scene_path(),
                             "--side", "both", "--step-deg", "181",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3  # header + one broadside sample per side
        assert lines[1].startswith("0,")

    def test_side_filter_limits_rows(self, capsys, tmp_path):
        out_path = tmp_path / "refl.csv"
        code, _, _ = run_cli(capsys, "pattern",
                             "--config", prototype_scene_path(),
                             "--side", "reflection", "--step-deg", "5",
                             "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert rows and all(row.endswith(",reflection") for row in rows)

    @pytest.mark.parametrize("radius", ["nan", "inf", "0"])
    def test_bad_radius_is_validation_error(self, capsys, tmp_path, radius):
        out_path = tmp_path / "pattern.csv"
        code, _, err = run_cli(capsys, "pattern",
                               "--config", prototype_scene_path(),
                               "--radius-m", radius, "--out", str(out_path))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"
        assert not out_path.exists()

    @pytest.mark.parametrize("step", ["inf", "nan", "0"])
    def test_bad_step_is_validation_error(self, capsys, tmp_path, step):
        out_path = tmp_path / "pattern.csv"
        code, _, err = run_cli(capsys, "pattern",
                               "--config", prototype_scene_path(),
                               "--step-deg", step, "--out", str(out_path))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"
        assert not out_path.exists()


class TestCoverage:
    def test_csv_pgm_and_determinism(self, capsys, tmp_path):
        artifacts = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"map_{tag}.csv"
            pgm_path = tmp_path / f"map_{tag}.pgm"
            code, _, _ = run_cli(capsys, "coverage",
                                 "--config", prototype_scene_path(),
                                 "--grid=-1,1,-0.5,0.5,9,5",
                                 "--out", str(csv_path),
                                 "--pgm", str(pgm_path))
            assert code == 0
            artifacts.append((csv_path.read_bytes(), pgm_path.read_bytes()))
        assert artifacts[0] == artifacts[1]
        lines = artifacts[0][0].decode().splitlines()
        assert lines[0] == "x_m,y_m,se_bps_hz,side"
        assert len(lines) == 1 + 9 * 5
        masked = [ln for ln in lines[1:] if ln.startswith("0,")]
        assert masked and all(ln.endswith(",none") for ln in masked)
        assert artifacts[0][1].startswith(b"P5\n9 5\n255\n")
        assert len(artifacts[0][1]) == len(b"P5\n9 5\n255\n") + 9 * 5

    def test_bad_grid_is_validation_error(self, capsys, tmp_path):
        for grid in ("1,2,3", "nan,2,-2,2,3,3", "-2,inf,-2,2,3,3"):
            out_path = tmp_path / "x.csv"
            code, _, err = run_cli(capsys, "coverage",
                                   "--config", prototype_scene_path(),
                                   f"--grid={grid}",
                                   "--out", str(out_path))
            assert code == 2, grid
            assert json.loads(err)["error"]["type"] == "validation"
            assert not out_path.exists()


class TestOracle:
    def test_small_scene_prints_json(self, capsys, tmp_path):
        scene = small_scene_file(tmp_path)
        code, out, _ = run_cli(capsys, "oracle", "--config", scene,
                               "--granularity", "group")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "oracle"
        assert payload["evaluations"] == 4

    def test_guard_refusal_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "oracle",
                               "--config", prototype_scene_path(),
                               "--granularity", "element")
        assert code == 4
        assert json.loads(err)["error"]["type"] == "guard"


class TestSceneErrors:
    def test_amp_out_of_range(self, capsys, tmp_path):
        scene = small_scene_file(tmp_path, state_table=[
            {"reflection": {"amp": 1.2, "phase_deg": 0.0},
             "refraction": {"amp": 0.3, "phase_deg": 0.0}}])
        code, _, err = run_cli(capsys, "linkbudget", "--config", scene,
                               "--ios-gain-db", "0")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["type"] == "validation"
        assert "state_table[0]" in payload["error"]["message"]

    def test_missing_users(self, capsys, tmp_path):
        scene = small_scene_file(tmp_path, users=[])
        code, _, err = run_cli(capsys, "linkbudget", "--config", scene,
                               "--ios-gain-db", "0")
        assert code == 2
        assert "user" in json.loads(err)["error"]["message"]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        scene = small_scene_file(tmp_path, fading={"k": 3})
        code, _, err = run_cli(capsys, "linkbudget", "--config", scene,
                               "--ios-gain-db", "0")
        assert code == 2
        assert "fading" in json.loads(err)["error"]["message"]

    def test_passivity_failure_rejected(self, capsys, tmp_path):
        scene = small_scene_file(tmp_path, state_table=[
            {"reflection": {"amp": 0.9, "phase_deg": 0.0},
             "refraction": {"amp": 0.9, "phase_deg": 0.0}}])
        code, _, err = run_cli(capsys, "linkbudget", "--config", scene,
                               "--ios-gain-db", "0")
        assert code == 2
        assert "passivity" in json.loads(err)["error"]["message"]

    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--bogus", "1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"

    def test_too_many_users_exits_3(self, capsys, tmp_path):
        scene = small_scene_file(tmp_path,
                                 bs={"antennas": [[0.3, 0.1, 1.4]]},
                                 users=[[0.4, 0.2, -0.9], [-0.3, 0.1, 1.0],
                                        [0.2, -0.4, 0.8]])
        code, _, err = run_cli(capsys, "simulate", "--config", scene,
                               "--optimizer", "greedy",
                               "--granularity", "group",
                               "--out", str(tmp_path / "r.json"))
        assert code == 3
        payload = json.loads(err)
        assert payload["error"]["type"] == "numerical"
        assert "too many users" in payload["error"]["message"]


class TestCrossProcessDeterminism:
    def test_fresh_interpreters_produce_identical_reports(self, tmp_path):
        """Guards against hash-order or interpreter-state leaking into
        artifacts; complements the in-process determinism checks."""
        outputs = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"report_{tag}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "omnisim.cli", "simulate",
                 "--config", prototype_scene_path(),
                 "--optimizer", "random", "--granularity", "group",
                 "--seed", "4", "--trials", "15", "--out", str(out_path)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]


class TestThreadsEnv:
    def test_invalid_thread_count_rejected(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("OMNISIM_THREADS", "zero")
        code, _, err = run_cli(capsys, "coverage",
                               "--config", prototype_scene_path(),
                               "--grid=-1,1,-1,1,3,3",
                               "--out", str(tmp_path / "m.csv"))
        assert code == 2
        assert "OMNISIM_THREADS" in json.loads(err)["error"]["message"]

    def test_thread_cap_preserves_artifact(self, capsys, tmp_path,
                                           monkeypatch):
        outputs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("OMNISIM_THREADS", threads)
            path = tmp_path / f"map_{threads}.csv"
            code, _, _ = run_cli(capsys, "coverage",
                                 "--config", prototype_scene_path(),
                                 "--grid=-1,1,-0.5,0.5,7,4",
                                 "--out", str(path))
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestRoundTrip:
    def test_parse_serialize_parse_identical(self, tmp_path, prototype):
        from omnisim import parse_scene, write_scene
        copy_path = tmp_path / "copy.json"
        write_scene(prototype, copy_path)
        reparsed = parse_scene(copy_path)
        assert reparsed.raw == prototype.raw
        assert np.array_equal(reparsed.scene.users, prototype.scene.users)
        assert np.array_equal(reparsed.scene.bs_antennas,
                              prototype.scene.bs_antennas)
        assert reparsed.table == prototype.table

    def test_omitted_blocks_resolve_to_defaults_and_round_trip(self, tmp_path):
        from omnisim import parse_scene, write_scene
        path = small_scene_file(tmp_path)  # no gains/options blocks
        parsed = parse_scene(path)
        assert parsed.raw["gains"] == {"tx_db": 0.0, "rx_db": 0.0,
                                       "lna_db": 0.0}
        assert parsed.raw["options"] == {"direct_path": False,
                                         "plane_wave": False,
                                         "element_factor_q": 0.0}
        copy_path = tmp_path / "resolved.json"
        write_scene(parsed, copy_path)
        assert parse_scene(copy_path).raw == parsed.raw
