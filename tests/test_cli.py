import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from omnisim import ValidationError, parse_scene_dict, prototype_scene_path
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


# Leaf paths of the prototype document, as key/index tuples.
SCENE_LEAVES = (
    [("panel", key) for key in ("rows", "cols", "dx_m", "dy_m", "group_rows",
                                "group_cols", "center", "normal")]
    + [("panel", vec, i) for vec in ("center", "normal") for i in range(3)]
    + [("state_table", 0, "reflection", "amp"), ("bs", "antennas", 0, 1),
       ("users", 1, 2)]
    + [("power", key) for key in ("tx_dbm", "bandwidth_hz", "noise_figure_db")]
    + [("gains", key) for key in ("tx_db", "rx_db", "lna_db")]
    + [("options", key) for key in ("direct_path", "plane_wave", "element_factor_q")]
)


OPTIONAL_VALUES = {"tx_db": st.floats(-30, 30), "rx_db": st.floats(-30, 30),
                   "lna_db": st.floats(-30, 30), "direct_path": st.booleans(),
                   "plane_wave": st.booleans(), "element_factor_q": st.floats(0, 4)}


def leaf_name(leaf) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in leaf)[1:]


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

    @pytest.mark.parametrize("optimizer",
                             ["greedy", "exhaustive", "random", "statistical"])
    @pytest.mark.parametrize("flag", ["--sweeps", "--trials", "--samples"])
    @pytest.mark.parametrize("value", ["0", "-1", "2.5"])
    def test_non_positive_count_is_validation_error(self, capsys, tmp_path, optimizer,
                                                    flag, value):
        """Every optimizer rejects the count flags, used or not: the report
        records them all."""
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "simulate",
                               "--config", small_scene_file(tmp_path),
                               "--optimizer", optimizer, flag, value,
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

    def test_k_factor_beyond_the_float_range_is_refused(self, capsys, tmp_path):
        """A finite K whose linear value overflows is a validation error, not
        an OverflowError from the fading draws."""
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "simulate",
                               "--config", small_scene_file(tmp_path),
                               "--optimizer", "statistical", "--samples", "4",
                               "--k-factor-db", "4000", "--out", str(out_path))
        assert code == 2
        payload = json.loads(err)["error"]
        assert payload["type"] == "validation"
        assert "k_factor_db as a linear value must be a real number" in payload["message"]
        assert not out_path.exists()

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



FAR = "has a coordinate beyond 1e+150 m"
FAR_PANEL = {"rows": 2, "cols": 4, "dx_m": 0.04, "dy_m": 0.04, "group_rows": 2,
             "group_cols": 2, "center": [1e200, 0, 0], "normal": [0, 0, 1.0]}


class TestFarPoints:
    @pytest.mark.parametrize("argv, overrides, message", [
        (["simulate", "--optimizer", "greedy"],
         {"users": [[0.4, 0.2, -0.9], [-0.3, 0.1, 1e200]]},
         f"users: point 1 at [-0.3, 0.1, 1e+200] {FAR}"),
        (["pattern", "--radius-m", "1e200"], {},
         "eval_radius must be a real number that is at least 2e-09 and at most 3.57"),
        (["coverage", "--grid=1e200,1e200,0,0,1,1"], {},
         f"field points: point 0 at [0.0, 0.0, 1e+200] {FAR}"),
        (["coverage", "--grid=-1e308,1e308,-1,1,3,3"], {},
         "grid span must be a real number that is finite, got inf"),
        (["simulate", "--optimizer", "greedy"], {"panel": FAR_PANEL},
         f"layout positions: point 0 at [1e+200, -0.02, 0.0] {FAR}")],
        ids=["user", "pattern radius", "coverage grid", "coverage span", "panel centre"])
    def test_far_point_exits_2_without_artifact(self, capsys, tmp_path, argv, overrides,
                                                message):
        """A point whose squared distance would overflow is refused by name
        where it enters, not scored as a run of degenerate rates, a map of
        zeros or a pattern of -inf dB; a pattern radius beyond 2^32
        wavelengths, or a coverage grid whose span overflows, is refused
        before any probe or cell is placed, with no numpy warning."""
        scene = small_scene_file(tmp_path, **overrides)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run_cli(capsys, argv[0], "--config", scene, *argv[1:],
                                 "--out", str(out_dir / "artifact"))
        assert code == 2 and out == ""
        payload = json.loads(err)["error"]
        assert payload["type"] == "validation"
        assert message in payload["message"]
        assert list(out_dir.iterdir()) == []


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

    def test_malformed_grid_exits_2_without_artifact(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "coverage", "--config", prototype_scene_path(),
                               "--grid=1,2,3", "--out", str(tmp_path / "out.csv"),
                               "--pgm", str(tmp_path / "map.pgm"))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"
        assert list(tmp_path.iterdir()) == []


# The numeric flags of every subcommand, each with the probe values it takes;
# a coverage grid field is a flag of its own here.
PROBE_VALUES = ("nan", "inf", "-inf", "0", "-1")
# Probes of one flag only: pattern steps that would ask for more than 2^20 probes,
# and pattern radii that put every probe in the panel plane or beyond 2^32
# wavelengths.
FLAG_PROBES = {"--step-deg": ("1e-12", "1e-300"), "--radius-m": ("1e-12", "1e149")}
NUMERIC_FLAGS = {
    "simulate": {"--seed": {"0"}, "--sweeps": set(), "--trials": set(), "--samples": set(),
                 "--k-factor-db": {"inf", "-inf", "0", "-1"}},
    "pattern": {"--step-deg": set(), "--radius-m": set()},
    "coverage": {**dict.fromkeys(("x0", "x1", "y0", "y1"), {"0", "-1"}),
                 "nx": set(), "ny": set()},
    "linkbudget": dict.fromkeys(("--ios-gain-db", "--tx-ios-db", "--ios-rx-db"), {"0", "-1"}),
}
GRID_FIELDS = ("x0", "x1", "y0", "y1", "nx", "ny")


def probes(flag: str) -> tuple[str, ...]:
    return PROBE_VALUES + FLAG_PROBES.get(flag, ())


@st.composite
def numeric_flag_runs(draw):
    """A subcommand and probe values for one or more of its numeric flags."""
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    flags = draw(st.sets(st.sampled_from(sorted(NUMERIC_FLAGS[command])), min_size=1))
    return command, {flag: draw(st.sampled_from(probes(flag))) for flag in sorted(flags)}


def with_each_value_alone(test):
    """``test`` with one explicit example per (numeric flag, probe value)."""
    for command, flags in NUMERIC_FLAGS.items():
        for flag in flags:
            for value in probes(flag):
                test = example(run=(command, {flag: value}))(test)
    return test


class TestNumericFlags:
    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        return small_scene_file(tmp_path_factory.mktemp("scene"))

    @given(numeric_flag_runs())
    @with_each_value_alone
    def test_invalid_value_exits_2_without_artifact(self, scene, run):
        """Every numeric flag, given NaN, +-inf, 0 or -1 (and the pattern step
        1e-12 or 1e-300, the pattern radius 1e-12 or 1e149) alone or with others:
        exit 2 and no artifact when any value is out of its flag's range (or
        the grid's extents are reversed), otherwise exit 0 and an artifact."""
        command, values = run
        valid = all(value in NUMERIC_FLAGS[command][flag] for flag, value in values.items())
        grid = dict(zip(GRID_FIELDS, ("-1", "1", "-1", "1", "3", "3")), **values)
        if command == "coverage" and valid:
            valid = (float(grid["x0"]) <= float(grid["x1"])
                     and float(grid["y0"]) <= float(grid["y1"]))
        with tempfile.TemporaryDirectory() as tmp:
            out_path = Path(tmp) / "out"
            argv = {"simulate": ["--optimizer", "statistical", "--sweeps", "2",
                                 "--trials", "4", "--samples", "4", "--out", str(out_path)],
                    "pattern": ["--step-deg", "30", "--out", str(out_path)],
                    "coverage": ["--grid=" + ",".join(grid[f] for f in GRID_FIELDS),
                                 "--out", str(out_path), "--pgm", str(Path(tmp) / "map.pgm")],
                    "linkbudget": ["--ios-gain-db", "0"]}[command]
            # flag=value, so argparse does not read "-inf" as an option; the
            # last value of a repeated flag wins
            argv += [f"{flag}={value}" for flag, value in values.items() if flag.startswith("-")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", scene, *argv])
            artifacts = sorted(path.name for path in Path(tmp).iterdir())
        if valid:
            assert code == 0, err.getvalue()
            assert artifacts or out.getvalue()
        else:
            assert code == 2
            assert json.loads(err.getvalue())["error"]["type"] == "validation"
            assert artifacts == [] and out.getvalue() == ""


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

    @pytest.mark.parametrize("leaf", SCENE_LEAVES, ids=leaf_name)
    def test_wrong_value_names_its_leaf_once(self, prototype, leaf):
        """A wrong value anywhere is reported once, at its own path."""
        *parents, last = leaf
        original = prototype.raw
        for p in leaf:
            original = original[p]
        for value in (float("nan"), float("inf"), None, "1",
                      1 if isinstance(original, bool) else True):
            doc = copy.deepcopy(prototype.raw)
            node = doc
            for p in parents:
                node = node[p]
            node[last] = value
            with pytest.raises(ValidationError) as info:
                parse_scene_dict(doc, source="S")
            message = str(info.value)
            assert message.startswith(f"S.{leaf_name(leaf)}: "), (value, message)
            assert message.count("S.") == 1, (value, message)

    @pytest.mark.parametrize("key, value", [("tx_dbm", 1e4), ("noise_figure_db", 1e4),
                                            ("noise_figure_db", -1e4)])
    def test_power_beyond_the_float_range_is_refused(self, capsys, tmp_path, key, value):
        """A power whose watts overflow to inf or underflow to 0 W is refused
        up front, not an OverflowError or a run of degenerate rates of 0."""
        power = {"tx_dbm": 20.0, "bandwidth_hz": 1e6, "noise_figure_db": 5.0, key: value}
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "simulate",
                               "--config", small_scene_file(tmp_path, power=power),
                               "--optimizer", "exhaustive", "--out", str(out_path))
        assert code == 2
        payload = json.loads(err)["error"]
        assert payload["type"] == "validation"
        assert "_power_w must be a real number that is positive and finite" in payload["message"]
        assert not out_path.exists()

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
    @pytest.mark.parametrize("raw", ["zero", "0", "-1", "1.5"])
    def test_invalid_thread_count_rejected(self, capsys, tmp_path,
                                           monkeypatch, raw):
        monkeypatch.setenv("OMNISIM_THREADS", raw)
        code, _, err = run_cli(capsys, "coverage",
                               "--config", prototype_scene_path(),
                               "--grid=-1,1,-1,1,3,3",
                               "--out", str(tmp_path / "m.csv"))
        assert code == 2
        message = json.loads(err)["error"]["message"]
        assert message == f"OMNISIM_THREADS must be a positive integer, got {raw!r}"

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


    @pytest.mark.parametrize("threads, pooled", [("1", False), ("2", True)])
    def test_pool_is_imported_only_for_more_than_one_thread(self, tmp_path, threads,
                                                            pooled):
        """``concurrent.futures`` and the logging it loads cost every CLI
        process import time; only a coverage map on 2+ threads needs them."""
        run = ("import sys, omnisim.cli\n"
               f"code = omnisim.cli.main(['coverage', '--config', {prototype_scene_path()!r},"
               f" '--grid=-1,1,-1,1,3,3', '--out', {str(tmp_path / 'm.csv')!r}])\n"
               "print(code, 'concurrent.futures' in sys.modules)")
        child = subprocess.run([sys.executable, "-c", run], capture_output=True, text=True,
                               env={**os.environ, "OMNISIM_THREADS": threads})
        assert child.stdout.split() == ["0", str(pooled)], child.stderr


class TestRoundTrip:
    def test_canonical_dict_reparses_to_itself(self, tmp_path, prototype):
        from omnisim import parse_scene, parse_scene_dict
        assert parse_scene_dict(prototype.raw).raw == prototype.raw
        parsed = parse_scene(small_scene_file(tmp_path))  # no gains/options blocks
        assert parsed.raw["gains"] == {"tx_db": 0.0, "rx_db": 0.0,
                                       "lna_db": 0.0}
        assert parsed.raw["options"] == {"direct_path": False,
                                         "plane_wave": False,
                                         "element_factor_q": 0.0}
        assert parse_scene_dict(parsed.raw).raw == parsed.raw

    @given(st.data())
    def test_canonical_dict_is_a_fixed_point_in_key_order(self, prototype, data):
        """Whatever optional keys a document gives, in whatever order, its
        canonical dict reparses to itself and lists every block's keys in
        format order (the simulate report embeds it, so key order is report
        bytes)."""
        doc = copy.deepcopy(prototype.raw)
        doc = {key: doc[key] for key in data.draw(st.permutations(list(doc)))}
        doc["panel"] = {key: doc["panel"][key]
                        for key in data.draw(st.permutations(list(doc["panel"])))}
        for block in ("gains", "options"):
            if not data.draw(st.booleans(), label=f"has {block}"):
                del doc[block]
                continue
            keys = data.draw(st.lists(st.sampled_from(list(doc[block])), unique=True),
                             label=f"{block} keys")
            doc[block] = {key: data.draw(OPTIONAL_VALUES[key], label=key)
                          for key in keys}
        for state in doc["state_table"]:
            for key in ("declared_power_r", "declared_power_t"):
                if not data.draw(st.booleans(), label=key):
                    del state[key]
        raw = parse_scene_dict(doc).raw
        again = parse_scene_dict(raw).raw
        assert again == raw and json.dumps(again) == json.dumps(raw)
        assert list(raw) == ["frequency_hz", "panel", "state_table", "bs",
                             "users", "power", "gains", "options"]
        assert list(raw["panel"]) == ["rows", "cols", "dx_m", "dy_m", "group_rows",
                                      "group_cols", "center", "normal"]
        for given_state, state in zip(doc["state_table"], raw["state_table"]):
            assert list(state) == [key for key in ("reflection", "refraction",
                                                   "declared_power_r",
                                                   "declared_power_t")
                                   if key in given_state]
            for side in ("reflection", "refraction"):
                assert list(state[side]) == ["amp", "phase_deg"]
        assert list(raw["bs"]) == ["antennas"]
        assert list(raw["power"]) == ["tx_dbm", "bandwidth_hz", "noise_figure_db"]
        assert raw["gains"] == {"tx_db": 0.0, "rx_db": 0.0, "lna_db": 0.0,
                                **doc.get("gains", {})}
        assert list(raw["gains"]) == ["tx_db", "rx_db", "lna_db"]
        assert raw["options"] == {"direct_path": False, "plane_wave": False,
                                  "element_factor_q": 0.0, **doc.get("options", {})}
        assert list(raw["options"]) == ["direct_path", "plane_wave", "element_factor_q"]

    @pytest.mark.parametrize("scene", ["prototype", "small"])
    def test_simulate_report_scene_reparses_identically(self, tmp_path, capsys,
                                                        scene):
        from omnisim import parse_scene, parse_scene_dict
        path = (prototype_scene_path() if scene == "prototype"
                else small_scene_file(tmp_path))
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "simulate", "--config", path,
                             "--optimizer", "greedy", "--out", str(report_path))
        assert code == 0
        embedded = json.loads(report_path.read_text())["scene"]
        reparsed, original = parse_scene_dict(embedded), parse_scene(path)
        assert np.array_equal(reparsed.scene.users, original.scene.users)
        assert np.array_equal(reparsed.scene.bs_antennas,
                              original.scene.bs_antennas)
        assert reparsed.table == original.table
