"""Scene file ingestion.

Scene files are strict JSON: unknown keys are rejected everywhere, units are
spelled out in key suffixes, phases are degrees at this boundary only.  A
parsed scene keeps its canonical dict (defaults resolved), which the
``simulate`` report embeds; parsing that dict again gives the same dict and
identical domain objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .channel import Scene
from .elements import CoefficientPair, StateTable, validate_table
from .errors import OmnisimError, ValidationError
from .geometry import PanelSpec

_PANEL_KEYS = ("rows", "cols", "dx_m", "dy_m", "group_rows", "group_cols",
               "center", "normal")
_POWER_KEYS = ("tx_dbm", "bandwidth_hz", "noise_figure_db")
_GAIN_KEYS = ("tx_db", "rx_db", "lna_db")
_OPTION_KEYS = ("direct_path", "plane_wave", "element_factor_q")


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        _fail(path, f"missing required key(s) {missing}")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected a number, got {obj!r}")
    if not math.isfinite(obj):
        _fail(path, f"expected a finite number, got {obj!r}")
    return float(obj)


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, f"expected an integer, got {obj!r}")
    return obj


def _boolean(obj, path: str) -> bool:
    if not isinstance(obj, bool):
        _fail(path, f"expected a boolean, got {obj!r}")
    return obj


def _vec3(obj, path: str) -> list[float]:
    if not isinstance(obj, list) or len(obj) != 3:
        _fail(path, f"expected [x, y, z], got {obj!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _coefficient(obj, path: str) -> tuple[float, float]:
    _check_keys(obj, path, required=("amp", "phase_deg"))
    amp = _number(obj["amp"], f"{path}.amp")
    phase = _number(obj["phase_deg"], f"{path}.phase_deg")
    return amp, phase


@dataclass(frozen=True, eq=False)
class ParsedScene:
    """Validated domain objects plus the canonical (defaults-resolved) dict."""

    scene: Scene
    table: StateTable
    raw: dict

    @property
    def panel(self) -> PanelSpec:
        return self.scene.panel


def parse_scene_dict(data: dict, source: str = "<dict>") -> ParsedScene:
    """Validate a scene document and build the domain objects."""
    _check_keys(data, source,
                required=("frequency_hz", "panel", "state_table", "bs",
                          "users", "power"),
                optional=("gains", "options"))
    frequency = _number(data["frequency_hz"], f"{source}.frequency_hz")

    panel_obj = data["panel"]
    _check_keys(panel_obj, f"{source}.panel", required=_PANEL_KEYS)
    try:
        panel = PanelSpec(
            center=_vec3(panel_obj["center"], f"{source}.panel.center"),
            normal=_vec3(panel_obj["normal"], f"{source}.panel.normal"),
            rows=_integer(panel_obj["rows"], f"{source}.panel.rows"),
            cols=_integer(panel_obj["cols"], f"{source}.panel.cols"),
            dx=_number(panel_obj["dx_m"], f"{source}.panel.dx_m"),
            dy=_number(panel_obj["dy_m"], f"{source}.panel.dy_m"),
            group_rows=_integer(panel_obj["group_rows"], f"{source}.panel.group_rows"),
            group_cols=_integer(panel_obj["group_cols"], f"{source}.panel.group_cols"),
        )
    except ValidationError as exc:
        _fail(f"{source}.panel", str(exc))

    table_obj = data["state_table"]
    if not isinstance(table_obj, list) or not table_obj:
        _fail(f"{source}.state_table", "expected a non-empty list of states")
    states = []
    for i, entry in enumerate(table_obj):
        path = f"{source}.state_table[{i}]"
        _check_keys(entry, path, required=("reflection", "refraction"),
                    optional=("declared_power_r", "declared_power_t"))
        r_amp, r_phase = _coefficient(entry["reflection"], f"{path}.reflection")
        t_amp, t_phase = _coefficient(entry["refraction"], f"{path}.refraction")
        declared_r = (_number(entry["declared_power_r"], f"{path}.declared_power_r")
                      if "declared_power_r" in entry else None)
        declared_t = (_number(entry["declared_power_t"], f"{path}.declared_power_t")
                      if "declared_power_t" in entry else None)
        try:
            states.append(CoefficientPair(
                reflection_amp=r_amp, reflection_phase=math.radians(r_phase),
                refraction_amp=t_amp, refraction_phase=math.radians(t_phase),
                declared_reflection_power=declared_r,
                declared_refraction_power=declared_t,
            ))
        except ValidationError as exc:
            _fail(path, str(exc))
    table = StateTable(states=tuple(states))
    report = validate_table(table)
    for entry in report.failures():
        path = f"{source}.state_table[{entry.index}]"
        if not entry.passivity_ok:
            _fail(path, f"passivity violated: reflected + refracted power "
                        f"= {entry.power_sum:.4f} > 1")
        _fail(path, "declared power inconsistent with amplitude"
                    f" (residuals r={entry.reflection_power_residual},"
                    f" t={entry.refraction_power_residual})")

    bs_obj = data["bs"]
    _check_keys(bs_obj, f"{source}.bs", required=("antennas",))
    antennas = bs_obj["antennas"]
    if not isinstance(antennas, list) or not antennas:
        _fail(f"{source}.bs.antennas", "at least one BS antenna required")
    bs = [_vec3(a, f"{source}.bs.antennas[{i}]") for i, a in enumerate(antennas)]

    users_obj = data["users"]
    if not isinstance(users_obj, list) or not users_obj:
        _fail(f"{source}.users", "at least one user required")
    users = [_vec3(u, f"{source}.users[{i}]") for i, u in enumerate(users_obj)]

    power_obj = data["power"]
    _check_keys(power_obj, f"{source}.power", required=_POWER_KEYS)
    tx_dbm = _number(power_obj["tx_dbm"], f"{source}.power.tx_dbm")
    bandwidth = _number(power_obj["bandwidth_hz"], f"{source}.power.bandwidth_hz")
    noise_figure = _number(power_obj["noise_figure_db"],
                           f"{source}.power.noise_figure_db")

    gains_obj = data.get("gains", {})
    _check_keys(gains_obj, f"{source}.gains", required=(), optional=_GAIN_KEYS)
    tx_gain = _number(gains_obj.get("tx_db", 0.0), f"{source}.gains.tx_db")
    rx_gain = _number(gains_obj.get("rx_db", 0.0), f"{source}.gains.rx_db")
    lna_gain = _number(gains_obj.get("lna_db", 0.0), f"{source}.gains.lna_db")

    options_obj = data.get("options", {})
    _check_keys(options_obj, f"{source}.options", required=(),
                optional=_OPTION_KEYS)
    direct_path = _boolean(options_obj.get("direct_path", False),
                           f"{source}.options.direct_path")
    plane_wave = _boolean(options_obj.get("plane_wave", False),
                          f"{source}.options.plane_wave")
    factor_q = _number(options_obj.get("element_factor_q", 0.0),
                       f"{source}.options.element_factor_q")

    try:
        scene = Scene(
            frequency_hz=frequency, panel=panel,
            bs_antennas=np.array(bs, dtype=float),
            users=np.array(users, dtype=float),
            tx_power_dbm=tx_dbm, bandwidth_hz=bandwidth,
            noise_figure_db=noise_figure,
            tx_gain_db=tx_gain, rx_gain_db=rx_gain, lna_gain_db=lna_gain,
            direct_path=direct_path, plane_wave_incidence=plane_wave,
            element_factor_q=factor_q,
        )
    except OmnisimError as exc:
        _fail(source, str(exc))

    raw = {
        "frequency_hz": frequency,
        "panel": {
            "rows": panel.rows, "cols": panel.cols,
            "dx_m": panel.dx, "dy_m": panel.dy,
            "group_rows": panel.group_rows, "group_cols": panel.group_cols,
            "center": [float(x) for x in panel.center],
            "normal": [float(x) for x in panel.normal],
        },
        "state_table": [
            _state_dict(entry) for entry in table_obj
        ],
        "bs": {"antennas": bs},
        "users": users,
        "power": {"tx_dbm": tx_dbm, "bandwidth_hz": bandwidth,
                  "noise_figure_db": noise_figure},
        "gains": {"tx_db": tx_gain, "rx_db": rx_gain, "lna_db": lna_gain},
        "options": {"direct_path": direct_path, "plane_wave": plane_wave,
                    "element_factor_q": factor_q},
    }
    return ParsedScene(scene=scene, table=table, raw=raw)


def _state_dict(entry: dict) -> dict:
    out = {
        "reflection": {"amp": float(entry["reflection"]["amp"]),
                       "phase_deg": float(entry["reflection"]["phase_deg"])},
        "refraction": {"amp": float(entry["refraction"]["amp"]),
                       "phase_deg": float(entry["refraction"]["phase_deg"])},
    }
    if "declared_power_r" in entry:
        out["declared_power_r"] = float(entry["declared_power_r"])
    if "declared_power_t" in entry:
        out["declared_power_t"] = float(entry["declared_power_t"])
    return out


def parse_scene(path) -> ParsedScene:
    """Load and validate a scene file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scene file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    return parse_scene_dict(data, source=str(path))


def prototype_scene_path() -> str:
    """Filesystem path of the bundled prototype scene."""
    return str(resources.files("omnisim").joinpath("data/prototype.json"))


def load_prototype() -> ParsedScene:
    return parse_scene(prototype_scene_path())
