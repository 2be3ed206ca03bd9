"""Scene file ingestion.

Scene files are strict JSON: unknown keys are rejected everywhere, units are
spelled out in key suffixes, phases are degrees at this boundary only.

The key tables below are the one definition of the format.  Each JSON
object has a table that maps its keys, in canonical order, to ``(parser,)``
for a required key or ``(parser, default)`` for an optional one; a default
of None leaves an absent key absent.  A default goes through the same parser
as a given value, and an explicit JSON ``null`` is never read as absent.
Parsing a document gives its canonical dict (defaults resolved, keys in
table order), which the ``simulate`` report embeds; parsing that dict again
gives the same dict and identical domain objects.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .channel import Scene
from .elements import CoefficientPair, StateTable, validate_table
from .errors import (OmnisimError, Record, ValidationError, require_choice, require_int,
                     require_real)
from .geometry import PanelSpec


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
    return require_real(f"{path}:", obj)  # "<path>: must be a real number ..."


def _integer(obj, path: str) -> int:
    return require_int(f"{path}:", obj, 1)  # every integer of the format is a count


def _boolean(obj, path: str) -> bool:
    return require_choice(obj, bool, f"{path}: expected a boolean")


def _vec3(obj, path: str) -> list[float]:
    if not isinstance(obj, list) or len(obj) != 3:
        _fail(path, f"expected [x, y, z], got {obj!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _list_of(item, message: str):
    """Parser of a non-empty JSON list whose entries ``item`` parses."""
    def parse(obj, path: str) -> list:
        if not isinstance(obj, list) or not obj:
            _fail(path, message)
        return [item(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    return parse


def _block(table: dict):
    """Parser of a JSON object declared by a key table (module docstring)."""
    required = tuple(key for key, spec in table.items() if len(spec) == 1)
    optional = tuple(key for key, spec in table.items() if len(spec) == 2)

    def parse(obj, path: str) -> dict:
        _check_keys(obj, path, required, optional)
        out = {}
        for key, (parser, *default) in table.items():
            if key in obj:
                out[key] = parser(obj[key], f"{path}.{key}")
            elif default[0] is not None:  # required keys are never absent here
                out[key] = parser(default[0], f"{path}.{key}")
        return out
    return parse


_PANEL = {"rows": (_integer,), "cols": (_integer,), "dx_m": (_number,),
          "dy_m": (_number,), "group_rows": (_integer,),
          "group_cols": (_integer,), "center": (_vec3,), "normal": (_vec3,)}
_COEFFICIENT = {"amp": (_number,), "phase_deg": (_number,)}
_STATE = {"reflection": (_block(_COEFFICIENT),),
          "refraction": (_block(_COEFFICIENT),),
          "declared_power_r": (_number, None),
          "declared_power_t": (_number, None)}
_BS = {"antennas": (_list_of(_vec3, "at least one BS antenna required"),)}
_POWER = {"tx_dbm": (_number,), "bandwidth_hz": (_number,),
          "noise_figure_db": (_number,)}
_GAINS = {"tx_db": (_number, 0.0), "rx_db": (_number, 0.0),
          "lna_db": (_number, 0.0)}
_OPTIONS = {"direct_path": (_boolean, False), "plane_wave": (_boolean, False),
            "element_factor_q": (_number, 0.0)}
_SCENE = {
    "frequency_hz": (_number,),
    "panel": (_block(_PANEL),),
    "state_table": (_list_of(_block(_STATE),
                             "expected a non-empty list of states"),),
    "bs": (_block(_BS),),
    "users": (_list_of(_vec3, "at least one user required"),),
    "power": (_block(_POWER),),
    "gains": (_block(_GAINS), {}),
    "options": (_block(_OPTIONS), {}),
}
_parse_document = _block(_SCENE)


class ParsedScene(Record):
    """Validated domain objects plus the canonical (defaults-resolved) dict."""

    def __init__(self, scene: Scene, table: StateTable, raw: dict):
        object.__setattr__(self, "scene", scene)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "raw", raw)

    @property
    def panel(self) -> PanelSpec:
        return self.scene.panel


def parse_scene_dict(data: dict, source: str = "<dict>") -> ParsedScene:
    """Validate a scene document and build the domain objects."""
    raw = _parse_document(data, source)
    try:
        panel = PanelSpec(**{key.removesuffix("_m"): value
                             for key, value in raw["panel"].items()})
    except ValidationError as exc:
        _fail(f"{source}.panel", str(exc))

    states = []
    for i, entry in enumerate(raw["state_table"]):
        r, t = entry["reflection"], entry["refraction"]
        try:
            states.append(CoefficientPair(
                reflection_amp=r["amp"], reflection_phase=math.radians(r["phase_deg"]),
                refraction_amp=t["amp"], refraction_phase=math.radians(t["phase_deg"]),
                declared_reflection_power=entry.get("declared_power_r"),
                declared_refraction_power=entry.get("declared_power_t"),
            ))
        except ValidationError as exc:
            _fail(f"{source}.state_table[{i}]", str(exc))
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

    power, gains, options = raw["power"], raw["gains"], raw["options"]
    try:
        scene = Scene(
            frequency_hz=raw["frequency_hz"], panel=panel,
            bs_antennas=raw["bs"]["antennas"], users=raw["users"],
            tx_power_dbm=power["tx_dbm"], bandwidth_hz=power["bandwidth_hz"],
            noise_figure_db=power["noise_figure_db"],
            tx_gain_db=gains["tx_db"], rx_gain_db=gains["rx_db"],
            lna_gain_db=gains["lna_db"],
            direct_path=options["direct_path"],
            plane_wave_incidence=options["plane_wave"],
            element_factor_q=options["element_factor_q"],
        )
    except OmnisimError as exc:
        _fail(source, str(exc))
    return ParsedScene(scene=scene, table=table, raw=raw)


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
