"""The public API stays small (``omnisim.__all__`` is the whole of it), and
each input check and array conversion has one owner in ``errors``."""

import ast
import copy
import dataclasses
import inspect
import math
import subprocess
import sys
from enum import Enum
from functools import cached_property, partial
from pathlib import Path

import numpy as np
import pytest

import omnisim
from omnisim import (BeamformerResult, ChannelGeometry, CoefficientPair, Configuration,
                     CoverageGrid, CoverageMap, ElementLayout, FadingModel, Granularity,
                     LinkBudgetChain, OptimizationOutcome, PanelSpec, ParsedScene,
                     PatternSweep, RateResult, Scene, Side, StateTable, ValidationError,
                     build_layout, channel_geometry, coverage_map, evaluate_rates,
                     exhaustive_optimize, friis_gain, greedy_optimize, noise_power,
                     parse_scene_dict, quantize_phase, radiation_pattern, random_baseline,
                     side_of, statistical_optimize, validate_table, zf_precoder)
from omnisim.analysis import pattern_power
from omnisim.channel import FadingRealization, draw_realizations
from omnisim.elements import StateValidation, TableValidation
from omnisim.errors import Record

MAX_PUBLIC_NAMES = 50  # ROADMAP: the public API gets smaller, not larger


def test_public_api_is_bounded_and_resolves():
    names = set(omnisim.__all__)
    assert len(names) == len(omnisim.__all__), "duplicate names in __all__"
    assert len(names) <= MAX_PUBLIC_NAMES
    missing = [name for name in names if not hasattr(omnisim, name)]
    assert not missing


def source_trees():
    """(file name, AST) of every package module but ``errors.py``."""
    for path in sorted(Path(omnisim.__file__).parent.glob("*.py")):
        if path.name != "errors.py":
            yield path.name, ast.parse(path.read_text(), str(path))


def source_tree(name: str):
    path = Path(omnisim.__file__).parent / name
    return ast.parse(path.read_text(), str(path))


def definition(tree, name: str):
    """The class or function ``name`` defined directly in ``tree``'s body."""
    return next(node for node in tree.body if getattr(node, "name", None) == name)


def test_granularity_is_read_once():
    """``beamforming`` names ``Granularity.GROUP`` and ``ELEMENT`` only in
    ``_UnitProblem.__init__`` (and as the optimizers' defaults): the search
    code reads units, and no method branches on the granularity again."""
    tree = source_tree("beamforming.py")
    init = definition(definition(tree, "_UnitProblem"), "__init__")
    allowed = {id(node) for node in ast.walk(init)}
    allowed |= {id(node) for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                for default in function.args.defaults for node in ast.walk(default)}
    offenders = [f"beamforming.py:{node.lineno}" for node in ast.walk(tree)
                 if dotted(node) in ("Granularity.GROUP", "Granularity.ELEMENT")
                 and id(node) not in allowed]
    assert not offenders, f"granularity read outside _UnitProblem.__init__: {offenders}"


def test_channel_rows_have_no_kernel_object():
    """Every class ``channel.py`` defines is an ``errors.Record`` and
    ``beamforming.py`` reads no ``.kernel`` attribute: the search problem owns
    its rows, built by ``channel``'s functions, with no object between them.
    ``channel._gather`` is the one gather: no ``*partials`` function."""
    tree = source_tree("channel.py")
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes and not [name for name in classes
                            if not issubclass(getattr(omnisim.channel, name), Record)], classes
    functions = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert not [name for name in functions if name.endswith("partials")], functions
    reads = [f"beamforming.py:{node.lineno}" for node in ast.walk(source_tree("beamforming.py"))
             if isinstance(node, ast.Attribute) and node.attr == "kernel"]
    assert not reads, f".kernel read in beamforming: {reads}"


def test_integer_checks_have_one_owner():
    """Only ``errors.require_int`` asks ``isinstance(..., np.integer)``, so
    no hand-written integer check (which takes a bool for a count) creeps back."""
    offenders = []
    for name, tree in source_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(sub, ast.Attribute) and sub.attr == "integer"
                            for sub in ast.walk(node.args[1]))):
                offenders.append(f"{name}:{node.lineno}")
    assert not offenders, f"hand-written integer checks: {offenders}"


def is_math(node, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def test_real_checks_have_one_owner():
    """Only ``errors.require_real`` asks whether a scalar is finite or NaN:
    no ``math.isfinite`` or ``math.isnan`` call and no comparison against
    ``math.inf`` anywhere else, so no hand-written check (which reads a bool
    as a number or lets a string reach numpy) creeps back."""
    offenders = []
    for name, tree in source_trees():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Call)
                 and (is_math(node.func, "isfinite") or is_math(node.func, "isnan")))
                    or (isinstance(node, ast.Compare)
                        and any(is_math(sub, "inf") for sub in ast.walk(node)))):
                offenders.append(f"{name}:{node.lineno}")
    assert not offenders, f"hand-written real-number checks: {offenders}"


# BLAS and LAPACK calls, whose summation order the OpenBLAS kernel chosen at
# run time decides; every other sum goes through ``geometry.dot3`` or
# ``channel.ordered_sum``.
BLAS_CALLS = ("linalg.norm", "dot", "inner", "vdot", "einsum", "matmul")
# (module, function) -> the one expression allowed there, or None for any.
BLAS_ALLOWED = {
    ("beamforming.py", "_zero_forcing"): None,   # LAPACK ZF for K >= 3
    ("beamforming.py", "_gram_condition"): None,
    ("beamforming.py", "zf_precoder"): None,
    ("analysis.py", "_field"): None,             # the field's chunk matmul
    ("beamforming.py", "_greedy_sweeps"): "states @ digits",  # integers
}


def dotted(node) -> str:
    """``a.b.c`` of a chain of attributes on a name, else ''."""
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return node.id if isinstance(node, ast.Name) else ""


def uses(tree, matches, function=None):
    """(function, node) of every node in ``tree`` that ``matches``, with the
    outermost function it sits in (None at module level)."""
    for child in ast.iter_child_nodes(tree):
        inner = function
        if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        if matches(child):
            yield function, child
        yield from uses(child, matches, inner)


def is_blas(node) -> bool:
    """A BLAS call or ``@``."""
    return ((isinstance(node, ast.Call)
             and any(dotted(node.func) == f"np.{name}" for name in BLAS_CALLS))
            or (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)))


def test_summation_order_has_two_owners():
    """No BLAS dot, norm, matmul or ``@`` outside the named exceptions:
    3-vectors go through ``geometry.dot3``, other sums ``ordered_sum``."""
    offenders = []
    for name, tree in source_trees():
        for function, node in uses(tree, is_blas):
            allowed = BLAS_ALLOWED.get((name, function), "")
            if allowed is not None and ast.unparse(node) != allowed:
                offenders.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert not offenders, f"BLAS outside the named exceptions: {offenders}"


def names(name: str):
    """Matcher of a use of ``name``, bare or as an attribute."""
    return lambda node: (getattr(node, "id", None) == name
                         or (isinstance(node, ast.Attribute) and node.attr == name))


def test_point_checks_have_one_owner():
    """``geometry`` owns "a valid point": only it names ``FAR_M``, and its
    ``require_near`` runs where points enter, in ``as_points`` (BS antennas,
    users, element positions), in ``side_of`` (its BS position and point)
    and in ``analysis._field`` (coverage cells, pattern probes, the
    ``snr_at`` point), and nowhere again downstream."""
    bounds, checks = set(), set()
    for name, tree in source_trees():
        bounds |= {name for _, _ in uses(tree, names("FAR_M"))}
        checks |= {(name, function) for function, _ in uses(tree, names("require_near"))}
    assert bounds == {"geometry.py"}
    assert checks == {("geometry.py", "as_points"), ("geometry.py", "side_of"),
                      ("analysis.py", "_field")}


def is_conversion(node) -> bool:
    """An ``np.asarray`` or ``np.array`` call given a dtype."""
    return (isinstance(node, ast.Call) and dotted(node.func) in ("np.asarray", "np.array")
            and (len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords)))


def test_array_conversions_have_one_owner():
    """Only ``errors.require_array`` converts an input to a dtype, so no
    hand-written conversion (which reads a bool as 1, drops an imaginary
    part or lets numpy's ValueError escape) creeps back."""
    offenders = [f"{name}:{node.lineno} {ast.unparse(node)}"
                 for name, tree in source_trees() for _, node in uses(tree, is_conversion)]
    assert not offenders, f"array conversions outside errors.require_array: {offenders}"


def test_records_store_their_fields_in_one_statement():
    """Every record's ``__init__`` stores its fields with one
    ``vars(self).update(...)``: no module of the package names
    ``object.__setattr__``, so a field cannot come back on a line of its own."""
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(omnisim.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if dotted(node) == "object.__setattr__"]
    assert not offenders, f"object.__setattr__ in the package: {offenders}"


PANEL = dict(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1, cols=2, dx=0.04, dy=0.04,
             group_rows=1, group_cols=1)
SCENE = dict(frequency_hz=3.6e9, bs_antennas=[[0, 0, 1.0]], users=[[0.3, 0, -1.0]],
             tx_power_dbm=0.0, bandwidth_hz=1e6)
PAIR = dict(reflection_amp=0.5, reflection_phase=0.1, refraction_amp=0.5,
            refraction_phase=0.2)


def pattern_inputs():
    panel = PanelSpec(**PANEL)
    layout = build_layout(panel)
    table = StateTable(states=(CoefficientPair(**PAIR),))
    return Scene(panel=panel, **SCENE), layout, table, Configuration.uniform(2, 0)


def scene_document(tx_dbm):
    return {"frequency_hz": 3.6e9,
            "panel": {"rows": 1, "cols": 2, "dx_m": 0.04, "dy_m": 0.04, "group_rows": 1,
                      "group_cols": 1, "center": [0, 0, 0], "normal": [0, 0, 1.0]},
            "state_table": [{"reflection": {"amp": 0.5, "phase_deg": 0.0},
                             "refraction": {"amp": 0.5, "phase_deg": 0.0}}],
            "bs": {"antennas": [[0, 0, 1.0]]}, "users": [[0.3, 0, -1.0]],
            "power": {"bandwidth_hz": 1e6, "noise_figure_db": 0.0,
                      "tx_dbm": tx_dbm}}


def with_value(build, defaults, name, value):
    return build(**{**defaults, name: value})


def scene_with(name, value):
    return Scene(panel=PanelSpec(**PANEL), **{**SCENE, name: value})


GRID = dict(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, nx=2, ny=2)

# Every scalar real input that errors.require_real checks, as a call of one value.
REAL_SITES = {
    **{f"Scene.{name}": partial(scene_with, name)
       for name in ("frequency_hz", "bandwidth_hz", "tx_power_dbm", "noise_figure_db",
                    "tx_gain_db", "rx_gain_db", "lna_gain_db", "element_factor_q")},
    "friis_gain.wavelength": lambda v: friis_gain(1.0, v),
    "noise_power.bandwidth_hz": lambda v: noise_power(v, 0.0),
    "noise_power.noise_figure_db": lambda v: noise_power(1e6, v),
    "LinkBudgetChain.tx_power_dbm": lambda v: LinkBudgetChain(v, ()),
    "LinkBudgetChain.items": lambda v: LinkBudgetChain(0.0, (("a", 1.0), ("b", v))),
    "FadingModel.k_factor_db": lambda v: FadingModel(v),
    "zf_precoder.total_power_w": lambda v: zf_precoder(np.ones((1, 2)), v, 1.0),
    "zf_precoder.noise_power_w": lambda v: zf_precoder(np.ones((1, 2)), 1.0, v),
    **{f"CoverageGrid.{name}": partial(with_value, CoverageGrid, GRID, name)
       for name in ("x0", "x1", "y0", "y1")},
    "radiation_pattern.step_deg": lambda v: radiation_pattern(
        *pattern_inputs(), Side.REFLECTION, step_deg=v),
    "pattern_power.eval_radius": lambda v: pattern_power(
        *pattern_inputs(), Side.REFLECTION, [0.0], eval_radius=v),
    **{f"PanelSpec.{name}": partial(with_value, PanelSpec, PANEL, name) for name in ("dx", "dy")},
    **{f"CoefficientPair.{name}": partial(with_value, CoefficientPair, PAIR, name)
       for name in ("reflection_amp", "reflection_phase", "refraction_amp",
                    "refraction_phase", "declared_reflection_power",
                    "declared_refraction_power")},
    "quantize_phase.target_phase": lambda v: quantize_phase(
        StateTable(states=(CoefficientPair(**PAIR),)), Side.REFLECTION, v),
    "scene_io._number": lambda v: parse_scene_dict(scene_document(v)),
}


NOT_REAL = ("1", True, np.bool_(True), None, 1j, math.nan)


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{value!r}")
    for site in REAL_SITES for value in NOT_REAL
    if not (value is None and "declared" in site)])  # None: no declared power
def test_every_real_input_refuses_what_is_not_a_real_number(site, value):
    """A string is not parsed, a bool is not read as 0 or 1, None and complex
    numbers are refused, not passed to numpy, and NaN is no number."""
    REAL_SITES[site](1.0)  # the baseline is accepted
    with pytest.raises(ValidationError):
        REAL_SITES[site](value)


def optimizer_inputs():
    scene, layout, table, _ = pattern_inputs()
    return scene, layout, table


def boolean_option(value):
    return parse_scene_dict({**scene_document(0.0), "options": {"direct_path": value}})


# Every choice that errors.require_choice checks, as a call of one value, with
# a member it accepts; a bool site also accepts numpy's bools.
CHOICE_SITES = {
    **{f"{search.__name__}.granularity": (
        lambda v, search=search: search(*optimizer_inputs(), v), Granularity.GROUP)
       for search in (greedy_optimize, exhaustive_optimize, random_baseline)},
    "statistical_optimize.granularity": (lambda v: statistical_optimize(
        *optimizer_inputs(), FadingModel(6.0), 2, 0, v), Granularity.ELEMENT),
    "Configuration.granularity": (lambda v: Configuration(states=(0, 0), granularity=v),
                                  Granularity.GROUP),
    "CoefficientPair.amplitude": (lambda v: CoefficientPair(**PAIR).amplitude(v),
                                  Side.REFRACTION),
    "CoefficientPair.phase": (lambda v: CoefficientPair(**PAIR).phase(v), Side.REFLECTION),
    "pattern_power.side": (lambda v: pattern_power(*pattern_inputs(), v, [0.0]),
                           Side.REFLECTION),
    "radiation_pattern.side": (lambda v: radiation_pattern(*pattern_inputs(), v, step_deg=30.0),
                               Side.REFRACTION),
    "quantize_phase.side": (lambda v: quantize_phase(
        StateTable(states=(CoefficientPair(**PAIR),)), v, 0.1), Side.REFLECTION),
    "Scene.direct_path": (partial(scene_with, "direct_path"), True),
    "Scene.plane_wave_incidence": (partial(scene_with, "plane_wave_incidence"), True),
    "scene_io._boolean": (boolean_option, False),
}


def not_members(member):
    """A string (the member's own name), an int, None and, where no bool is
    meant, a bool."""
    yield "string", member.value if isinstance(member, Enum) else str(member).lower()
    yield "int", int(member) if isinstance(member, bool) else 1
    yield "None", None
    if not isinstance(member, bool):
        yield "bool", True


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{case}") for site, (_, member) in CHOICE_SITES.items()
    for case, value in not_members(member)])
def test_every_choice_refuses_what_is_not_a_member(site, value):
    """A granularity, side or flag is its enum's member or a bool: the
    member's string is not read as the member (nor as the other one), 1 is
    not True, and None is not False."""
    call, member = CHOICE_SITES[site]
    call(member)  # the baseline is accepted
    if isinstance(member, bool):
        call(np.bool_(member))
    with pytest.raises(ValidationError):
        call(value)


# Counts that errors.require_int checks at 1, as a call of one value.
COUNT_SITES = {
    "coverage_map.workers": lambda v: coverage_map(*pattern_inputs(), CoverageGrid(**GRID),
                                                   workers=v),
    "Configuration.uniform.num_elements": lambda v: Configuration.uniform(v, 0),
}


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{value!r}") for site in COUNT_SITES
    for value in (1.5, 0, -1, "2", True, None)])
def test_every_count_refuses_what_is_not_a_count(site, value):
    COUNT_SITES[site](2)  # the baseline is accepted
    with pytest.raises(ValidationError, match="must be an integer of at least 1"):
        COUNT_SITES[site](value)


def layout_with_groups(group_of):
    return ElementLayout(positions=np.zeros((2, 3)), group_of=group_of, u=[1.0, 0, 0],
                         v=[0, 1.0, 0])


# Every array input that errors.require_array converts: (call of one value, a
# value it accepts, a value of a shape it refuses or None, whether it is real).
ARRAY_SITES = {
    "as_points (Scene.users)": (partial(scene_with, "users"), [[0.3, 0, -1.0]],
                                np.zeros((0, 3)), True),
    "as_vec3 (PanelSpec.center)": (partial(with_value, PanelSpec, PANEL, "center"),
                                   [0.1, 0, 0], [[0.1, 0, 0]], True),
    "ElementLayout.group_of": (layout_with_groups, [1, 0], [[1, 0]], True),
    "friis_gain.distance": (lambda v: friis_gain(v, 0.1), [1.0, 2.0], None, True),
    "pattern_power.angles_deg": (lambda v: pattern_power(*pattern_inputs(), Side.REFLECTION, v),
                                 [10.0, 0.0], [[10.0, 0.0]], True),
    "zf_precoder.channel": (lambda v: zf_precoder(v, 1.0, 1.0), [[1.0, 0.5]],
                            np.zeros((0, 2)), False),
    "zf_precoder.channel (3-D)": (lambda v: zf_precoder(v, 1.0, 1.0), [[1.0, 0.5]],
                                  np.ones((2, 2, 2)), False),
    "side_of.point": (lambda v: side_of(PanelSpec(**PANEL), [0, 0, 1.0], v), [0.1, 0, 0.7],
                      [0.1, 0], True),
}


def first_replaced(value, entry):
    """``value``, a number or nested list, with its first number replaced by ``entry``."""
    return [first_replaced(value[0], entry), *value[1:]] if isinstance(value, list) else entry


def not_arrays(accepted, wrong_shape, real):
    yield "string", "abc"
    yield "ragged", [[0.0, 0.0, 1.0], [0.0]]
    yield "bool", first_replaced(accepted, True)
    yield "numpy bool", first_replaced(accepted, np.True_)
    yield "None", None
    if real:
        yield "complex", first_replaced(accepted, 1j)
    if wrong_shape is not None:
        yield "shape", wrong_shape


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{case}") for site, (_, accepted, *rest)
    in ARRAY_SITES.items() for case, value in not_arrays(accepted, *rest)])
def test_every_array_input_refuses_what_is_not_an_array_of_numbers(site, value):
    """A string, a ragged list, a bool anywhere, None, a complex entry at a
    real input and an array of the wrong shape or size are each a
    ValidationError, not numpy's ValueError, a bool read as 1 or a crash later."""
    call, accepted, *_ = ARRAY_SITES[site]
    call(accepted)  # the baseline is accepted
    with pytest.raises(ValidationError):
        call(value)


def record_samples():
    """One instance of each of the 19 records, built as callers build them."""
    scene, layout, table, config = pattern_inputs()
    geometry = channel_geometry(scene, layout)
    grid = CoverageGrid(**GRID)
    return {
        PanelSpec: scene.panel, ElementLayout: layout, Scene: scene,
        CoefficientPair: table.states[0], StateTable: table,
        StateValidation: validate_table(table).entries[0], TableValidation: validate_table(table),
        Configuration: config, LinkBudgetChain: LinkBudgetChain(1.0, (("cable", -2.0),)),
        ChannelGeometry: geometry, FadingModel: FadingModel(6.0),
        FadingRealization: draw_realizations(FadingModel(6.0), geometry, 0, 1)[0],
        BeamformerResult: zf_precoder(np.ones((1, 2)), 1.0, 1.0),
        RateResult: evaluate_rates(scene, layout, table, config),
        OptimizationOutcome: greedy_optimize(scene, layout, table),
        PatternSweep: radiation_pattern(scene, layout, table, config, Side.REFLECTION,
                                        step_deg=30.0),
        CoverageGrid: grid, CoverageMap: coverage_map(scene, layout, table, config, grid),
        ParsedScene: parse_scene_dict(scene_document(0.0)),
    }


REQUIRED = inspect.Parameter.empty
SCENE_DEFAULTS = dict(noise_figure_db=0.0, tx_gain_db=0.0, rx_gain_db=0.0, lna_gain_db=0.0,
                      direct_path=False, plane_wave_incidence=False, element_factor_q=0.0)

# Each record: its constructor's parameters with their defaults, the fields it
# computes itself (after the parameters in its repr), the fields it does
# not compare (None: it compares by identity), and its cached properties.
RECORDS = {
    PanelSpec: (dict.fromkeys(("center", "normal", "rows", "cols", "dx", "dy", "group_rows",
                               "group_cols"), REQUIRED), (), None, {"basis"}),
    ElementLayout: (dict.fromkeys(("positions", "group_of", "u", "v"), REQUIRED), (), None,
                    {"members"}),
    Scene: ({**dict.fromkeys(("frequency_hz", "panel", "bs_antennas", "users", "tx_power_dbm",
                              "bandwidth_hz"), REQUIRED), **SCENE_DEFAULTS},
            ("tx_power_w", "noise_power_w", "chain_gain", "bs_side_sign", "user_sides"), None,
            set()),
    CoefficientPair: ({**dict.fromkeys(("reflection_amp", "reflection_phase", "refraction_amp",
                                        "refraction_phase"), REQUIRED),
                       "declared_reflection_power": None, "declared_refraction_power": None},
                      ("phases_wrapped",), {"phases_wrapped"}, set()),
    StateTable: ({"states": REQUIRED}, (), set(), {"coefficient_matrix"}),
    StateValidation: (dict.fromkeys(("index", "power_sum", "passivity_ok",
                                     "reflection_power_residual", "refraction_power_residual",
                                     "power_ok", "phases_wrapped"), REQUIRED), (), set(), set()),
    TableValidation: ({"entries": REQUIRED}, (), set(), set()),
    Configuration: ({"states": REQUIRED, "granularity": Granularity.ELEMENT}, (), set(), set()),
    LinkBudgetChain: ({"tx_power_dbm": REQUIRED, "items": REQUIRED}, (), set(), set()),
    ChannelGeometry: (dict.fromkeys(("bs_to_element", "element_to_user", "user_side_index",
                                     "direct", "members"), REQUIRED), (), None, set()),
    FadingModel: ({"k_factor_db": math.inf}, (), set(), set()),
    FadingRealization: (dict.fromkeys(("bs_to_element", "element_to_user", "direct"),
                                      REQUIRED), (), None, set()),
    BeamformerResult: (dict.fromkeys(("precoder", "power_allocation", "per_user_rate",
                                      "sum_rate", "column_norms"), REQUIRED), (), None, set()),
    RateResult: (dict.fromkeys(("sum_rate", "per_user_rate", "degenerate"), REQUIRED), (), None,
                 set()),
    OptimizationOutcome: ({**dict.fromkeys(("config", "objective", "trace", "evaluations"),
                                           REQUIRED), "degenerate_evaluations": 0},
                          (), None, set()),
    PatternSweep: (dict.fromkeys(("angles_deg", "power_db", "side", "skipped"), REQUIRED), (),
                   None, set()),
    CoverageGrid: (dict.fromkeys(("x0", "x1", "y0", "y1", "nx", "ny"), REQUIRED), (), set(),
                   set()),
    CoverageMap: (dict.fromkeys(("grid", "values", "side"), REQUIRED), (), None, set()),
    ParsedScene: (dict.fromkeys(("scene", "table", "raw"), REQUIRED), (), None, set()),
}


def record_fields(cls):
    parameters, computed, *_ = RECORDS[cls]
    return [*parameters, *computed]


@pytest.fixture(scope="module")
def samples():
    return record_samples()


record_classes = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def test_every_record_is_listed():
    assert len(RECORDS) == 19 and set(RECORDS) == set(record_samples())


@record_classes
def test_record_constructor_parameters(cls):
    """Names, order, kinds and defaults of each record's constructor."""
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in parameters] == list(RECORDS[cls][0].items())
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@record_classes
def test_record_holds_its_fields_and_lists_them_in_its_repr(cls, samples):
    record = samples[cls]
    assert type(record) is cls
    fields = record_fields(cls)
    held = list(vars(record))  # the fields, then any cached member computed so far
    assert held[:len(fields)] == fields and set(held[len(fields):]) <= RECORDS[cls][3]
    assert repr(record) == (f"{cls.__qualname__}("
                            + ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
                            + ")")


def test_record_reprs_read_as_before():
    pair = CoefficientPair(**PAIR)
    assert repr(pair) == ("CoefficientPair(reflection_amp=0.5, reflection_phase=0.1, "
                          "refraction_amp=0.5, refraction_phase=0.2, "
                          "declared_reflection_power=None, declared_refraction_power=None, "
                          "phases_wrapped=False)")
    assert repr(Configuration((0, 1), Granularity.GROUP)) == (
        "Configuration(states=(0, 1), granularity=<Granularity.GROUP: 'group'>)")
    assert repr(FadingModel()) == "FadingModel(k_factor_db=inf)"
    assert repr(validate_table(StateTable((pair,)))) == (
        "TableValidation(entries=(StateValidation(index=0, power_sum=0.5, passivity_ok=True, "
        "reflection_power_residual=None, refraction_power_residual=None, power_ok=True, "
        "phases_wrapped=False),))")


@record_classes
def test_record_equality_and_hash(cls, samples):
    """Value records compare and hash by their compared fields, in order,
    and refuse other types; the rest compare by identity."""
    record = samples[cls]
    twin = copy.copy(record)
    uncompared = RECORDS[cls][2]
    if uncompared is None:
        assert record == record and record != twin
        assert hash(record) == object.__hash__(record)
        return
    compared = [name for name in record_fields(cls) if name not in uncompared]
    assert record == twin and hash(record) == hash(twin)
    assert hash(record) == hash(tuple(getattr(record, name) for name in compared))
    assert record.__eq__(object()) is NotImplemented and record != object()
    for name in record_fields(cls):
        changed = copy.copy(record)
        object.__setattr__(changed, name, "changed")
        assert (changed == record) is (name in uncompared), name


def test_phases_wrapped_is_not_compared():
    wrapped = CoefficientPair(**{**PAIR, "reflection_phase": 0.1 + 2 * math.pi})
    plain = CoefficientPair(**{**PAIR, "reflection_phase": wrapped.reflection_phase})
    assert wrapped.phases_wrapped and not plain.phases_wrapped
    assert wrapped == plain and hash(wrapped) == hash(plain)


@record_classes
def test_records_are_frozen(cls, samples):
    record = samples[cls]
    for name in [*record_fields(cls), "unknown"]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(record, name)
    assert all(name in vars(record) for name in record_fields(cls))


@record_classes
def test_record_cached_properties(cls):
    """Each cached member is computed once per record and is neither a field
    nor part of the repr or the comparison."""
    cached = {name for name, member in vars(cls).items() if isinstance(member, cached_property)}
    assert cached == RECORDS[cls][3]
    record, other = record_samples()[cls], record_samples()[cls]
    before = repr(record)
    for name in sorted(cached):
        assert getattr(record, name) is getattr(record, name)
        assert name in vars(record)
    assert repr(record) == before
    if RECORDS[cls][2] is not None:
        assert record == other


def test_records_are_built_without_dataclass():
    """No record runs ``dataclasses.dataclass`` at import: its generated
    methods cost every process start-up."""
    run = ("import dataclasses\n"
           "def refuse(*args, **kwargs):\n"
           "    raise AssertionError('dataclasses.dataclass called')\n"
           "dataclasses.dataclass = refuse\n"
           "import omnisim.cli\n"
           "print('imported')")
    child = subprocess.run([sys.executable, "-c", run], capture_output=True, text=True)
    assert child.stdout.split() == ["imported"], child.stderr
