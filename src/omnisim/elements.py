"""Discrete element states: paired reflection/refraction coefficients.

Each element of the panel realises one of P states; a state fixes both the
reflection and the refraction coefficient at once.  Phases are stored in
radians and wrapped into [0, 2*pi); degrees belong at the file boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .geometry import Side

TWO_PI = 2.0 * math.pi

# |amp^2 - declared power| beyond this is treated as a transcription error.
POWER_TOLERANCE = 0.005


def _wrap_phase(phase: float) -> tuple[float, bool]:
    wrapped = phase % TWO_PI
    return wrapped, wrapped != phase


@dataclass(frozen=True)
class CoefficientPair:
    """One state's complex reflection and refraction response.

    Amplitudes are linear in [0, 1]; optional declared powers are the
    independently characterised |coefficient|^2 values used for
    cross-checking.  Passivity (r^2 + t^2 <= 1) is *reported* by
    :func:`validate_table`, not enforced here, so that violating tables can
    still be inspected.
    """

    reflection_amp: float
    reflection_phase: float
    refraction_amp: float
    refraction_phase: float
    declared_reflection_power: float | None = None
    declared_refraction_power: float | None = None
    phases_wrapped: bool = field(init=False, default=False, compare=False)

    def __post_init__(self):
        for name in ("reflection_amp", "refraction_amp"):
            amp = getattr(self, name)
            if not (0.0 <= amp <= 1.0) or not math.isfinite(amp):
                raise ValidationError(f"{name} must lie in [0, 1], got {amp!r}")
        wrapped_any = False
        for name in ("reflection_phase", "refraction_phase"):
            value, wrapped = _wrap_phase(float(getattr(self, name)))
            object.__setattr__(self, name, value)
            wrapped_any = wrapped_any or wrapped
        object.__setattr__(self, "phases_wrapped", wrapped_any)
        for name in ("declared_reflection_power", "declared_refraction_power"):
            declared = getattr(self, name)
            if declared is not None and not (0.0 <= declared <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {declared!r}")

    def amplitude(self, side: Side) -> float:
        return self.reflection_amp if side is Side.REFLECTION else self.refraction_amp

    def phase(self, side: Side) -> float:
        return self.reflection_phase if side is Side.REFLECTION else self.refraction_phase

    def coefficient(self, side: Side) -> complex:
        return self.amplitude(side) * complex(math.cos(self.phase(side)),
                                              math.sin(self.phase(side)))

    @property
    def power_sum(self) -> float:
        return self.reflection_amp ** 2 + self.refraction_amp ** 2


@dataclass(frozen=True)
class StateTable:
    """Ordered set of realisable states for every element of the panel.

    ``pin_diodes`` is optional metadata; when given, the state count must
    satisfy P <= 2^N.
    """

    states: tuple[CoefficientPair, ...]
    pin_diodes: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) < 1:
            raise ValidationError("state table must contain at least one state")
        if self.pin_diodes is not None:
            if self.pin_diodes < 1:
                raise ValidationError("pin_diodes must be a positive integer")
            if len(self.states) > 2 ** self.pin_diodes:
                raise ValidationError(
                    f"{len(self.states)} states exceed 2^{self.pin_diodes} "
                    f"realisable with {self.pin_diodes} PIN diodes"
                )

    @property
    def num_states(self) -> int:
        return len(self.states)

    def amplitudes(self, side: Side) -> np.ndarray:
        return np.array([s.amplitude(side) for s in self.states])

    @cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """(2, P) complex lookup: row 0 reflection, row 1 refraction."""
        return np.array(
            [[s.coefficient(Side.REFLECTION) for s in self.states],
             [s.coefficient(Side.REFRACTION) for s in self.states]]
        )


@dataclass(frozen=True)
class StateValidation:
    """Per-state findings: passivity, declared-power residuals, phase wrapping."""

    index: int
    power_sum: float
    passivity_ok: bool
    reflection_power_residual: float | None
    refraction_power_residual: float | None
    power_ok: bool
    phases_wrapped: bool

    @property
    def ok(self) -> bool:
        return self.passivity_ok and self.power_ok


@dataclass(frozen=True)
class TableValidation:
    entries: tuple[StateValidation, ...]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[StateValidation]:
        return [e for e in self.entries if not e.ok]


def validate_table(table: StateTable) -> TableValidation:
    """Check passivity and amp^2-vs-declared-power consistency per state.

    Never raises; failures are carried in the report.
    """
    entries = []
    for i, pair in enumerate(table.states):
        res_r = (abs(pair.reflection_amp ** 2 - pair.declared_reflection_power)
                 if pair.declared_reflection_power is not None else None)
        res_t = (abs(pair.refraction_amp ** 2 - pair.declared_refraction_power)
                 if pair.declared_refraction_power is not None else None)
        power_ok = all(r <= POWER_TOLERANCE for r in (res_r, res_t) if r is not None)
        entries.append(StateValidation(
            index=i,
            power_sum=pair.power_sum,
            passivity_ok=pair.power_sum <= 1.0,
            reflection_power_residual=res_r,
            refraction_power_residual=res_t,
            power_ok=power_ok,
            phases_wrapped=pair.phases_wrapped,
        ))
    return TableValidation(entries=tuple(entries))


def circular_distance(a: float, b: float) -> float:
    """Shortest angular distance between two phases, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def quantize_phase(table: StateTable, side: Side, target_phase: float) -> int:
    """Index of the state whose ``side`` phase is circularly closest to target.

    Ties break toward the lowest index.
    """
    target = target_phase % TWO_PI
    best_index = 0
    best_dist = math.inf
    for i, pair in enumerate(table.states):
        d = circular_distance(pair.phase(side), target)
        if d < best_dist:
            best_index, best_dist = i, d
    return best_index


class Granularity(Enum):
    """Whether states are chosen per element or shared across each group."""

    ELEMENT = "element"
    GROUP = "group"


@dataclass(frozen=True)
class Configuration:
    """One state index per element (canonical, even under group granularity)."""

    states: tuple[int, ...]
    granularity: Granularity = Granularity.ELEMENT

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(int(s) for s in self.states))
        if len(self.states) == 0:
            raise ValidationError("configuration must cover at least one element")
        if any(s < 0 for s in self.states):
            raise ValidationError("state indices must be non-negative")

    def __len__(self) -> int:
        return len(self.states)

    @staticmethod
    def uniform(num_elements: int, state: int = 0,
                granularity: Granularity = Granularity.ELEMENT) -> "Configuration":
        return Configuration(states=(state,) * num_elements, granularity=granularity)

    @staticmethod
    def from_group_states(layout, group_states) -> "Configuration":
        """Expand per-group states to the per-element canonical form."""
        group_states = tuple(int(s) for s in group_states)
        if len(group_states) != layout.num_groups:
            raise ValidationError(
                f"expected {layout.num_groups} group states, got {len(group_states)}"
            )
        expanded = tuple(group_states[g] for g in layout.group_of)
        return Configuration(states=expanded, granularity=Granularity.GROUP)

    def group_states(self, layout) -> tuple[int, ...]:
        """Recover per-group states; requires group members to agree."""
        if len(self.states) != layout.num_elements:
            raise ValidationError("configuration length does not match layout")
        states = np.asarray(self.states)
        out = []
        for g in range(layout.num_groups):
            members = states[layout.group_of == g]
            if members.size == 0:
                raise ValidationError(f"group {g} has no elements")
            if not np.all(members == members[0]):
                raise ValidationError(f"group {g} members disagree on state")
            out.append(int(members[0]))
        return tuple(out)

    def validate_against(self, table: StateTable, layout) -> None:
        if len(self.states) != layout.num_elements:
            raise ValidationError(
                f"configuration covers {len(self.states)} elements, "
                f"layout has {layout.num_elements}"
            )
        if max(self.states) >= table.num_states:
            raise ValidationError(
                f"state index {max(self.states)} out of range "
                f"for a {table.num_states}-state table"
            )
        if self.granularity is Granularity.GROUP:
            self.group_states(layout)


def prototype_state_table() -> StateTable:
    """Two-state coefficients of the bundled 640-element prototype panel."""
    return StateTable(
        states=(
            CoefficientPair(
                reflection_amp=0.46, reflection_phase=math.radians(20.0),
                refraction_amp=0.58, refraction_phase=math.radians(300.0),
                declared_reflection_power=0.21, declared_refraction_power=0.34,
            ),
            CoefficientPair(
                reflection_amp=0.55, reflection_phase=math.radians(215.0),
                refraction_amp=0.81, refraction_phase=math.radians(123.0),
                declared_reflection_power=0.30, declared_refraction_power=0.66,
            ),
        ),
        pin_diodes=2,
    )
