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

from .errors import ValidationError, require_choice, require_int, require_ints, require_real
from .geometry import Side

TWO_PI = 2.0 * math.pi

# |amp^2 - declared power| beyond this is treated as a transcription error.
POWER_TOLERANCE = 0.005


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
            object.__setattr__(self, name, require_real(name, getattr(self, name), 0.0, 1.0))
        wrapped_any = False
        for name in ("reflection_phase", "refraction_phase"):
            phase = require_real(name, getattr(self, name))
            object.__setattr__(self, name, phase % TWO_PI)
            wrapped_any = wrapped_any or getattr(self, name) != phase
        object.__setattr__(self, "phases_wrapped", wrapped_any)
        for name in ("declared_reflection_power", "declared_refraction_power"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, require_real(name, getattr(self, name), 0.0, 1.0))

    def amplitude(self, side: Side) -> float:
        reflection = require_choice(side, Side, "side must be a Side") is Side.REFLECTION
        return self.reflection_amp if reflection else self.refraction_amp

    def phase(self, side: Side) -> float:
        reflection = require_choice(side, Side, "side must be a Side") is Side.REFLECTION
        return self.reflection_phase if reflection else self.refraction_phase

    def coefficient(self, side: Side) -> complex:
        return self.amplitude(side) * complex(math.cos(self.phase(side)),
                                              math.sin(self.phase(side)))

    @property
    def power_sum(self) -> float:
        return self.reflection_amp ** 2 + self.refraction_amp ** 2


@dataclass(frozen=True)
class StateTable:
    """Ordered set of realisable states for every element of the panel."""

    states: tuple[CoefficientPair, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "states", tuple(self.states))
        except TypeError:  # not iterable
            raise ValidationError(f"state table must be iterable, got {self.states!r}") from None
        if len(self.states) < 1:
            raise ValidationError("state table must contain at least one state")
        if not all(isinstance(state, CoefficientPair) for state in self.states):
            raise ValidationError(
                f"state table entries must be CoefficientPair, got {self.states!r}")

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


def quantize_phase(table: StateTable, side: Side, target_phase: float) -> int:
    """Index of the state whose ``side`` phase is circularly closest to target.

    Ties break toward the lowest index.
    """
    target = require_real("target_phase", target_phase) % TWO_PI
    gaps = [abs(pair.phase(side) - target) % TWO_PI for pair in table.states]
    distances = [min(gap, TWO_PI - gap) for gap in gaps]  # circular, in [0, pi]
    return distances.index(min(distances))


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
        object.__setattr__(self, "states", require_ints("state index", self.states, 0))
        if len(self.states) == 0:
            raise ValidationError("configuration must cover at least one element")
        require_choice(self.granularity, Granularity, "granularity must be a Granularity")

    def __len__(self) -> int:
        return len(self.states)

    @staticmethod
    def uniform(num_elements: int, state: int = 0) -> "Configuration":
        return Configuration(states=(state,) * require_int("num_elements", num_elements, 1))

    @staticmethod
    def from_group_states(layout, group_states) -> "Configuration":
        """Expand per-group states to the per-element canonical form."""
        group_states = tuple(group_states)
        if len(group_states) != layout.num_groups:
            raise ValidationError(
                f"expected {layout.num_groups} group states, got {len(group_states)}"
            )
        expanded = tuple(group_states[g] for g in layout.group_of.tolist())
        return Configuration(states=expanded, granularity=Granularity.GROUP)

    def group_states(self, layout) -> tuple[int, ...]:
        """Recover per-group states; requires group members to agree."""
        if len(self.states) != layout.num_elements:
            raise ValidationError("configuration length does not match layout")
        states = np.asarray(self.states)[layout.members]  # (G, m)
        bad = (states != states[:, :1]).any(axis=1)
        if bad.any():
            raise ValidationError(f"group {int(np.argmax(bad))} members disagree on state")
        return tuple(states[:, 0].tolist())

    def validate_against(self, table: StateTable, layout) -> None:
        """The one configuration check: a state per element of ``layout`` (an
        ElementLayout or ChannelGeometry), each in ``table``, and group
        members that agree under GROUP granularity."""
        if len(self.states) != layout.num_elements:
            raise ValidationError(
                f"configuration covers {len(self.states)} elements, "
                f"the panel has {layout.num_elements}"
            )
        if max(self.states) >= table.num_states:
            raise ValidationError(
                f"state index {max(self.states)} out of range "
                f"for a {table.num_states}-state table"
            )
        if self.granularity is Granularity.GROUP:
            self.group_states(layout)
