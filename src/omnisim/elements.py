"""Discrete element states: paired reflection/refraction coefficients.

Each element of the panel realises one of P states; a state fixes both the
reflection and the refraction coefficient at once.  Phases are stored in
radians and wrapped into [0, 2*pi); degrees belong at the file boundary.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (Record, ValidationError, require_choice, require_int, require_ints,
                     require_real)
from .geometry import Side

TWO_PI = 2.0 * math.pi

# |amp^2 - declared power| beyond this is treated as a transcription error.
POWER_TOLERANCE = 0.005


class CoefficientPair(Record, eq=True, uncompared=("phases_wrapped",)):
    """One state's complex reflection and refraction response.

    Amplitudes are linear in [0, 1]; optional declared powers are the
    independently characterised |coefficient|^2 values used for
    cross-checking.  Passivity (r^2 + t^2 <= 1) is *reported* by
    :func:`validate_table`, not enforced here, so that violating tables can
    still be inspected.  ``phases_wrapped`` records whether a phase was
    wrapped into [0, 2*pi); equality ignores it.
    """

    def __init__(self, reflection_amp: float, reflection_phase: float, refraction_amp: float,
                 refraction_phase: float, declared_reflection_power: float | None = None,
                 declared_refraction_power: float | None = None):
        reflection_amp = require_real("reflection_amp", reflection_amp, 0.0, 1.0)
        refraction_amp = require_real("refraction_amp", refraction_amp, 0.0, 1.0)
        phases = (require_real("reflection_phase", reflection_phase),
                  require_real("refraction_phase", refraction_phase))
        reflection_phase, refraction_phase = wrapped = tuple(phase % TWO_PI for phase in phases)
        declared = [None if power is None else require_real(name, power, 0.0, 1.0)
                    for name, power in (("declared_reflection_power", declared_reflection_power),
                                        ("declared_refraction_power", declared_refraction_power))]
        vars(self).update(reflection_amp=reflection_amp, reflection_phase=reflection_phase,
                          refraction_amp=refraction_amp, refraction_phase=refraction_phase,
                          declared_reflection_power=declared[0],
                          declared_refraction_power=declared[1], phases_wrapped=wrapped != phases)

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


class StateTable(Record, eq=True):
    """Ordered set of realisable states for every element of the panel."""

    def __init__(self, states: tuple[CoefficientPair, ...]):
        try:
            states = tuple(states)
        except TypeError:  # not iterable
            raise ValidationError(f"state table must be iterable, got {states!r}") from None
        if len(states) < 1:
            raise ValidationError("state table must contain at least one state")
        if not all(isinstance(state, CoefficientPair) for state in states):
            raise ValidationError(f"state table entries must be CoefficientPair, got {states!r}")
        vars(self).update(states=states)

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


class StateValidation(Record, eq=True):
    """Per-state findings: passivity, declared-power residuals, phase wrapping."""

    def __init__(self, index: int, power_sum: float, passivity_ok: bool,
                 reflection_power_residual: float | None,
                 refraction_power_residual: float | None, power_ok: bool, phases_wrapped: bool):
        vars(self).update(index=index, power_sum=power_sum, passivity_ok=passivity_ok,
                          reflection_power_residual=reflection_power_residual,
                          refraction_power_residual=refraction_power_residual,
                          power_ok=power_ok, phases_wrapped=phases_wrapped)

    @property
    def ok(self) -> bool:
        return self.passivity_ok and self.power_ok


class TableValidation(Record, eq=True):
    """The findings of :func:`validate_table`: one entry per state, in table order."""

    def __init__(self, entries: tuple[StateValidation, ...]):
        vars(self).update(entries=entries)

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


class Configuration(Record, eq=True):
    """One state index per element (canonical, even under group granularity)."""

    def __init__(self, states: tuple[int, ...], granularity: Granularity = Granularity.ELEMENT):
        states = require_ints("state index", states, 0)
        if not states:
            raise ValidationError("configuration must cover at least one element")
        vars(self).update(states=states, granularity=require_choice(
            granularity, Granularity, "granularity must be a Granularity"))

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
