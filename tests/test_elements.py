import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omnisim import (CoefficientPair, Configuration, ElementLayout, Granularity,
                     PanelSpec, Side, StateTable, ValidationError, build_layout,
                     quantize_phase, validate_table)


def single_state_table(r_amp=1.0, t_amp=1.0, r_phase=0.0, t_phase=0.0):
    return StateTable(states=(CoefficientPair(
        reflection_amp=r_amp, reflection_phase=r_phase,
        refraction_amp=t_amp, refraction_phase=t_phase),))


class TestResponse:
    def test_prototype_state1_reflection(self, prototype):
        got = prototype.table.states[0].coefficient(Side.REFLECTION)
        expected = 0.46 * np.exp(1j * math.radians(20.0))
        assert got == pytest.approx(expected)

    def test_prototype_state2_refraction(self, prototype):
        got = prototype.table.states[1].coefficient(Side.REFRACTION)
        expected = 0.81 * np.exp(1j * math.radians(123.0))
        assert got == pytest.approx(expected)

    def test_identity_single_state(self):
        table = single_state_table()
        assert table.states[0].coefficient(Side.REFLECTION) == pytest.approx(1 + 0j)
        assert table.states[0].coefficient(Side.REFRACTION) == pytest.approx(1 + 0j)

    def test_magnitude_never_exceeds_one(self, prototype):
        table = prototype.table
        for pair in table.states:
            for side in Side:
                assert abs(pair.coefficient(side)) <= 1.0


class TestValidateTable:
    def test_prototype_passes(self, prototype):
        report = validate_table(prototype.table)
        assert report.passed
        sums = [e.power_sum for e in report.entries]
        assert sums[0] == pytest.approx(0.548, abs=1e-12)
        assert sums[1] == pytest.approx(0.9586, abs=1e-12)
        residuals = [e.reflection_power_residual for e in report.entries] + \
                    [e.refraction_power_residual for e in report.entries]
        assert max(residuals) <= 0.005

    def test_synthetic_passivity_violation(self):
        table = single_state_table(r_amp=0.9, t_amp=0.9)
        report = validate_table(table)
        assert not report.passed
        assert report.entries[0].power_sum == pytest.approx(1.62)
        assert not report.entries[0].passivity_ok

    def test_declared_power_mismatch_reported(self):
        table = StateTable(states=(CoefficientPair(
            reflection_amp=0.5, reflection_phase=0.0,
            refraction_amp=0.5, refraction_phase=0.0,
            declared_reflection_power=0.40),))
        report = validate_table(table)
        assert not report.passed
        assert report.entries[0].reflection_power_residual == pytest.approx(0.15)

    def test_phase_wrapping_flagged(self):
        pair = CoefficientPair(reflection_amp=0.5, reflection_phase=7.0,
                               refraction_amp=0.5, refraction_phase=0.5)
        assert pair.phases_wrapped
        assert 0.0 <= pair.reflection_phase < 2 * math.pi
        report = validate_table(StateTable(states=(pair,)))
        assert report.entries[0].phases_wrapped

    def test_amplitude_range_enforced(self):
        with pytest.raises(ValidationError):
            CoefficientPair(reflection_amp=1.2, reflection_phase=0.0,
                            refraction_amp=0.3, refraction_phase=0.0)

    def test_power_ratio_is_a_table_constant(self, prototype):
        table = prototype.table
        ratios = [(s.refraction_amp / s.reflection_amp) ** 2
                  for s in table.states]
        assert ratios[0] == pytest.approx((0.58 / 0.46) ** 2)
        assert ratios[1] == pytest.approx((0.81 / 0.55) ** 2)


class TestStateTable:
    def test_requires_at_least_one_state(self):
        with pytest.raises(ValidationError):
            StateTable(states=())

    @pytest.mark.parametrize("states", [(1,), ("state",), (None,), ({"amp": 0.5},)])
    def test_entries_must_be_coefficient_pairs(self, states):
        """An entry that is not a state is refused here, not met later as an
        AttributeError when the table is read."""
        with pytest.raises(ValidationError, match="entries must be CoefficientPair"):
            StateTable(states=states)

    @pytest.mark.parametrize("states", [None, 1, 0.5])
    def test_states_must_be_iterable(self, states):
        """A value that is not iterable is refused as input, not met as
        Python's TypeError from ``tuple``."""
        with pytest.raises(ValidationError, match="state table must be iterable"):
            StateTable(states=states)


PANEL_ARGS = dict(center=[0, 0, 0], normal=[0, 0, 1.0], rows=2, cols=2,
                  dx=0.03, dy=0.03, group_rows=1, group_cols=1)
PAIR_ARGS = dict(reflection_amp=0.5, reflection_phase=0.1,
                 refraction_amp=0.5, refraction_phase=0.2)


@pytest.mark.parametrize("build, name", [
    (PanelSpec, "dx"), (PanelSpec, "dy"),
    (CoefficientPair, "reflection_phase"), (CoefficientPair, "refraction_phase"),
])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_dataclasses_reject_non_finite_pitch_and_phase(build, name, value):
    args = PANEL_ARGS if build is PanelSpec else PAIR_ARGS
    build(**args)  # the finite baseline is accepted
    with pytest.raises(ValidationError, match="finite|positive"):
        build(**{**args, name: value})


@pytest.mark.parametrize("name", ["rows", "cols", "group_rows", "group_cols"])
@pytest.mark.parametrize("value", [True, np.bool_(True), 1.0, 0, -2])
def test_panel_counts_are_integers_of_at_least_one(name, value):
    """The counts go through the one integer check: a bool is not a count."""
    with pytest.raises(ValidationError, match=f"panel {name} must be an integer"):
        PanelSpec(**{**PANEL_ARGS, name: value})


@pytest.mark.parametrize("normal", [[1e308, 0, 0], [0, -1e200, 1e200]])
def test_panel_rejects_overflowing_normal(normal):
    # |n|^2 overflows to inf: the unit-length check rejects it, no warning.
    with pytest.raises(ValidationError, match="unit length"):
        PanelSpec(**{**PANEL_ARGS, "normal": normal})


class TestQuantizePhase:
    def test_reflection_target_30_degrees(self, prototype):
        idx = quantize_phase(prototype.table, Side.REFLECTION,
                             math.radians(30.0))
        assert idx == 0

    def test_refraction_target_120_degrees(self, prototype):
        idx = quantize_phase(prototype.table, Side.REFRACTION,
                             math.radians(120.0))
        assert idx == 1

    def test_single_state_table(self):
        assert quantize_phase(single_state_table(), Side.REFLECTION, 2.5) == 0

    @given(st.integers(min_value=0, max_value=5000),
           st.integers(min_value=1, max_value=8))
    def test_exact_match_returns_that_state(self, seed, num_states):
        gen = np.random.default_rng(seed)
        phases = gen.uniform(0, 2 * math.pi, size=(num_states, 2))
        table = StateTable(states=tuple(
            CoefficientPair(0.5, p[0], 0.5, p[1]) for p in phases))
        for side in Side:
            for i, pair in enumerate(table.states):
                idx = quantize_phase(table, side, pair.phase(side))
                assert table.states[idx].phase(side) == pair.phase(side)


class TestConfiguration:
    def setup_method(self):
        self.spec = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0],
                              rows=4, cols=4, dx=0.01, dy=0.01,
                              group_rows=2, group_cols=2)
        self.layout = build_layout(self.spec)

    def test_group_expansion_round_trips(self):
        config = Configuration.from_group_states(self.layout, [1, 0, 1, 0])
        assert config.granularity is Granularity.GROUP
        assert len(config) == 16
        assert config.group_states(self.layout) == (1, 0, 1, 0)

    def test_group_length_mismatch(self):
        with pytest.raises(ValidationError):
            Configuration.from_group_states(self.layout, [1, 0])

    def test_disagreeing_group_members_rejected(self):
        states = [0] * 16
        states[0] = 1  # element (0,0) belongs to group 0 with three others
        config = Configuration(states=tuple(states),
                               granularity=Granularity.GROUP)
        with pytest.raises(ValidationError):
            config.group_states(self.layout)

    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    def test_group_states_match_a_per_group_loop(self, groups, size, data):
        """Group states of a shuffled layout of equal groups, and for a bad
        configuration the error of the lowest group whose members disagree,
        are those of a loop over the groups."""
        group_of = data.draw(st.permutations([g for g in range(groups)
                                              for _ in range(size)]))
        layout = ElementLayout(positions=np.zeros((len(group_of), 3)),
                               group_of=np.array(group_of), u=np.array([1.0, 0, 0]),
                               v=np.array([0, 1.0, 0]))
        states = data.draw(st.lists(st.integers(0, 2), min_size=len(group_of),
                                    max_size=len(group_of)))
        if data.draw(st.booleans()):  # members agree
            group_state = data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
            states = [group_state[g] for g in group_of]
        expected = []
        for g in range(groups):
            members = [s for s, h in zip(states, group_of) if h == g]
            if len(set(members)) > 1:
                expected = f"group {g} members disagree on state"
                break
            expected.append(members[0])
        config = Configuration(states=tuple(states), granularity=Granularity.GROUP)
        if isinstance(expected, str):
            with pytest.raises(ValidationError, match=f"^{expected}$"):
                config.group_states(layout)
        else:
            assert config.group_states(layout) == tuple(expected)

    def test_negative_group_index_rejected(self):
        with pytest.raises(ValidationError):
            ElementLayout(positions=np.zeros((2, 3)), group_of=np.array([0, -1]),
                          u=np.array([1.0, 0, 0]), v=np.array([0, 1.0, 0]))

    @pytest.mark.parametrize("group_of", [[0, 0, 1], [0, 2, 2, 0], [], [0.0, 1.0]])
    def test_malformed_groups_rejected(self, group_of):
        """Every search reshapes by groups of one size, so a layout with
        unequal or empty groups, no elements or non-integer group indices is
        refused up front."""
        with pytest.raises(ValidationError):
            ElementLayout(positions=np.zeros((len(group_of), 3)),
                          group_of=np.array(group_of),
                          u=np.array([1.0, 0, 0]), v=np.array([0, 1.0, 0]))

    @pytest.mark.parametrize("positions, group_of", [
        ((3, 3), [0, 1]), ((2, 2), [0, 1]), ((1, 3), [[0]])])
    def test_positions_must_match_group_indices(self, positions, group_of):
        """A group index per element, or searches would sum some elements
        and skip the rest."""
        with pytest.raises(ValidationError):
            ElementLayout(positions=np.zeros(positions), group_of=np.array(group_of),
                          u=np.array([1.0, 0, 0]), v=np.array([0, 1.0, 0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_rejected(self, value):
        """A NaN position would reach every channel as a degenerate rate of 0."""
        positions = np.array(self.layout.positions)
        positions[5, 1] = value
        with pytest.raises(ValidationError, match="layout positions must have finite"):
            ElementLayout(positions=positions, group_of=self.layout.group_of,
                          u=self.layout.u, v=self.layout.v)

    @pytest.mark.parametrize("granularity", ["group", "element", None, 1])
    def test_granularity_must_be_a_member(self, granularity):
        """A string would skip the group check in validate_against."""
        with pytest.raises(ValidationError, match="granularity must be a Granularity"):
            Configuration(states=(1,) + (0,) * 15, granularity=granularity)

    @pytest.mark.parametrize("state", [1.5, 1.0, np.float64(1.0), "1", math.nan, math.inf,
                                       True, np.bool_(True), None, -1, np.int64(-1)])
    def test_non_integer_or_negative_state_rejected(self, state):
        """Only Python and numpy integers of at least 0 are state indices:
        no float is truncated, no string parsed, no bool taken for 0 or 1.
        Beside Python ints, in a tuple or a list, the value gets the message
        of the one-value check."""
        message = re.escape(f"state index must be an integer of at least 0, got {state!r}")
        for states in [(0, state), (0, 1, state), [state, 1], (state,) + (0,) * 15]:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                Configuration(states=states)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Configuration.from_group_states(self.layout, [state] * 4)

    def test_numpy_integer_states_become_ints(self):
        for states in [tuple(np.arange(3, dtype=np.int64)), (0, np.int64(1), 2), [0, 1, 2],
                       (0, np.uint8(1), np.int32(2))]:
            config = Configuration(states=states)
            assert config.states == (0, 1, 2)
            assert all(type(s) is int for s in config.states)
        grouped = Configuration.from_group_states(self.layout, np.array([1, 0, 1, 0]))
        assert grouped == Configuration.from_group_states(self.layout, [1, 0, 1, 0])
        assert all(type(s) is int for s in grouped.states)

    def test_validate_against_table(self, prototype):
        table = prototype.table
        config = Configuration.uniform(16, 5)
        with pytest.raises(ValidationError):
            config.validate_against(table, self.layout)
