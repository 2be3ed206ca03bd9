import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omnisim import (CoefficientPair, Configuration, Granularity, PanelSpec,
                     Side, StateTable, ValidationError, build_layout,
                     prototype_state_table, quantize_phase, validate_table)


def single_state_table(r_amp=1.0, t_amp=1.0, r_phase=0.0, t_phase=0.0):
    return StateTable(states=(CoefficientPair(
        reflection_amp=r_amp, reflection_phase=r_phase,
        refraction_amp=t_amp, refraction_phase=t_phase),))


class TestResponse:
    def test_prototype_state1_reflection(self):
        got = prototype_state_table().states[0].coefficient(Side.REFLECTION)
        expected = 0.46 * np.exp(1j * math.radians(20.0))
        assert got == pytest.approx(expected)

    def test_prototype_state2_refraction(self):
        got = prototype_state_table().states[1].coefficient(Side.REFRACTION)
        expected = 0.81 * np.exp(1j * math.radians(123.0))
        assert got == pytest.approx(expected)

    def test_identity_single_state(self):
        table = single_state_table()
        assert table.states[0].coefficient(Side.REFLECTION) == pytest.approx(1 + 0j)
        assert table.states[0].coefficient(Side.REFRACTION) == pytest.approx(1 + 0j)

    def test_magnitude_never_exceeds_one(self):
        table = prototype_state_table()
        for pair in table.states:
            for side in Side:
                assert abs(pair.coefficient(side)) <= 1.0


class TestValidateTable:
    def test_prototype_passes(self):
        report = validate_table(prototype_state_table())
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

    def test_power_ratio_is_a_table_constant(self):
        table = prototype_state_table()
        ratios = [(s.refraction_amp / s.reflection_amp) ** 2
                  for s in table.states]
        assert ratios[0] == pytest.approx((0.58 / 0.46) ** 2)
        assert ratios[1] == pytest.approx((0.81 / 0.55) ** 2)


class TestStateTable:
    def test_requires_at_least_one_state(self):
        with pytest.raises(ValidationError):
            StateTable(states=())

    def test_pin_diode_bound(self):
        pair = CoefficientPair(0.5, 0.0, 0.5, 0.0)
        with pytest.raises(ValidationError):
            StateTable(states=(pair,) * 3, pin_diodes=1)
        StateTable(states=(pair,) * 4, pin_diodes=2)  # exactly 2^N allowed


class TestQuantizePhase:
    def test_reflection_target_30_degrees(self):
        idx = quantize_phase(prototype_state_table(), Side.REFLECTION,
                             math.radians(30.0))
        assert idx == 0

    def test_refraction_target_120_degrees(self):
        idx = quantize_phase(prototype_state_table(), Side.REFRACTION,
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

    def test_validate_against_table(self):
        table = prototype_state_table()
        config = Configuration.uniform(16, 5)
        with pytest.raises(ValidationError):
            config.validate_against(table, self.layout)
