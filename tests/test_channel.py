import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omnisim import (CoefficientPair, Configuration, FadingModel,
                     InvalidSceneError, LinkBudgetChain, PanelSpec, Scene,
                     StateTable, ValidationError, assemble_channel,
                     build_layout, channel_geometry, friis_gain, link_budget,
                     noise_power, prototype_state_table, side_of)
from omnisim.channel import SPEED_OF_LIGHT, draw_realizations

WAVELENGTH_3G6 = SPEED_OF_LIGHT / 3.6e9


def tiny_panel(rows=1, cols=1, normal=(0, 0, 1.0), dx=0.04, dy=0.04):
    return PanelSpec(center=[0, 0, 0], normal=normal, rows=rows, cols=cols,
                     dx=dx, dy=dy, group_rows=1, group_cols=1)


def cascaded(scene, layout, table, config):
    return assemble_channel(channel_geometry(scene, layout), table, config)


def make_scene(panel, bs, users, **kw):
    kw.setdefault("frequency_hz", 3.6e9)
    kw.setdefault("tx_power_dbm", 0.0)
    kw.setdefault("bandwidth_hz", 1e6)
    return Scene(panel=panel, bs_antennas=np.atleast_2d(bs),
                 users=np.atleast_2d(users), **kw)


class TestFriisGain:
    def test_unit_gain_distance(self):
        d = WAVELENGTH_3G6 / (4 * math.pi)
        assert abs(friis_gain(d, WAVELENGTH_3G6)) == pytest.approx(1.0)

    def test_power_gain_at_one_metre(self):
        expected_db = 20 * math.log10(WAVELENGTH_3G6 / (4 * math.pi))
        got_db = 20 * math.log10(abs(friis_gain(1.0, WAVELENGTH_3G6)))
        assert got_db == pytest.approx(expected_db, abs=1e-12)
        assert got_db == pytest.approx(-43.58, abs=0.01)

    def test_doubling_distance_halves_amplitude(self):
        g1 = abs(friis_gain(3.0, WAVELENGTH_3G6))
        g2 = abs(friis_gain(6.0, WAVELENGTH_3G6))
        assert g2 == pytest.approx(g1 / 2)
        assert 20 * math.log10(g2 / g1) == pytest.approx(-6.02, abs=0.005)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValidationError):
            friis_gain(0.0, WAVELENGTH_3G6)

    @given(st.floats(min_value=0.01, max_value=50.0),
           st.integers(min_value=1, max_value=40))
    def test_phase_periodic_in_wavelength(self, distance, cycles):
        a = friis_gain(distance, WAVELENGTH_3G6)
        b = friis_gain(distance + cycles * WAVELENGTH_3G6, WAVELENGTH_3G6)
        delta = np.angle(a) - np.angle(b)
        assert abs((delta + math.pi) % (2 * math.pi) - math.pi) < 1e-6


class TestNoisePower:
    def test_thermal_floor(self):
        assert noise_power(1.0, 0.0) == pytest.approx(-174.0)

    def test_24_mhz(self):
        assert noise_power(24e6, 0.0) == pytest.approx(-174 + 10 * math.log10(24e6))
        assert noise_power(24e6, 0.0) == pytest.approx(-100.2, abs=0.005)

    def test_noise_figure_adds(self):
        assert noise_power(24e6, 6.0) == pytest.approx(noise_power(24e6) + 6.0)


class TestLinkBudget:
    PROTOTYPE_ITEMS = (("tx_antenna_db", 10.0), ("tx_ios_channel_db", -47.76),
                       ("ios_gain_db", 0.0), ("ios_rx_channel_db", -43.53),
                       ("rx_antenna_db", 10.0), ("lna_db", 14.3))

    def test_prototype_chain_total(self):
        chain = LinkBudgetChain(tx_power_dbm=1.0, items=self.PROTOTYPE_ITEMS)
        result = link_budget(chain)
        assert result.received_dbm == pytest.approx(-55.99, abs=1e-9)

    def test_empty_items_returns_tx_power(self):
        assert link_budget(LinkBudgetChain(5.0, ())).received_dbm == 5.0

    def test_single_item(self):
        chain = LinkBudgetChain(0.0, (("loss", -3.0),))
        assert link_budget(chain).received_dbm == -3.0

    @given(st.lists(st.floats(min_value=-80, max_value=40), min_size=1,
                    max_size=8),
           st.integers(min_value=0, max_value=100))
    def test_permutation_invariant(self, values, seed):
        items = tuple((f"g{i}", v) for i, v in enumerate(values))
        shuffled = list(items)
        np.random.default_rng(seed).shuffle(shuffled)
        a = link_budget(LinkBudgetChain(1.0, items)).received_dbm
        b = link_budget(LinkBudgetChain(1.0, tuple(shuffled))).received_dbm
        assert a == b


class TestCascadedChannel:
    def unit_chain_scene(self):
        d = WAVELENGTH_3G6 / (4 * math.pi)
        panel = tiny_panel()
        table = StateTable(states=(CoefficientPair(1.0, 0.0, 1.0, 0.0),))
        scene = make_scene(panel, [0, 0, d], [0, 0, -d])
        return scene, table

    def test_unit_chain_magnitude_and_phase(self):
        scene, table = self.unit_chain_scene()
        layout = build_layout(scene.panel)
        H = cascaded(scene, layout, table, Configuration.uniform(1, 0))
        entry = H[0, 0]
        d = WAVELENGTH_3G6 / (4 * math.pi)
        assert abs(entry) == pytest.approx(1.0, abs=1e-12)
        assert entry == pytest.approx(np.exp(-4j * math.pi * d / WAVELENGTH_3G6))

    def test_single_element_refraction_product(self):
        panel = tiny_panel()
        layout = build_layout(panel)
        table = prototype_state_table()
        d1, d2 = 1.3, 0.8
        scene = make_scene(panel, [0, 0, d1], [0, 0, -d2])
        H = cascaded(scene, layout, table, Configuration.uniform(1, 1))
        expected = (WAVELENGTH_3G6 / (4 * math.pi * d1)) * 0.81 * \
                   (WAVELENGTH_3G6 / (4 * math.pi * d2))
        assert abs(H[0, 0]) == pytest.approx(expected, rel=1e-12)

    def test_zero_coefficients_give_zero_matrix(self):
        panel = tiny_panel(rows=2, cols=3)
        layout = build_layout(panel)
        table = StateTable(states=(CoefficientPair(0.0, 0.0, 0.0, 0.0),))
        scene = make_scene(panel, [0.2, 0, 1.0], [[0.3, 0.1, -0.8],
                                                  [0.1, -0.2, 0.9]])
        H = cascaded(scene, layout, table, Configuration.uniform(6, 0))
        assert np.all(H == 0)

    def test_matches_per_element_brute_force(self, prototype):
        """Independent oracle: explicit python sum over elements."""
        panel = tiny_panel(rows=3, cols=4)
        layout = build_layout(panel)
        table = prototype.table
        scene = make_scene(panel, [[0.3, -0.2, 1.4], [-0.5, 0.1, 1.1]],
                           [[0.4, 0.3, -0.9], [-0.2, 0.5, 1.2]])
        gen = np.random.default_rng(42)
        config = Configuration(states=tuple(gen.integers(0, 2, 12)))
        H = cascaded(scene, layout, table, config)
        lam = scene.wavelength
        for k, user in enumerate(scene.users):
            side = side_of(scene.panel, scene.bs_antennas[0], user)
            for n, ant in enumerate(scene.bs_antennas):
                total = 0j
                for m, pos in enumerate(layout.positions):
                    g1 = friis_gain(float(np.linalg.norm(ant - pos)), lam)
                    g2 = friis_gain(float(np.linalg.norm(pos - user)), lam)
                    total += g1 * table.states[config.states[m]].coefficient(side) * g2
                assert H[k, n] == pytest.approx(total, rel=1e-10)

    def test_superposition_zeroing_one_element(self, prototype):
        panel = tiny_panel(rows=2, cols=2)
        layout = build_layout(panel)
        scene = make_scene(panel, [0.1, 0.0, 1.2], [0.3, -0.1, -0.7])
        # three-state table: the extra state is dark (zero both sides)
        base = prototype.table.states
        table = StateTable(states=base + (CoefficientPair(0.0, 0.0, 0.0, 0.0),))
        full = cascaded(scene, layout, table, Configuration(states=(1, 0, 1, 1)))
        dark2 = cascaded(scene, layout, table, Configuration(states=(1, 0, 2, 1)))
        lam = scene.wavelength
        user = scene.users[0]
        pos = layout.positions[2]
        g1 = friis_gain(float(np.linalg.norm(scene.bs_antennas[0] - pos)), lam)
        g2 = friis_gain(float(np.linalg.norm(pos - user)), lam)
        side = side_of(scene.panel, scene.bs_antennas[0], user)
        term = g1 * table.states[1].coefficient(side) * g2
        assert (full - dark2)[0, 0] == pytest.approx(term, rel=1e-10)

    def test_mirrored_users_amplitude_ratio(self, prototype):
        """One user per side, mirrored: per-entry magnitudes differ exactly
        by the state's refraction/reflection amplitude ratio."""
        panel = tiny_panel(rows=4, cols=4)
        layout = build_layout(panel)
        table = prototype.table
        scene = make_scene(panel, [0.0, 0.2, 1.1],
                           [[0.25, 0.4, 0.8], [0.25, 0.4, -0.8]])
        for state in (0, 1):
            H = cascaded(scene, layout, table, Configuration.uniform(16, state))
            ratio = abs(H[1, 0]) / abs(H[0, 0])
            pair = table.states[state]
            assert ratio == pytest.approx(pair.refraction_amp /
                                          pair.reflection_amp, rel=1e-12)

    def test_direct_path_only_on_bs_side(self):
        panel = tiny_panel()
        layout = build_layout(panel)
        table = StateTable(states=(CoefficientPair(0.0, 0.0, 0.0, 0.0),))
        users = [[0.3, 0.0, 0.9], [0.3, 0.0, -0.9]]
        on = make_scene(panel, [0, 0, 1.0], users, direct_path=True)
        H = cascaded(on, layout, table, Configuration.uniform(1, 0))
        d = np.linalg.norm(np.array([0.3, 0, 0.9]) - [0, 0, 1.0])
        assert H[0, 0] == pytest.approx(
            friis_gain(float(d), on.wavelength))
        assert H[1, 0] == 0  # refraction side never sees the BS

    def test_plane_wave_mode_unit_amplitude(self):
        panel = tiny_panel(rows=2, cols=2)
        layout = build_layout(panel)
        scene = make_scene(panel, [0, 0, 2.0], [0.4, 0.2, -1.0],
                           plane_wave_incidence=True)
        geo = channel_geometry(scene, layout)
        assert np.allclose(np.abs(geo.bs_to_element), 1.0)
        # normal incidence: co-phased across the aperture
        assert np.allclose(geo.bs_to_element, geo.bs_to_element[0, 0])


class TestSceneValidation:
    def test_rejects_terminal_in_plane(self):
        panel = tiny_panel()
        with pytest.raises(InvalidSceneError):
            make_scene(panel, [0, 0, 1.0], [0.5, 0.5, 0.0])

    def test_rejects_empty_users(self):
        panel = tiny_panel()
        with pytest.raises(ValidationError):
            Scene(frequency_hz=3.6e9, panel=panel,
                  bs_antennas=np.array([[0, 0, 1.0]]),
                  users=np.zeros((0, 3)), tx_power_dbm=0.0, bandwidth_hz=1e6)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValidationError):
            make_scene(tiny_panel(), [0, 0, 1.0], [0, 0, -1.0],
                       frequency_hz=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["frequency_hz", "bandwidth_hz",
                                       "element_factor_q"])
    def test_rejects_non_finite_physics(self, field, value):
        with pytest.raises(ValidationError, match=field):
            make_scene(tiny_panel(), [0, 0, 1.0], [0, 0, -1.0], **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["tx_power_dbm", "noise_figure_db", "tx_gain_db",
                                       "rx_gain_db", "lna_gain_db"])
    def test_rejects_non_finite_powers_and_gains(self, field, value):
        with pytest.raises(ValidationError, match=field):
            make_scene(tiny_panel(), [0, 0, 1.0], [0, 0, -1.0], **{field: value})

    def test_rejects_straddling_bs_antennas(self):
        with pytest.raises(InvalidSceneError):
            make_scene(tiny_panel(), [[0, 0, 1.0], [0, 0, -1.0]],
                       [0, 0, -2.0])


class TestElementFactor:
    def test_cosine_factor_attenuates_oblique_paths(self):
        panel = tiny_panel(rows=1, cols=2, dx=0.1)
        layout = build_layout(panel)
        table = StateTable(states=(CoefficientPair(0.5, 0.1, 0.5, 0.2),))
        config = Configuration.uniform(2, 0)
        base = make_scene(panel, [0, 0, 2.0], [1.5, 0, 0.4])
        shaped = make_scene(panel, [0, 0, 2.0], [1.5, 0, 0.4],
                            element_factor_q=2.0)
        h_base = cascaded(base, layout, table, config)[0, 0]
        h_shaped = cascaded(shaped, layout, table, config)[0, 0]
        assert abs(h_shaped) < abs(h_base)

    def test_q_zero_leaves_gains_untouched(self):
        panel = tiny_panel(rows=2, cols=2)
        layout = build_layout(panel)
        table = prototype_state_table()
        config = Configuration.uniform(4, 1)
        plain = make_scene(panel, [0.2, 0, 1.5], [0.4, 0.1, -0.8])
        explicit = make_scene(panel, [0.2, 0, 1.5], [0.4, 0.1, -0.8],
                              element_factor_q=0.0)
        a = cascaded(plain, layout, table, config)
        b = cascaded(explicit, layout, table, config)
        assert np.array_equal(a, b)


class TestFading:
    def geometry(self):
        panel = tiny_panel(rows=2, cols=2)
        layout = build_layout(panel)
        scene = make_scene(panel, [0, 0, 1.0], [[0.3, 0, 0.8], [0.1, 0, -0.9]])
        return channel_geometry(scene, layout)

    def test_infinite_k_factor_is_degenerate(self):
        assert FadingModel(math.inf).is_degenerate
        assert not FadingModel(10.0).is_degenerate

    def test_nan_k_factor_is_rejected(self):
        with pytest.raises(ValidationError):
            FadingModel(math.nan)

    def test_rayleigh_k_factor_draws_finite_factors(self):
        model = FadingModel(-math.inf)
        assert not model.is_degenerate
        sample = model.draw(np.random.default_rng(0), (1000,))
        assert np.all(np.isfinite(sample))
        assert np.mean(np.abs(sample) ** 2) == pytest.approx(1.0, rel=0.1)

    def test_factors_have_unit_mean_square(self):
        model = FadingModel(k_factor_db=3.0)
        gen = np.random.default_rng(0)
        sample = model.draw(gen, (20000,))
        assert np.mean(np.abs(sample) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_draws_are_deterministic(self):
        geo = self.geometry()
        a = draw_realizations(FadingModel(6.0), geo, seed=9, num_samples=3)
        b = draw_realizations(FadingModel(6.0), geo, seed=9, num_samples=3)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.bs_to_element, rb.bs_to_element)
            assert np.array_equal(ra.element_to_user, rb.element_to_user)

    def test_direct_path_gets_its_own_factor(self):
        panel = tiny_panel(rows=1, cols=2, dx=0.1)
        layout = build_layout(panel)
        scene = make_scene(panel, [0, 0, 2.0], [0.5, 0, 1.0],
                           direct_path=True)
        geo = channel_geometry(scene, layout)
        real = draw_realizations(FadingModel(5.0), geo, seed=1, num_samples=2)
        assert real[0].direct is not None
        assert real[0].direct.shape == (1, 1)
        assert not np.array_equal(real[0].direct, real[1].direct)
