import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omnisim import (CoefficientPair, Configuration, ElementLayout, FadingModel,
                     Granularity, InvalidSceneError, LinkBudgetChain, PanelSpec,
                     Scene, StateTable, ValidationError, assemble_channel, beamforming,
                     build_layout, channel, channel_geometry, evaluate_rates,
                     exhaustive_optimize, friis_gain, greedy_optimize, link_budget,
                     noise_power, relaxed_upper_bound, side_of, statistical_optimize,
                     sum_rate)
from omnisim.channel import SPEED_OF_LIGHT, _hop_gains, db_to_linear, draw_realizations

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

    @pytest.mark.parametrize("distance, wavelength", [
        (math.nan, WAVELENGTH_3G6), (math.inf, WAVELENGTH_3G6),
        (np.array([1.0, math.nan]), WAVELENGTH_3G6), (1.0, math.nan), (1.0, math.inf),
        (1.0, 0.0), (1.0, -WAVELENGTH_3G6)])
    def test_rejects_non_finite_input_and_non_positive_wavelength(self, distance, wavelength):
        with pytest.raises(ValidationError):
            friis_gain(distance, wavelength)

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

    @pytest.mark.parametrize("bandwidth_hz, noise_figure_db", [
        (0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
        (1e6, math.nan), (1e6, math.inf), (1e6, -math.inf)])
    def test_rejects_non_positive_or_non_finite_input(self, bandwidth_hz, noise_figure_db):
        with pytest.raises(ValidationError):
            noise_power(bandwidth_hz, noise_figure_db)


class TestLinkBudget:
    PROTOTYPE_ITEMS = (("tx_antenna_db", 10.0), ("tx_ios_channel_db", -47.76),
                       ("ios_gain_db", 0.0), ("ios_rx_channel_db", -43.53),
                       ("rx_antenna_db", 10.0), ("lna_db", 14.3))

    def test_prototype_chain_total(self):
        chain = LinkBudgetChain(tx_power_dbm=1.0, items=self.PROTOTYPE_ITEMS)
        assert link_budget(chain) == pytest.approx(-55.99, abs=1e-9)

    def test_empty_items_returns_tx_power(self):
        assert link_budget(LinkBudgetChain(5.0, ())) == 5.0

    def test_single_item(self):
        chain = LinkBudgetChain(0.0, (("loss", -3.0),))
        assert link_budget(chain) == -3.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_or_item_rejected(self, value):
        with pytest.raises(ValidationError, match="finite"):
            LinkBudgetChain(value, (("a", 1.0),))
        with pytest.raises(ValidationError, match="finite"):
            LinkBudgetChain(1.0, (("a", 1.0), ("b", value)))

    @pytest.mark.parametrize("items", [(("a",),), (("a", 1.0, 2.0),), (1.0,), None])
    def test_items_must_be_label_value_pairs(self, items):
        with pytest.raises(ValidationError, match=r"must be \(label, dB\) pairs"):
            LinkBudgetChain(0.0, items)

    @given(st.lists(st.floats(min_value=-80, max_value=40), min_size=1,
                    max_size=8),
           st.integers(min_value=0, max_value=100))
    def test_permutation_invariant(self, values, seed):
        items = tuple((f"g{i}", v) for i, v in enumerate(values))
        shuffled = list(items)
        np.random.default_rng(seed).shuffle(shuffled)
        a = link_budget(LinkBudgetChain(1.0, items))
        b = link_budget(LinkBudgetChain(1.0, tuple(shuffled)))
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

    def test_single_element_refraction_product(self, prototype):
        panel = tiny_panel()
        layout = build_layout(panel)
        table = prototype.table
        d1, d2 = 1.3, 0.8
        scene = make_scene(panel, [0, 0, d1], [0, 0, -d2])
        H = cascaded(scene, layout, table, Configuration.uniform(1, 1))
        expected = (WAVELENGTH_3G6 / (4 * math.pi * d1)) * 0.81 * \
                   (WAVELENGTH_3G6 / (4 * math.pi * d2))
        assert abs(H[0, 0]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("states, granularity, message", [
        ((0, 1), Granularity.GROUP, "group 0 members disagree on state"),
        ((0, 0, 0), Granularity.ELEMENT, "configuration covers 3 elements"),
        ((0, 2), Granularity.ELEMENT, "state index 2 out of range"),
    ])
    def test_refuses_what_sum_rate_refuses(self, prototype, states, granularity, message):
        """assemble_channel and sum_rate share one configuration check."""
        panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1, cols=2,
                          dx=0.04, dy=0.04, group_rows=1, group_cols=2)
        layout = build_layout(panel)
        scene = make_scene(panel, [0, 0, 1.0], [0.3, 0, -0.8])
        table = StateTable(states=prototype.table.states[:2])
        config = Configuration(states=states, granularity=granularity)
        with pytest.raises(ValidationError, match=message):
            cascaded(scene, layout, table, config)
        with pytest.raises(ValidationError, match=message):
            sum_rate(scene, layout, table, config)

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


class TestHopGains:
    """``_hop_gains`` keeps the bits of the formula it replaced: one (P, M, 3)
    difference whose squares are summed over the last axis, and the Friis
    phase built by a complex multiply and a complex-by-real divide.  The
    element factor is |(dx nx + dy ny) + dz nz|, summed per axis in that order
    (a BLAS ``diff @ normal`` rounds as the kernel chosen at run time does)."""

    @staticmethod
    def reference(points, layout, scene):
        diff = points[:, None, :] - layout.positions[None, :, :]
        along_normal = np.abs(diff[..., 0] * scene.panel.normal[0]
                              + diff[..., 1] * scene.panel.normal[1]
                              + diff[..., 2] * scene.panel.normal[2])
        diff *= diff
        dist = np.sqrt(diff.sum(axis=2))
        gains = np.multiply(-2j * math.pi, dist, out=np.empty(dist.shape, dtype=complex))
        gains /= scene.wavelength
        np.exp(gains, out=gains)
        np.multiply(scene.wavelength / (4.0 * math.pi * dist), gains, out=gains)
        friis = gains.copy()
        if scene.element_factor_q > 0:
            gains *= (along_normal / dist) ** scene.element_factor_q
        return dist, friis, gains

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.5, 1.0, 2.5]),
           st.integers(1, 4), st.integers(1, 5), st.integers(1, 40),
           st.sampled_from([0.01, 1.0, 100.0]), st.booleans())
    @settings(max_examples=80)
    def test_bitwise_equal_to_reference(self, seed, q, rows, cols, num_points,
                                        scale, axis_normal):
        rng = np.random.default_rng(seed)
        normal = np.array([0, 0, 1.0]) if axis_normal else rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        center = rng.normal(size=3)
        panel = PanelSpec(center=center.tolist(), normal=normal.tolist(),
                          rows=rows, cols=cols, dx=float(rng.uniform(0.01, 0.2)),
                          dy=float(rng.uniform(0.01, 0.2)), group_rows=1, group_cols=1)
        layout = build_layout(panel)
        scene = make_scene(panel, center + normal, center - normal,
                           frequency_hz=float(rng.uniform(1e9, 3e10)),
                           element_factor_q=q)
        points = center + scale * rng.normal(size=(num_points, 3))
        dist, friis, expected = self.reference(points, layout, scene)
        assert _hop_gains(points, layout, scene).tobytes() == expected.tobytes()
        assert friis_gain(dist, scene.wavelength).tobytes() == friis.tobytes()

    def test_point_on_an_element_raises(self):
        panel = tiny_panel(rows=2, cols=2)
        layout = build_layout(panel)
        scene = make_scene(panel, [0, 0, 1.0], [0, 0, -1.0])
        points = np.array([[0.3, 0.2, 0.5], layout.positions[3]])
        with pytest.raises(ValidationError, match="coincides with an element"):
            _hop_gains(points, layout, scene)

    def test_user_on_a_bs_antenna_names_it(self):
        """The direct path shares the hop's distance scan and its message."""
        panel = tiny_panel(rows=2, cols=2)
        scene = make_scene(panel, [[0, 0, 1.0], [0.5, 0.25, 1.0]], [[0.5, 0.25, 1.0]],
                           direct_path=True)
        with pytest.raises(ValidationError,
                           match=r"^a terminal coincides with a BS antenna at \[0.5, 0.25, 1.0\]$"):
            channel_geometry(scene, build_layout(panel))

    def test_friis_gain_keeps_its_own_check(self):
        with pytest.raises(ValidationError, match="requires positive distance"):
            friis_gain(np.array([1.0, 0.0, 2.0]), WAVELENGTH_3G6)


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

    @pytest.mark.parametrize("gains", [{"lna_gain_db": 1e4}, {"lna_gain_db": -1e4},
                                       {"tx_gain_db": 2e3, "rx_gain_db": 2e3},
                                       {"tx_gain_db": 1e308, "rx_gain_db": 1e308}])
    def test_rejects_gains_beyond_the_float_range(self, gains):
        """Finite gains whose linear sum overflows to inf or underflows to 0
        are refused up front, as the watts are, not an OverflowError in
        ``snr_at``."""
        with pytest.raises(ValidationError, match="lna_gain_db as a linear gain must be "
                                                  "a real number that is positive"):
            make_scene(tiny_panel(), [0, 0, 1.0], [0, 0, -1.0], **gains)

    def test_rejects_straddling_bs_antennas(self):
        with pytest.raises(InvalidSceneError):
            make_scene(tiny_panel(), [[0, 0, 1.0], [0, 0, -1.0]],
                       [0, 0, -2.0])

    @pytest.mark.parametrize("points", [[[0, 0, 1.0], [0, 0]], "abc", [[1 + 2j, 0, 1.0]],
                                        np.array([[0, 0, 1j]]), [[0, 0, None], [0]],
                                        [["0.6", "0.3", "0"]], [[0, 0, "1"]],
                                        [[True, False, True]], np.ones((1, 3), dtype=bool),
                                        [[True, 0, 1.0]], [[0, 0, 1.0], (0, np.True_, -1)]])
    @pytest.mark.parametrize("field, name", [("bs_antennas", "bs antennas"),
                                             ("users", "users")])
    def test_rejects_points_that_are_not_real_arrays(self, field, name, points):
        """Ragged, non-numeric, string, bool or complex terminals are a
        ValidationError naming them, not numpy's ValueError, a parsed
        string or a dropped imaginary part."""
        terminals = {"bs_antennas": [[0, 0, 1.0]], "users": [[0, 0, -1.0]], field: points}
        with pytest.raises(ValidationError,
                           match=f"^{name} must be a non-empty list of real"):
            Scene(frequency_hz=3.6e9, panel=tiny_panel(), tx_power_dbm=0.0,
                  bandwidth_hz=1e6, **terminals)


class TestStoredSides:
    """``Scene`` keeps the sides and the chain gain it computes to validate
    itself, and refuses a far terminal there, before any channel is built."""

    def scene(self):
        panel = tiny_panel(normal=(0, 0.6, -0.8))
        return make_scene(panel, [[0.1, -0.5, 1.0], [0.3, 0.2, 2.0]],
                          [[0.4, 0.2, -0.9], [-0.3, 0.1, 1.0], [0.2, -3.0, 0.5]],
                          tx_gain_db=2.0, rx_gain_db=-1.5, lna_gain_db=20.0)

    def test_sides_are_the_recomputed_ones(self):
        scene = self.scene()
        assert scene.bs_side_sign == int(scene.panel.plane_side(scene.bs_antennas[0])) == -1
        want = scene.panel.plane_side(scene.users) * scene.bs_side_sign
        assert scene.user_sides.dtype == want.dtype
        assert scene.user_sides.tolist() == want.tolist() == scene.point_sides(
            scene.users).tolist() == [-1, 1, 1]
        assert scene.chain_gain == db_to_linear(2.0 - 1.5 + 20.0)

    def test_sides_are_read_only(self):
        scene = self.scene()
        with pytest.raises(ValueError, match="read-only"):
            scene.user_sides[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            scene.bs_side_sign = 1

    @pytest.mark.parametrize("field", ["bs", "users"])
    def test_far_terminal_is_refused_when_the_scene_is_built(self, field):
        terminals = {"bs": [[0.0, 0.0, 1.0]], "users": [[0.3, 0.0, -1.0]]}
        terminals[field] = [*terminals[field], [0.0, 0.0, -1e200]]
        with pytest.raises(ValidationError,
                           match=r"point 1 at \[0\.0, 0\.0, -1e\+200\] has a coordinate "
                                 r"beyond 1e\+150 m"):
            make_scene(tiny_panel(), terminals["bs"], terminals["users"])


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

    def test_q_zero_leaves_gains_untouched(self, prototype):
        panel = tiny_panel(rows=2, cols=2)
        layout = build_layout(panel)
        table = prototype.table
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


def geometry_arrays(geometry):
    return [geometry.bs_to_element, geometry.element_to_user,
            geometry.user_side_index, geometry.members]


def assert_geometry_is(scene, layout, arrays):
    """Both the cached geometry and a fresh build have these arrays."""
    for geometry in (channel_geometry(scene, layout), channel._build_geometry(scene, layout)):
        for got, want in zip(geometry_arrays(geometry), arrays):
            assert np.array_equal(got, want)


class TestOwnedArrays:
    """Scenes and layouts freeze copies of their arrays: the caller's arrays
    stay writable, and writing to them changes neither the object nor its
    (cached) geometry."""

    def test_scene_copies_terminals(self):
        panel = tiny_panel(rows=2, cols=2)
        layout = build_layout(panel)
        bs = np.array([0.1, 0.0, 1.0])  # 1-D: the scene holds a (1, 3) array
        users = np.array([[0.3, 0.0, 0.8], [0.1, 0.2, -0.9]])
        scene = make_scene(panel, bs, users)
        before = [a.copy() for a in geometry_arrays(channel_geometry(scene, layout))]
        bs[0] += 0.5
        users[0, 0] += 0.5
        assert bs.flags.writeable and users.flags.writeable
        assert not scene.bs_antennas.flags.writeable
        assert not scene.users.flags.writeable
        assert scene.bs_antennas.tolist() == [[0.1, 0.0, 1.0]]
        assert scene.users.tolist() == [[0.3, 0.0, 0.8], [0.1, 0.2, -0.9]]
        assert_geometry_is(scene, layout, before)

    def test_layout_copies_its_arrays(self):
        panel = tiny_panel(rows=2, cols=2)
        built = build_layout(panel)
        given = [built.positions.copy(), built.group_of.copy(), built.u.copy(), built.v.copy()]
        layout = ElementLayout(*given)
        scene = make_scene(panel, [0.1, 0.0, 1.0], [0.3, 0.0, 0.8])
        before = [a.copy() for a in geometry_arrays(channel_geometry(scene, layout))]
        for array in given:
            array[0] += 3
        owned = [layout.positions, layout.group_of, layout.u, layout.v]
        assert all(array.flags.writeable for array in given)
        assert not any(array.flags.writeable for array in owned)
        for got, want in zip(owned, [built.positions, built.group_of, built.u, built.v]):
            assert np.array_equal(got, want)
        assert_geometry_is(scene, layout, before)


class TestGeometryCache:
    """``channel_geometry`` builds once per (scene, layout) identity and
    holds both weakly."""

    def world(self):
        panel = tiny_panel(rows=1, cols=4, dx=0.1)
        scene = make_scene(panel, [[0.0, 0.0, 1.0], [0.2, 0.0, 1.0]],
                           [[0.4, 0.1, 0.8], [-0.3, 0.2, -0.9]])
        return scene, build_layout(panel)

    def test_one_build_per_oracle_solve(self, prototype, monkeypatch, zf_rows):
        """Exhaustive and greedy search, the bound and two rate checks, as
        the brute-force oracle runs them, share one geometry build, and the
        two searches one scoring of the whole space: greedy calls no ZF, and
        each rate check scores its one configuration."""
        builds = []
        build = channel._build_geometry

        def counted(scene, layout):
            builds.append(scene)
            return build(scene, layout)

        monkeypatch.setattr(channel, "_build_geometry", counted)
        scene, layout = self.world()
        table = prototype.table
        best = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        greedy = greedy_optimize(scene, layout, table, Granularity.GROUP)
        assert relaxed_upper_bound(scene, layout, table) >= best.objective
        assert sum_rate(scene, layout, table, best.config) == best.objective
        assert sum_rate(scene, layout, table, greedy.config) == greedy.objective
        assert len(builds) == 1 and builds[0] is scene
        assert zf_rows == [table.num_states ** layout.num_groups, 1, 1]

    def test_same_object_per_pair(self):
        scene, layout = self.world()
        geometry = channel_geometry(scene, layout)
        assert channel_geometry(scene, layout) is geometry
        other_layout = build_layout(scene.panel)
        other = channel_geometry(scene, other_layout)
        assert other is not geometry
        assert channel_geometry(scene, other_layout) is other
        for a, b in zip(geometry_arrays(geometry), geometry_arrays(other)):
            assert np.array_equal(a, b)
        assert not geometry.bs_to_element.flags.writeable

    def test_keeps_nothing_alive(self):
        scene, layout = self.world()
        geometry = channel_geometry(scene, layout)
        refs = [weakref.ref(x) for x in (scene, layout, geometry)]
        del scene, layout, geometry
        gc.collect()
        assert [r() for r in refs] == [None, None, None]

    def test_layout_mismatch_raises_on_every_call(self):
        scene, layout = self.world()
        channel_geometry(scene, layout)
        mismatched = build_layout(tiny_panel(rows=1, cols=2))
        for _ in range(2):
            with pytest.raises(ValidationError, match="layout does not match"):
                channel_geometry(scene, mismatched)


class TestScoredSpaceCache:
    """``beamforming._SCORED`` keeps a whole fading-free space that fits one
    pass, scored once for exhaustive and greedy search, per geometry."""

    world = TestGeometryCache.world

    def test_keeps_nothing_alive(self, prototype):
        scene, layout = self.world()
        table = StateTable(states=prototype.table.states)
        exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        geometry = channel_geometry(scene, layout)
        assert geometry in beamforming._SCORED
        refs = [weakref.ref(x) for x in (scene, layout, table, geometry)]
        del scene, layout, table, geometry
        gc.collect()
        assert [r() for r in refs] == [None, None, None, None]

    def test_entries_are_read_only(self, prototype):
        scene, layout = self.world()
        greedy_optimize(scene, layout, prototype.table, Granularity.ELEMENT)
        exhaustive_optimize(scene, layout, prototype.table, Granularity.GROUP)
        entries = beamforming._SCORED[channel_geometry(scene, layout)]
        assert len(entries) == 2  # one per granularity
        for values, degenerate in entries.values():
            assert values.dtype == float and degenerate.dtype == bool
            assert not values.flags.writeable and not degenerate.flags.writeable

    def test_no_entry_without_a_fit_or_under_fading(self, prototype, prototype_layout):
        """The prototype's 2^16 group candidates do not fit one pass; a faded
        space is scored for its one search only."""
        greedy_optimize(prototype.scene, prototype_layout, prototype.table, Granularity.GROUP)
        assert channel_geometry(prototype.scene, prototype_layout) not in beamforming._SCORED
        scene, layout = self.world()
        statistical_optimize(scene, layout, prototype.table, FadingModel(6.0), 3, 0,
                             Granularity.GROUP)
        assert channel_geometry(scene, layout) not in beamforming._SCORED

    def test_sum_rate_ignores_a_poisoned_entry(self, prototype):
        """The searches read a poisoned entry; ``sum_rate`` and
        ``evaluate_rates``, their independent check, do not."""
        scene, layout = self.world()
        table = prototype.table
        best = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        entries = beamforming._SCORED[channel_geometry(scene, layout)]
        for key, (values, degenerate) in entries.items():
            poison = np.full_like(values, 1e3), np.ones_like(degenerate)
            for array in poison:
                array.setflags(write=False)
            entries[key] = poison
        assert exhaustive_optimize(scene, layout, table, Granularity.GROUP).objective == 1e3
        assert greedy_optimize(scene, layout, table, Granularity.GROUP).objective == 1e3
        assert sum_rate(scene, layout, table, best.config) == best.objective
        rates = evaluate_rates(scene, layout, table, best.config)
        assert (rates.sum_rate, rates.degenerate) == (best.objective, False)
