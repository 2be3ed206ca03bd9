import copy
import math

import numpy as np
import pytest

from omnisim import (CoefficientPair, Configuration, CoverageGrid, PanelSpec,
                     PatternSweep, Scene, Side, SideUndefinedError, StateTable,
                     ValidationError, assemble_channel, build_layout,
                     channel_geometry, coverage_map, quantize_phase,
                     radiation_pattern, snr_at)
from omnisim.analysis import MIN_STEP_DEG, _pattern_angles, pattern_power
from omnisim.scene_io import parse_scene_dict


def steering_config(scene, layout, table, side, target_deg):
    """Quantize per-element co-phasing toward one far-field direction."""
    outward = scene.panel.normal * scene.bs_side_sign
    if side is Side.REFRACTION:
        outward = -outward
    d_hat = (math.sin(math.radians(target_deg)) * layout.u
             + math.cos(math.radians(target_deg)) * outward)
    rel = layout.positions - scene.panel.center
    targets = -(2 * math.pi / scene.wavelength) * (rel @ d_hat)
    return Configuration(states=tuple(
        quantize_phase(table, side, t) for t in targets))


@pytest.fixture(scope="module")
def normal_incidence(prototype):
    """Prototype panel lit by a single on-axis plane wave."""
    raw = copy.deepcopy(prototype.raw)
    raw["options"]["plane_wave"] = True
    raw["bs"]["antennas"] = [[1.16, 0.0, 0.0]]
    parsed = parse_scene_dict(raw)
    return parsed, build_layout(parsed.panel)


class TestPatternAngles:
    def test_one_degree_grid(self):
        angles = _pattern_angles(1.0)
        assert angles[0] == -89.0 and angles[-1] == 89.0
        assert np.all(np.diff(angles) == 1.0)

    def test_oversized_step_gives_single_broadside_sample(self):
        assert list(_pattern_angles(181.0)) == [0.0]

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValidationError):
            _pattern_angles(0.0)

    @pytest.mark.parametrize("step", [1e-12, 1e-300, MIN_STEP_DEG * (1 - 1e-12)])
    def test_rejects_a_step_beyond_2_to_the_20_probes(self, step):
        with pytest.raises(ValidationError, match="step_deg must be a real number that is at least"):
            _pattern_angles(step)

    @pytest.mark.parametrize("step, probes", [(1.0, 179), (0.1, 1799), (MIN_STEP_DEG, 2 ** 20 - 1)])
    def test_the_smallest_step_keeps_to_2_to_the_20_probes(self, step, probes):
        assert len(_pattern_angles(step)) == probes


class TestRadiationPattern:
    def test_normalization_peaks_at_zero_db(self, normal_incidence):
        parsed, layout = normal_incidence
        config = Configuration.uniform(layout.num_elements, 0)
        for side in Side:
            sweep = radiation_pattern(parsed.scene, layout, parsed.table,
                                      config, side)
            assert sweep.side is side
            assert sweep.power_db.max() == 0.0
            assert np.all(np.diff(sweep.angles_deg) > 0)
            assert not sweep.angles_deg.flags.writeable
            assert not sweep.power_db.flags.writeable

    def test_peak_angle_takes_the_first_maximum(self):
        sweep = PatternSweep(angles_deg=np.array([-2.0, -1.0, 0.0, 1.0]),
                             power_db=np.array([-3.0, 0.0, -1.0, 0.0]),
                             side=Side.REFLECTION, skipped=0)
        assert sweep.peak_angle() == -1.0

    def test_specular_peak_at_broadside(self, normal_incidence):
        parsed, layout = normal_incidence
        for state in (0, 1):
            config = Configuration.uniform(layout.num_elements, state)
            sweep = radiation_pattern(parsed.scene, layout, parsed.table,
                                      config, Side.REFLECTION, step_deg=1.0)
            assert abs(sweep.peak_angle()) <= 1.0

    def test_uniform_configs_share_normalized_shape(self, normal_incidence):
        parsed, layout = normal_incidence
        sweeps = [radiation_pattern(parsed.scene, layout, parsed.table,
                                    Configuration.uniform(640, s),
                                    Side.REFLECTION) for s in (0, 1)]
        assert np.allclose(sweeps[0].power_db, sweeps[1].power_db, atol=1e-9)
        # absolute levels differ by the squared amplitude ratio
        power = [pattern_power(parsed.scene, layout, parsed.table,
                               Configuration.uniform(640, s),
                               Side.REFLECTION, np.array([0.0]))[0][0]
                 for s in (0, 1)]
        assert power[1] / power[0] == pytest.approx((0.55 / 0.46) ** 2,
                                                    rel=1e-9)

    def test_elevation_beam_is_wider_than_azimuth_beam(self, normal_incidence):
        """The panel is 0.92 m along u (azimuth cut) and 0.28 m along v
        (elevation cut), so the elevation beam is ~3.3x wider; a swapped
        u/v axis would make it the narrower one."""
        parsed, layout = normal_incidence
        config = Configuration.uniform(layout.num_elements, 0)
        widths = {}
        for cut in ("azimuth", "elevation"):
            sweep = radiation_pattern(parsed.scene, layout, parsed.table, config,
                                      Side.REFLECTION, cut=cut, step_deg=0.2)
            angles, power_db = sweep.angles_deg, sweep.power_db
            assert sweep.peak_angle() == 0.0
            assert np.allclose(power_db, power_db[::-1], atol=1e-9)
            main_lobe = angles[power_db >= -3.0]
            widths[cut] = main_lobe.max() - main_lobe.min()
        aperture = {"azimuth": parsed.panel.cols * parsed.panel.dx,
                    "elevation": parsed.panel.rows * parsed.panel.dy}
        assert widths["elevation"] > widths["azimuth"]
        assert widths["elevation"] / widths["azimuth"] == pytest.approx(
            aperture["azimuth"] / aperture["elevation"], rel=0.1)

    def test_single_element_pattern_is_flat(self):
        panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1,
                          cols=1, dx=0.04, dy=0.04, group_rows=1,
                          group_cols=1)
        layout = build_layout(panel)
        table = StateTable(states=(CoefficientPair(0.5, 0.3, 0.5, 1.2),))
        scene = Scene(frequency_hz=3.6e9, panel=panel,
                      bs_antennas=np.array([[0.0, 0.0, 1.5]]),
                      users=np.array([[0.2, 0.0, -1.0]]),
                      tx_power_dbm=0.0, bandwidth_hz=1e6)
        sweep = radiation_pattern(scene, layout, table,
                                  Configuration.uniform(1, 0),
                                  Side.REFLECTION, step_deg=1.0)
        within = sweep.power_db[np.abs(sweep.angles_deg) <= 60.0]
        assert within.max() - within.min() < 0.1

    def test_element_factor_applies_on_probe_hop(self):
        panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1,
                          cols=1, dx=0.04, dy=0.04, group_rows=1,
                          group_cols=1)
        layout = build_layout(panel)
        table = StateTable(states=(CoefficientPair(0.5, 0.3, 0.5, 1.2),))
        scene = Scene(frequency_hz=3.6e9, panel=panel,
                      bs_antennas=np.array([[0.0, 0.0, 1.5]]),
                      users=np.array([[0.2, 0.0, -1.0]]),
                      tx_power_dbm=0.0, bandwidth_hz=1e6,
                      element_factor_q=2.0)
        for side in Side:
            sweep = radiation_pattern(scene, layout, table,
                                      Configuration.uniform(1, 0), side,
                                      step_deg=15.0)
            angles, power_db = sweep.angles_deg, sweep.power_db
            assert len(angles) == 11
            # cos^2 on the amplitude of the probe hop is cos^4 in power
            expected = 40.0 * np.log10(np.cos(np.deg2rad(angles)))
            assert np.allclose(power_db, expected, rtol=0.0, atol=1e-9)

    def test_steered_configs_peak_apart(self, prototype, prototype_layout):
        """Stand-in for the measured two-configuration sweeps: distinct
        configurations must aim distinct beams."""
        scene, table = prototype.scene, prototype.table
        peaks = []
        for target in (10.0, 35.0):
            config = steering_config(scene, prototype_layout, table,
                                     Side.REFLECTION, target)
            sweep = radiation_pattern(scene, prototype_layout, table, config,
                                      Side.REFLECTION, step_deg=1.0)
            peaks.append(sweep.peak_angle())
        assert abs(peaks[1] - peaks[0]) >= 2.0

    def test_mirrored_energy_ratio_matches_table_constant(self,
                                                          normal_incidence):
        parsed, layout = normal_incidence
        angles = np.arange(-60.0, 61.0, 5.0)
        config = Configuration.uniform(640, 0)
        refl, _ = pattern_power(parsed.scene, layout, parsed.table, config,
                                Side.REFLECTION, angles)
        refr, _ = pattern_power(parsed.scene, layout, parsed.table, config,
                                Side.REFRACTION, angles)
        assert np.allclose(refr / refl, (0.58 / 0.46) ** 2, rtol=1e-9)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_angles(self, prototype, prototype_layout, bad):
        with pytest.raises(ValidationError, match="angles_deg"):
            pattern_power(prototype.scene, prototype_layout, prototype.table,
                          Configuration.uniform(640, 0), Side.REFLECTION,
                          np.array([0.0, bad]))

    def test_pattern_excludes_direct_path(self, prototype, prototype_layout):
        raw = copy.deepcopy(prototype.raw)
        raw["options"]["direct_path"] = True
        direct = parse_scene_dict(raw)
        config = Configuration.uniform(640, 1)
        angles = np.arange(-80.0, 81.0, 4.0)
        for side in Side:
            without, _ = pattern_power(prototype.scene, prototype_layout,
                                       prototype.table, config, side, angles)
            with_direct, _ = pattern_power(direct.scene, prototype_layout,
                                           direct.table, config, side, angles)
            assert without.tobytes() == with_direct.tobytes()
        # The same two scenes differ on the BS side of a coverage map.
        grid = TestCoverageMap.GRID
        off = coverage_map(prototype.scene, prototype_layout, prototype.table,
                           config, grid)
        on = coverage_map(direct.scene, prototype_layout, direct.table,
                          config, grid)
        bs_side = off.side > 0
        assert bs_side.any()
        assert np.all(on.values[bs_side] != off.values[bs_side])
        assert on.values[off.side < 0].tobytes() == \
            off.values[off.side < 0].tobytes()


class TestCoverageGrid:
    @pytest.mark.parametrize("nx, ny", [(1.5, 3), (3, 2.0), (math.nan, 3), (3, math.inf),
                                        (0, 3), (3, -1), ("3", 3), (True, True),
                                        (3, np.bool_(True))])
    def test_rejects_a_cell_count_that_is_not_a_positive_integer(self, nx, ny):
        with pytest.raises(ValidationError):
            CoverageGrid(-1.0, 1.0, -1.0, 1.0, nx, ny)

    def test_accepts_numpy_integers(self):
        assert CoverageGrid(-1.0, 1.0, -1.0, 1.0, np.int64(3), 2).xs.tolist() == [-1.0, 0.0, 1.0]


class TestCoverageMap:
    GRID = CoverageGrid(x0=-1.5, x1=1.5, y0=-1.0, y1=1.0, nx=21, ny=15)

    def test_zero_coefficients_zero_everywhere(self, prototype,
                                               prototype_layout):
        raw = copy.deepcopy(prototype.raw)
        raw["state_table"] = [{
            "reflection": {"amp": 0.0, "phase_deg": 0.0},
            "refraction": {"amp": 0.0, "phase_deg": 0.0},
        }]
        parsed = parse_scene_dict(raw)
        cmap = coverage_map(parsed.scene, prototype_layout, parsed.table,
                            Configuration.uniform(640, 0), self.GRID)
        unmasked = cmap.values[cmap.side != 0]
        assert np.all(unmasked == 0.0)

    def test_masked_cells_are_nan(self, prototype, prototype_layout):
        grid = CoverageGrid(x0=-1.0, x1=1.0, y0=0.0, y1=0.5, nx=3, ny=2)
        cmap = coverage_map(prototype.scene, prototype_layout,
                            prototype.table, Configuration.uniform(640, 0),
                            grid)
        assert np.all(cmap.side[1, :] == 0)  # x = 0 column sits in the plane
        assert np.all(np.isnan(cmap.values[1, :]))
        assert np.all(np.isfinite(cmap.values[[0, 2], :]))

    def test_doubling_noise_strictly_decreases_se(self, prototype,
                                                  prototype_layout):
        config = Configuration.uniform(640, 1)
        base = coverage_map(prototype.scene, prototype_layout,
                            prototype.table, config, self.GRID)
        raw = copy.deepcopy(prototype.raw)
        raw["power"]["noise_figure_db"] += 10 * math.log10(2.0)
        noisier = parse_scene_dict(raw)
        worse = coverage_map(noisier.scene, prototype_layout, noisier.table,
                             config, self.GRID)
        live = (base.side != 0) & (base.values > 0)
        assert np.all(worse.values[live] < base.values[live])

    def test_distinct_configs_differ(self, prototype, prototype_layout):
        a = coverage_map(prototype.scene, prototype_layout, prototype.table,
                         steering_config(prototype.scene, prototype_layout,
                                         prototype.table, Side.REFLECTION,
                                         10.0), self.GRID)
        b = coverage_map(prototype.scene, prototype_layout, prototype.table,
                         steering_config(prototype.scene, prototype_layout,
                                         prototype.table, Side.REFLECTION,
                                         35.0), self.GRID)
        diff = np.abs(a.values - b.values)
        live = a.side != 0
        assert np.nanmax(diff[live]) > 0.0

    def test_workers_do_not_change_values(self, prototype, prototype_layout):
        config = Configuration.uniform(640, 0)
        serial = coverage_map(prototype.scene, prototype_layout,
                              prototype.table, config, self.GRID, workers=1)
        threaded = coverage_map(prototype.scene, prototype_layout,
                                prototype.table, config, self.GRID, workers=4)
        assert np.array_equal(serial.values, threaded.values,
                              equal_nan=True)


class TestSnrAt:
    def single_element_scene(self, scale=1.0):
        panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1,
                          cols=1, dx=0.04, dy=0.04, group_rows=1,
                          group_cols=1)
        scene = Scene(frequency_hz=3.6e9, panel=panel,
                      bs_antennas=np.array([[0.3 * scale, 0.0, 1.2 * scale]]),
                      users=np.array([[0.0, 0.0, -1.0]]),
                      tx_power_dbm=10.0, bandwidth_hz=1e6,
                      noise_figure_db=3.0, tx_gain_db=4.0, rx_gain_db=2.0,
                      lna_gain_db=11.0)
        return scene, build_layout(panel)

    def test_doubling_all_distances_costs_about_12_db(self, prototype):
        table = prototype.table
        config = Configuration.uniform(1, 1)
        near_scene, near_layout = self.single_element_scene(1.0)
        far_scene, far_layout = self.single_element_scene(2.0)
        point = np.array([0.1, 0.2, -0.8])
        near = snr_at(near_scene, near_layout, table, config, point)
        far = snr_at(far_scene, far_layout, table, config, 2.0 * point)
        assert far - near == pytest.approx(-40 * math.log10(2.0), abs=1e-9)

    def test_chain_gain_enters_directly(self, prototype):
        table = prototype.table
        config = Configuration.uniform(1, 0)
        scene, layout = self.single_element_scene()
        point = np.array([0.4, -0.1, 0.9])
        base = snr_at(scene, layout, table, config, point)
        boosted = Scene(frequency_hz=scene.frequency_hz, panel=scene.panel,
                        bs_antennas=scene.bs_antennas, users=scene.users,
                        tx_power_dbm=scene.tx_power_dbm,
                        bandwidth_hz=scene.bandwidth_hz,
                        noise_figure_db=scene.noise_figure_db,
                        tx_gain_db=scene.tx_gain_db + 5.0,
                        rx_gain_db=scene.rx_gain_db,
                        lna_gain_db=scene.lna_gain_db)
        assert snr_at(boosted, layout, table, config, point) == \
            pytest.approx(base + 5.0, abs=1e-9)

    def test_prototype_finite_on_both_sides(self, prototype,
                                            prototype_layout):
        config = Configuration.uniform(640, 1)
        for user in prototype.scene.users:
            value = snr_at(prototype.scene, prototype_layout,
                           prototype.table, config, user)
            assert math.isfinite(value)

    def test_in_plane_point_rejected(self, prototype, prototype_layout):
        with pytest.raises(SideUndefinedError):
            snr_at(prototype.scene, prototype_layout, prototype.table,
                   Configuration.uniform(640, 0), [0.0, 0.4, 0.1])

    @pytest.mark.parametrize("point", [[math.inf, 0.0, 0.0], [1.0, math.inf, 0.0],
                                       [math.nan, 0.0, 1.0], [1.0, 2.0], "abc",
                                       [1.0 + 2j, 0.0, 1.0], np.array([0.0, 1j, 1.0]),
                                       [[0.0, 0.0], 1.0]])
    def test_rejects_malformed_point(self, prototype, prototype_layout, point):
        with pytest.raises(ValidationError, match="^point must"):
            snr_at(prototype.scene, prototype_layout, prototype.table,
                   Configuration.uniform(640, 0), point)

    def test_in_plane_point_rejected_before_configuration(self, prototype,
                                                          prototype_layout):
        with pytest.raises(SideUndefinedError):
            snr_at(prototype.scene, prototype_layout, prototype.table,
                   Configuration.uniform(3, 99), [0.0, 0.4, 0.1])

    def test_dark_panel_gives_minus_infinity(self):
        scene, layout = self.single_element_scene()
        table = StateTable(states=(CoefficientPair(0.0, 0.0, 0.0, 0.0),))
        value = snr_at(scene, layout, table, Configuration.uniform(1, 0),
                       [0.4, 0.0, 0.9])
        assert value == float("-inf")


class TestAnalysisMatchesChannel:
    """Point SNR, the coverage map and the cascaded channel share one
    element -> point kernel, so a one-user scene at a point gives the same
    SNR as the analysis functions there."""

    PANEL = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=2, cols=4,
                      dx=0.04, dy=0.04, group_rows=2, group_cols=2)
    TABLE = StateTable(states=(CoefficientPair(0.46, 0.35, 0.58, 5.24),
                               CoefficientPair(0.55, 3.75, 0.81, 2.15)))
    CONFIG = Configuration(states=(0, 1, 1, 0, 1, 0, 0, 1))

    def scene_at(self, point):
        return Scene(frequency_hz=3.6e9, panel=self.PANEL,
                     bs_antennas=np.array([[0.3, 0.1, 1.4], [-0.2, 0.0, 1.2]]),
                     users=np.array([point]), tx_power_dbm=20.0,
                     bandwidth_hz=1e6, noise_figure_db=5.0, tx_gain_db=4.0,
                     rx_gain_db=2.0, lna_gain_db=11.0, direct_path=True,
                     element_factor_q=2.0)

    def channel_snr(self, point):
        """Linear SNR of a one-user scene at ``point``, without the antenna
        and LNA gains."""
        scene = self.scene_at(point)
        geometry = channel_geometry(scene, build_layout(self.PANEL))
        entries = assemble_channel(geometry, self.TABLE, self.CONFIG)
        return (scene.tx_power_w * float(np.sum(np.abs(entries) ** 2))
                / scene.noise_power_w)

    @pytest.mark.parametrize("point", [[0.4, 0.2, -0.9], [-0.3, 0.1, 1.0],
                                       [1.5, -0.7, 0.05], [0.0, 0.0, -2.5]])
    def test_snr_at_matches_cascaded_channel(self, point):
        scene = self.scene_at(point)
        chain_db = scene.tx_gain_db + scene.rx_gain_db + scene.lna_gain_db
        expected = 10.0 * math.log10(self.channel_snr(point)) + chain_db
        got = snr_at(scene, build_layout(self.PANEL), self.TABLE,
                     self.CONFIG, point)
        assert got == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_coverage_cells_match_cascaded_channel(self):
        grid = CoverageGrid(x0=-1.0, x1=1.0, y0=-0.6, y1=0.6, nx=5, ny=4)
        scene = self.scene_at([0.4, 0.2, -0.9])
        layout = build_layout(self.PANEL)
        cmap = coverage_map(scene, layout, self.TABLE, self.CONFIG, grid)
        for ix, iy in ((0, 1), (4, 2), (1, 3)):  # both sides of the panel
            point = (self.PANEL.center + grid.xs[ix] * self.PANEL.normal
                     + grid.ys[iy] * layout.u)
            expected = math.log2(1.0 + self.channel_snr(point))
            assert cmap.values[ix, iy] == pytest.approx(expected, rel=1e-12)
        assert {int(s) for s in cmap.side[[0, 4], 0]} == {1, -1}
