import math

import numpy as np
import pytest

from omnisim import (CoefficientPair, Configuration, FadingModel, Granularity,
                     PanelSpec, RankDeficientChannelError, Scene,
                     SearchSpaceError, StateTable, TooManyUsersError,
                     assemble_channel, build_layout, channel_geometry,
                     evaluate_rates, exhaustive_optimize,
                     greedy_optimize, prototype_state_table, random_baseline,
                     relaxed_upper_bound, statistical_optimize, sum_rate,
                     zf_precoder)


THREE_STATES = StateTable(states=(
    CoefficientPair(0.4, 0.0, 0.5, 1.0),
    CoefficientPair(0.6, 2.1, 0.4, 4.0),
    CoefficientPair(0.3, 4.2, 0.7, 2.5)))


def random_channel(gen, k, nt):
    return (gen.standard_normal((k, nt)) + 1j * gen.standard_normal((k, nt))) \
        / math.sqrt(2)


def small_scene(units=8, k_users=2, nt=2, seed=0, **kw):
    """Panel of 1x2-element groups in a line; terminals placed randomly."""
    gen = np.random.default_rng(seed)
    panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1,
                      cols=2 * units, dx=0.0416, dy=0.0416,
                      group_rows=1, group_cols=2)
    def place(side_sign):
        direction = gen.uniform([-0.7, -0.7, 0.25], [0.7, 0.7, 1.0])
        direction[2] *= side_sign
        direction /= np.linalg.norm(direction)
        return direction * gen.uniform(1.0, 3.0)
    bs = np.array([place(1.0) for _ in range(nt)])
    users = np.array([place(gen.choice([-1.0, 1.0])) for _ in range(k_users)])
    kw.setdefault("tx_power_dbm", 30.0)
    kw.setdefault("bandwidth_hz", 10e6)
    kw.setdefault("noise_figure_db", 6.0)
    scene = Scene(frequency_hz=3.6e9, panel=panel, bs_antennas=bs,
                  users=users, **kw)
    return scene, build_layout(panel)


class TestZfPrecoder:
    def test_identity_channel(self):
        result = zf_precoder(np.eye(2, dtype=complex), 2.0, 1.0)
        assert np.allclose(result.power_allocation, [1.0, 1.0])
        assert np.allclose(result.per_user_rate, [1.0, 1.0])
        assert result.sum_rate == pytest.approx(2.0)

    def test_orthogonal_rows_match_mrt_formula(self, rng):
        g = 0.37
        q, _ = np.linalg.qr(random_channel(rng, 4, 4).T)
        H = g * q[:, :2].conj().T  # two orthonormal rows scaled by g
        p_total, noise = 3.0, 0.5
        result = zf_precoder(H, p_total, noise)
        expected = np.log2(1 + (p_total / 2) * g ** 2 / noise)
        assert np.allclose(result.per_user_rate, expected)

    def test_identical_rows_raise_rank_error(self):
        row = np.array([[1.0 + 1j, 2.0 - 0.5j]])
        H = np.vstack([row, row])
        with pytest.raises(RankDeficientChannelError):
            zf_precoder(H, 1.0, 1.0)

    def test_too_many_users(self, rng):
        with pytest.raises(TooManyUsersError):
            zf_precoder(random_channel(rng, 3, 2), 1.0, 1.0)

    def test_orthogonality_and_power_over_random_draws(self, rng):
        for _ in range(50):
            nt = int(rng.integers(1, 9))
            k = int(rng.integers(1, nt + 1))
            H = random_channel(rng, k, nt)
            result = zf_precoder(H, 2.5, 0.1)
            raw = result.precoder * result.column_norms[None, :]
            off = H @ raw - np.eye(k)
            assert np.max(np.abs(off)) < 1e-9
            total = np.sum(result.power_allocation *
                           np.sum(np.abs(result.precoder) ** 2, axis=0))
            assert total == pytest.approx(2.5, rel=1e-9)

    def test_scaling_noise_and_power_leaves_rates(self, rng):
        H = random_channel(rng, 2, 3)
        a = zf_precoder(H, 2.0, 0.25)
        b = zf_precoder(H, 2.0 * 7.5, 0.25 * 7.5)
        assert np.allclose(a.per_user_rate, b.per_user_rate, rtol=1e-12)


class TestSumRate:
    def test_zero_channel_is_degenerate_zero(self):
        scene, layout = small_scene(units=4)
        table = StateTable(states=(CoefficientPair(0.0, 0.0, 0.0, 0.0),))
        config = Configuration.uniform(layout.num_elements, 0)
        result = evaluate_rates(scene, layout, table, config)
        assert result.sum_rate == 0.0
        assert result.degenerate

    def test_single_user_scalar_composition(self):
        scene, layout = small_scene(units=4, k_users=1, nt=1, seed=3)
        table = prototype_state_table()
        config = Configuration.uniform(layout.num_elements, 1)
        h = assemble_channel(channel_geometry(scene, layout), table, config)[0, 0]
        expected = math.log2(1 + scene.tx_power_w * abs(h) ** 2
                             / scene.noise_power_w)
        assert sum_rate(scene, layout, table, config) == pytest.approx(expected)

    def test_prototype_two_sided_scene_positive(self, prototype,
                                                prototype_layout):
        config = Configuration.from_group_states(
            prototype_layout, [0, 1] * 8)
        rate = sum_rate(prototype.scene, prototype_layout, prototype.table,
                        config)
        assert rate > 0 and math.isfinite(rate)


class TestGreedy:
    def test_single_element_picks_stronger_reflection_state(self):
        """One reflection-side user, one element: phase is immaterial, so the
        larger reflection amplitude (state index 1: 0.55 > 0.46) wins."""
        panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1,
                          cols=1, dx=0.04, dy=0.04, group_rows=1, group_cols=1)
        layout = build_layout(panel)
        scene = Scene(frequency_hz=3.6e9, panel=panel,
                      bs_antennas=np.array([[0.0, 0.0, 1.0]]),
                      users=np.array([[0.4, 0.0, 0.9]]),
                      tx_power_dbm=20.0, bandwidth_hz=1e6)
        out = greedy_optimize(scene, layout, prototype_state_table())
        assert out.config.states == (1,)

    def test_single_state_table_trivial(self):
        scene, layout = small_scene(units=4)
        table = StateTable(states=(CoefficientPair(0.5, 0.2, 0.5, 1.0),))
        out = greedy_optimize(scene, layout, table, Granularity.GROUP)
        assert out.config.states == (0,) * layout.num_elements
        assert len(out.trace) == 2  # initial + one sweep with no improvement

    def test_trace_non_decreasing(self):
        scene, layout = small_scene(units=8, seed=11)
        out = greedy_optimize(scene, layout, prototype_state_table(),
                              Granularity.GROUP)
        objectives = [v for _, v in out.trace]
        assert all(b >= a for a, b in zip(objectives, objectives[1:]))

    def test_objective_equals_recomputed_sum_rate(self):
        scene, layout = small_scene(units=6, seed=5)
        table = prototype_state_table()
        out = greedy_optimize(scene, layout, table, Granularity.GROUP)
        assert out.objective == sum_rate(scene, layout, table, out.config)


class TestExhaustive:
    def test_single_unit(self):
        scene, layout = small_scene(units=1, k_users=1, nt=1, seed=2)
        table = prototype_state_table()
        out = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        assert out.evaluations == 2
        both = [sum_rate(scene, layout, table,
                         Configuration.from_group_states(layout, [s]))
                for s in (0, 1)]
        assert out.objective == max(both)

    def test_guard_refuses_large_spaces(self):
        scene, layout = small_scene(units=21)
        with pytest.raises(SearchSpaceError):
            exhaustive_optimize(scene, layout, prototype_state_table(),
                                Granularity.GROUP)

    def test_beats_greedy_and_any_single_config(self):
        scene, layout = small_scene(units=8, seed=17)
        table = prototype_state_table()
        best = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        greedy = greedy_optimize(scene, layout, table, Granularity.GROUP)
        assert best.objective >= greedy.objective
        gen = np.random.default_rng(0)
        for _ in range(10):
            config = Configuration.from_group_states(
                layout, gen.integers(0, 2, layout.num_groups))
            assert sum_rate(scene, layout, table, config) <= best.objective

    def test_all_tied_candidates_pick_lexicographically_smallest(self):
        """Two indistinguishable states make every configuration tie; the
        enumeration must keep the all-zeros config."""
        scene, layout = small_scene(units=4, seed=19)
        pair = CoefficientPair(0.5, 0.7, 0.5, 2.1)
        table = StateTable(states=(pair, pair))
        out = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        assert out.config.group_states(layout) == (0, 0, 0, 0)
        held = greedy_optimize(scene, layout, table, Granularity.GROUP)
        assert held.config.group_states(layout) == (0, 0, 0, 0)

    def test_three_state_table_supported(self):
        scene, layout = small_scene(units=6, seed=37)
        table = StateTable(states=(
            CoefficientPair(0.4, 0.0, 0.5, 1.0),
            CoefficientPair(0.6, 2.1, 0.4, 4.0),
            CoefficientPair(0.3, 4.2, 0.7, 2.5)))
        best = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        greedy = greedy_optimize(scene, layout, table, Granularity.GROUP)
        assert best.evaluations == 3 ** 6
        assert best.objective >= greedy.objective > 0
        assert relaxed_upper_bound(scene, layout, table) >= best.objective


class TestRandomBaseline:
    def test_single_trial_single_state(self):
        scene, layout = small_scene(units=3)
        table = StateTable(states=(CoefficientPair(0.4, 0.1, 0.4, 0.3),))
        out = random_baseline(scene, layout, table, Granularity.GROUP,
                              trials=1, seed=0)
        assert out.config.states == (0,) * layout.num_elements

    def test_deterministic_under_seed(self):
        scene, layout = small_scene(units=6, seed=23)
        table = prototype_state_table()
        a = random_baseline(scene, layout, table, Granularity.GROUP,
                            trials=25, seed=77)
        b = random_baseline(scene, layout, table, Granularity.GROUP,
                            trials=25, seed=77)
        assert a.config.states == b.config.states
        assert a.objective == b.objective
        assert a.objective == sum_rate(scene, layout, table, a.config)

    def test_bounded_by_exhaustive(self):
        scene, layout = small_scene(units=8, seed=29)
        table = prototype_state_table()
        best = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        rand = random_baseline(scene, layout, table, Granularity.GROUP,
                               trials=64, seed=5)
        assert rand.objective <= best.objective


    @pytest.mark.parametrize("units,scene_seed,table,granularity,trials,seed,"
                             "config,trace", [
        (6, 23, "prototype", Granularity.GROUP, 25, 77, (1, 0, 1, 0, 0, 0),
         [(0, 20.70008049135388), (1, 22.769600051567565)]),
        (6, 23, "prototype", Granularity.ELEMENT, 40, 5,
         (0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1),
         [(0, 10.527333940394628), (1, 16.842884487938406),
          (2, 17.703770947078272), (3, 20.342032168278447),
          (5, 20.44415719840577), (6, 22.95894262909185),
          (35, 23.76655874695529)]),
        (6, 37, "three", Granularity.GROUP, 30, 11, (2, 0, 1, 2, 1, 0),
         [(0, 14.737145236681002), (2, 23.479961242619652),
          (3, 24.09619382744627), (10, 24.120084217049218),
          (17, 24.4234735794158), (23, 24.83350948990747)]),
    ])
    def test_draws_match_one_candidate_at_a_time_scoring(
            self, units, scene_seed, table, granularity, trials, seed, config,
            trace):
        """Chosen configuration and trace as recorded when every trial was
        drawn and scored one at a time: batching the scoring keeps the draw
        stream.  Values may move by last bits (new summation order)."""
        scene, layout = small_scene(units=units, seed=scene_seed)
        table = prototype_state_table() if table == "prototype" else THREE_STATES
        out = random_baseline(scene, layout, table, granularity,
                              trials=trials, seed=seed)
        chosen = (out.config.group_states(layout)
                  if granularity is Granularity.GROUP else out.config.states)
        assert chosen == config
        assert [t for t, _ in out.trace] == [t for t, _ in trace]
        for (_, value), (_, recorded) in zip(out.trace, trace):
            assert value == pytest.approx(recorded, rel=1e-12)


class TestDegenerateAccounting:
    def test_coincident_users_make_every_evaluation_degenerate(self):
        scene, layout = small_scene(units=4, seed=3)
        twins = Scene(frequency_hz=scene.frequency_hz, panel=scene.panel,
                      bs_antennas=scene.bs_antennas,
                      users=[scene.users[0], scene.users[0]],
                      tx_power_dbm=scene.tx_power_dbm,
                      bandwidth_hz=scene.bandwidth_hz)
        table = prototype_state_table()
        for out in (greedy_optimize(twins, layout, table, Granularity.GROUP),
                    greedy_optimize(twins, layout, table, Granularity.ELEMENT),
                    exhaustive_optimize(twins, layout, table, Granularity.GROUP),
                    random_baseline(twins, layout, table, trials=9, seed=1)):
            assert out.evaluations > 0
            assert out.degenerate_evaluations == out.evaluations
            assert out.objective == 0.0

    def test_full_rank_scene_counts_no_degenerate_evaluations(self):
        scene, layout = small_scene(units=5, seed=8)
        out = exhaustive_optimize(scene, layout, prototype_state_table(),
                                  Granularity.GROUP)
        assert out.degenerate_evaluations == 0


class TestRelaxedUpperBound:
    def test_single_element_single_user_is_exact(self):
        """One term needs no co-phasing: the bound equals the best
        continuous-phase (= best amplitude) rate."""
        panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1,
                          cols=1, dx=0.04, dy=0.04, group_rows=1, group_cols=1)
        layout = build_layout(panel)
        scene = Scene(frequency_hz=3.6e9, panel=panel,
                      bs_antennas=np.array([[0.0, 0.0, 1.3]]),
                      users=np.array([[0.3, 0.0, 1.1]]),
                      tx_power_dbm=20.0, bandwidth_hz=1e6)
        table = prototype_state_table()
        bound = relaxed_upper_bound(scene, layout, table)
        best = exhaustive_optimize(scene, layout, table).objective
        assert bound == pytest.approx(best, rel=1e-12)

    def test_bounds_exhaustive_on_random_scenes(self):
        for seed in range(5):
            scene, layout = small_scene(units=8, seed=seed)
            table = prototype_state_table()
            bound = relaxed_upper_bound(scene, layout, table)
            best = exhaustive_optimize(scene, layout, table,
                                       Granularity.GROUP).objective
            assert bound >= best

    def test_zero_gain_geometry(self):
        scene, layout = small_scene(units=4)
        table = StateTable(states=(CoefficientPair(0.0, 0.0, 0.0, 0.0),))
        assert relaxed_upper_bound(scene, layout, table) == 0.0


class TestScalingInvariance:
    def test_optimizer_choice_invariant_to_common_scaling(self):
        table = prototype_state_table()
        scene, layout = small_scene(units=6, seed=31)
        scaled = Scene(frequency_hz=scene.frequency_hz, panel=scene.panel,
                       bs_antennas=scene.bs_antennas, users=scene.users,
                       tx_power_dbm=scene.tx_power_dbm + 13.0,
                       bandwidth_hz=scene.bandwidth_hz,
                       noise_figure_db=scene.noise_figure_db + 13.0)
        a = greedy_optimize(scene, layout, table, Granularity.GROUP)
        b = greedy_optimize(scaled, layout, table, Granularity.GROUP)
        assert a.config.states == b.config.states
        assert np.isclose(a.objective, b.objective, rtol=1e-9)


class TestStatisticalOptimize:
    def test_infinite_k_factor_matches_plain_greedy(self):
        scene, layout = small_scene(units=6, seed=41)
        table = prototype_state_table()
        plain = greedy_optimize(scene, layout, table, Granularity.GROUP)
        stat = statistical_optimize(scene, layout, table,
                                    FadingModel(math.inf), num_samples=5,
                                    seed=1, granularity=Granularity.GROUP)
        assert stat.config.states == plain.config.states
        assert stat.objective == plain.objective
        assert stat.trace == plain.trace

    def test_deterministic_under_seed(self):
        scene, layout = small_scene(units=5, seed=43)
        table = prototype_state_table()
        kw = dict(num_samples=20, granularity=Granularity.GROUP)
        a = statistical_optimize(scene, layout, table, FadingModel(10.0),
                                 seed=3, **kw)
        b = statistical_optimize(scene, layout, table, FadingModel(10.0),
                                 seed=3, **kw)
        assert a.config.states == b.config.states
        assert a.objective == b.objective

    def test_chosen_config_beats_all_zero_on_average(self):
        scene, layout = small_scene(units=6, seed=47)
        table = prototype_state_table()
        model = FadingModel(10.0)
        out = statistical_optimize(scene, layout, table, model,
                                   num_samples=200, seed=13,
                                   granularity=Granularity.GROUP)
        from omnisim.beamforming import _UnitProblem
        from omnisim.channel import channel_geometry, draw_realizations
        geometry = channel_geometry(scene, layout)
        realizations = draw_realizations(model, geometry, 13, 200)
        problem = _UnitProblem(scene, layout, table, Granularity.GROUP,
                               geometry, realizations)
        zero, chosen = problem.score(problem.partials(np.array(
            [[0] * problem.num_units, out.config.group_states(layout)])))
        assert chosen >= zero
