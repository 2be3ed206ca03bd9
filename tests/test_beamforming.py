import math

import numpy as np
import pytest

from omnisim import (CoefficientPair, Configuration, FadingModel, Granularity,
                     PanelSpec, RankDeficientChannelError, Scene,
                     SearchSpaceError, StateTable, TooManyUsersError,
                     ValidationError, assemble_channel, build_layout,
                     channel_geometry, evaluate_rates, exhaustive_optimize,
                     greedy_optimize, random_baseline, relaxed_upper_bound,
                     statistical_optimize, sum_rate, zf_precoder)
from omnisim.beamforming import CONDITION_LIMIT, _zero_forcing
from omnisim.geometry import dot3


# zf_precoder computes the condition number only for this message.
CONDITION_MESSAGE = r"^channel Gram matrix condition number (\d\.\d{3}e\+\d+|inf) exceeds 1e\+12"

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
        direction /= np.sqrt(dot3(direction, direction))
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
        with pytest.raises(RankDeficientChannelError, match=CONDITION_MESSAGE):
            zf_precoder(H, 1.0, 1.0)

    def test_too_many_users(self, rng):
        with pytest.raises(TooManyUsersError):
            zf_precoder(random_channel(rng, 3, 2), 1.0, 1.0)

    @pytest.mark.parametrize("which", ["total", "noise"])
    @pytest.mark.parametrize("value", [math.inf, 0.0, -1.0, math.nan])
    def test_powers_must_be_positive_and_finite(self, rng, which, value):
        H = random_channel(rng, 2, 3)
        powers = {"total": 2.0, "noise": 0.5, which: value}
        with pytest.raises(ValidationError, match="positive and finite"):
            zf_precoder(H, powers["total"], powers["noise"])

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan,
                                       complex(0, math.inf), complex(math.nan, 0)])
    def test_non_finite_channel_rejected(self, rng, entry):
        """Refused before zero-forcing, as assemble_channel refuses it: an
        inf is no rank-deficient channel, and a NaN warns in the Gram."""
        H = random_channel(rng, 2, 3)
        H[1, 2] = entry
        with pytest.raises(ValidationError, match="finite"):
            zf_precoder(H, 2.0, 0.5)

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


def condition_array_rule(H, total_power_w, noise_power_w):
    """(degenerate flags, condition numbers) of a (B, K, Nt) stack by the rule
    that kept a condition-number array: K = 1 ``where(g > 0, 1, inf)``, K = 2
    ``where(eig_min > 0, eig_max / eig_min, inf)`` from the closed-form
    eigenvalues, K >= 3 LAPACK's ``cond`` (inf for a non-finite Gram).  A
    channel is accepted when that is below CONDITION_LIMIT and its rates are
    finite.  Antennas are summed in index order, as ordered_sum sums them."""
    k = H.shape[1]
    with np.errstate(all="ignore"):
        gram = H[:, :, None, 0] * H[:, None, :, 0].conj()
        for n in range(1, H.shape[2]):
            gram = gram + H[:, :, None, n] * H[:, None, :, n].conj()
        if k == 1:
            g = gram[:, 0, 0].real
            cond = np.where(g > 0, 1.0, np.inf)
            inverse_diag = 1.0 / g[:, None]
        elif k == 2:
            a, c = gram[:, 0, 0].real, gram[:, 1, 1].real
            mean = 0.5 * (a + c)
            half_gap = np.hypot(0.5 * (a - c), np.abs(gram[:, 0, 1]))
            eig_max, eig_min = mean + half_gap, mean - half_gap
            cond = np.where(eig_min > 0, eig_max / eig_min, np.inf)
            inverse_diag = np.stack([c, a], axis=1) / (eig_max * eig_min)[:, None]
        else:
            finite = np.isfinite(gram).all(axis=(1, 2))
            eye = np.eye(k)
            cond = np.where(finite, np.linalg.cond(np.where(finite[:, None, None], gram, eye)),
                            np.inf)
            inverse = np.linalg.inv(np.where((cond < CONDITION_LIMIT)[:, None, None], gram, eye))
            inverse_diag = np.diagonal(inverse, axis1=1, axis2=2).real
        rates = np.log2(1.0 + (total_power_w / k) / (noise_power_w * inverse_diag))
    return ~((cond < CONDITION_LIMIT) & np.isfinite(rates.sum(axis=1))), cond


def condition_limit_pair():
    """Channels diag(1, d) (K = Nt = 2) at adjacent d whose closed-form
    eigenvalue ratio falls just below CONDITION_LIMIT and reaches it."""
    def degenerate(d):
        return condition_array_rule(np.array([[[1, 0], [0, d]]], dtype=complex), 1.0, 1.0)[0][0]
    above, below = 1e-7, 1e-5  # ratios about 1e14 and 1e10
    while np.nextafter(above, below) != below:
        middle = 0.5 * (above + below)
        if degenerate(middle):
            above = middle
        else:
            below = middle
    return [np.array([[1, 0], [0, d]], dtype=complex) for d in (below, above)]


class TestZeroForcingAcceptance:
    """_zero_forcing decides acceptance without a condition-number array;
    every flag is the old rule's, and a degenerate channel scores 0."""

    NAN, INF = complex(math.nan, 0), complex(math.inf, 0)

    def check(self, channels, expected):
        H = np.array(channels, dtype=complex)
        rates, total, degenerate = _zero_forcing(H, 2.0, 0.5)
        assert not np.shares_memory(total, rates)
        old, _ = condition_array_rule(H, 2.0, 0.5)
        assert degenerate.tolist() == expected == old.tolist()
        assert (rates[degenerate] == 0.0).all() and (total[degenerate] == 0.0).all()
        assert (total[~degenerate] > 0.0).all() and np.isfinite(rates).all()

    def test_one_user(self):
        self.check([[[0, 0]], [[self.NAN, 1]], [[self.INF, 1]], [[1, 2j]]],
                   [True, True, True, False])

    def test_two_users(self, rng):
        below, above = condition_limit_pair()
        ratios = condition_array_rule(np.array([below, above]), 2.0, 0.5)[1]
        assert ratios[0] < CONDITION_LIMIT <= ratios[1] < CONDITION_LIMIT * 1.001
        self.check([np.zeros((2, 2)), [[1, 2], [1, 2]], below, above,
                    [[1, self.NAN], [0, 1]], [[1, 0], [self.INF, 1]],
                    random_channel(rng, 2, 2)],
                   [True, True, False, True, True, True, False])

    def test_three_users_use_lapack(self, rng):
        good = random_channel(rng, 3, 3)
        singular = np.vstack([good[:2], good[:1]])
        with_nan, with_inf = good.copy(), good.copy()
        with_nan[2, 1], with_inf[0, 2] = self.NAN, self.INF
        self.check([good, singular, with_nan, with_inf, np.zeros((3, 3))],
                   [False, True, True, True, True])

    @pytest.mark.parametrize("channel", [np.zeros((1, 2)), [[1, 2, 3], [2, 4, 6], [0, 1, 1]]])
    def test_zf_precoder_reports_the_condition_number(self, channel):
        with pytest.raises(RankDeficientChannelError, match=CONDITION_MESSAGE):
            zf_precoder(np.array(channel, dtype=complex), 1.0, 1.0)


class TestSumRate:
    def test_zero_channel_is_degenerate_zero(self):
        scene, layout = small_scene(units=4)
        table = StateTable(states=(CoefficientPair(0.0, 0.0, 0.0, 0.0),))
        config = Configuration.uniform(layout.num_elements, 0)
        result = evaluate_rates(scene, layout, table, config)
        assert result.sum_rate == 0.0
        assert result.degenerate

    def test_single_user_scalar_composition(self, prototype):
        scene, layout = small_scene(units=4, k_users=1, nt=1, seed=3)
        table = prototype.table
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
    def test_single_element_picks_stronger_reflection_state(self, prototype):
        """One reflection-side user, one element: phase is immaterial, so the
        larger reflection amplitude (state index 1: 0.55 > 0.46) wins."""
        panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1,
                          cols=1, dx=0.04, dy=0.04, group_rows=1, group_cols=1)
        layout = build_layout(panel)
        scene = Scene(frequency_hz=3.6e9, panel=panel,
                      bs_antennas=np.array([[0.0, 0.0, 1.0]]),
                      users=np.array([[0.4, 0.0, 0.9]]),
                      tx_power_dbm=20.0, bandwidth_hz=1e6)
        out = greedy_optimize(scene, layout, prototype.table)
        assert out.config.states == (1,)

    def test_single_state_table_trivial(self):
        scene, layout = small_scene(units=4)
        table = StateTable(states=(CoefficientPair(0.5, 0.2, 0.5, 1.0),))
        out = greedy_optimize(scene, layout, table, Granularity.GROUP)
        assert out.config.states == (0,) * layout.num_elements
        assert len(out.trace) == 2  # initial + one sweep with no improvement

    def test_trace_non_decreasing(self, prototype):
        scene, layout = small_scene(units=8, seed=11)
        out = greedy_optimize(scene, layout, prototype.table,
                              Granularity.GROUP)
        objectives = [v for _, v in out.trace]
        assert all(b >= a for a, b in zip(objectives, objectives[1:]))

    def test_objective_equals_recomputed_sum_rate(self, prototype):
        scene, layout = small_scene(units=6, seed=5)
        table = prototype.table
        out = greedy_optimize(scene, layout, table, Granularity.GROUP)
        assert out.objective == sum_rate(scene, layout, table, out.config)


class TestCountAndSeedArguments:
    SEARCHES = {
        "greedy": lambda s, l, t, value: greedy_optimize(
            s, l, t, Granularity.GROUP, max_sweeps=value),
        "random trials": lambda s, l, t, value: random_baseline(s, l, t, trials=value),
        "random seed": lambda s, l, t, value: random_baseline(s, l, t, trials=2, seed=value),
        "statistical samples": lambda s, l, t, value: statistical_optimize(
            s, l, t, FadingModel(10.0), num_samples=value, seed=0),
        "statistical seed": lambda s, l, t, value: statistical_optimize(
            s, l, t, FadingModel(10.0), num_samples=2, seed=value),
        "unfaded samples": lambda s, l, t, value: statistical_optimize(
            s, l, t, FadingModel(), num_samples=value, seed=0),
        "unfaded seed": lambda s, l, t, value: statistical_optimize(
            s, l, t, FadingModel(), num_samples=2, seed=value),
    }

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    @pytest.mark.parametrize("value", [1.5, 2.0, "3", True, None, math.nan, -1])
    def test_non_integer_or_below_the_cli_limit_rejected(self, prototype, search, value):
        """Counts and seeds take the CLI's limits: integers, at least 1 for
        counts and 0 for seeds, with or without fading to draw."""
        scene, layout = small_scene(units=2, seed=3)
        with pytest.raises(ValidationError, match="must be an integer of at least"):
            self.SEARCHES[search](scene, layout, prototype.table, value)

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_numpy_integers_accepted(self, prototype, search):
        scene, layout = small_scene(units=2, seed=3)
        expected = self.SEARCHES[search](scene, layout, prototype.table, 3)
        out = self.SEARCHES[search](scene, layout, prototype.table, np.int64(3))
        assert (out.config, out.objective) == (expected.config, expected.objective)


class TestExhaustive:
    def test_single_unit(self, prototype):
        scene, layout = small_scene(units=1, k_users=1, nt=1, seed=2)
        table = prototype.table
        out = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        assert out.evaluations == 2
        both = [sum_rate(scene, layout, table,
                         Configuration.from_group_states(layout, [s]))
                for s in (0, 1)]
        assert out.objective == max(both)

    def test_guard_refuses_large_spaces(self, prototype):
        scene, layout = small_scene(units=21)
        with pytest.raises(SearchSpaceError):
            exhaustive_optimize(scene, layout, prototype.table,
                                Granularity.GROUP)

    def test_beats_greedy_and_any_single_config(self, prototype):
        scene, layout = small_scene(units=8, seed=17)
        table = prototype.table
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

    def test_deterministic_under_seed(self, prototype):
        scene, layout = small_scene(units=6, seed=23)
        table = prototype.table
        a = random_baseline(scene, layout, table, Granularity.GROUP,
                            trials=25, seed=77)
        b = random_baseline(scene, layout, table, Granularity.GROUP,
                            trials=25, seed=77)
        assert a.config.states == b.config.states
        assert a.objective == b.objective
        assert a.objective == sum_rate(scene, layout, table, a.config)

    def test_bounded_by_exhaustive(self, prototype):
        scene, layout = small_scene(units=8, seed=29)
        table = prototype.table
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
            self, prototype, units, scene_seed, table, granularity, trials, seed, config,
            trace):
        """Chosen configuration and trace as recorded when every trial was
        drawn and scored one at a time: batching the scoring keeps the draw
        stream.  Values may move by last bits (new summation order)."""
        scene, layout = small_scene(units=units, seed=scene_seed)
        table = prototype.table if table == "prototype" else THREE_STATES
        out = random_baseline(scene, layout, table, granularity,
                              trials=trials, seed=seed)
        chosen = (out.config.group_states(layout)
                  if granularity is Granularity.GROUP else out.config.states)
        assert chosen == config
        assert [t for t, _ in out.trace] == [t for t, _ in trace]
        for (_, value), (_, recorded) in zip(out.trace, trace):
            assert value == pytest.approx(recorded, rel=1e-12)


class TestDegenerateAccounting:
    def test_coincident_users_make_every_evaluation_degenerate(self, prototype):
        scene, layout = small_scene(units=4, seed=3)
        twins = Scene(frequency_hz=scene.frequency_hz, panel=scene.panel,
                      bs_antennas=scene.bs_antennas,
                      users=[scene.users[0], scene.users[0]],
                      tx_power_dbm=scene.tx_power_dbm,
                      bandwidth_hz=scene.bandwidth_hz)
        table = prototype.table
        groups, elements = layout.num_groups, layout.num_elements
        runs = [  # greedy stops after one sweep: no move beats a rate of 0
            (greedy_optimize(twins, layout, table, Granularity.GROUP), 1 + groups),
            (greedy_optimize(twins, layout, table, Granularity.ELEMENT), 1 + elements),
            (statistical_optimize(twins, layout, table, FadingModel(), 5, 0,
                                  Granularity.ELEMENT), 1 + elements),
            (exhaustive_optimize(twins, layout, table, Granularity.GROUP), 2 ** groups),
            (exhaustive_optimize(twins, layout, table, Granularity.ELEMENT), 2 ** elements),
            (random_baseline(twins, layout, table, trials=9, seed=1), 9)]
        for out, evaluations in runs:
            assert out.evaluations == evaluations
            assert out.degenerate_evaluations == out.evaluations
            assert out.objective == 0.0

    def test_full_rank_scene_counts_no_degenerate_evaluations(self, prototype):
        scene, layout = small_scene(units=5, seed=8)
        out = exhaustive_optimize(scene, layout, prototype.table,
                                  Granularity.GROUP)
        assert out.degenerate_evaluations == 0


class TestRelaxedUpperBound:
    def test_single_element_single_user_is_exact(self, prototype):
        """One term needs no co-phasing: the bound equals the best
        continuous-phase (= best amplitude) rate."""
        panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1,
                          cols=1, dx=0.04, dy=0.04, group_rows=1, group_cols=1)
        layout = build_layout(panel)
        scene = Scene(frequency_hz=3.6e9, panel=panel,
                      bs_antennas=np.array([[0.0, 0.0, 1.3]]),
                      users=np.array([[0.3, 0.0, 1.1]]),
                      tx_power_dbm=20.0, bandwidth_hz=1e6)
        table = prototype.table
        bound = relaxed_upper_bound(scene, layout, table)
        best = exhaustive_optimize(scene, layout, table).objective
        assert bound == pytest.approx(best, rel=1e-12)

    def test_bounds_exhaustive_on_random_scenes(self, prototype):
        for seed in range(5):
            scene, layout = small_scene(units=8, seed=seed)
            table = prototype.table
            bound = relaxed_upper_bound(scene, layout, table)
            best = exhaustive_optimize(scene, layout, table,
                                       Granularity.GROUP).objective
            assert bound >= best

    def test_zero_gain_geometry(self):
        scene, layout = small_scene(units=4)
        table = StateTable(states=(CoefficientPair(0.0, 0.0, 0.0, 0.0),))
        assert relaxed_upper_bound(scene, layout, table) == 0.0


class TestScalingInvariance:
    def test_optimizer_choice_invariant_to_common_scaling(self, prototype):
        table = prototype.table
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
    def test_infinite_k_factor_matches_plain_greedy(self, prototype):
        scene, layout = small_scene(units=6, seed=41)
        table = prototype.table
        plain = greedy_optimize(scene, layout, table, Granularity.GROUP)
        stat = statistical_optimize(scene, layout, table,
                                    FadingModel(math.inf), num_samples=5,
                                    seed=1, granularity=Granularity.GROUP)
        assert stat.config.states == plain.config.states
        assert stat.objective == plain.objective
        assert stat.trace == plain.trace

    def test_deterministic_under_seed(self, prototype):
        scene, layout = small_scene(units=5, seed=43)
        table = prototype.table
        kw = dict(num_samples=20, granularity=Granularity.GROUP)
        a = statistical_optimize(scene, layout, table, FadingModel(10.0),
                                 seed=3, **kw)
        b = statistical_optimize(scene, layout, table, FadingModel(10.0),
                                 seed=3, **kw)
        assert a.config.states == b.config.states
        assert a.objective == b.objective

    def test_chosen_config_beats_all_zero_on_average(self, prototype):
        scene, layout = small_scene(units=6, seed=47)
        table = prototype.table
        model = FadingModel(10.0)
        out = statistical_optimize(scene, layout, table, model,
                                   num_samples=200, seed=13,
                                   granularity=Granularity.GROUP)
        from omnisim.beamforming import _UnitProblem
        from omnisim.channel import channel_geometry, draw_realizations
        geometry = channel_geometry(scene, layout)
        realizations = draw_realizations(model, geometry, 13, 200)
        problem = _UnitProblem(scene, layout, table, Granularity.GROUP,
                               realizations)
        (zero, chosen), _ = problem.score(problem.partials(np.array(
            [[0] * problem.num_units, out.config.group_states(layout)])))
        assert chosen >= zero
