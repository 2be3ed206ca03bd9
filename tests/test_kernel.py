"""Properties of the batched evaluation kernel.

Every optimizer scores candidates in batches; ``sum_rate`` scores one
configuration.  A candidate's rate must not depend on the batch it is scored
in, so that ``outcome.objective == sum_rate(config)`` holds bitwise and the
optimizers' objectives are exactly comparable.  Scenes cover Nt in {1, 2, 3}
with K <= Nt (the K = 1, K = 2 and LAPACK branches of zero-forcing), two- and
three-state tables, group and element granularity, with and without the
direct path.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omnisim import (CoefficientPair, Configuration, FadingModel, Granularity,
                     PanelSpec, Scene, StateTable, build_layout,
                     channel_geometry, evaluate_rates,
                     exhaustive_optimize, greedy_optimize, random_baseline,
                     relaxed_upper_bound, statistical_optimize, sum_rate)
from omnisim import beamforming
from omnisim.beamforming import _UnitProblem
from omnisim.channel import draw_realizations


def make_scene(seed, nt, k_users, groups, group_cols, num_states, direct_path):
    """Random scene on a one-row panel of ``groups`` groups, users on either
    side, and a random passive table of ``num_states`` states."""
    gen = np.random.default_rng(seed)
    panel = PanelSpec(center=[0, 0, 0], normal=[0, 0, 1.0], rows=1,
                      cols=groups * group_cols, dx=0.0416, dy=0.0416,
                      group_rows=1, group_cols=group_cols)

    def place(side_sign):
        direction = gen.uniform([-0.7, -0.7, 0.25], [0.7, 0.7, 1.0])
        direction[2] *= side_sign
        return direction / np.linalg.norm(direction) * gen.uniform(1.0, 3.0)

    bs = np.array([place(1.0) for _ in range(nt)])
    users = np.array([place(gen.choice([-1.0, 1.0])) for _ in range(k_users)])
    reflection = gen.uniform(0.2, 0.8, num_states)
    refraction = np.sqrt(1 - reflection ** 2) * gen.uniform(0.4, 0.99, num_states)
    phases = gen.uniform(0, 2 * math.pi, (num_states, 2))
    table = StateTable(states=tuple(
        CoefficientPair(r, p[0], t, p[1])
        for r, t, p in zip(reflection, refraction, phases)))
    scene = Scene(frequency_hz=3.6e9, panel=panel, bs_antennas=bs, users=users,
                  tx_power_dbm=30.0, bandwidth_hz=10e6, noise_figure_db=6.0,
                  direct_path=direct_path)
    return scene, build_layout(panel), table


@st.composite
def scenes(draw, max_groups=4):
    nt = draw(st.integers(1, 3))
    return make_scene(seed=draw(st.integers(0, 2 ** 32 - 1)), nt=nt,
                      k_users=draw(st.integers(1, nt)),
                      groups=draw(st.integers(1, max_groups)),
                      group_cols=draw(st.integers(1, 2)),
                      num_states=draw(st.sampled_from([2, 3])),
                      direct_path=draw(st.booleans()))


granularities = st.sampled_from([Granularity.GROUP, Granularity.ELEMENT])


def unit_config(layout, granularity, unit_states):
    if granularity is Granularity.GROUP:
        return Configuration.from_group_states(layout, unit_states)
    return Configuration(states=tuple(unit_states))


class TestBatchInvariance:
    @given(scenes(), granularities, st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    @settings(max_examples=40)
    def test_rate_alone_equals_rate_in_any_batch(self, world, granularity, size,
                                                 seed, faded):
        """Scored alone, inside the whole batch and inside a batch that starts
        at another offset, a candidate gets the same bits; without fading
        they are also ``sum_rate``'s bits."""
        scene, layout, table = world
        problem = _UnitProblem(scene, layout, table, granularity)
        realizations = None
        if faded:
            realizations = draw_realizations(FadingModel(6.0), problem.geometry,
                                             seed % 1000, 3)
        kernel = problem.kernel_for(realizations)
        gen = np.random.default_rng(seed)
        candidates = gen.integers(0, table.num_states, (size, problem.num_units))
        batch = problem.score(kernel, problem.partials(kernel, candidates))
        offset = int(gen.integers(0, size))
        shifted = problem.score(kernel, problem.partials(kernel, candidates[offset:]))
        assert np.array_equal(shifted, batch[offset:])
        for i in sorted({0, offset, size - 1}):
            alone = problem.score(kernel, problem.partials(kernel, candidates[i:i + 1]))
            assert alone[0] == batch[i]
            if not faded:
                config = unit_config(layout, granularity, candidates[i].tolist())
                assert sum_rate(scene, layout, table, config) == batch[i]

    @given(scenes(), granularities, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20)
    def test_statistical_matches_fsum_of_evaluate_rates(self, world, granularity,
                                                        seed):
        scene, layout, table = world
        model = FadingModel(8.0)
        out = statistical_optimize(scene, layout, table, model, num_samples=4,
                                   seed=seed, granularity=granularity)
        realizations = draw_realizations(model, channel_geometry(scene, layout),
                                         seed, 4)
        average = math.fsum(
            evaluate_rates(scene, layout, table, out.config, fading=r).sum_rate
            for r in realizations) / 4
        assert out.objective == average


class TestOptimizerInvariants:
    @given(scenes(max_groups=3), granularities, st.integers(0, 1000))
    @settings(max_examples=40)
    def test_objectives_equal_sum_rate_and_order(self, world, granularity, seed):
        scene, layout, table = world
        best = exhaustive_optimize(scene, layout, table, granularity)
        greedy = greedy_optimize(scene, layout, table, granularity)
        rand = random_baseline(scene, layout, table, granularity, trials=17, seed=seed)
        for out in (best, greedy, rand):
            assert out.objective == sum_rate(scene, layout, table, out.config)
            assert 0 <= out.degenerate_evaluations <= out.evaluations
        assert best.objective >= greedy.objective
        assert best.objective >= rand.objective
        assert relaxed_upper_bound(scene, layout, table) >= best.objective

    @pytest.mark.parametrize("batch", [1, 3, 7, 64])
    @pytest.mark.parametrize("granularity", [Granularity.GROUP, Granularity.ELEMENT])
    def test_exhaustive_is_lexicographic_first_maximum(self, monkeypatch, batch,
                                                       granularity):
        """Whatever the batch size, exhaustive picks the first maximum of
        ``sum_rate`` in lexicographic order of the unit states."""
        scene, layout, table = make_scene(seed=5, nt=2, k_users=2, groups=3,
                                          group_cols=2, num_states=3,
                                          direct_path=False)
        units = layout.num_groups if granularity is Granularity.GROUP else layout.num_elements
        rates = [sum_rate(scene, layout, table, unit_config(layout, granularity, c))
                 for c in itertools.product(range(table.num_states), repeat=units)]
        first = int(np.argmax(rates))
        monkeypatch.setattr(beamforming, "BATCH", batch)
        out = exhaustive_optimize(scene, layout, table, granularity)
        assert out.evaluations == len(rates)
        assert out.objective == rates[first]
        expected = next(itertools.islice(
            itertools.product(range(table.num_states), repeat=units), first, None))
        assert out.config == unit_config(layout, granularity, list(expected))

    def test_all_tied_batches_keep_the_first_candidate(self, monkeypatch):
        """Identical states tie every candidate; a later batch must not win."""
        scene, layout, _ = make_scene(seed=3, nt=2, k_users=1, groups=4,
                                      group_cols=1, num_states=2, direct_path=False)
        pair = CoefficientPair(0.5, 0.7, 0.5, 2.1)
        table = StateTable(states=(pair, pair))
        monkeypatch.setattr(beamforming, "BATCH", 3)
        out = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        assert out.config.group_states(layout) == (0, 0, 0, 0)
