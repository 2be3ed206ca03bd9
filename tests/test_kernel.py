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
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from omnisim import (CoefficientPair, Configuration, ElementLayout, FadingModel,
                     Granularity, PanelSpec, Scene, StateTable, build_layout,
                     channel_geometry, evaluate_rates,
                     exhaustive_optimize, greedy_optimize, random_baseline,
                     relaxed_upper_bound, statistical_optimize, sum_rate)
from omnisim import beamforming, channel
from omnisim.beamforming import _UnitProblem
from omnisim.channel import (_gather, _products, _state_tables, draw_realizations,
                             ordered_sum)
from omnisim.geometry import dot3


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
        return direction / np.sqrt(dot3(direction, direction)) * gen.uniform(1.0, 3.0)

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


def sequential_greedy(problem, max_sweeps=10):
    """Reference coordinate ascent: one unit at a time, each candidate scored
    from its full states.  Returns (states, trace, evaluations, degenerate)."""
    states = [0] * problem.num_units
    counts = [0, 0]

    def score(candidates):
        values, degenerate = problem.score(problem.partials(np.array(candidates)))
        counts[0] += len(values)
        counts[1] += int(np.count_nonzero(degenerate))
        return values.tolist()

    current = score([states])[0]
    trace = [(0, current)]
    for sweep in range(1, max_sweeps + 1):
        before = current
        for unit in range(problem.num_units):
            others = [s for s in range(problem.num_states) if s != states[unit]]
            if not others:
                continue
            values = score([states[:unit] + [s] + states[unit + 1:] for s in others])
            best = max(range(len(others)), key=values.__getitem__)  # first maximum
            if values[best] > current:
                states[unit], current = others[best], values[best]
        trace.append((sweep, current))
        if (current - before) / max(abs(before), 1e-30) < beamforming.CONVERGENCE_EPSILON:
            break
    return states, trace, counts[0], counts[1]


def reference_partials(problem, member_states, groups):
    """The arithmetic the product table replaced: ``problem``'s faded gains
    of every group, sliced to ``groups``, and coefficients gathered per member
    state, then ``(gamma * to_user)[..., None] * from_bs`` summed over the members."""
    geometry, coefficients, fading = problem.geometry, problem.coefficients, problem.fading
    idx = geometry.members.T
    g1 = geometry.bs_to_element[:, idx][None]    # (1, Nt, m, G)
    g2 = geometry.element_to_user[:, idx][None]  # (1, K, m, G)
    if fading:
        g1 = g1 * np.stack([r.bs_to_element[:, idx] for r in fading])
        g2 = g2 * np.stack([r.element_to_user[:, idx] for r in fading])
    to_user = np.moveaxis(g2, (-2, -1), (0, 1))[:, groups, None]
    from_bs = np.moveaxis(g1, (-2, -1), (0, 1))[:, groups, None, :, None, :]
    gamma = coefficients[geometry.user_side_index,
                         member_states.T[..., None, None]]  # (m, g, B, 1, K)
    return strict_fold((gamma * to_user)[..., None] * from_bs)


def strict_fold(terms):
    """((t0 + t1) + t2) ...: one elementwise add per term, in index order."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_random(problem, trials, seed):
    """Random search drawing each trial with its own generator call and
    scoring it alone: (states, objective, trace, evaluations, degenerate)."""
    rng = np.random.default_rng(seed)
    best, best_value, trace, degenerate = None, -math.inf, [], 0
    for t in range(trials):
        states = rng.integers(0, problem.num_states, size=problem.num_units)
        values, flags = problem.score(problem.partials(states[None]))
        degenerate += int(flags[0])
        if values[0] > best_value:
            best, best_value = states.tolist(), float(values[0])
            trace.append((t, best_value))
    return best, best_value, trace, trials, degenerate


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
        geometry = channel_geometry(scene, layout)
        realizations = ()
        if faded:
            realizations = draw_realizations(FadingModel(6.0), geometry, seed % 1000, 3)
        problem = _UnitProblem(scene, layout, table, granularity, realizations)
        gen = np.random.default_rng(seed)
        candidates = gen.integers(0, table.num_states, (size, problem.num_units))
        batch, degenerate = problem.score(problem.partials(candidates))
        offset = int(gen.integers(0, size))
        shifted, shifted_degenerate = problem.score(problem.partials(candidates[offset:]))
        assert np.array_equal(shifted, batch[offset:])
        assert np.array_equal(shifted_degenerate, degenerate[offset:])
        for i in sorted({0, offset, size - 1}):
            alone, _ = problem.score(problem.partials(candidates[i:i + 1]))
            assert alone[0] == batch[i]
            if not faded:
                config = unit_config(layout, granularity, candidates[i].tolist())
                assert sum_rate(scene, layout, table, config) == batch[i]

    @given(scenes(), granularities, st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    @example(make_scene(7, 1, 1, 3, 1, 2, False), Granularity.ELEMENT, 20, 0, False)
    @example(make_scene(7, 1, 1, 3, 1, 2, True), Granularity.ELEMENT, 20, 0, True)
    @settings(max_examples=40)
    def test_flips_equal_partials_of_the_flipped_states(self, world, granularity, size,
                                                        seed, faded):
        """Each row of a flip gather, in the batch and alone, has the bits of
        its group's partial computed from the flipped states.  The examples
        are one-element groups with K = 1: a row alone is a single product."""
        scene, layout, table = world
        geometry = channel_geometry(scene, layout)
        realizations = ()
        if faded:
            realizations = draw_realizations(FadingModel(6.0), geometry, seed % 1000, 2)
        problem = _UnitProblem(scene, layout, table, granularity, realizations)
        gen = np.random.default_rng(seed)
        states = gen.integers(0, table.num_states, problem.num_units)
        units = gen.integers(0, problem.num_units, size)
        new_states = gen.integers(0, table.num_states, size)
        groups, rows = problem.flips(states, units, new_states)
        for i, (group, unit, new_state) in enumerate(zip(groups, units, new_states)):
            assert group == (unit if granularity is Granularity.GROUP
                             else layout.group_of[unit])
            flipped = states.copy()
            flipped[unit] = new_state
            expected = problem.partials(flipped[None])[group, 0]
            assert np.array_equal(rows[i], expected)
            assert np.array_equal(problem.flips(states, units[i:i + 1],
                                                new_states[i:i + 1])[1][0], expected)

    @pytest.mark.parametrize("num_samples", [1, 4, 5, 9])
    @given(scenes(), granularities, st.integers(0, 2 ** 32 - 1))
    @example(make_scene(1, 1, 1, 1, 1, 2, False), Granularity.GROUP, 0)
    @settings(max_examples=20)
    def test_statistical_matches_fsum_of_evaluate_rates(self, num_samples, world,
                                                        granularity, seed):
        """One realization, exactly TABLE_REALIZATIONS, and more than that
        (the group state tables are then built in chunks).  The example is a
        one-element panel, where every fading product is a single entry."""
        scene, layout, table = world
        model = FadingModel(8.0)
        out = statistical_optimize(scene, layout, table, model, num_samples=num_samples,
                                   seed=seed, granularity=granularity)
        realizations = draw_realizations(model, channel_geometry(scene, layout),
                                         seed, num_samples)
        average = math.fsum(
            evaluate_rates(scene, layout, table, out.config, fading=r).sum_rate
            for r in realizations) / num_samples
        assert out.objective == average


class TestProductTable:
    @given(scenes(), st.sampled_from([0, 1, 3, 5]), st.integers(1, 20),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([1, channel.PASS_ENTRIES]))
    @example(make_scene(7, 1, 1, 3, 1, 2, False), 5, 20, 0, channel.PASS_ENTRIES)
    @example(make_scene(7, 1, 1, 1, 1, 3, True), 1, 1, 0, channel.PASS_ENTRIES)
    @example(make_scene(3, 3, 3, 2, 1, 3, True), 3, 7, 0, channel.PASS_ENTRIES)
    @settings(max_examples=60)
    def test_gathered_partials_equal_the_replaced_arithmetic(self, world, num_samples,
                                                             size, seed, pass_entries):
        """What the one gather sums from the element table (every group, a
        slice of groups, and groups that repeat, each of its (B, m) member
        states) and from the state tables (each group one unit in one state),
        and the state tables themselves, have the bits of the arithmetic they
        replaced, with 0 realizations, 1, 3 and 5 (more than
        TABLE_REALIZATIONS), in one pass and one group per pass.  The tables
        are ``_UnitProblem.rows`` at element and group granularity, with the
        bits of ``_products`` of every element and of ``_state_tables``.  The
        examples have one-element groups; with K = Nt = 1 every product is a
        single entry."""
        scene, layout, table = world
        geometry = channel_geometry(scene, layout)
        realizations = ()
        if num_samples:
            realizations = draw_realizations(FadingModel(6.0), geometry, seed % 1000,
                                             num_samples)
        coefficients = table.coefficient_matrix
        members = geometry.members
        gen = np.random.default_rng(seed)
        states = gen.integers(0, table.num_states, (size, layout.num_elements))
        start = int(gen.integers(0, len(members)))
        part = slice(start, int(gen.integers(start + 1, len(members) + 1)))
        groups = gen.integers(0, len(members), size)
        member_states = states[np.arange(size)[:, None], members[groups]][None]
        group_states = gen.integers(0, table.num_states, (size, len(members)))
        units = np.arange(len(members))[:, None]  # each group one unit of the state tables
        every_state = np.broadcast_to(np.arange(table.num_states)[:, None, None],
                                      (table.num_states, *members.shape))
        with mock.patch.object(channel, "PASS_ENTRIES", pass_entries):
            problem = _UnitProblem(scene, layout, table, Granularity.ELEMENT, realizations)
            element_rows = problem.rows
            state_tables = _UnitProblem(scene, layout, table, Granularity.GROUP,
                                        realizations).rows
            assert same_bits(element_rows, _products(
                geometry, coefficients, realizations, np.arange(layout.num_elements)[None])[0])
            assert same_bits(state_tables, _state_tables(geometry, coefficients, realizations))
            assert same_bits(_gather(element_rows, members, states[:, members]),
                             reference_partials(problem, states[:, members], slice(None)))
            assert same_bits(_gather(element_rows, members[part], states[:, members[part]]),
                             reference_partials(problem, states[:, members[part]], part))
            assert same_bits(_gather(element_rows, members[groups], member_states),
                             reference_partials(problem, member_states, groups))
            assert same_bits(state_tables, reference_partials(problem, every_state, slice(None)))
            assert same_bits(_gather(state_tables, units, group_states[:, units]),
                             reference_partials(problem, np.repeat(
                                 group_states[:, :, None], members.shape[1], axis=2),
                                 slice(None)))


term_shapes = st.integers(1, 300).flatmap(
    lambda rows: st.tuples(st.just(rows), st.integers(1, 300 // rows)))


class TestOrderedSum:
    @given(st.integers(1, 130), term_shapes, st.sampled_from([np.float64, np.complex128]),
           st.sampled_from(["C", "F", "strided"]), st.integers(0, 2 ** 32 - 1))
    @example(130, (1, 1), np.float64, "C", 0)
    @example(5, (1, 1), np.complex128, "C", 0)
    @example(130, (4, 8), np.float64, "F", 0)
    @example(130, (4, 8), np.complex128, "strided", 0)
    @settings(max_examples=200)
    def test_equals_a_strict_left_fold(self, count, shape, dtype, layout, seed):
        """Every layout the kernel and zero-forcing pass, in both dtypes, has
        the bits of the strict left fold: this pins the order in which numpy
        reduces, which it does not document.  The examples are one-entry
        terms, which numpy sums pairwise, and terms whose first axis is not
        the outermost in memory (F order, every other entry).  The sum of
        one term is a view of it; any other sum is a new array."""
        gen = np.random.default_rng(seed)

        def values(*dims):  # mixed magnitudes, so the order of the adds shows
            return gen.standard_normal(dims) * 10.0 ** gen.integers(-8, 9, dims)

        terms = values(count, *shape, 2)
        if dtype is np.complex128:
            terms = terms + 1j * values(count, *shape, 2)
        terms = terms[..., 1] if layout == "strided" else terms[..., 1].copy(order=layout)
        total = ordered_sum(terms)
        assert same_bits(total, strict_fold(terms))
        assert np.shares_memory(total, terms) is (count == 1)


class TestRandomBaseline:
    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("num_states", [2, 3])
    def test_batched_draws_equal_one_call_per_trial(self, trials, num_states):
        """One generator call per batch draws what one call per trial drew,
        across batch boundaries and with an odd number of units per row."""
        scene, layout, table = make_scene(seed=4, nt=2, k_users=2, groups=5,
                                          group_cols=1, num_states=num_states,
                                          direct_path=False)
        out = random_baseline(scene, layout, table, Granularity.ELEMENT,
                              trials=trials, seed=9)
        states, objective, trace, evaluations, degenerate = reference_random(
            _UnitProblem(scene, layout, table, Granularity.ELEMENT), trials, 9)
        assert out.config == Configuration(states=tuple(states))
        assert out.objective == objective
        assert out.trace == tuple(trace)
        assert (out.evaluations, out.degenerate_evaluations) == (evaluations, degenerate)


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

    # K * Nt = 4, P = 3 and 3 groups: group leaves of 1, P, P^2 and P^3 (the
    # whole space), element leaves (3 group partials each) of 1, 1, P, P^2, P^5.
    @pytest.mark.parametrize("pass_entries", [4, 12, 36, 108, beamforming.PASS_ENTRIES])
    @pytest.mark.parametrize("granularity", [Granularity.GROUP, Granularity.ELEMENT])
    def test_exhaustive_is_lexicographic_first_maximum(self, monkeypatch, pass_entries,
                                                       granularity):
        """Whatever the leaf batch size, exhaustive picks the first maximum of
        ``sum_rate`` in lexicographic order of the unit states."""
        scene, layout, table = make_scene(seed=5, nt=2, k_users=2, groups=3,
                                          group_cols=2, num_states=3,
                                          direct_path=False)
        units = layout.num_groups if granularity is Granularity.GROUP else layout.num_elements
        rates = [sum_rate(scene, layout, table, unit_config(layout, granularity, c))
                 for c in itertools.product(range(table.num_states), repeat=units)]
        first = int(np.argmax(rates))
        monkeypatch.setattr(beamforming, "PASS_ENTRIES", pass_entries)
        out = exhaustive_optimize(scene, layout, table, granularity)
        assert out.evaluations == len(rates)
        assert out.objective == rates[first]
        expected = next(itertools.islice(
            itertools.product(range(table.num_states), repeat=units), first, None))
        assert out.config == unit_config(layout, granularity, list(expected))

    @pytest.mark.parametrize("pass_entries", [2, 4, 8])  # leaves of 1, 2 and 4 of 16
    def test_all_tied_batches_keep_the_first_candidate(self, monkeypatch, pass_entries):
        """Identical states tie every candidate; a later batch must not win."""
        scene, layout, _ = make_scene(seed=3, nt=2, k_users=1, groups=4,
                                      group_cols=1, num_states=2, direct_path=False)
        pair = CoefficientPair(0.5, 0.7, 0.5, 2.1)
        table = StateTable(states=(pair, pair))
        monkeypatch.setattr(beamforming, "PASS_ENTRIES", pass_entries)
        out = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        assert out.config.group_states(layout) == (0, 0, 0, 0)


class TestPrefixExpansion:
    @given(st.data(), st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 2), st.sampled_from([2, 3]), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_group_exhaustive_equals_brute_force(self, data, seed, nt, groups, group_cols,
                                                 num_states, direct_path, duplicate):
        """Group exhaustive, whose leaf batches are expanded from each prefix's
        group sum, equals ``evaluate_rates`` of every configuration in
        ``itertools.product`` order: the objective bitwise, the first maximum,
        and both counts.  ``duplicate`` makes the last state a copy of the
        first, so that many configurations tie; the leaf batch holds P^L
        candidates for each L from one candidate to the whole space."""
        k_users = data.draw(st.integers(1, nt))
        scene, layout, table = make_scene(seed, nt, k_users, groups, group_cols,
                                          num_states, direct_path)
        if duplicate:
            table = StateTable(states=(*table.states[:-1], table.states[0]))
        configs = list(itertools.product(range(num_states), repeat=groups))
        results = [evaluate_rates(scene, layout, table,
                                  Configuration.from_group_states(layout, c))
                   for c in configs]
        rates = [r.sum_rate for r in results]
        first = rates.index(max(rates))
        depth = data.draw(st.integers(0, groups))
        with mock.patch.object(beamforming, "PASS_ENTRIES",
                               num_states ** depth * k_users * nt):
            out = exhaustive_optimize(scene, layout, table, Granularity.GROUP)
        assert out.objective == rates[first]
        assert out.config.group_states(layout) == configs[first]
        assert out.evaluations == len(configs)
        assert out.degenerate_evaluations == sum(r.degenerate for r in results)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(3, 6),
           st.sampled_from([2, 3]), st.booleans())
    @example(1, 3, 5, 3, False)  # both searches read other bits if the elements are expanded
    @example(5, 2, 4, 2, True)
    @settings(max_examples=60, deadline=None)
    def test_element_searches_on_permuted_one_element_groups(self, seed, nt, groups,
                                                             num_states, direct_path):
        """Element exhaustive and greedy on one-element groups whose
        ``group_of`` is a permutation keep ``objective == sum_rate`` bitwise.
        The channel sums the groups in group order and the units here are
        elements, in another order: each group holds one unit, yet the units
        are not the groups, so no prefix expansion may run."""
        scene, base, table = make_scene(seed, nt, 1 + seed % nt, groups, 1, num_states,
                                        direct_path)
        group_of = np.random.default_rng(seed).permutation(groups)
        layout = ElementLayout(positions=base.positions, group_of=group_of, u=base.u, v=base.v)
        for search in (exhaustive_optimize, greedy_optimize):
            out = search(scene, layout, table, Granularity.ELEMENT)
            assert out.objective == sum_rate(scene, layout, table, out.config)


class TestSpeculativeGreedy:
    @given(scenes(max_groups=6), granularities, st.sampled_from([0, 1, 3]),
           st.sampled_from([1, 40, beamforming.PASS_ENTRIES]), st.integers(0, 2 ** 32 - 1))
    @example(make_scene(7, 1, 1, 5, 1, 2, True), Granularity.ELEMENT, 0,
             beamforming.PASS_ENTRIES, 0)
    @example(make_scene(7, 1, 1, 5, 1, 3, False), Granularity.ELEMENT, 3,
             beamforming.PASS_ENTRIES, 0)
    @example(make_scene(7, 1, 1, 5, 1, 2, True), Granularity.ELEMENT, 0, 40, 0)
    @example(make_scene(7, 1, 1, 5, 1, 3, False), Granularity.ELEMENT, 3, 40, 0)
    # Whole spaces that fit one block, so the sweeps read one table: 3^5
    # channels of 2 x 2 entries, 2^6 candidates of 3 group partials, and
    # 2^4 channels of 3 faded realizations.
    @example(make_scene(3, 2, 2, 5, 2, 3, True), Granularity.GROUP, 0,
             beamforming.PASS_ENTRIES, 0)
    @example(make_scene(4, 2, 1, 3, 2, 2, True), Granularity.ELEMENT, 0,
             beamforming.PASS_ENTRIES, 0)
    @example(make_scene(5, 2, 2, 4, 2, 2, True), Granularity.GROUP, 3,
             beamforming.PASS_ENTRIES, 1)
    @settings(max_examples=60)
    def test_windows_equal_one_unit_at_a_time(self, world, granularity, num_samples,
                                              pass_entries, seed):
        """States, trace and both counts are bitwise those of the sequential
        reference, with fading (statistical, R samples) and without, and for
        window caps from one unit up.  The first four examples have
        one-element groups and K = 1, where every fading product is a single
        entry, scored from one table (the whole space fits one block) and in
        windows (a cap of 40 entries)."""
        scene, layout, table = world
        geometry = channel_geometry(scene, layout)
        realizations = ()
        with mock.patch.object(beamforming, "PASS_ENTRIES", pass_entries):
            if num_samples:
                model = FadingModel(6.0)
                out = statistical_optimize(scene, layout, table, model, num_samples,
                                           seed, granularity)
                realizations = draw_realizations(model, geometry, seed, num_samples)
            else:
                out = greedy_optimize(scene, layout, table, granularity)
        problem = _UnitProblem(scene, layout, table, granularity, realizations)
        states, trace, evaluations, degenerate = sequential_greedy(problem)
        assert out.config == unit_config(layout, granularity, states)
        assert out.trace == tuple(trace)
        assert out.objective == trace[-1][1]
        assert out.evaluations == evaluations
        assert out.degenerate_evaluations == degenerate

    @given(scenes(max_groups=3), granularities, st.booleans(), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    # P = 2 and 3, with and without the direct path and a tied state, at
    # both granularities, one faded.
    @example(make_scene(3, 2, 2, 3, 2, 2, True), Granularity.GROUP, False, False, 0)
    @example(make_scene(4, 2, 1, 3, 2, 3, False), Granularity.GROUP, True, False, 0)
    @example(make_scene(5, 1, 1, 2, 2, 2, False), Granularity.ELEMENT, True, False, 0)
    @example(make_scene(6, 3, 2, 2, 2, 3, True), Granularity.ELEMENT, False, True, 1)
    @settings(max_examples=40)
    def test_walk_equals_windows_and_one_unit_at_a_time(self, world, granularity, tied,
                                                        faded, seed):
        """A space that fits one pass (forced by a pass of 2^20 entries) is
        walked over its scored table; config, objective, trace and both
        counts are bitwise those of the window path (forced by a one-entry
        pass) and of the sequential reference.  A tied table repeats state 1
        as its last state, which a move must never take.  A faded space is
        walked from its own scoring and never cached."""
        scene, layout, table = world
        if tied:
            table = StateTable(states=(*table.states, table.states[1]))
        geometry = channel_geometry(scene, layout)
        realizations = draw_realizations(FadingModel(6.0), geometry, seed, 2) if faded else ()

        def search(pass_entries):
            with mock.patch.object(beamforming, "PASS_ENTRIES", pass_entries):
                if faded:
                    return statistical_optimize(scene, layout, table, FadingModel(6.0), 2,
                                                seed, granularity)
                return greedy_optimize(scene, layout, table, granularity)

        windows = search(1)
        assert geometry not in beamforming._SCORED
        walk = search(2 ** 20)
        assert (geometry in beamforming._SCORED) is not faded
        states, trace, evaluations, degenerate = sequential_greedy(
            _UnitProblem(scene, layout, table, granularity, realizations))
        for out in (walk, windows):
            assert out.config == unit_config(layout, granularity, states)
            assert out.trace == tuple(trace)
            assert out.objective == trace[-1][1]
            assert (out.evaluations, out.degenerate_evaluations) == (evaluations, degenerate)
        if tied:
            assert len(table.states) - 1 not in states

    # Spaces that fit one pass: 3^5 channels of 2 x 2 entries, and 2^6
    # candidates of 3 group partials of 1 x 1 entries.
    @pytest.mark.parametrize("granularity, nt, groups, num_states",
                             [(Granularity.GROUP, 2, 5, 3), (Granularity.ELEMENT, 1, 3, 2)])
    @pytest.mark.parametrize("direct_path", [False, True])
    def test_outcomes_do_not_depend_on_the_search_order(self, granularity, nt, groups,
                                                        num_states, direct_path):
        """Exhaustive then greedy search, greedy then exhaustive, and each
        alone on a fresh scene give bitwise the same outcomes, whichever
        search scored the space that the other reads."""
        def solve(*order):
            scene, layout, table = make_scene(seed=9, nt=nt, k_users=nt, groups=groups,
                                              group_cols=2, num_states=num_states,
                                              direct_path=direct_path)
            problem = _UnitProblem(scene, layout, table, granularity)
            assert problem.block_depth == problem.num_units
            search = {"exhaustive": exhaustive_optimize, "greedy": greedy_optimize}
            return {name: repr(search[name](scene, layout, table, granularity))
                    for name in order}

        first = solve("exhaustive", "greedy")
        assert solve("greedy", "exhaustive") == first
        assert {**solve("greedy"), **solve("exhaustive")} == first

    @pytest.mark.parametrize("granularity", [Granularity.GROUP, Granularity.ELEMENT])
    def test_tied_states_move_to_the_lowest(self, granularity):
        """States 1 and 2 are identical, so they tie on every unit: a unit
        that moves takes state 1, and never leaves it for state 2."""
        scene, layout, table = make_scene(seed=11, nt=2, k_users=2, groups=4,
                                          group_cols=2, num_states=2, direct_path=False)
        table = StateTable(states=(*table.states, table.states[1]))
        out = greedy_optimize(scene, layout, table, granularity)
        states, trace, _, _ = sequential_greedy(_UnitProblem(scene, layout, table, granularity))
        assert out.config == unit_config(layout, granularity, states)
        assert out.trace == tuple(trace)
        assert 1 in states and 2 not in states

    # 3^8 candidates of 2 x 2 channel entries do not fit one block, so the
    # 8 groups take the window path, in one window; 160 elements of
    # 8-element groups need two.
    @pytest.mark.parametrize("granularity, groups, group_cols",
                             [(Granularity.GROUP, 8, 2), (Granularity.ELEMENT, 20, 8)])
    def test_every_window_holds_the_cap(self, zf_rows, granularity, groups, group_cols):
        """With every state identical no move is strictly better, so the one
        sweep scores the units in windows of ``limit`` units from the first:
        one ZF call for the start, then one per window."""
        scene, layout, table = make_scene(seed=2, nt=2, k_users=2, groups=groups,
                                          group_cols=group_cols, num_states=3,
                                          direct_path=False)
        table = StateTable(states=(table.states[0],) * 3)
        out = greedy_optimize(scene, layout, table, granularity)
        units = groups if granularity is Granularity.GROUP else groups * group_cols
        width = table.num_states - 1
        limit = beamforming.PASS_ENTRIES // (width * group_cols * 2 * 2)  # m * K * Nt
        assert len(out.trace) == 2
        assert len(zf_rows) == 1 + math.ceil(units / limit)
        assert zf_rows == [1] + [width * min(limit, units - s) for s in range(0, units, limit)]

    # 3^6 channels of 2 x 2 entries fit one block; so do 2^8 candidates of
    # 4 group partials of 2 x 2 entries.
    @pytest.mark.parametrize("granularity, groups, num_states",
                             [(Granularity.GROUP, 6, 3), (Granularity.ELEMENT, 4, 2)])
    def test_a_space_that_fits_is_scored_once(self, zf_rows, granularity, groups,
                                              num_states):
        """The sweeps read one ZF call of all P^units candidates, and the
        outcome and both counts are those of the unit-at-a-time search: only
        the rows a sweep reads are counted."""
        scene, layout, table = make_scene(seed=5, nt=2, k_users=2, groups=groups,
                                          group_cols=2, num_states=num_states,
                                          direct_path=True)
        out = greedy_optimize(scene, layout, table, granularity)
        units = groups if granularity is Granularity.GROUP else groups * 2
        assert zf_rows == [num_states ** units]
        states, trace, evaluations, degenerate = sequential_greedy(
            _UnitProblem(scene, layout, table, granularity))
        assert len(trace) > 2  # some unit moved
        assert out.config == unit_config(layout, granularity, states)
        assert out.trace == tuple(trace)
        assert (out.evaluations, out.degenerate_evaluations) == (evaluations, degenerate)
        assert out.evaluations == 1 + (len(out.trace) - 1) * units * (num_states - 1)
