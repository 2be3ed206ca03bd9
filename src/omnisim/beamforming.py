"""Hybrid beamforming: closed-form zero-forcing at the BS plus discrete
optimization of the panel configuration.

The digital precoder is the channel pseudo-inverse with unit-norm columns
and equal per-stream power.  ``sum_rate`` and every optimizer score
candidates in batches through one kernel (``ChannelKernel`` plus
:func:`_zero_forcing`) whose result for a candidate does not depend on its
batch, so "exhaustive >= greedy" holds exactly, not just statistically.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property

import numpy as np

from .channel import (PASS_ENTRIES, ChannelGeometry, ChannelKernel, FadingModel,
                      FadingRealization, Scene, _configuration_channels, _gather,
                      channel_geometry, draw_realizations, ordered_sum)
from .elements import Configuration, Granularity, StateTable
from .errors import (RankDeficientChannelError, Record, SearchSpaceError, TooManyUsersError,
                     ValidationError, require_array, require_choice, require_int, require_real)
from .geometry import ElementLayout, Side

CONDITION_LIMIT = 1e12
EXHAUSTIVE_GUARD = 2 ** 20
BOUND_SLACK = 1e-12
# Greedy sweeps stop once a sweep's relative improvement falls below this.
CONVERGENCE_EPSILON = 1e-9
# Candidates per kernel call in random search; bounds the temporaries
# (README: how a configuration is scored).
BATCH = 256

# geometry -> {(coefficient bytes, grouped): _UnitProblem.scored_space}, weak
# on the geometry, so an entry lives as long as its scene and layout.
_SCORED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class BeamformerResult(Record):
    """Zero-forcing precoder, (Nt, K) with unit-norm columns, and equal stream
    powers: ``power_allocation`` (K,) in linear W, ``per_user_rate`` (K,) in
    bits/s/Hz, and ``column_norms`` (K,) of the raw pseudo-inverse."""

    def __init__(self, precoder: np.ndarray, power_allocation: np.ndarray,
                 per_user_rate: np.ndarray, sum_rate: float, column_norms: np.ndarray):
        object.__setattr__(self, "precoder", precoder)
        object.__setattr__(self, "power_allocation", power_allocation)
        object.__setattr__(self, "per_user_rate", per_user_rate)
        object.__setattr__(self, "sum_rate", sum_rate)
        object.__setattr__(self, "column_norms", column_norms)


def _zero_forcing(H: np.ndarray, total_power_w: float, noise_power_w: float):
    """ZF of a (..., K, Nt) stack: (rates (..., K), sum rate, degenerate
    mask), each over the stack axes.

    Stream k's SINR is (P / K) / (N [(H H^H)^-1]_kk).  K <= 2 uses the
    closed-form Hermitian eigenvalues and inverse, larger K stacked LAPACK.
    A channel is accepted when its Gram matrix is well conditioned: K = 1
    when the Gram entry is positive, K = 2 when the smaller eigenvalue is
    positive and the eigenvalue ratio below ``CONDITION_LIMIT``, K >= 3 when
    LAPACK's condition number is below it.  Any other channel, or one whose
    rates are not finite, is degenerate and scores 0.  The work runs on
    ``H.T`` so that antennas and users are summed by :func:`ordered_sum`.
    """
    k_users, n_antennas = H.shape[-2:]
    if k_users > n_antennas:
        raise TooManyUsersError(
            f"too many users for ZF: K={k_users} > Nt={n_antennas}"
        )
    Ht = H.T  # (Nt, K, ...) with the stack axes reversed
    with np.errstate(all="ignore"):  # degenerate channels are masked below
        if k_users <= 2:  # only the Gram entries the closed form reads
            diag = ordered_sum(Ht * Ht.conj()).real  # (K, ...)
            if k_users == 2:
                off_diag = np.abs(ordered_sum(Ht[:, 0] * Ht[:, 1].conj()))
        else:
            gram = ordered_sum(Ht[:, :, None] * Ht.conj()[:, None, :])  # (K, K, ...)
        if k_users == 1:
            accepted = diag[0] > 0
            inverse_diag = 1.0 / diag
        elif k_users == 2:
            a, c = diag
            mean = 0.5 * (a + c)
            half_gap = np.hypot(0.5 * (a - c), off_diag)
            eig_max = mean + half_gap
            eig_min = mean - half_gap
            accepted = (eig_min > 0) & (eig_max / eig_min < CONDITION_LIMIT)
            inverse_diag = diag[::-1] / (eig_max * eig_min)
        else:
            users = np.arange(k_users)
            stack = np.moveaxis(gram, (0, 1), (-2, -1))
            accepted = _gram_condition(stack) < CONDITION_LIMIT
            inverse = np.linalg.inv(
                np.where(accepted[..., None, None], stack, np.eye(k_users)))
            inverse_diag = np.moveaxis(inverse[..., users, users].real, -1, 0)
        rates = np.log2(1.0 + (total_power_w / k_users) / (noise_power_w * inverse_diag))
    total = ordered_sum(rates) if k_users > 1 else rates[0].copy()  # no view of rates
    degenerate = ~(accepted & np.isfinite(total))
    if degenerate.any():
        rates[:, degenerate] = 0.0
        total[degenerate] = 0.0
    return rates.T, total.T, degenerate.T


def _gram_condition(stack: np.ndarray) -> np.ndarray:
    """LAPACK condition numbers of a (..., K, K) stack of Gram matrices; inf
    for a matrix with a non-finite entry."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(np.where(finite[..., None, None], stack, np.eye(stack.shape[-1])))
    return np.where(finite, cond, np.inf)


def zf_precoder(channel, total_power_w: float, noise_power_w: float) -> BeamformerResult:
    """Closed-form zero-forcing beamformer with equal per-stream power.

    Raises TooManyUsersError when K > Nt and RankDeficientChannelError when
    H H^H is singular or its condition number reaches 1e12.
    """
    message = "channel must be a non-empty (K, Nt) array of numbers"
    H = np.atleast_2d(require_array(channel, message, complex))
    if H.ndim != 2 or not len(H):
        raise ValidationError(message)
    total_power_w = require_real("total_power_w", total_power_w, positive=True)
    noise_power_w = require_real("noise_power_w", noise_power_w, positive=True)
    if not np.all(np.isfinite(H)):
        raise ValidationError("channel entries must be finite")
    rates, total, degenerate = _zero_forcing(H[None], total_power_w, noise_power_w)
    herm = H.conj().T
    gram = H @ herm
    if degenerate[0]:
        raise RankDeficientChannelError(
            f"channel Gram matrix condition number {_gram_condition(gram):.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}, or its pseudo-inverse has a zero column")
    raw = herm @ np.linalg.inv(gram)  # (Nt, K), H @ raw = I
    norms = np.sqrt(np.sum(np.abs(raw) ** 2, axis=0))
    power = np.full(H.shape[0], total_power_w / H.shape[0])
    return BeamformerResult(precoder=raw / norms[None, :], power_allocation=power,
                            per_user_rate=rates[0], sum_rate=float(total[0]),
                            column_norms=norms)


class RateResult(Record):
    """Sum rate of one configuration; degenerate marks a rank-failed channel."""

    def __init__(self, sum_rate: float, per_user_rate: np.ndarray, degenerate: bool):
        object.__setattr__(self, "sum_rate", sum_rate)
        object.__setattr__(self, "per_user_rate", per_user_rate)
        object.__setattr__(self, "degenerate", degenerate)


def evaluate_rates(scene: Scene, layout: ElementLayout, table: StateTable,
                   config: Configuration, *,
                   geometry: ChannelGeometry | None = None,
                   fading: FadingRealization | None = None) -> RateResult:
    """ZF sum rate for one configuration; rank failures map to rate 0."""
    if geometry is None:
        geometry = channel_geometry(scene, layout)
    H = _configuration_channels(geometry, table, config, () if fading is None else (fading,))
    rates, total, degenerate = _zero_forcing(H, scene.tx_power_w, scene.noise_power_w)
    return RateResult(sum_rate=float(total[0]), per_user_rate=rates[0],
                      degenerate=bool(degenerate[0]))


def sum_rate(scene: Scene, layout: ElementLayout, table: StateTable,
             config: Configuration) -> float:
    """ZF sum rate in bits/s/Hz; 0 for degenerate (rank-failed) channels.
    Link gains: see :mod:`omnisim.channel`."""
    return evaluate_rates(scene, layout, table, config).sum_rate


class OptimizationOutcome(Record):
    """Chosen configuration with its objective, per-sweep trace, evaluation
    count and how many of those evaluations met a rank-deficient channel."""

    def __init__(self, config: Configuration, objective: float,
                 trace: tuple[tuple[int, float], ...], evaluations: int,
                 degenerate_evaluations: int = 0):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "evaluations", evaluations)
        object.__setattr__(self, "degenerate_evaluations", degenerate_evaluations)


class _UnitProblem:
    """Shared machinery: (B, units) arrays of candidate unit states, scored
    by :meth:`score` through its one kernel, exactly as ``sum_rate``
    scores them.  Under fading a candidate's objective is the ``math.fsum``
    average over the realizations, and it is degenerate if any channel is.
    Only :meth:`__init__` reads the granularity: a unit is a group, its rows
    its state table, or an element, its rows in ``ChannelKernel.table``.
    A whole space that fits one :meth:`score_block` is scored once per
    geometry, table and granularity (:meth:`scored_space`).
    """

    def __init__(self, scene: Scene, layout: ElementLayout, table: StateTable,
                 granularity: Granularity, realizations=()):
        kernel = self.kernel = ChannelKernel(channel_geometry(scene, layout),
                                             table.coefficient_matrix, realizations)
        # The units are the groups, in group order: prefix expansion applies.
        self.grouped = require_choice(granularity, Granularity,
                                      "granularity must be a Granularity") is Granularity.GROUP
        groups = np.arange(layout.num_groups)[:, None]  # each group one unit
        # The (G, m) units each group sums, each unit's group, and the unit rows.
        self.members, self.group_of, self.rows = (
            (groups, groups[:, 0], lambda: kernel.state_tables) if self.grouped
            else (layout.members, layout.group_of, lambda: kernel.table))
        self.layout = layout
        self.powers = (scene.tx_power_w, scene.noise_power_w)
        self.num_states = table.num_states
        self.num_units = self.members.size
        self.evaluations = 0
        self.degenerate_evaluations = 0

    def partials(self, unit_states: np.ndarray) -> np.ndarray:
        """(G, B, R, K, Nt) group partials for (B, units) candidate states."""
        return _gather(self.rows(), self.members, unit_states[:, self.members])

    def flips(self, states: np.ndarray, units: np.ndarray,
              new_states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B,) groups and (B, R, K, Nt) partials of the one group each row
        changes: unit ``units[b]`` of ``states`` takes ``new_states[b]``."""
        groups = self.group_of[units]
        members = self.members[groups]  # (B, m)
        member_states = states[members]
        member_states[members == units[:, None]] = new_states
        return groups, _gather(self.rows(), members, member_states[None])[:, 0]

    def score(self, partials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B,) objectives and degenerate flags of the candidates with
        (G, B, R, K, Nt) group partials; :meth:`count` tallies them."""
        return self.score_channels(self.kernel.channels(partials))

    def score_channels(self, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`score` of the candidates' (B, R, K, Nt) channels."""
        if H.shape[1] == 1:  # as evaluate_rates; a unit axis slows ZF's many small calls
            _, total, degenerate = _zero_forcing(H[:, 0], *self.powers)
            return total, degenerate
        _, total, degenerate = _zero_forcing(H, *self.powers)
        return (np.array([math.fsum(rates) / len(rates) for rates in total.tolist()]),
                degenerate.any(axis=1))

    @cached_property
    def block_depth(self) -> int:
        """The largest L whose P^L candidates fit one ``PASS_ENTRIES`` pass:
        their channels (group granularity) or group partials (element)."""
        size = self.kernel.channel_size * (1 if self.grouped else len(self.kernel.members))
        depth = 0
        while depth < self.num_units and self.num_states ** (depth + 1) * size <= PASS_ENTRIES:
            depth += 1
        return depth

    @cached_property
    def digits(self) -> np.ndarray:
        """Each unit's place value in a candidate's lexicographic index (unit
        0 most significant); only for spaces that fit a block or the guard."""
        return self.num_states ** np.arange(self.num_units - 1, -1, -1)

    def score_block(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`score` of the P^L candidates from lexicographic index
        ``start``, a multiple of P^L: every state of the last L =
        :attr:`block_depth` units under the prefix of ``start``.  At group
        granularity their channels are expanded from the prefix's group sum
        (``ChannelKernel.product_channels``); at element granularity the
        indices are decoded and their partials gathered."""
        depth, digits = self.block_depth, self.digits
        if self.grouped:
            prefix = (start // digits[:self.num_units - depth] % self.num_states)[:, None]
            free = [slice(None)] * depth  # every state, as a view of the group's table
            H = self.kernel.product_channels(self.rows(), [*prefix, *free])
            return self.score_channels(H)
        candidates = np.arange(start, start + self.num_states ** depth)[:, None]
        return self.score(self.partials(candidates // digits % self.num_states))

    def scored_space(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`score_block` of the whole space, which fits one block;
        without fading, kept read-only for exhaustive and greedy search of
        the same scene, never for ``sum_rate``."""
        if self.kernel.fading:
            return self.score_block(0)
        spaces = _SCORED.setdefault(self.kernel.geometry, {})
        key = (self.kernel.coefficients.tobytes(), self.grouped)
        scored = spaces.get(key)
        if scored is None:
            scored = spaces[key] = self.score_block(0)
            for array in scored:
                array.setflags(write=False)
        return scored

    def count(self, degenerate: np.ndarray) -> None:
        """Add the candidates with these degenerate flags to the evaluations."""
        self.evaluations += len(degenerate)
        self.degenerate_evaluations += int(np.count_nonzero(degenerate))

    def outcome(self, unit_states, objective: float, trace) -> OptimizationOutcome:
        config = (Configuration.from_group_states(self.layout, unit_states) if self.grouped
                  else Configuration(states=tuple(unit_states)))
        return OptimizationOutcome(config=config, objective=objective, trace=tuple(trace),
                                   evaluations=self.evaluations,
                                   degenerate_evaluations=self.degenerate_evaluations)


def _greedy_sweeps(problem: _UnitProblem, max_sweeps: int) -> OptimizationOutcome:
    """One-at-a-time coordinate ascent over unit states, from all zeros.

    Each unit keeps its current state on ties; among strictly better states
    the lowest index wins.  A whole space that fits one
    ``_UnitProblem.score_block`` is walked (:func:`_walk`).  Otherwise the
    other states of a window of the next units are scored as one batch
    against the current state: the first unit that improves moves, the rows
    after it are dropped uncounted, and the next window starts after it.
    Scores do not depend on the batch, so this is exactly the unit-by-unit
    search.  Every window holds the units whose rows fit one
    ``PASS_ENTRIES`` pass, a row counted as the element gather's m·K·Nt·R
    products at both granularities: under fading each row costs R ZF
    solves, so wider windows of group rows measured no faster.
    """
    require_int("max_sweeps", max_sweeps, 1)
    if problem.block_depth == problem.num_units:
        return _walk(problem, max_sweeps)
    states = np.zeros(problem.num_units, dtype=np.int64)
    offsets = np.arange(problem.num_states - 1)  # one row per other state
    width = len(offsets)
    partials = problem.partials(states[None])  # (G, 1, R, K, Nt)
    values, degenerate = problem.score(partials)
    problem.count(degenerate)
    limit = max(1, PASS_ENTRIES // (max(width, 1) * problem.kernel.members.shape[1]
                                    * problem.kernel.channel_size))
    columns = np.arange(min(limit, problem.num_units) * width)
    current = float(values[0])
    trace = [(0, current)]
    row_units = np.arange(problem.num_units).repeat(width)  # unit of each row
    for sweep in range(1, max_sweeps + 1):
        before = current
        start = 0
        # Each row's state: a unit that moves is not scored again this sweep.
        new_states = (offsets + (offsets >= states[:, None])).ravel()
        while width and start < problem.num_units:
            stop = min(start + limit, problem.num_units)
            rows = slice(start * width, stop * width)
            units, moved = row_units[rows], new_states[rows]
            groups, changed = problem.flips(states, units, moved)
            trial = np.repeat(partials, len(groups), axis=1)
            trial[groups, columns[:len(groups)]] = changed
            values, degenerate = problem.score(trial)
            first = int((values > current).argmax())  # the first improving row, if any
            improving = values[first] > current
            decided = first // width + 1 if improving else stop - start
            problem.count(degenerate[:decided * width])
            start += decided
            if improving:  # unit start - 1 takes its best state, the lowest if tied
                unit_rows = slice((decided - 1) * width, decided * width)
                row = unit_rows.start + int(np.argmax(values[unit_rows]))
                states[start - 1] = moved[row]
                current = float(values[row])
                partials[groups[row]] = changed[row]
        trace.append((sweep, current))
        if (current - before) / max(abs(before), 1e-30) < CONVERGENCE_EPSILON:
            break
    return problem.outcome(states.tolist(), current, trace)


def _walk(problem: _UnitProblem, max_sweeps: int) -> OptimizationOutcome:
    """:func:`_greedy_sweeps` over :meth:`_UnitProblem.scored_space` in plain
    Python, one unit at a time, each row looked up by its lexicographic
    index; only the 1 + sweeps·units·(P−1) rows read are counted."""
    values, degenerate = problem.scored_space()
    index, current = 0, values.item(0)  # the row of the current states
    trace, read = [(0, current)], [0]
    for sweep in range(1, max_sweeps + 1):
        before = current
        for digit in problem.digits.tolist():
            base = index - index // digit % problem.num_states * digit  # this unit in state 0
            rows = [row for row in range(base, base + problem.num_states * digit, digit)
                    if row != index]
            read += rows
            for row in rows:
                if values.item(row) > current:  # a tie keeps the lower state
                    index, current = row, values.item(row)
        trace.append((sweep, current))
        if (current - before) / max(abs(before), 1e-30) < CONVERGENCE_EPSILON:
            break
    problem.count(degenerate[read])
    return problem.outcome((index // problem.digits % problem.num_states).tolist(), current,
                           trace)


def greedy_optimize(scene: Scene, layout: ElementLayout, table: StateTable,
                    granularity: Granularity = Granularity.ELEMENT,
                    max_sweeps: int = 10) -> OptimizationOutcome:
    """Coordinate-ascent sweeps over unit states, starting from all zeros."""
    return _greedy_sweeps(_UnitProblem(scene, layout, table, granularity), max_sweeps)


def exhaustive_optimize(scene: Scene, layout: ElementLayout, table: StateTable,
                        granularity: Granularity = Granularity.ELEMENT
                        ) -> OptimizationOutcome:
    """Global optimum by enumeration; ties pick the lexicographically
    smallest configuration: batches run in lexicographic order (first unit
    most significant), and a later batch must beat the best strictly.

    A batch is one ``_UnitProblem.score_block``: every state of the last L
    units under one prefix of the others, P^L candidates with the largest L
    whose channels (group granularity) or group partials (element) fit in
    one ``PASS_ENTRIES`` pass.  A space that fits one block is
    ``_UnitProblem.scored_space``, which greedy search of the same scene
    then walks without scoring it again.  Refuses searches beyond 2^20
    candidates."""
    problem = _UnitProblem(scene, layout, table, granularity)
    num_states, num_units = problem.num_states, problem.num_units
    space = num_states ** num_units
    if space > EXHAUSTIVE_GUARD:
        raise SearchSpaceError(
            f"{num_states}^{num_units} = {space} candidates "
            f"exceed the {EXHAUSTIVE_GUARD} guard"
        )
    best_index, best_value = 0, -math.inf
    step = num_states ** problem.block_depth
    for start in range(0, space, step):
        values, degenerate = problem.scored_space() if step == space else problem.score_block(start)
        problem.count(degenerate)
        best = int(np.argmax(values))
        if values[best] > best_value:
            best_index, best_value = start + best, float(values[best])
    best_states = (best_index // problem.digits % num_states).tolist()
    return problem.outcome(best_states, best_value, ((0, best_value),))


def random_baseline(scene: Scene, layout: ElementLayout, table: StateTable,
                    granularity: Granularity = Granularity.ELEMENT,
                    trials: int = 100, seed: int = 0) -> OptimizationOutcome:
    """Best of ``trials`` uniform configurations from a seeded generator; numpy
    draws a batch one value at a time, so the draws do not depend on BATCH."""
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
    problem = _UnitProblem(scene, layout, table, granularity)
    rng = np.random.default_rng(seed)
    best_states, best_value, trace = None, -math.inf, []
    for start in range(0, trials, BATCH):
        draws = rng.integers(0, problem.num_states,
                             size=(min(BATCH, trials - start), problem.num_units))
        values, degenerate = problem.score(problem.partials(draws))
        problem.count(degenerate)
        for t, value in enumerate(values.tolist(), start):
            if value > best_value:
                best_states, best_value = draws[t - start].tolist(), value
                trace.append((t, value))
    return problem.outcome(best_states, best_value, trace)


def relaxed_upper_bound(scene: Scene, layout: ElementLayout,
                        table: StateTable) -> float:
    """Continuous-relaxation bound: per-user co-phasing with the largest
    side amplitude.  Upper-bounds the ZF sum rate of every discrete
    configuration (triangle inequality plus the matched-filter bound);
    not necessarily tight.  Raised by ``BOUND_SLACK`` (relative): with one
    user and one element it is attained, and rounding could put it an ulp
    below the objective."""
    geometry = channel_geometry(scene, layout)
    # index 0 reflection, 1 refraction, matching user_side_index
    amax = np.array([float(np.max(table.amplitudes(Side.REFLECTION))),
                     float(np.max(table.amplitudes(Side.REFRACTION)))])
    g1 = np.abs(geometry.bs_to_element.T)    # (M, Nt)
    g2 = np.abs(geometry.element_to_user.T)  # (M, K)
    per_user_amax = amax[geometry.user_side_index]  # (K,)
    bound_entries = per_user_amax[:, None] * ordered_sum(g2[:, :, None] * g1[:, None])  # (K, Nt)
    if geometry.direct is not None:
        bound_entries = bound_entries + np.abs(geometry.direct)
    norms_sq = np.sum(bound_entries ** 2, axis=1)
    p_per_stream = scene.tx_power_w / scene.num_users
    rates = np.log2(1.0 + p_per_stream * norms_sq / scene.noise_power_w)
    return float(np.sum(rates)) * (1.0 + BOUND_SLACK)


def statistical_optimize(scene: Scene, layout: ElementLayout, table: StateTable,
                         fading_model: FadingModel, num_samples: int, seed: int,
                         granularity: Granularity = Granularity.ELEMENT,
                         max_sweeps: int = 10) -> OptimizationOutcome:
    """Greedy sweeps against the sample-average sum rate under Rician fading.

    The fading realizations are drawn once up front and frozen across all
    candidate evaluations (common random numbers); the ZF precoder is
    recomputed per realization.  A degenerate (infinite-K) fading model
    reduces exactly to :func:`greedy_optimize`.
    """
    require_int("num_samples", num_samples, 1)
    require_int("seed", seed, 0)
    realizations = ()
    if not fading_model.is_degenerate:
        realizations = draw_realizations(fading_model, channel_geometry(scene, layout),
                                         seed, num_samples)
    problem = _UnitProblem(scene, layout, table, granularity, realizations)
    return _greedy_sweeps(problem, max_sweeps)
