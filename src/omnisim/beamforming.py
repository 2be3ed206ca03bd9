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
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelGeometry, ChannelKernel, FadingModel,
                      FadingRealization, Scene, channel_geometry,
                      draw_realizations, ordered_sum)
from .elements import Configuration, Granularity, StateTable
from .errors import (RankDeficientChannelError, SearchSpaceError,
                     TooManyUsersError, ValidationError)
from .geometry import ElementLayout, Side

CONDITION_LIMIT = 1e12
EXHAUSTIVE_GUARD = 2 ** 20
BOUND_SLACK = 1e-12
# Greedy sweeps stop once a sweep's relative improvement falls below this.
CONVERGENCE_EPSILON = 1e-9
# Candidates per kernel call in exhaustive and random search; bounds the
# temporaries (README: how a configuration is scored).
BATCH = 256


@dataclass(frozen=True, eq=False)
class BeamformerResult:
    """Zero-forcing precoder with unit-norm columns and equal stream powers."""

    precoder: np.ndarray          # (Nt, K), unit-norm columns
    power_allocation: np.ndarray  # (K,) linear W per stream
    per_user_rate: np.ndarray     # (K,) bits/s/Hz
    sum_rate: float
    column_norms: np.ndarray      # (K,) norms of the raw pseudo-inverse columns


def _zero_forcing(H: np.ndarray, total_power_w: float, noise_power_w: float):
    """ZF of a (..., K, Nt) stack: (rates (..., K), sum rate, Gram condition
    number, degenerate mask), each over the stack axes.

    Stream k's SINR is (P / K) / (N [(H H^H)^-1]_kk).  K <= 2 uses the
    closed-form Hermitian eigenvalues and inverse, larger K stacked LAPACK.
    A channel whose condition number is not below ``CONDITION_LIMIT``, or
    whose rates are not finite, is degenerate and scores 0.  The work runs on
    ``H.T`` so that antennas and users are summed by :func:`ordered_sum`.
    """
    k_users, n_antennas = H.shape[-2:]
    if k_users > n_antennas:
        raise TooManyUsersError(
            f"too many users for ZF: K={k_users} > Nt={n_antennas}"
        )
    Ht = H.T  # (Nt, K, ...) with the stack axes reversed
    gram = ordered_sum(Ht[:, :, None] * Ht.conj()[:, None, :])  # (K, K, ...)
    users = np.arange(k_users)
    diag = gram[users, users].real
    with np.errstate(all="ignore"):  # degenerate channels are masked below
        if k_users == 1:
            cond = np.where(diag[0] > 0, 1.0, np.inf)
            inverse_diag = 1.0 / diag
        elif k_users == 2:
            a, c = diag
            half_gap = np.hypot(0.5 * (a - c), np.abs(gram[0, 1]))
            eig_max = 0.5 * (a + c) + half_gap
            eig_min = 0.5 * (a + c) - half_gap
            cond = np.where(eig_min > 0, eig_max / eig_min, np.inf)
            inverse_diag = diag[::-1] / (eig_max * eig_min)
        else:
            eye = np.eye(k_users)
            stack = np.moveaxis(gram, (0, 1), (-2, -1))
            finite = np.isfinite(stack).all(axis=(-2, -1))
            cond = np.where(finite, np.linalg.cond(
                np.where(finite[..., None, None], stack, eye)), np.inf)
            inverse = np.linalg.inv(
                np.where((cond < CONDITION_LIMIT)[..., None, None], stack, eye))
            inverse_diag = np.moveaxis(inverse[..., users, users].real, -1, 0)
        rates = np.log2(1.0 + (total_power_w / k_users) / (noise_power_w * inverse_diag))
    total = ordered_sum(rates)
    degenerate = ~((cond < CONDITION_LIMIT) & np.isfinite(total))
    rates[:, degenerate] = 0.0
    total[degenerate] = 0.0
    return rates.T, total.T, cond.T, degenerate.T


def zf_precoder(channel, total_power_w: float, noise_power_w: float) -> BeamformerResult:
    """Closed-form zero-forcing beamformer with equal per-stream power.

    Raises TooManyUsersError when K > Nt and RankDeficientChannelError when
    H H^H is singular or its condition number reaches 1e12.
    """
    H = np.atleast_2d(np.asarray(channel, dtype=complex))
    if not (total_power_w > 0 and noise_power_w > 0):
        raise ValidationError("total power and noise power must be positive")
    rates, total, cond, degenerate = _zero_forcing(H[None], total_power_w,
                                                   noise_power_w)
    if degenerate[0]:
        raise RankDeficientChannelError(
            f"channel Gram matrix condition number {cond[0]:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}, or its pseudo-inverse has a zero column")
    herm = H.conj().T
    raw = herm @ np.linalg.inv(H @ herm)  # (Nt, K), H @ raw = I
    norms = np.sqrt(np.sum(np.abs(raw) ** 2, axis=0))
    power = np.full(H.shape[0], total_power_w / H.shape[0])
    return BeamformerResult(precoder=raw / norms[None, :], power_allocation=power,
                            per_user_rate=rates[0], sum_rate=float(total[0]),
                            column_norms=norms)


@dataclass(frozen=True, eq=False)
class RateResult:
    """Sum rate of one configuration; degenerate marks a rank-failed channel."""

    sum_rate: float
    per_user_rate: np.ndarray
    degenerate: bool


def evaluate_rates(scene: Scene, layout: ElementLayout, table: StateTable,
                   config: Configuration, *,
                   geometry: ChannelGeometry | None = None,
                   fading: FadingRealization | None = None) -> RateResult:
    """ZF sum rate for one configuration; rank failures map to rate 0."""
    if geometry is None:
        geometry = channel_geometry(scene, layout)
    config.validate_against(table, layout)
    kernel = ChannelKernel(geometry, table.coefficient_matrix,
                           () if fading is None else (fading,))
    H = kernel.channels(kernel.element_partials(np.asarray(config.states)[None]))
    rates, total, _, degenerate = _zero_forcing(H[:, 0], scene.tx_power_w,
                                                scene.noise_power_w)
    return RateResult(sum_rate=float(total[0]), per_user_rate=rates[0],
                      degenerate=bool(degenerate[0]))


def sum_rate(scene: Scene, layout: ElementLayout, table: StateTable,
             config: Configuration) -> float:
    """ZF sum rate in bits/s/Hz; 0 for degenerate (rank-failed) channels."""
    return evaluate_rates(scene, layout, table, config).sum_rate


@dataclass(frozen=True, eq=False)
class OptimizationOutcome:
    """Chosen configuration with its objective, per-sweep trace, evaluation
    count and how many of those evaluations met a rank-deficient channel."""

    config: Configuration
    objective: float
    trace: tuple[tuple[int, float], ...]
    evaluations: int
    degenerate_evaluations: int = 0


class _UnitProblem:
    """Shared machinery: (B, units) arrays of candidate unit states, scored
    by :meth:`score` through its one kernel, exactly as ``sum_rate``
    scores them.  Under fading a candidate's objective is the ``math.fsum``
    average over the realizations, and it is degenerate if any channel is.
    """

    def __init__(self, scene: Scene, layout: ElementLayout, table: StateTable,
                 granularity: Granularity, geometry: ChannelGeometry | None = None,
                 realizations=()):
        self.layout = layout
        self.granularity = granularity
        if geometry is None:
            geometry = channel_geometry(scene, layout)
        self.kernel = ChannelKernel(geometry, table.coefficient_matrix, realizations)
        self.powers = (scene.tx_power_w, scene.noise_power_w)
        self.num_states = table.num_states
        if granularity is Granularity.GROUP:
            self.num_units = layout.num_groups
        else:
            self.num_units = layout.num_elements
            # each element's position among its group's members
            members = self.kernel.members
            self.position = np.empty(layout.num_elements, dtype=np.int64)
            self.position[members] = np.arange(members.shape[1])
        self.evaluations = 0
        self.degenerate_evaluations = 0

    def partials(self, unit_states: np.ndarray) -> np.ndarray:
        """(G, B, R, K, Nt) group partials for (B, units) candidate states."""
        if self.granularity is Granularity.GROUP:
            return self.kernel.group_state_partials(unit_states)
        return self.kernel.element_partials(unit_states)

    def unit_partials(self, states: np.ndarray, unit: int,
                      candidates: np.ndarray) -> tuple[int, np.ndarray]:
        """(group, partials) of the one group that changes when ``unit`` of
        ``states`` takes each of ``candidates``; only that group is recomputed."""
        if self.granularity is Granularity.GROUP:
            return unit, self.kernel.state_tables[unit][candidates]
        group = int(self.layout.group_of[unit])
        member_states = np.repeat(states[None, self.kernel.members[group]],
                                  len(candidates), axis=0)
        member_states[:, self.position[unit]] = candidates
        return group, self.kernel.partials(member_states[:, None], slice(group, group + 1))[0]

    def score(self, partials: np.ndarray) -> np.ndarray:
        """(B,) objectives of the candidates with (G, B, R, K, Nt) group partials."""
        H = self.kernel.channels(partials)
        self.evaluations += len(H)
        if H.shape[1] == 1:  # as evaluate_rates; a unit axis slows ZF's many small calls
            _, total, _, degenerate = _zero_forcing(H[:, 0], *self.powers)
            self.degenerate_evaluations += int(np.count_nonzero(degenerate))
            return total
        _, total, _, degenerate = _zero_forcing(H, *self.powers)
        self.degenerate_evaluations += int(np.count_nonzero(degenerate.any(axis=1)))
        return np.array([math.fsum(rates) / len(rates) for rates in total.tolist()])

    def outcome(self, unit_states, objective: float, trace) -> OptimizationOutcome:
        if self.granularity is Granularity.GROUP:
            config = Configuration.from_group_states(self.layout, unit_states)
        else:
            config = Configuration(states=tuple(unit_states))
        return OptimizationOutcome(config=config, objective=objective, trace=tuple(trace),
                                   evaluations=self.evaluations,
                                   degenerate_evaluations=self.degenerate_evaluations)


def _greedy_sweeps(problem: _UnitProblem, max_sweeps: int):
    """One-at-a-time coordinate ascent over unit states.

    Each unit keeps its current state on ties; among strictly better states
    the lowest index wins.  A unit's other states are scored as one batch.
    Returns (unit_states, trace).
    """
    if max_sweeps < 1:
        raise ValidationError("max_sweeps must be at least 1")
    states = np.zeros(problem.num_units, dtype=np.int64)
    partials = problem.partials(states[None])  # (G, 1, R, K, Nt)
    current = float(problem.score(partials)[0])
    trace = [(0, current)]
    others = [np.delete(np.arange(problem.num_states), s)
              for s in range(problem.num_states)]
    for sweep in range(1, max_sweeps + 1):
        before = current
        for unit in range(problem.num_units):
            candidates = others[states[unit]]
            if not len(candidates):
                continue
            group, changed = problem.unit_partials(states, unit, candidates)
            trial = np.repeat(partials, len(candidates), axis=1)
            trial[group] = changed
            values = problem.score(trial)
            best = int(np.argmax(values))
            if values[best] > current:
                states[unit] = candidates[best]
                current = float(values[best])
                partials[group] = changed[best]
        trace.append((sweep, current))
        improvement = (current - before) / max(abs(before), 1e-30)
        if improvement < CONVERGENCE_EPSILON:
            break
    return states.tolist(), trace


def greedy_optimize(scene: Scene, layout: ElementLayout, table: StateTable,
                    granularity: Granularity = Granularity.ELEMENT,
                    max_sweeps: int = 10) -> OptimizationOutcome:
    """Coordinate-ascent sweeps over unit states, starting from all zeros."""
    problem = _UnitProblem(scene, layout, table, granularity)
    states, trace = _greedy_sweeps(problem, max_sweeps)
    return problem.outcome(states, trace[-1][1], trace)


def exhaustive_optimize(scene: Scene, layout: ElementLayout, table: StateTable,
                        granularity: Granularity = Granularity.ELEMENT
                        ) -> OptimizationOutcome:
    """Global optimum by enumeration; ties pick the lexicographically
    smallest configuration: batches run in lexicographic order (first unit
    most significant), and a later batch must beat the best strictly.
    Refuses searches beyond 2^20 candidates."""
    problem = _UnitProblem(scene, layout, table, granularity)
    space = problem.num_states ** problem.num_units
    if space > EXHAUSTIVE_GUARD:
        raise SearchSpaceError(
            f"{problem.num_states}^{problem.num_units} = {space} candidates "
            f"exceed the {EXHAUSTIVE_GUARD} guard"
        )
    digits = problem.num_states ** np.arange(problem.num_units - 1, -1, -1)
    best_index, best_value = 0, -math.inf
    for start in range(0, space, BATCH):
        index = np.arange(start, min(start + BATCH, space))
        values = problem.score(problem.partials(
            index[:, None] // digits % problem.num_states))
        best = int(np.argmax(values))
        if values[best] > best_value:
            best_index, best_value = start + best, float(values[best])
    best_states = (best_index // digits % problem.num_states).tolist()
    return problem.outcome(best_states, best_value, ((0, best_value),))


def random_baseline(scene: Scene, layout: ElementLayout, table: StateTable,
                    granularity: Granularity = Granularity.ELEMENT,
                    trials: int = 100, seed: int = 0) -> OptimizationOutcome:
    """Best of ``trials`` uniform configurations from a seeded generator;
    one generator call per trial, so batching the scoring keeps the draws."""
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    problem = _UnitProblem(scene, layout, table, granularity)
    rng = np.random.default_rng(seed)
    best_states = None
    best_value = -math.inf
    trace = []
    for start in range(0, trials, BATCH):
        draws = np.empty((min(BATCH, trials - start), problem.num_units), dtype=np.int64)
        for row in draws:
            row[:] = rng.integers(0, problem.num_states, size=problem.num_units)
        values = problem.score(problem.partials(draws))
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
    g1 = np.abs(geometry.bs_to_element)      # (Nt, M)
    g2 = np.abs(geometry.element_to_user)    # (K, M)
    per_user_amax = amax[geometry.user_side_index]  # (K,)
    bound_entries = per_user_amax[:, None] * (g2 @ g1.T)  # (K, Nt)
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
    geometry = channel_geometry(scene, layout)
    realizations = ()
    if not fading_model.is_degenerate:
        realizations = draw_realizations(fading_model, geometry, seed, num_samples)
    elif num_samples < 1:
        raise ValidationError("num_samples must be at least 1")
    problem = _UnitProblem(scene, layout, table, granularity, geometry, realizations)
    states, trace = _greedy_sweeps(problem, max_sweeps)
    return problem.outcome(states, trace[-1][1], trace)
