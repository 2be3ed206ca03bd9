"""Free-space propagation, cascaded BS-panel-user channels, noise, link budgets.

The cascaded channel entry for user k and BS antenna n is the sum over
elements m of

    g(a_n, p_m) * Gamma_m(side_k) * g(p_m, u_k)

where g is the free-space amplitude gain and Gamma_m the element coefficient
toward the user's side.  Geometry-only factors are built once per (scene,
layout) pair, keyed by object identity (:func:`channel_geometry`): the cache
holds scenes and layouts weakly and hands every caller the same read-only
:class:`ChannelGeometry`.  :func:`_products` builds the matrix's terms for
one configuration or a batch of them with identical arithmetic.

Link gains: ``sum_rate``, the optimizers and ``coverage_map`` use the
free-space channel with the scene's transmit and noise power only;
``snr_at`` and the link budget add ``tx_gain_db + rx_gain_db +
lna_gain_db``.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .elements import Configuration, StateTable
from .errors import (InvalidSceneError, Record, ValidationError, require_array,
                     require_choice, require_int, require_real)
from .geometry import ElementLayout, PanelSpec, as_points, dot3

SPEED_OF_LIGHT = 299792458.0


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:  # beyond the float range
        return math.inf


class Scene(Record):
    """Complete simulation world: panel, terminals (``bs_antennas`` (Nt, 3)
    and ``users`` (K, 3), in metres), powers, model options.

    Computed once: ``tx_power_w``, ``noise_power_w``, ``chain_gain`` (linear
    tx_gain_db + rx_gain_db + lna_gain_db), ``bs_side_sign`` (sign of the BS
    half-space; +1 along the normal) and the read-only ``user_sides``
    (``point_sides(users)``).
    """

    def __init__(self, frequency_hz: float, panel: PanelSpec, bs_antennas: np.ndarray,
                 users: np.ndarray, tx_power_dbm: float, bandwidth_hz: float,
                 noise_figure_db: float = 0.0, tx_gain_db: float = 0.0,
                 rx_gain_db: float = 0.0, lna_gain_db: float = 0.0, direct_path: bool = False,
                 plane_wave_incidence: bool = False, element_factor_q: float = 0.0):
        frequency_hz = require_real("frequency_hz", frequency_hz, positive=True)
        bandwidth_hz = require_real("bandwidth_hz", bandwidth_hz, positive=True)
        tx_power_dbm = require_real("tx_power_dbm", tx_power_dbm)
        noise_figure_db = require_real("noise_figure_db", noise_figure_db)
        tx_gain_db = require_real("tx_gain_db", tx_gain_db)
        rx_gain_db = require_real("rx_gain_db", rx_gain_db)
        lna_gain_db = require_real("lna_gain_db", lna_gain_db)
        element_factor_q = require_real("element_factor_q", element_factor_q, 0.0)
        direct_path = require_choice(direct_path, bool, "direct_path must be a bool")
        plane_wave_incidence = require_choice(plane_wave_incidence, bool,
                                              "plane_wave_incidence must be a bool")
        # Watts once per scene, so no dBm value overflows or underflows later.
        tx_power_w = require_real("tx_power_w", db_to_linear(tx_power_dbm - 30.0), positive=True)
        noise_power_w = require_real("noise_power_w", db_to_linear(
            noise_power(bandwidth_hz, noise_figure_db) - 30.0), positive=True)
        # The linear chain gain snr_at multiplies by, checked the same way.
        chain_gain = require_real("tx_gain_db + rx_gain_db + lna_gain_db as a linear gain",
                                  db_to_linear(tx_gain_db + rx_gain_db + lna_gain_db),
                                  positive=True)
        # Frozen copies, so the caller's arrays stay writable and a write to
        # them cannot reach a cached channel geometry.
        bs = as_points(bs_antennas, "bs antennas")
        users = as_points(users, "users")
        sides = panel.plane_side(np.concatenate([bs, users]))
        bs_sides, user_sides = sides[:len(bs)], sides[len(bs):]
        if not bs_sides.all():
            raise InvalidSceneError(
                f"BS antenna {bs[bs_sides == 0][0].tolist()} lies in the panel plane")
        if (bs_sides != bs_sides[0]).any():
            raise InvalidSceneError("BS antennas straddle the panel; all must share one side")
        if not user_sides.all():
            raise InvalidSceneError(
                f"user {users[user_sides == 0][0].tolist()} lies in the panel plane")
        bs_side_sign = int(bs_sides[0])
        user_sides = user_sides * bs_side_sign  # as point_sides(users)
        user_sides.setflags(write=False)
        vars(self).update(
            frequency_hz=frequency_hz, panel=panel, bs_antennas=bs, users=users,
            tx_power_dbm=tx_power_dbm, bandwidth_hz=bandwidth_hz,
            noise_figure_db=noise_figure_db, tx_gain_db=tx_gain_db, rx_gain_db=rx_gain_db,
            lna_gain_db=lna_gain_db, direct_path=direct_path,
            plane_wave_incidence=plane_wave_incidence, element_factor_q=element_factor_q,
            tx_power_w=tx_power_w, noise_power_w=noise_power_w, chain_gain=chain_gain,
            bs_side_sign=bs_side_sign, user_sides=user_sides)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def num_antennas(self) -> int:
        return self.bs_antennas.shape[0]

    @property
    def num_users(self) -> int:
        return self.users.shape[0]

    def point_sides(self, points) -> np.ndarray:
        """+1 on the BS (reflection) side, -1 on the refraction side, 0 in
        the panel plane, for each point of a (..., 3) array."""
        return self.panel.plane_side(points) * self.bs_side_sign


def friis_gain(distance, wavelength: float):
    """Free-space complex amplitude gain: lambda/(4 pi d) at phase -2 pi d/lambda.

    Accepts scalar or array distances; raises on a non-positive or non-finite input.
    """
    message = "friis_gain requires positive distances, finite"
    d = require_array(distance, message)
    if not np.all((d > 0) & np.isfinite(d)):
        raise ValidationError(message)
    out = _friis(d, require_real("wavelength", wavelength, positive=True))
    return complex(out) if np.isscalar(distance) else out


def _friis(d: np.ndarray, wavelength: float) -> np.ndarray:
    """:func:`friis_gain` of distances the caller has checked are positive."""
    # amp * exp(-2j pi d / lambda) in one complex array.  The phase goes
    # straight into its imaginary part as (d * -2 pi) * (1 / lambda): the
    # bits of -2j pi d / lambda, as numpy divides a complex by a real so.
    out = np.zeros(d.shape, dtype=complex)
    phase = np.multiply(d, -2.0 * math.pi, out=out.imag)
    phase *= 1.0 / wavelength
    np.exp(out, out=out)
    np.multiply(wavelength / (4.0 * math.pi * d), out, out=out)
    return out


def noise_power(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise power in dBm: -174 + 10 log10(B) + NF."""
    return (-174.0 + 10.0 * math.log10(require_real("bandwidth_hz", bandwidth_hz, positive=True))
            + require_real("noise_figure_db", noise_figure_db))


class LinkBudgetChain(Record, eq=True):
    """Transmit power plus an ordered list of named dB gains/losses, with a finite total."""

    def __init__(self, tx_power_dbm: float, items: tuple[tuple[str, float], ...]):
        tx_power_dbm = require_real("tx_power_dbm", tx_power_dbm)
        try:
            checked = tuple((label, require_real(f"link budget item {label!r}", value))
                            for label, value in items)
        except (TypeError, ValueError):  # not iterable, or an item that is not a pair
            raise ValidationError(f"link budget items must be (label, dB) pairs, "
                                  f"got {items!r}") from None
        vars(self).update(tx_power_dbm=tx_power_dbm, items=checked)
        try:
            link_budget(self)
        except OverflowError:  # math.fsum's total is beyond the float range
            raise ValidationError(f"link budget total of {self!r} overflows") from None


def link_budget(chain: LinkBudgetChain) -> float:
    """Received power in dBm: the chain summed exactly.  ``math.fsum`` is
    correctly rounded, so the total does not depend on item order."""
    return math.fsum([chain.tx_power_dbm, *(v for _, v in chain.items)])


def _free_space(points: np.ndarray, sources: np.ndarray, source: str, scene: Scene,
                q: float = 0.0) -> np.ndarray:
    """Free-space gains between each point (rows) and each ``source`` (cols),
    times the cos^q factor of the panel normal toward the point."""
    # geometry.dot3's order, per axis without a (P, S, 3) temporary and in place:
    # |(dx*nx + dy*ny) + dz*nz| and the squared distance (dx*dx + dy*dy) + dz*dz.
    dist, dy, dz = (np.subtract.outer(p, e) for p, e in zip(points.T, sources.T))
    if q > 0:
        nx, ny, nz = scene.panel.normal
        along_normal = np.abs(dist * nx + dy * ny + dz * nz)
    dist *= dist
    dist += np.square(dy, out=dy)
    dist += np.square(dz, out=dz)
    del dy, dz
    np.sqrt(dist, out=dist)
    if np.any(dist <= 0):
        at = sources[np.nonzero(dist <= 0)[1][0]].tolist()
        raise ValidationError(f"a terminal coincides with {source} at {at}")
    gains = _friis(dist, scene.wavelength)
    if q > 0:
        gains *= (along_normal / dist) ** q
    return gains


def _hop_gains(points: np.ndarray, layout: ElementLayout, scene: Scene) -> np.ndarray:
    """Free-space gains between each point (rows) and each element (cols),
    times the cos^q element factor toward the point.

    The only element -> point hop: the channel, coverage map, pattern and
    point SNR all go through it.
    """
    return _free_space(points, layout.positions, "an element", scene, scene.element_factor_q)


def _direct_gains(points: np.ndarray, sides: np.ndarray, scene: Scene) -> np.ndarray:
    """(P, Nt) free-space gains of the direct BS -> point path; zero for
    points off the BS side (``sides`` as from :meth:`Scene.point_sides`)."""
    direct = np.zeros((len(points), scene.num_antennas), dtype=complex)
    seen = sides > 0
    direct[seen] = _free_space(points[seen], scene.bs_antennas, "a BS antenna", scene)
    return direct


class ChannelGeometry(Record):
    """Configuration-independent factors of the cascaded channel.

    ``bs_to_element`` is (Nt, M), ``element_to_user`` (K, M); ``direct`` is
    (K, Nt) with zeros where no direct path applies, or None when disabled.
    ``user_side_index`` holds 0 for reflection-side users, 1 for refraction.
    ``members`` is the layout's (G, m) :attr:`ElementLayout.members`; it
    fixes the order in which elements are summed.
    """

    def __init__(self, bs_to_element: np.ndarray, element_to_user: np.ndarray,
                 user_side_index: np.ndarray, direct: np.ndarray | None, members: np.ndarray):
        for arr in (bs_to_element, element_to_user, user_side_index, direct, members):
            if arr is not None:
                arr.setflags(write=False)
        vars(self).update(bs_to_element=bs_to_element, element_to_user=element_to_user,
                          user_side_index=user_side_index, direct=direct, members=members)

    @property
    def num_antennas(self) -> int:
        return self.bs_to_element.shape[0]

    @property
    def num_users(self) -> int:
        return self.element_to_user.shape[0]

    @property
    def num_elements(self) -> int:
        return self.bs_to_element.shape[1]


# scene -> layout -> geometry, both levels weak: an entry lives as long as
# its scene and layout.  Two threads that miss at once both build the same
# read-only values, and the last one stored is kept.
_GEOMETRIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def channel_geometry(scene: Scene, layout: ElementLayout) -> ChannelGeometry:
    """The geometry-only channel factors of a scene and layout.

    Built once per (scene, layout) pair, keyed by object identity: later
    calls return the same read-only :class:`ChannelGeometry`.  Scenes and
    layouts own frozen copies of their arrays, so an entry never goes stale,
    and the cache holds both weakly, so it keeps nothing alive.
    """
    if layout.num_elements != scene.panel.num_elements:
        raise ValidationError("layout does not match the scene's panel")
    geometries = _GEOMETRIES.get(scene)
    if geometries is None:
        geometries = _GEOMETRIES[scene] = weakref.WeakKeyDictionary()
    geometry = geometries.get(layout)
    if geometry is None:
        geometry = geometries[layout] = _build_geometry(scene, layout)
    return geometry


def _build_geometry(scene: Scene, layout: ElementLayout) -> ChannelGeometry:
    """:func:`channel_geometry` without the cache, of a matching layout."""
    if scene.plane_wave_incidence:
        # Unit-amplitude plane wave per antenna, travelling antenna -> panel
        # centre; phase referenced to the panel centre.
        # No antenna is at the centre: Scene keeps them off the panel plane.
        k = 2.0 * math.pi / scene.wavelength
        directions = scene.panel.center - scene.bs_antennas
        directions /= np.sqrt(dot3(directions, directions))[:, None]
        rel = layout.positions - scene.panel.center
        bs_to_element = np.exp(-1j * k * dot3(directions[:, None], rel[None]))
        element_to_user = _hop_gains(scene.users, layout, scene)
    else:  # both hops in one call, split after the BS antennas' rows
        bs_to_element, element_to_user = np.split(_hop_gains(
            np.concatenate([scene.bs_antennas, scene.users]), layout, scene), [scene.num_antennas])
    sides = scene.user_sides
    return ChannelGeometry(
        bs_to_element=bs_to_element,
        element_to_user=element_to_user,
        user_side_index=(sides < 0).astype(np.int64),
        direct=_direct_gains(scene.users, sides, scene) if scene.direct_path else None,
        members=layout.members)


class FadingModel(Record, eq=True):
    """Rician small-scale overlay on each hop; infinite K disables fading."""

    def __init__(self, k_factor_db: float = math.inf):
        # +inf (no fading) and -inf (Rayleigh) are valid
        vars(self).update(k_factor_db=require_real("k_factor_db", k_factor_db,
                                                   -math.inf, math.inf))
        if not self.is_degenerate:  # a finite K must have a finite linear value
            require_real("k_factor_db as a linear value", db_to_linear(self.k_factor_db), 0.0)

    @property
    def is_degenerate(self) -> bool:
        return math.isinf(self.k_factor_db) and self.k_factor_db > 0

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """One Rician factor per entry: unit mean-square, deterministic in rng."""
        k = db_to_linear(self.k_factor_db)
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        scatter = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return los + sigma * scatter


class FadingRealization(Record):
    """Per-hop multiplicative factors for one channel draw: ``bs_to_element``
    (Nt, M), ``element_to_user`` (K, M) and ``direct`` (K, Nt) or None."""

    def __init__(self, bs_to_element: np.ndarray, element_to_user: np.ndarray,
                 direct: np.ndarray | None):
        vars(self).update(bs_to_element=bs_to_element, element_to_user=element_to_user,
                          direct=direct)


def draw_realizations(model: FadingModel, geometry: ChannelGeometry,
                      seed: int, num_samples: int) -> list[FadingRealization]:
    """Draw ``num_samples`` frozen fading realizations from one seeded stream."""
    require_int("num_samples", num_samples, 1)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num_samples):
        f1 = model.draw(rng, (geometry.num_antennas, geometry.num_elements))
        f2 = model.draw(rng, (geometry.num_users, geometry.num_elements))
        f0 = None
        if geometry.direct is not None:
            f0 = model.draw(rng, (geometry.num_users, geometry.num_antennas))
        out.append(FadingRealization(bs_to_element=f1, element_to_user=f2, direct=f0))
    return out


PASS_ENTRIES = 2 ** 13    # products per pass of _gather and _state_tables
TABLE_REALIZATIONS = 4    # realizations per pass in _state_tables


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis strictly in index order, ((t0 + t1) + t2) ...,
    so each entry has the same sum in any batch; ``np.sum`` may not.

    numpy reduces the first axis of C-ordered terms of 2 or more entries one
    whole term at a time, so other layouts are copied to C order; it would
    sum one-entry terms pairwise, so those are accumulated.  The sum of one
    term is that term, a view of ``terms``: a caller that must not alias
    them copies it.  A property test pins this undocumented order.
    """
    if len(terms) == 1:
        return terms[0]
    if terms[0].size < 2:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(np.ascontiguousarray(terms), axis=0)


def _gather(rows: np.ndarray, members: np.ndarray, states: np.ndarray) -> np.ndarray:
    """(g, B, R, K, Nt) :func:`ordered_sum` over the (g, m) unit ``members`` of
    row u P + s of the (U, P, R, K, Nt) ``rows`` for unit u in its (B, g, m)
    state s, in passes of groups with near PASS_ENTRIES products."""
    step = max(1, PASS_ENTRIES // (states[:, 0].size * rows[0, 0].size))
    if step < len(members):
        return np.concatenate([_gather(rows, members[g:g + step], states[:, g:g + step])
                               for g in range(0, len(members), step)])
    index = members.T[..., None] * rows.shape[1] + states.T  # (m, g, B)
    return ordered_sum(np.take(rows.reshape(-1, *rows.shape[2:]), index, axis=0))


def _direct(geometry: ChannelGeometry, fading) -> np.ndarray | None:
    """The direct path under each realization of ``fading``: (R, K, Nt), or
    the geometry's own (K, Nt) path without fading, or None without one.

    Every realization meets the geometry here, and must hold (Nt, M) and
    (K, M) factors plus a (K, Nt) direct factor exactly when the geometry
    has a direct path: numpy would broadcast some other shapes silently.
    """
    K, Nt, M = geometry.num_users, geometry.num_antennas, geometry.num_elements
    wanted = ((Nt, M), (K, M), None if geometry.direct is None else (K, Nt))
    for i, realization in enumerate(fading):
        shapes = tuple(None if factor is None else np.shape(factor) for factor in (
            realization.bs_to_element, realization.element_to_user, realization.direct))
        if shapes != wanted:
            raise ValidationError(f"fading realization {i} has factor shapes {shapes}, "
                                  f"where this geometry needs {wanted}")
    if geometry.direct is None or not fading:
        return geometry.direct
    # Both operands of a fading product carry the realization axis: numpy
    # multiplies a lone entry broadcast to a higher rank with other last bits.
    return geometry.direct[None] * np.stack([r.direct for r in fading])


def _products(geometry: ChannelGeometry, coefficients: np.ndarray, fading,
              idx: np.ndarray) -> np.ndarray:
    """(m, g, P, R, K, Nt) products ``(Gamma[side_k, s] * g2) * g1`` of the
    (m, g) elements ``idx`` in each state s; g2, g1 are the gains under each
    realization of ``fading`` (R = 1 without fading).  A group's partial is
    the :func:`ordered_sum` of its elements' products in index order, the
    channel that of the partials in group order plus :func:`_direct`: every
    step is elementwise, so a channel is bitwise the same in any batch."""
    g1 = geometry.bs_to_element.T[idx][:, :, None]    # (m, g, 1, Nt)
    g2 = geometry.element_to_user.T[idx][:, :, None]  # (m, g, 1, K)
    if fading:
        g1 = g1 * np.stack([r.bs_to_element for r in fading], axis=1).T[idx]
        g2 = g2 * np.stack([r.element_to_user for r in fading], axis=1).T[idx]
    gamma = coefficients[geometry.user_side_index].T[:, None]  # (P, 1, K)
    # In C order, so ordered_sum need not copy the products or the table.
    to_user = np.multiply(gamma, g2[:, :, None], order="C")
    return to_user[..., None] * g1[:, :, None, :, None, :]


def _state_tables(geometry: ChannelGeometry, coefficients: np.ndarray, fading) -> np.ndarray:
    """(G, P, R, K, Nt): each group's partial with all members in state s.
    Built a few groups and realizations at a time to bound the temporaries."""
    if len(fading) > TABLE_REALIZATIONS:
        return np.concatenate([
            _state_tables(geometry, coefficients, fading[i:i + TABLE_REALIZATIONS])
            for i in range(0, len(fading), TABLE_REALIZATIONS)], axis=2)
    members = geometry.members
    channel_size = geometry.num_users * geometry.num_antennas * max(1, len(fading))
    step = max(1, PASS_ENTRIES // (coefficients.shape[1] * members.shape[1] * channel_size))
    return np.concatenate([ordered_sum(_products(geometry, coefficients, fading,
                                                 members[g:g + step].T))
                           for g in range(0, len(members), step)])


def _configuration_channels(geometry: ChannelGeometry, table: StateTable,
                            config: Configuration, fading=()) -> np.ndarray:
    """(R, K, Nt) channels of ``config``, one per fading realization (R = 1
    without fading): the one checked path from a configuration to its channel."""
    config.validate_against(table, geometry)
    members, direct = geometry.members, _direct(geometry, fading)
    products = _products(geometry, table.coefficient_matrix, fading,
                         np.arange(geometry.num_elements)[None])[0]  # (M, P, R, K, Nt)
    H = ordered_sum(_gather(products, members, np.asarray(config.states)[members][None]))
    return (H if direct is None else H + direct)[0]


def assemble_channel(geometry: ChannelGeometry, table: StateTable,
                     config: Configuration) -> np.ndarray:
    """Read-only (K, Nt) cascaded channel: the geometry factors combined with
    the per-element coefficients of ``config``, checked as ``sum_rate`` checks it."""
    H = _configuration_channels(geometry, table, config)[0]
    if not np.all(np.isfinite(H)):
        raise ValidationError("channel entries must be finite")
    H.setflags(write=False)
    return H
