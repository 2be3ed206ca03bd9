"""Free-space propagation, cascaded BS-panel-user channels, noise, link budgets.

The cascaded channel entry for user k and BS antenna n is the sum over
elements m of

    g(a_n, p_m) * Gamma_m(side_k) * g(p_m, u_k)

where g is the free-space amplitude gain and Gamma_m the element coefficient
toward the user's side.  Geometry-only factors are precomputed once per
scene (:func:`channel_geometry`); :class:`ChannelKernel` assembles the
matrix for one configuration or a batch of them with identical arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elements import Configuration, StateTable
from .errors import InvalidSceneError, ValidationError
from .geometry import ElementLayout, PanelSpec

SPEED_OF_LIGHT = 299792458.0

# Measured channel gains of the bundled prototype deployment, used as the
# default Tx->panel / panel->Rx items of the CLI link budget.
MEASURED_TX_IOS_GAIN_DB = -47.76
MEASURED_IOS_RX_GAIN_DB = -43.53


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True, eq=False)
class Scene:
    """Complete simulation world: panel, terminals, powers, model options."""

    frequency_hz: float
    panel: PanelSpec
    bs_antennas: np.ndarray  # (Nt, 3) metres
    users: np.ndarray        # (K, 3) metres
    tx_power_dbm: float
    bandwidth_hz: float
    noise_figure_db: float = 0.0
    tx_gain_db: float = 0.0
    rx_gain_db: float = 0.0
    lna_gain_db: float = 0.0
    direct_path: bool = False
    plane_wave_incidence: bool = False
    element_factor_q: float = 0.0

    def __post_init__(self):
        for name in ("frequency_hz", "bandwidth_hz"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")
        for name in ("tx_power_dbm", "noise_figure_db", "tx_gain_db", "rx_gain_db",
                     "lna_gain_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not 0 <= self.element_factor_q < math.inf:
            raise ValidationError("element_factor_q must be non-negative and finite")
        bs = np.atleast_2d(np.asarray(self.bs_antennas, dtype=float))
        users = np.atleast_2d(np.asarray(self.users, dtype=float))
        for name, arr in (("bs antennas", bs), ("users", users)):
            if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
                raise ValidationError(f"{name} must be a non-empty list of [x, y, z]")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must have finite coordinates")
        sides = self.panel.plane_side(np.concatenate([bs, users]))
        bs_sides, user_sides = sides[:len(bs)], sides[len(bs):]
        if not bs_sides.all():
            raise InvalidSceneError(
                f"BS antenna {bs[bs_sides == 0][0].tolist()} lies in the panel plane")
        if (bs_sides != bs_sides[0]).any():
            raise InvalidSceneError(
                "BS antennas straddle the panel; all must share one side")
        if not user_sides.all():
            raise InvalidSceneError(
                f"user {users[user_sides == 0][0].tolist()} lies in the panel plane")
        bs.setflags(write=False)
        users.setflags(write=False)
        object.__setattr__(self, "bs_antennas", bs)
        object.__setattr__(self, "users", users)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def num_antennas(self) -> int:
        return self.bs_antennas.shape[0]

    @property
    def num_users(self) -> int:
        return self.users.shape[0]

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def noise_power_w(self) -> float:
        return dbm_to_watts(noise_power(self.bandwidth_hz, self.noise_figure_db))

    @cached_property
    def bs_side_sign(self) -> int:
        """Sign of the BS half-space; +1 along the panel normal."""
        return int(self.panel.plane_side(self.bs_antennas[0]))

    def point_sides(self, points) -> np.ndarray:
        """+1 on the BS (reflection) side, -1 on the refraction side, 0 in
        the panel plane, for each point of a (..., 3) array."""
        return self.panel.plane_side(points) * self.bs_side_sign


def friis_gain(distance, wavelength: float):
    """Free-space complex amplitude gain: lambda/(4 pi d) at phase -2 pi d/lambda.

    Accepts scalar or array distances; raises on non-positive distance.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ValidationError("friis_gain requires positive distance")
    # amp * exp(-2j pi d / lambda), in place and in that operation order:
    # a large batch allocates one complex array, not five
    out = np.multiply(-2j * math.pi, d, out=np.empty(d.shape, dtype=complex))
    out /= wavelength
    np.exp(out, out=out)
    np.multiply(wavelength / (4.0 * math.pi * d), out, out=out)
    return complex(out) if np.isscalar(distance) else out


def noise_power(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise power in dBm: -174 + 10 log10(B) + NF."""
    if not bandwidth_hz > 0:
        raise ValidationError("bandwidth must be positive")
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


@dataclass(frozen=True)
class LinkBudgetChain:
    """Transmit power plus an ordered list of named dB gains/losses."""

    tx_power_dbm: float
    items: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class LinkBudgetResult:
    tx_power_dbm: float
    items: tuple[tuple[str, float], ...]
    received_dbm: float


def link_budget(chain: LinkBudgetChain) -> LinkBudgetResult:
    """Sum the chain exactly; sorted exact summation makes the total
    independent of item order."""
    values = sorted(v for _, v in chain.items)
    total = math.fsum([chain.tx_power_dbm, *values])
    return LinkBudgetResult(tx_power_dbm=chain.tx_power_dbm,
                            items=tuple(chain.items),
                            received_dbm=total)


def prototype_chain(scene: Scene, ios_gain_db: float,
                    tx_ios_db: float = MEASURED_TX_IOS_GAIN_DB,
                    ios_rx_db: float = MEASURED_IOS_RX_GAIN_DB) -> LinkBudgetChain:
    """Link budget chain: scene gains around the two channel hops and the
    panel gain.  Channel items default to the prototype's measured values."""
    return LinkBudgetChain(
        tx_power_dbm=scene.tx_power_dbm,
        items=(
            ("tx_antenna_db", scene.tx_gain_db),
            ("tx_ios_channel_db", tx_ios_db),
            ("ios_gain_db", ios_gain_db),
            ("ios_rx_channel_db", ios_rx_db),
            ("rx_antenna_db", scene.rx_gain_db),
            ("lna_db", scene.lna_gain_db),
        ),
    )


def _hop_gains(points: np.ndarray, layout: ElementLayout, scene: Scene) -> np.ndarray:
    """Free-space gains between each point (rows) and each element (cols),
    times the cos^q element factor toward the point.

    The only element -> point hop: the channel, coverage map, pattern and
    point SNR all go through it.
    """
    diff = points[:, None, :] - layout.positions[None, :, :]
    if scene.element_factor_q > 0:
        along_normal = np.abs(diff @ scene.panel.normal)
    # |diff| in place, as np.linalg.norm computes it: the (P, M, 3) array is
    # the largest temporary, so it is freed before the Friis gains exist
    diff *= diff
    dist = diff.sum(axis=2)
    del diff
    np.sqrt(dist, out=dist)
    if np.any(dist <= 0):
        raise ValidationError("a terminal coincides with an element position")
    gains = friis_gain(dist, scene.wavelength)
    if scene.element_factor_q > 0:
        gains *= (along_normal / dist) ** scene.element_factor_q
    return gains


def _direct_gains(points: np.ndarray, sides: np.ndarray, scene: Scene) -> np.ndarray:
    """(P, Nt) free-space gains of the direct BS -> point path; zero for
    points off the BS side (``sides`` as from :meth:`Scene.point_sides`)."""
    direct = np.zeros((len(points), scene.num_antennas), dtype=complex)
    seen = sides > 0
    dist = np.linalg.norm(points[seen][:, None, :] - scene.bs_antennas[None, :, :], axis=2)
    direct[seen] = friis_gain(dist, scene.wavelength)
    return direct


@dataclass(frozen=True, eq=False)
class ChannelGeometry:
    """Configuration-independent factors of the cascaded channel.

    ``bs_to_element`` is (Nt, M), ``element_to_user`` (K, M); ``direct`` is
    (K, Nt) with zeros where no direct path applies, or None when disabled.
    ``user_side_index`` holds 0 for reflection-side users, 1 for refraction.
    ``group_of`` (M,) fixes the order in which elements are summed.
    """

    bs_to_element: np.ndarray
    element_to_user: np.ndarray
    user_side_index: np.ndarray
    direct: np.ndarray | None
    group_of: np.ndarray

    def __post_init__(self):
        for arr in (self.bs_to_element, self.element_to_user, self.user_side_index,
                    self.direct, self.group_of):
            if arr is not None:
                arr.setflags(write=False)

    @cached_property
    def group_members(self) -> np.ndarray:
        """(G, m) element indices of each group, ascending."""
        counts = np.bincount(self.group_of)
        if (counts != counts[0]).any():
            raise ValidationError("groups must have equal numbers of elements")
        return np.argsort(self.group_of, kind="stable").reshape(len(counts), -1)

    @property
    def num_antennas(self) -> int:
        return self.bs_to_element.shape[0]

    @property
    def num_users(self) -> int:
        return self.element_to_user.shape[0]

    @property
    def num_elements(self) -> int:
        return self.bs_to_element.shape[1]


def channel_geometry(scene: Scene, layout: ElementLayout) -> ChannelGeometry:
    """Precompute the geometry-only channel factors for a scene."""
    if layout.num_elements != scene.panel.num_elements:
        raise ValidationError("layout does not match the scene's panel")
    if scene.plane_wave_incidence:
        # Unit-amplitude plane wave per antenna, travelling antenna -> panel
        # centre; phase referenced to the panel centre.
        k = 2.0 * math.pi / scene.wavelength
        directions = scene.panel.center[None, :] - scene.bs_antennas
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        if np.any(norms <= 0):
            raise ValidationError("BS antenna coincides with the panel center")
        directions = directions / norms
        rel = layout.positions - scene.panel.center[None, :]
        bs_to_element = np.exp(-1j * k * (directions @ rel.T))
    else:
        bs_to_element = _hop_gains(scene.bs_antennas, layout, scene)
    sides = scene.point_sides(scene.users)
    return ChannelGeometry(
        bs_to_element=bs_to_element,
        element_to_user=_hop_gains(scene.users, layout, scene),
        user_side_index=(sides < 0).astype(np.int64),
        direct=_direct_gains(scene.users, sides, scene) if scene.direct_path else None,
        group_of=layout.group_of)


@dataclass(frozen=True)
class FadingModel:
    """Rician small-scale overlay on each hop; infinite K disables fading."""

    k_factor_db: float = math.inf

    def __post_init__(self):
        # +inf (no fading) and -inf (Rayleigh) are valid
        if math.isnan(self.k_factor_db):
            raise ValidationError("k_factor_db must not be NaN")

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


@dataclass(frozen=True, eq=False)
class FadingRealization:
    """Per-hop multiplicative factors for one channel draw."""

    bs_to_element: np.ndarray   # (Nt, M)
    element_to_user: np.ndarray  # (K, M)
    direct: np.ndarray | None    # (K, Nt)


def draw_realizations(model: FadingModel, geometry: ChannelGeometry,
                      seed: int, num_samples: int) -> list[FadingRealization]:
    """Draw ``num_samples`` frozen fading realizations from one seeded stream."""
    if num_samples < 1:
        raise ValidationError("num_samples must be at least 1")
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


ACCUMULATE_MAX_SIZE = 64  # largest term ordered_sum accumulates in one call
PASS_ENTRIES = 2 ** 13    # products per pass in ChannelKernel.element_partials
TABLE_REALIZATIONS = 4    # realizations per pass in ChannelKernel.state_tables


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis strictly in index order, ((t0 + t1) + t2) ...

    ``np.sum`` may add pairwise in a shape-dependent order; elementwise adds
    give each entry the same sum in any batch.  ``np.add.accumulate`` makes
    the same adds in one call but is slow for large terms.
    """
    if terms[0].size <= ACCUMULATE_MAX_SIZE:
        return np.add.accumulate(terms, axis=0)[-1]
    total = terms[0] + terms[1] if len(terms) > 1 else terms[0].copy()
    for term in terms[2:]:
        total += term
    return total


class ChannelKernel:
    """Cascaded channels of a batch of configurations: the one assembly path.

    A group's partial channel is the :func:`ordered_sum` of
    ``(Gamma_m * g2_m) * g1_m`` over its elements in index order; the channel
    is the ordered sum of the partials in group order, plus the direct path.
    Every step is elementwise, so a channel is bitwise the same in any batch.
    Arrays have the candidate axis first and one axis per fading realization
    after it: channels are (B, R, K, Nt), with R = 1 when ``fading`` is empty.
    """

    def __init__(self, geometry: ChannelGeometry, coefficient_matrix: np.ndarray,
                 fading=()):
        self.geometry = geometry
        self.fading = fading
        self.members = geometry.group_members
        self.coefficients = coefficient_matrix
        self.sides = geometry.user_side_index
        self.direct = geometry.direct
        # Both operands of a fading product carry the realization axis: numpy
        # multiplies a lone entry broadcast to a higher rank with other last bits.
        if self.direct is not None and fading and fading[0].direct is not None:
            self.direct = self.direct[None] * np.stack([r.direct for r in fading])
        self.channel_size = geometry.num_users * geometry.num_antennas * max(1, len(fading))

    @cached_property
    def gains(self) -> tuple[np.ndarray, np.ndarray]:
        """Faded gains, member and group axes first: (m, G, 1, R, K) to the
        users and (m, G, 1, R, 1, Nt) from the BS."""
        idx = self.members.T
        g1 = self.geometry.bs_to_element[:, idx][None]    # (1, Nt, m, G)
        g2 = self.geometry.element_to_user[:, idx][None]  # (1, K, m, G)
        if self.fading:
            g1 = g1 * np.stack([r.bs_to_element[:, idx] for r in self.fading])
            g2 = g2 * np.stack([r.element_to_user[:, idx] for r in self.fading])
        return (np.moveaxis(g2, (-2, -1), (0, 1))[:, :, None],
                np.moveaxis(g1, (-2, -1), (0, 1))[:, :, None, :, None, :])

    def partials(self, member_states: np.ndarray, groups=slice(None)) -> np.ndarray:
        """(g, B, R, K, Nt) partial channels of ``groups`` for (B, g, m)
        states of their members."""
        to_user, from_bs = (gain[:, groups] for gain in self.gains)
        gamma = self.coefficients[self.sides, member_states.T[..., None, None]]  # (m, g, B, 1, K)
        return ordered_sum((gamma * to_user)[..., None] * from_bs)

    def element_partials(self, states: np.ndarray) -> np.ndarray:
        """(G, B, R, K, Nt) group partials for (B, M) per-element states,
        as many groups per pass as keep the temporaries near PASS_ENTRIES."""
        step = max(1, PASS_ENTRIES // (states.shape[0] * self.members.shape[1]
                                       * self.channel_size))
        return np.concatenate([
            self.partials(states[:, self.members[g:g + step]], slice(g, g + step))
            for g in range(0, len(self.members), step)])

    @cached_property
    def state_tables(self) -> np.ndarray:
        """(G, P, R, K, Nt): each group's partial with all members in state
        s.  Built a few realizations at a time to bound the temporaries."""
        if len(self.fading) > TABLE_REALIZATIONS:
            return np.concatenate([
                ChannelKernel(self.geometry, self.coefficients,
                              self.fading[i:i + TABLE_REALIZATIONS]).state_tables
                for i in range(0, len(self.fading), TABLE_REALIZATIONS)], axis=2)
        states = np.arange(self.coefficients.shape[1])[:, None]
        return self.element_partials(np.repeat(states, self.members.size, axis=1))

    def group_state_partials(self, group_states: np.ndarray) -> np.ndarray:
        """(G, B, R, K, Nt) group partials for (B, G) per-group states."""
        tables = self.state_tables  # rows g * P + s of the flat table
        rows = group_states + tables.shape[1] * np.arange(len(tables))
        return np.take(tables.reshape(-1, *tables.shape[2:]), rows.T, axis=0)

    def channels(self, partials: np.ndarray) -> np.ndarray:
        """(B, R, K, Nt) channels from (G, B, R, K, Nt) group partials."""
        H = ordered_sum(partials)
        return H if self.direct is None else H + self.direct


def assemble_channel(geometry: ChannelGeometry, table: StateTable,
                     config: Configuration) -> np.ndarray:
    """Read-only (K, Nt) cascaded channel: the geometry factors combined with
    the per-element coefficients of ``config``."""
    if len(config) != geometry.num_elements:
        raise ValidationError(
            f"configuration covers {len(config)} elements, geometry has "
            f"{geometry.num_elements}"
        )
    states = np.asarray(config.states)
    if states.max() >= table.num_states:
        raise ValidationError(
            f"state index {states.max()} out of range for a "
            f"{table.num_states}-state table"
        )
    kernel = ChannelKernel(geometry, table.coefficient_matrix)
    H = kernel.channels(kernel.element_partials(states[None]))[0, 0]
    if not np.all(np.isfinite(H)):
        raise ValidationError("channel entries must be finite")
    H.setflags(write=False)
    return H
