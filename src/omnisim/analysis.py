"""Evaluation artifacts: radiation patterns, coverage maps, point SNR.

Pattern sweeps place a far-field probe on an angular cut through the panel
centre; coverage maps drop a virtual single-antenna user in every grid cell
of the plane spanned by the panel normal (local x) and the panel's in-plane
u axis (local y).  All three compute the field through one path, ``_field``.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import Scene, _direct_gains, _hop_gains, channel_geometry
from .elements import Configuration, StateTable
from .errors import (Record, SideUndefinedError, ValidationError, require_array,
                     require_choice, require_int, require_real)
from .geometry import PLANE_EPS, ElementLayout, Side, as_vec3, require_near

# Points per pass of the field kernel: a pass's (points, M) temporaries (160 kB
# real, 320 kB complex at M = 640) stay in cache and the allocator reuses them.
CHUNK_POINTS = 32
MIN_STEP_DEG = 180.0 / 2 ** 20  # at most 2^20 probes per side, as the exhaustive guard


class PatternSweep(Record):
    """One side's probe angles and their power in dB below the sweep's
    maximum; in-plane probe angles are dropped and counted in ``skipped``."""

    def __init__(self, angles_deg: np.ndarray, power_db: np.ndarray, side: Side, skipped: int):
        angles_deg.setflags(write=False)
        power_db.setflags(write=False)
        object.__setattr__(self, "angles_deg", angles_deg)
        object.__setattr__(self, "power_db", power_db)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "skipped", skipped)

    def peak_angle(self) -> float:
        return float(self.angles_deg[np.argmax(self.power_db)])


class CoverageGrid(Record, eq=True):
    """Rectangular cell grid in the panel-centred (normal, u) plane."""

    def __init__(self, x0: float, x1: float, y0: float, y1: float, nx: int, ny: int):
        nx, ny = require_int("grid nx", nx, 1), require_int("grid ny", ny, 1)
        x0, x1, y0, y1 = (require_real(f"grid {name}", value) for name, value in (
            ("x0", x0), ("x1", x1), ("y0", y0), ("y1", y1)))
        if x1 < x0 or y1 < y0:
            raise ValidationError("grid extents must satisfy x1 >= x0, y1 >= y0")
        # np.linspace subtracts the extents, so their difference must be finite too.
        require_real("grid span", max(x1 - x0, y1 - y0))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.ny)


class CoverageMap(Record):
    """Spectral efficiency per cell: ``values`` (nx, ny) in bits/s/Hz, NaN
    where masked in-plane, and ``side`` (nx, ny) int, +1 reflection, -1
    refraction, 0 masked."""

    def __init__(self, grid: CoverageGrid, values: np.ndarray, side: np.ndarray):
        values.setflags(write=False)
        side.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "side", side)


def _pattern_angles(step_deg: float) -> np.ndarray:
    """Symmetric grid k*step strictly inside (-90, 90); a finite step >
    range gives the single broadside sample; a step below MIN_STEP_DEG is refused."""
    step_deg = require_real("step_deg", step_deg, MIN_STEP_DEG)
    kmax = int(math.floor((90.0 - 1e-9) / step_deg))
    return np.arange(-kmax, kmax + 1) * step_deg


def _field(scene: Scene, layout: ElementLayout, table: StateTable,
           config: Configuration, points: np.ndarray, direct: bool = True,
           workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Each point's side and the channel from each BS antenna to it.

    Returns (sides, h): ``sides`` as from :meth:`Scene.point_sides` for the
    (..., 3) ``points``, and h the (L, Nt) channel to the L points off the
    panel plane (``sides != 0``), in order.  h is the scattered channel, plus
    the direct path when ``direct`` is set and the scene enables it.  Points
    go through in chunks of CHUNK_POINTS, spread over ``workers`` threads;
    the result does not depend on either.
    """
    config.validate_against(table, layout)
    bs_to_element = channel_geometry(scene, layout).bs_to_element
    require_near(points.reshape(-1, 3), "field points")
    sides = scene.point_sides(points)
    live = sides != 0
    points, live_sides = points[live], sides[live]
    coefficients = table.coefficient_matrix[:, config.states]  # (2, M), one row per side
    out = np.empty((len(points), len(bs_to_element)), dtype=complex)

    def fill(start: int) -> None:
        chunk = slice(start, start + CHUNK_POINTS)
        gamma = coefficients[(live_sides[chunk] < 0).astype(np.intp)]
        gains = _hop_gains(points[chunk], layout, scene)
        out[chunk] = np.multiply(gamma, gains, out=gains) @ bs_to_element.T

    starts = range(0, len(points), CHUNK_POINTS)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging and queue
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
    else:
        for start in starts:
            fill(start)
    if direct and scene.direct_path:
        out += _direct_gains(points, live_sides, scene)
    return sides, out


def pattern_power(scene: Scene, layout: ElementLayout, table: StateTable,
                  config: Configuration, side: Side, angles_deg: np.ndarray,
                  eval_radius: float = 100.0, cut: str = "azimuth"
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised scattered power at each probe angle.

    Returns (power, valid): power is |sum_n h_n|^2, h being the scattered
    channel from BS antenna n to the probe (element factor included), and
    valid flags probes that fell outside the panel plane.  The radius lies in
    [2 PLANE_EPS, 2^32 wavelengths]: off the plane, with path differences above rounding.
    """
    eval_radius = require_real("eval_radius", eval_radius, 2 * PLANE_EPS, 2.0 ** 32 * scene.wavelength)
    if cut not in ("azimuth", "elevation"):
        raise ValidationError(f"unknown cut {cut!r}; expected azimuth or elevation")
    message = "angles_deg must be a 1-D array of real numbers"
    theta = np.deg2rad(require_array(angles_deg, message))
    if theta.ndim != 1:
        raise ValidationError(message)
    if not np.all(np.isfinite(theta)):
        raise ValidationError("angles_deg must be finite")
    axis = layout.u if cut == "azimuth" else layout.v
    reflection = require_choice(side, Side, "side must be a Side") is Side.REFLECTION
    normal_out = scene.panel.normal * (scene.bs_side_sign if reflection else -scene.bs_side_sign)
    probes = (scene.panel.center[None, :]
              + eval_radius * (np.sin(theta)[:, None] * axis[None, :]
                               + np.cos(theta)[:, None] * normal_out[None, :]))
    sides, h = _field(scene, layout, table, config, probes, direct=False)
    valid = sides != 0
    power = np.zeros(len(theta))
    power[valid] = np.abs(h.sum(axis=1)) ** 2
    return power, valid


def radiation_pattern(scene: Scene, layout: ElementLayout, table: StateTable,
                      config: Configuration, side: Side,
                      cut: str = "azimuth", step_deg: float = 1.0,
                      eval_radius: float = 100.0) -> PatternSweep:
    """Angular sweep of scattered power, normalised so the sweep's own
    maximum sits at 0 dB.  In-plane probe angles are skipped and counted."""
    angles = _pattern_angles(step_deg)
    power, valid = pattern_power(scene, layout, table, config, side, angles,
                                 eval_radius=eval_radius, cut=cut)
    angles, power = angles[valid], power[valid]
    peak = power.max() if power.size else 0.0
    with np.errstate(divide="ignore"):
        power_db = (10.0 * np.log10(power / peak) if peak > 0
                    else np.full_like(power, -np.inf))
    return PatternSweep(angles_deg=angles, power_db=power_db, side=side,
                        skipped=int(np.sum(~valid)))


def coverage_map(scene: Scene, layout: ElementLayout, table: StateTable,
                 config: Configuration, grid: CoverageGrid,
                 workers: int = 1) -> CoverageMap:
    """Spectral efficiency of a virtual single-antenna user in every cell.

    Cell (ix, iy) sits at center + x*normal + y*u; cells within 1e-9 m of
    the panel plane are masked with NaN.  Link gains: see
    :mod:`omnisim.channel`.
    """
    xs, ys = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    points = (scene.panel.center
              + xs[..., None] * scene.panel.normal
              + ys[..., None] * layout.u)
    side, h = _field(scene, layout, table, config, points,
                     workers=require_int("workers", workers, 1))
    snr = scene.tx_power_w * np.sum(np.abs(h) ** 2, axis=1) / scene.noise_power_w
    values = np.full((grid.nx, grid.ny), np.nan)
    values[side != 0] = np.log2(1.0 + snr)
    return CoverageMap(grid=grid, values=values, side=side)


def snr_at(scene: Scene, layout: ElementLayout, table: StateTable,
           config: Configuration, point) -> float:
    """Received SNR in dB at a point.  Link gains: see :mod:`omnisim.channel`."""
    points = as_vec3(point, "point")[None, :]
    if scene.point_sides(points)[0] == 0:
        raise SideUndefinedError("SNR undefined for a point in the panel plane")
    _, h = _field(scene, layout, table, config, points)
    snr = (scene.tx_power_w * float(np.sum(np.abs(h) ** 2)) * scene.chain_gain
           / scene.noise_power_w)
    return 10.0 * math.log10(snr) if snr > 0 else float("-inf")
