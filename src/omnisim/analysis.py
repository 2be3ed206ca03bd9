"""Evaluation artifacts: radiation patterns, coverage maps, point SNR.

Pattern sweeps place a far-field probe on an angular cut through the panel
centre; coverage maps drop a virtual single-antenna user in every grid cell
of the plane spanned by the panel normal (local x) and the panel's in-plane
u axis (local y).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelGeometry, Scene, _direct_gains, _hop_gains,
                      channel_geometry, db_to_linear)
from .elements import Configuration, StateTable
from .errors import SideUndefinedError, ValidationError
from .geometry import ElementLayout, Side

# Points per pass of the field kernel.  Small enough that a pass's
# (points, M, 3) temporaries (0.5 MB at M = 640) stay in cache and the
# allocator reuses them, rather than returning them to the OS each pass.
CHUNK_POINTS = 32


@dataclass(frozen=True)
class PatternSample:
    """One probe angle of a sweep; power is dB below the sweep's maximum."""

    angle_deg: float
    power_db: float
    side: Side


@dataclass(frozen=True, eq=False)
class PatternSweep:
    samples: tuple[PatternSample, ...]
    skipped: int  # probe angles dropped because they fell in the panel plane

    def __iter__(self):
        return iter(self.samples)

    def __len__(self):
        return len(self.samples)

    def peak_angle(self) -> float:
        return max(self.samples, key=lambda s: s.power_db).angle_deg


@dataclass(frozen=True)
class CoverageGrid:
    """Rectangular cell grid in the panel-centred (normal, u) plane."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValidationError("grid must have at least one cell per axis")
        if not all(math.isfinite(v) for v in (self.x0, self.x1, self.y0, self.y1)):
            raise ValidationError("grid extents must be finite")
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValidationError("grid extents must satisfy x1 >= x0, y1 >= y0")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.ny)


@dataclass(frozen=True, eq=False)
class CoverageMap:
    """Spectral efficiency per cell; masked in-plane cells hold NaN."""

    grid: CoverageGrid
    values: np.ndarray  # (nx, ny) bits/s/Hz, NaN where masked
    side: np.ndarray    # (nx, ny) int: +1 reflection, -1 refraction, 0 masked

    def __post_init__(self):
        self.values.setflags(write=False)
        self.side.setflags(write=False)


def _pattern_angles(step_deg: float) -> np.ndarray:
    """Symmetric grid k*step strictly inside (-90, 90); a finite step >
    range gives the single broadside sample."""
    if not 0 < step_deg < math.inf:
        raise ValidationError("step_deg must be positive and finite")
    kmax = int(math.floor((90.0 - 1e-9) / step_deg))
    return np.arange(-kmax, kmax + 1) * step_deg


def _scattered(scene: Scene, layout: ElementLayout, table: StateTable,
               config: Configuration, geometry: ChannelGeometry,
               points: np.ndarray, sides: np.ndarray,
               workers: int = 1) -> np.ndarray:
    """(P, Nt) channel from each BS antenna through the panel to each point.

    ``sides`` holds each point's side, +1 or -1 as from
    :meth:`Scene.point_sides`.  Points go through in chunks of CHUNK_POINTS,
    spread over ``workers`` threads; the result does not depend on either.
    """
    states = np.asarray(config.states)[None, :]
    out = np.empty((len(points), geometry.num_antennas), dtype=complex)

    def fill(start: int) -> None:
        chunk = slice(start, start + CHUNK_POINTS)
        side_index = (sides[chunk] < 0).astype(np.intp)
        gamma = table.coefficient_matrix[side_index[:, None], states]
        gains = _hop_gains(points[chunk], layout, scene)
        out[chunk] = np.multiply(gamma, gains, out=gains) @ geometry.bs_to_element.T

    starts = range(0, len(points), CHUNK_POINTS)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
    else:
        for start in starts:
            fill(start)
    return out


def pattern_power(scene: Scene, layout: ElementLayout, table: StateTable,
                  config: Configuration, side: Side, angles_deg: np.ndarray,
                  eval_radius: float = 100.0, cut: str = "azimuth"
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised scattered power at each probe angle.

    Returns (power, valid): power is |sum_n h_n|^2, h being the scattered
    channel from BS antenna n to the probe (element factor included), and
    valid flags probes that fell outside the panel plane.
    """
    if not 0 < eval_radius < math.inf:
        raise ValidationError("eval_radius must be positive and finite")
    if cut not in ("azimuth", "elevation"):
        raise ValidationError(f"unknown cut {cut!r}; expected azimuth or elevation")
    geometry = channel_geometry(scene, layout)
    config.validate_against(table, layout)
    axis = layout.u if cut == "azimuth" else layout.v
    normal_out = scene.panel.normal * scene.bs_side_sign
    if side is Side.REFRACTION:
        normal_out = -normal_out
    theta = np.deg2rad(np.asarray(angles_deg, dtype=float))
    probes = (scene.panel.center[None, :]
              + eval_radius * (np.sin(theta)[:, None] * axis[None, :]
                               + np.cos(theta)[:, None] * normal_out[None, :]))
    sides = scene.point_sides(probes)
    valid = sides != 0
    h = _scattered(scene, layout, table, config, geometry, probes[valid], sides[valid])
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
    samples = tuple(PatternSample(angle_deg=float(a), power_db=float(p), side=side)
                    for a, p in zip(angles, power_db))
    return PatternSweep(samples=samples, skipped=int(np.sum(~valid)))


def coverage_map(scene: Scene, layout: ElementLayout, table: StateTable,
                 config: Configuration, grid: CoverageGrid,
                 workers: int = 1) -> CoverageMap:
    """Spectral efficiency of a virtual single-antenna user in every cell.

    Cell (ix, iy) sits at center + x*normal + y*u; cells within 1e-9 m of
    the panel plane are masked with NaN.  Like ``sum_rate``, the map leaves
    out the scene's antenna and LNA gains (:func:`snr_at` includes them).
    """
    config.validate_against(table, layout)
    geometry = channel_geometry(scene, layout)
    xs, ys = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    points = (scene.panel.center
              + xs[..., None] * scene.panel.normal
              + ys[..., None] * layout.u)
    side = scene.point_sides(points)
    live = side != 0
    h = _scattered(scene, layout, table, config, geometry, points[live], side[live], workers)
    if scene.direct_path:
        h += _direct_gains(points[live], side[live], scene)
    snr = scene.tx_power_w * np.sum(np.abs(h) ** 2, axis=1) / scene.noise_power_w
    values = np.full((grid.nx, grid.ny), np.nan)
    values[live] = np.log2(1.0 + snr)
    return CoverageMap(grid=grid, values=values, side=side)


def snr_at(scene: Scene, layout: ElementLayout, table: StateTable,
           config: Configuration, point) -> float:
    """Received SNR in dB at a point, folding the scene's antenna and LNA
    gains into the chain (which :func:`coverage_map` and ``sum_rate`` leave
    out)."""
    points = np.asarray(point, dtype=float)[None, :]
    sides = scene.point_sides(points)
    if sides[0] == 0:
        raise SideUndefinedError("SNR undefined for a point in the panel plane")
    config.validate_against(table, layout)
    geometry = channel_geometry(scene, layout)
    h = _scattered(scene, layout, table, config, geometry, points, sides)
    if scene.direct_path:
        h += _direct_gains(points, sides, scene)
    chain_gain = db_to_linear(scene.tx_gain_db + scene.rx_gain_db
                              + scene.lna_gain_db)
    snr = (scene.tx_power_w * float(np.sum(np.abs(h) ** 2)) * chain_gain
           / scene.noise_power_w)
    return 10.0 * math.log10(snr) if snr > 0 else float("-inf")
