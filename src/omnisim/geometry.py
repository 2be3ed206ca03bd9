"""Panel geometry: element lattice construction and side classification.

Conventions
-----------
The panel is a flat rectangular lattice of ``rows x cols`` elements centred
at ``center`` with unit ``normal``.  In-plane axes are deterministic so that
layouts are reproducible bit-for-bit: ``u`` is the normalised projection of
global +x onto the panel plane (falling back to +y when the normal is
parallel to x), and ``v = normal x u``.  Columns run along ``u`` with pitch
``dx``, rows along ``v`` with pitch ``dy``.  Element order is row-major.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (InvalidSceneError, Record, SideUndefinedError, ValidationError,
                     require_array, require_int, require_real)

Vec3 = np.ndarray  # shape (3,), float64

PLANE_EPS = 1e-9   # metres; closer than this to the plane counts as "in plane"
UNIT_EPS = 1e-12
FAR_M = 1e150  # metres; with every coordinate within it, no squared distance overflows


def as_vec3(value, name: str = "vector") -> Vec3:
    """Coerce to a read-only finite (3,) float array."""
    v = require_array(value, f"{name} must have 3 real components")
    if v.shape != (3,):
        raise ValidationError(f"{name} must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} must be finite, got {v.tolist()}")
    v.setflags(write=False)
    return v


def as_points(value, name: str) -> np.ndarray:
    """Coerce to a read-only (N, 3) float array with N >= 1 that
    :func:`require_near` accepts; one [x, y, z] is one point."""
    points = np.atleast_2d(
        require_array(value, f"{name} must be a non-empty list of real [x, y, z]"))
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 1:
        raise ValidationError(f"{name} must be a non-empty list of [x, y, z]")
    require_near(points, name)
    points.setflags(write=False)
    return points


def require_near(points: np.ndarray, name: str) -> None:
    """The one point check: every coordinate is finite and within ``FAR_M``,
    else a ValidationError names the first point of the (N, 3) array."""
    if not np.abs(points).max(initial=0.0) <= FAR_M:  # a NaN fails it too
        row = int(np.argmin((np.abs(points) <= FAR_M).all(axis=1)))
        point = f"point {row} at {points[row].tolist()}"
        raise ValidationError(f"{name}: {point} has a coordinate beyond {FAR_M:g} m"
                              if np.isfinite(points[row]).all()
                              else f"{name} must have finite coordinates, got {point}")


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a0*b0 + a1*b1) + a2*b2`` over the last axis of (..., 3) arrays: the
    one 3-vector dot and norm, in an order no BLAS kernel chooses."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def cross3(a: Vec3, b: Vec3) -> Vec3:
    """``a x b`` of two 3-vectors: ``np.cross``'s multiplies and subtractions,
    bit for bit, on Python floats, without its per-call set-up."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


class Side(Enum):
    """Half-space relative to the panel; REFLECTION is the side holding the BS."""

    REFLECTION = "reflection"
    REFRACTION = "refraction"


class PanelSpec(Record):
    """Placement and tiling of the element lattice: ``rows x cols`` elements
    at pitches ``dx`` (along u) and ``dy`` (along v), tiled into groups of
    ``group_rows x group_cols``."""

    def __init__(self, center: Vec3, normal: Vec3, rows: int, cols: int, dx: float, dy: float,
                 group_rows: int, group_cols: int):
        center = as_vec3(center, "panel center")
        normal = as_vec3(normal, "panel normal")
        with np.errstate(over="ignore"):  # a huge component reads |n| = inf
            norm = np.sqrt(dot3(normal, normal))
        if abs(norm - 1.0) > UNIT_EPS:
            raise ValidationError(
                f"panel normal must be unit length within {UNIT_EPS}, "
                f"got |n| = {norm!r}"
            )
        rows, cols, group_rows, group_cols = (
            require_int(f"panel {name}", value, 1) for name, value in (
                ("rows", rows), ("cols", cols), ("group_rows", group_rows),
                ("group_cols", group_cols)))
        for name, count, size in (("rows", rows, group_rows), ("cols", cols, group_cols)):
            if count % size:
                raise ValidationError(f"{name} ({count}) not divisible by group_{name} ({size})")
        vars(self).update(center=center, normal=normal, rows=rows, cols=cols,
                          dx=require_real("panel dx", dx, positive=True),
                          dy=require_real("panel dy", dy, positive=True),
                          group_rows=group_rows, group_cols=group_cols)

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols

    @cached_property
    def basis(self) -> tuple[Vec3, Vec3]:
        """In-plane unit axes (u, v); see module docstring for the convention."""
        n = self.normal
        for hint in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
            u = hint - dot3(hint, n) * n
            length = np.sqrt(dot3(u, u))
            if length > 1e-6:
                break
        u /= length
        v = cross3(n, u)
        v /= np.sqrt(dot3(v, v))
        for axis in (u, v):
            axis.setflags(write=False)
        return u, v

    def plane_side(self, points) -> np.ndarray:
        """Side of the panel plane for each point of a (..., 3) array: +1
        along the normal, -1 against it, 0 within PLANE_EPS of the plane or
        NaN."""
        d = dot3(points - self.center, self.normal)
        return (d > PLANE_EPS).astype(np.int8) - (d < -PLANE_EPS)


class ElementLayout(Record):
    """Element centres (``positions``, (M, 3), row-major), group membership
    (``group_of``, (M,) int), and the panel basis.

    Groups 0..G-1 all hold the same number m of elements: searches and
    channels work on the (G, m) ``members`` array.
    """

    def __init__(self, positions: np.ndarray, group_of: np.ndarray, u: Vec3, v: Vec3):
        # Frozen copies, so the caller's arrays stay writable and a write to
        # them cannot reach a cached channel geometry.
        positions = as_points(positions, "layout positions")
        group_of = require_array(group_of, "group indices must be non-negative integers",
                                 np.int64)
        if group_of.shape != positions.shape[:1]:
            raise ValidationError("a layout needs one group index per position")
        if (group_of < 0).any():
            raise ValidationError("group indices must be non-negative integers")
        counts = np.bincount(group_of)
        if (counts != counts[0]).any():
            raise ValidationError("groups must have equal numbers of elements")
        group_of.setflags(write=False)
        vars(self).update(positions=positions, group_of=group_of, u=as_vec3(u, "layout u"),
                          v=as_vec3(v, "layout v"))

    @property
    def num_elements(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def members(self) -> np.ndarray:
        """(G, m) element indices of each group, ascending."""
        members = np.argsort(self.group_of, kind="stable").reshape(
            int(self.group_of.max()) + 1, -1)
        members.setflags(write=False)
        return members

    @property
    def num_groups(self) -> int:
        return len(self.members)


def build_layout(spec: PanelSpec) -> ElementLayout:
    """Place ``rows x cols`` element centres on the panel lattice.

    The lattice is centred on ``spec.center``; group indices tile contiguous
    ``group_rows x group_cols`` blocks, numbered row-major over the blocks.
    """
    u, v = spec.basis
    cols, rows = np.arange(spec.cols), np.arange(spec.rows)[:, None]
    offsets_u = ((cols - (spec.cols - 1) / 2.0) * spec.dx)[..., None]
    offsets_v = ((rows - (spec.rows - 1) / 2.0) * spec.dy)[..., None]
    positions = (spec.center + offsets_u * u + offsets_v * v).reshape(-1, 3)
    group_of = ((rows // spec.group_rows) * (spec.cols // spec.group_cols)
                + cols // spec.group_cols).reshape(-1).astype(np.int64)
    return ElementLayout(positions=positions, group_of=group_of, u=u, v=v)


def side_of(spec: PanelSpec, bs_position, point) -> Side:
    """Classify ``point`` as REFLECTION (BS half-space) or REFRACTION."""
    bs, point = as_vec3(bs_position, "BS position"), as_vec3(point, "point")
    require_near(bs[None], "BS position")
    require_near(point[None], "point")
    bs_side, point_side = spec.plane_side(np.array([bs, point]))
    if bs_side == 0:
        raise InvalidSceneError("BS lies in the panel plane; scene is invalid")
    if point_side == 0:
        raise SideUndefinedError(f"point {point.tolist()} lies in the panel plane")
    return Side.REFLECTION if point_side == bs_side else Side.REFRACTION
