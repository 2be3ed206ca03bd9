import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omnisim import (InvalidSceneError, PanelSpec, Side, SideUndefinedError,
                     ValidationError, build_layout, side_of)
from omnisim.geometry import FAR_M, as_points, cross3, dot3

UNIT_Z = np.array([0.0, 0.0, 1.0])


def square_panel(rows=2, cols=2, dx=1.0, dy=1.0, **kw):
    kw.setdefault("group_rows", 1)
    kw.setdefault("group_cols", 1)
    return PanelSpec(center=[0, 0, 0], normal=UNIT_Z, rows=rows, cols=cols,
                     dx=dx, dy=dy, **kw)


def unit_vector(seed):
    v = np.random.default_rng(seed).standard_normal(3)
    return v / np.sqrt(dot3(v, v))


class TestBuildLayout:
    def test_symmetric_2x2_lattice(self):
        layout = build_layout(square_panel())
        got = {tuple(np.round(p, 12)) for p in layout.positions}
        assert got == {(-0.5, -0.5, 0.0), (0.5, -0.5, 0.0),
                       (-0.5, 0.5, 0.0), (0.5, 0.5, 0.0)}

    def test_prototype_dimensions(self, prototype, prototype_layout):
        assert prototype.panel.num_elements == 640
        assert prototype_layout.num_elements == 640
        assert prototype_layout.num_groups == 16

    def test_single_group_panel(self):
        spec = PanelSpec(center=[0, 0, 0], normal=UNIT_Z, rows=5, cols=8,
                         dx=0.01, dy=0.01, group_rows=5, group_cols=8)
        layout = build_layout(spec)
        assert layout.num_elements == 40
        assert np.all(layout.group_of == 0)

    def test_centroid_matches_center(self):
        spec = PanelSpec(center=[1.5, -2.0, 0.25], normal=unit_vector(3),
                         rows=6, cols=9, dx=0.013, dy=0.021,
                         group_rows=2, group_cols=3)
        layout = build_layout(spec)
        assert np.allclose(layout.positions.mean(axis=0), spec.center,
                           atol=1e-9)

    def test_positions_lie_in_plane(self):
        spec = PanelSpec(center=[0.3, 0.7, -1.1], normal=unit_vector(8),
                         rows=4, cols=6, dx=0.02, dy=0.03,
                         group_rows=2, group_cols=2)
        layout = build_layout(spec)
        deviation = (layout.positions - spec.center) @ spec.normal
        assert np.max(np.abs(deviation)) < 1e-9

    def test_group_tiling_row_major(self):
        spec = PanelSpec(center=[0, 0, 0], normal=UNIT_Z, rows=4, cols=4,
                         dx=0.01, dy=0.01, group_rows=2, group_cols=2)
        layout = build_layout(spec)
        groups = layout.group_of.reshape(4, 4)
        assert np.array_equal(groups, [[0, 0, 1, 1],
                                       [0, 0, 1, 1],
                                       [2, 2, 3, 3],
                                       [2, 2, 3, 3]])
        assert layout.members.tolist() == [[0, 1, 4, 5], [2, 3, 6, 7],
                                           [8, 9, 12, 13], [10, 11, 14, 15]]
        assert not layout.members.flags.writeable

    def test_basis_fallback_when_normal_along_x(self):
        spec = PanelSpec(center=[0, 0, 0], normal=[1.0, 0.0, 0.0],
                         rows=2, cols=2, dx=1, dy=1,
                         group_rows=1, group_cols=1)
        u, v = spec.basis
        assert np.allclose(u, [0, 1, 0])
        assert np.allclose(v, [0, 0, 1])

    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValidationError):
            PanelSpec(center=[0, 0, 0], normal=[0, 0, 2.0], rows=2, cols=2,
                      dx=1, dy=1, group_rows=1, group_cols=1)

    def test_rejects_non_divisible_tiling(self):
        with pytest.raises(ValidationError):
            PanelSpec(center=[0, 0, 0], normal=UNIT_Z, rows=5, cols=8,
                      dx=1, dy=1, group_rows=2, group_cols=8)

    def test_rejects_non_positive_pitch(self):
        with pytest.raises(ValidationError):
            square_panel(dx=0.0)


# Within 1e150 no product of two coordinates overflows.
COORDINATES = st.floats(-1e150, 1e150, allow_nan=False)


@given(st.lists(st.tuples(*[COORDINATES] * 3), min_size=1, max_size=4),
       st.tuples(*[COORDINATES] * 3))
def test_dot3_is_the_left_fold(rows, b):
    """``dot3`` of (n, 3) rows with a broadcast 3-vector is, per row and to
    the bit, ``(a0*b0 + a1*b1) + a2*b2`` in Python floats."""
    got = dot3(np.array(rows), np.array(b))
    want = np.array([(a[0] * b[0] + a[1] * b[1]) + a[2] * b[2] for a in rows])
    assert got.tobytes() == want.tobytes()


@given(*[st.tuples(*[COORDINATES] * 3)] * 2)
def test_cross3_is_np_cross(a, b):
    """``cross3`` has ``np.cross``'s bits, signed zeros included."""
    a, b = np.array(a), np.array(b)
    assert cross3(a, b).tobytes() == np.cross(a, b).tobytes()


BEYOND = st.floats(min_value=FAR_M, exclude_min=True, allow_infinity=False)
BAD_COORDINATES = (st.sampled_from([math.nan, math.inf, -math.inf]) | BEYOND
                   | BEYOND.map(operator.neg))


@given(st.lists(st.tuples(*[COORDINATES] * 3), min_size=1, max_size=5), st.data())
def test_as_points_names_the_bad_row(rows, data):
    """Coordinates within +-FAR_M, its bounds included, are accepted; one NaN,
    infinity or coordinate beyond FAR_M is refused with the row that holds it."""
    points = np.array(rows)
    assert as_points(points, "points").tobytes() == points.tobytes()
    row = data.draw(st.integers(0, len(rows) - 1))
    points[row, data.draw(st.integers(0, 2))] = data.draw(BAD_COORDINATES)
    with pytest.raises(ValidationError,
                       match=re.escape(f"point {row} at {points[row].tolist()}")):
        as_points(points, "points")


def test_as_points_accepts_far_m_exactly():
    points = [[FAR_M, -FAR_M, 0.0], [0.0, FAR_M, -FAR_M]]
    assert as_points(points, "points").tolist() == points


class TestSideOf:
    def setup_method(self):
        self.spec = square_panel()
        self.bs = np.array([0.0, 0.0, 1.0])

    def test_same_half_space(self):
        assert side_of(self.spec, self.bs, [0, 0, 0.7]) is Side.REFLECTION

    def test_opposite_half_space(self):
        assert side_of(self.spec, self.bs, [0, 0, -0.7]) is Side.REFRACTION

    def test_point_in_plane_is_undefined(self):
        with pytest.raises(SideUndefinedError):
            side_of(self.spec, self.bs, [0.3, 0.2, 0.0])

    def test_bs_in_plane_invalidates_scene(self):
        with pytest.raises(InvalidSceneError):
            side_of(self.spec, [0.1, 0.1, 0.0], [0, 0, 0.7])

    @pytest.mark.parametrize("which", ["BS position", "point"])
    def test_far_points_are_refused_by_name(self, which):
        """A finite point beyond FAR_M is refused, named, before the plane
        test's sum overflows (a RuntimeWarning, an error in this suite)."""
        spec = PanelSpec(center=[0, 0, 0], normal=[0.6, 0, 0.8], rows=2, cols=2,
                         dx=1, dy=1, group_rows=1, group_cols=1)
        far, near = [1.7e308, 0, 1.7e308], [0, 0, 1.0]
        bs, point = (far, near) if which == "BS position" else (near, far)
        with pytest.raises(ValidationError, match=f"^{which}: point 0 at"):
            side_of(spec, bs, point)

    @given(st.floats(min_value=1e-6, max_value=1e3),
           st.floats(min_value=0.0, max_value=50.0))
    def test_constant_along_outward_ray(self, start, travel):
        spec = square_panel()
        bs = [0.2, -0.1, 2.0]
        for sign in (1.0, -1.0):
            point = np.array([0.4, 0.3, sign * start])
            moved = point + np.array([0.0, 0.0, sign * travel])
            assert side_of(spec, bs, point) is side_of(spec, bs, moved)

    def test_plane_side_is_vectorized(self):
        points = np.array([[0.3, 0.2, 0.7], [0.3, 0.2, -0.7],
                           [0.3, 0.2, 0.0], [0.3, 0.2, 5e-10]])
        assert self.spec.plane_side(points).tolist() == [1, -1, 0, 0]
        assert self.spec.plane_side(points[1]) == -1

    def test_flipping_normal_preserves_classification(self):
        flipped = PanelSpec(center=[0, 0, 0], normal=-UNIT_Z, rows=2, cols=2,
                            dx=1, dy=1, group_rows=1, group_cols=1)
        for z in (0.7, -0.7):
            assert side_of(self.spec, self.bs, [0, 0, z]) is \
                side_of(flipped, self.bs, [0, 0, z])

