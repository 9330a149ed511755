"""Box geometry: construction, conversions, IoU and generalized IoU."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekit.errors import ValidationError
from tubekit.geometry import (Box, CenterSizeBox, corner_rows, enclosing_area,
                              giou, intersection_area, iou, to_center_size,
                              to_corner, union_area)


class TestBoxConstruction:
    def test_valid_box(self):
        b = Box(0.1, 0.2, 0.5, 0.8)
        assert b.to_list() == [0.1, 0.2, 0.5, 0.8]
        assert b.area == pytest.approx(0.4 * 0.6, abs=1e-15)

    def test_clamps_to_unit_square(self):
        b = Box(-0.2, 0.1, 0.5, 1.7)
        assert b.x1 == 0.0
        assert b.y2 == 1.0

    def test_rejects_zero_width(self):
        with pytest.raises(ValidationError):
            Box(0.5, 0.1, 0.5, 0.9)

    def test_rejects_inverted(self):
        with pytest.raises(ValidationError):
            Box(0.6, 0.1, 0.4, 0.9)

    def test_rejects_fully_outside(self):
        # Clamping collapses it to a line on the boundary.
        with pytest.raises(ValidationError):
            Box(1.2, 0.1, 1.6, 0.9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Box(float("nan"), 0.1, 0.5, 0.9)

    def test_from_list_length(self):
        with pytest.raises(ValidationError):
            Box.from_list([0.1, 0.2, 0.3])


class TestCenterSize:
    def test_known_conversion(self):
        cs = to_center_size(Box(0.4, 0.3, 0.6, 0.7))
        assert cs.cx == pytest.approx(0.5, abs=1e-15)
        assert cs.cy == pytest.approx(0.5, abs=1e-15)
        assert cs.w == pytest.approx(0.2, abs=1e-15)
        assert cs.h == pytest.approx(0.4, abs=1e-15)

    def test_known_back_conversion(self):
        b = to_corner(CenterSizeBox(0.5, 0.5, 0.2, 0.4))
        assert b.to_list() == pytest.approx([0.4, 0.3, 0.6, 0.7], abs=1e-15)

    def test_round_trip_thousand_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x1, y1 = rng.uniform(0.0, 0.8, size=2)
            b = Box(x1, y1, x1 + rng.uniform(0.05, 0.2), y1 + rng.uniform(0.05, 0.2))
            back = to_corner(to_center_size(b))
            assert np.allclose(back.to_list(), b.to_list(), rtol=0, atol=1e-12)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValidationError):
            CenterSizeBox(0.5, 0.5, 0.0, 0.4)


class TestIou:
    def test_identical_boxes(self):
        b = Box(0.2, 0.2, 0.7, 0.7)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0.0, 0.0, 0.2, 0.2), Box(0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_half_overlap(self):
        # Two unit-width halves sharing half their area: inter 0.25, union 0.75.
        a = Box(0.0, 0.0, 0.5, 1.0)
        b = Box(0.25, 0.0, 0.75, 1.0)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_touching_edges_zero(self):
        a = Box(0.0, 0.0, 0.5, 0.5)
        b = Box(0.5, 0.0, 1.0, 0.5)
        assert intersection_area(a, b) == 0.0
        assert iou(a, b) == 0.0


class TestGiou:
    def test_identical_is_exactly_one(self):
        b = Box(0.3, 0.1, 0.8, 0.9)
        assert giou(b, b) == 1.0

    def test_tight_disjoint_halves(self):
        # Stacked halves fill their enclosing box: penalty term vanishes.
        a = Box(0.0, 0.0, 1.0, 0.5)
        b = Box(0.0, 0.5, 1.0, 1.0)
        assert giou(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_far_apart_approaches_minus_one(self):
        a = Box(0.0, 0.0, 0.01, 0.01)
        b = Box(0.99, 0.99, 1.0, 1.0)
        assert giou(a, b) == pytest.approx(-0.9998, abs=1e-12)

    def test_quarter_separated(self):
        # Opposite quadrant corners: inter 0, union 0.5, enclosing 1.
        a = Box(0.0, 0.0, 0.5, 0.5)
        b = Box(0.5, 0.5, 1.0, 1.0)
        assert giou(a, b) == pytest.approx(-0.5, abs=1e-15)


def _random_box(rng) -> Box:
    x1 = rng.uniform(0.0, 0.85)
    y1 = rng.uniform(0.0, 0.85)
    return Box(x1, y1, x1 + rng.uniform(0.05, min(0.15, 1.0 - x1)),
               y1 + rng.uniform(0.05, min(0.15, 1.0 - y1)))


class TestPairProperties:
    """Range, symmetry, and ordering over a large random sample."""

    def test_ten_thousand_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            a, b = _random_box(rng), _random_box(rng)
            i = iou(a, b)
            g = giou(a, b)
            assert 0.0 <= i <= 1.0
            assert -1.0 <= g <= 1.0
            assert g <= i + 1e-15
            assert iou(b, a) == i
            assert giou(b, a) == g

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, b = _random_box(rng), _random_box(rng)
            dx = rng.uniform(-0.05, 0.05)
            dy = rng.uniform(-0.05, 0.05)
            if not all(0.0 <= v + d <= 1.0
                       for box in (a, b)
                       for v, d in zip(box.to_list(), (dx, dy, dx, dy))):
                continue
            a2 = Box(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
            b2 = Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
            assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-12)
            assert giou(a2, b2) == pytest.approx(giou(a, b), abs=1e-12)

    def test_giou_equals_iou_when_enclosing_equals_union(self):
        # Aligned boxes sharing full extent along one axis tile their hull.
        a = Box(0.1, 0.2, 0.4, 0.6)
        b = Box(0.3, 0.2, 0.7, 0.6)
        assert enclosing_area(a, b) == pytest.approx(union_area(a, b), abs=1e-15)
        assert giou(a, b) == iou(a, b)


# Coordinates in range, out of range, at the edges, -0.0, NaN and +-inf.
_coords = st.one_of(
    st.floats(0.0, 1.0), st.floats(-2.0, 3.0),
    st.sampled_from([0.0, -0.0, 1.0, -1e-300, 1.0 + 2e-16, float("nan"),
                     float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _box_tuples(draw):
    c = [draw(_coords) for _ in range(4)]
    tie = draw(st.sampled_from(["none", "x", "y"]))   # touching edges, zero area
    if tie == "x":
        c[2] = c[0]
    elif tie == "y":
        c[3] = c[1]
    return tuple(c)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_box_tuples(), min_size=1, max_size=5))
def test_corner_rows_follows_box(rows):
    """corner_rows refuses exactly the rows Box refuses, with Box's message
    for the first of them, and otherwise clamps to Box's bits."""
    want = []
    for r in rows:
        try:
            want.append(Box(*r).to_list())
        except ValidationError as e:
            want.append(str(e))
    refused = [w for w in want if isinstance(w, str)]
    if refused:
        with pytest.raises(ValidationError) as err:
            corner_rows(rows)
        assert str(err.value) == refused[0]
    else:
        assert corner_rows(rows).tobytes() == np.array(want).tobytes()
    for r, w in zip(rows, want):
        if isinstance(w, str):
            with pytest.raises(ValidationError, match="^" + re.escape(w) + "$"):
                corner_rows([r])
        else:
            assert corner_rows([r]).tobytes() == np.array([w]).tobytes()


def test_corner_rows_shape():
    assert corner_rows(np.empty((0, 4))).shape == (0, 4)
    with pytest.raises(ValidationError, match="box rows must be an"):
        corner_rows([0.1, 0.1, 0.5, 0.5])
