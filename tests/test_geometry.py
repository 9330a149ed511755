"""Box geometry: construction, IoU and generalized IoU, corner rows, the
integer rule of frame indices and ids, and the number rule of the rest."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekit.errors import ValidationError
from tubekit.geometry import (Box, corner_rows, giou, integer, integers, intersection_area, iou,
                              number, numbers)


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
        enclosing = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
        assert enclosing == pytest.approx(a.area + b.area - intersection_area(a, b), abs=1e-15)
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


class TestIntegers:
    @pytest.mark.parametrize("values", [
        [3, -2], [3.0, -2.0], [np.int64(3), np.int8(-2)], [np.float32(3.0), -2],
        np.array([3, -2], dtype=np.int32), np.array([3.0, -2.0]), (3, -2)],
        ids=["int", "integral-float", "numpy-int", "numpy-float", "int32-array", "float-array",
             "tuple"])
    def test_integers_pass(self, values):
        out = integers(values, "t")
        assert out.dtype == np.int64 and out.tolist() == [3, -2]

    @pytest.mark.parametrize("value", [np.int64(7), np.uint32(7), 7.0, 7])
    def test_one_integer_is_a_python_int(self, value):
        assert type(integer(value, "ts")) is int and integer(value, "ts") == 7

    def test_array_is_copied(self):
        a = np.array([1, 2])
        out = integers(a, "t")
        out[0] = 9
        assert a.tolist() == [1, 2]

    @pytest.mark.parametrize("value, shown", [
        (True, "True"), (np.True_, "np.True_"), (0.5, "0.5"), (float("nan"), "nan"),
        (float("inf"), "inf"), ("3", "'3'"), (None, "None"), ([3], "[3]")])
    def test_non_integers_refused(self, value, shown):
        with pytest.raises(ValidationError, match=rf"^tube 1: 't' must be an integer, "
                                                  rf"got {re.escape(shown)}$"):
            integers([0, value], "t", "tube 1: ")

    @pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, 2 ** 70, 1e19])
    def test_beyond_64_bits_refused(self, value):
        with pytest.raises(ValidationError, match=rf"^'ts' must be an integer that fits in 64 "
                                                  rf"bits, got {int(value)}$"):
            integer(value, "ts")
        with pytest.raises(ValidationError, match="fits in 64 bits"):
            integers(np.array([value], dtype=object), "ts")

    @pytest.mark.parametrize("values", [5, np.array(5), np.array(5.0)])
    def test_scalar_is_not_an_array(self, values):
        with pytest.raises(ValidationError, match=r"^'t' must be an array of integers, got 5"):
            integers(values, "t")

    def test_int64_range_passes(self):
        assert integers([2 ** 63 - 1, -2 ** 63], "t").tolist() == [2 ** 63 - 1, -2 ** 63]

    def test_uint64_beyond_int64_refused(self):
        with pytest.raises(ValidationError, match="fits in 64 bits, got 18446744073709551615$"):
            integers(np.array([2 ** 64 - 1], dtype=np.uint64), "det")

    def test_bool_array_refused(self):
        with pytest.raises(ValidationError, match="must be an integer, got True$"):
            integers(np.array([True]), "det")


class TestNumbers:
    @pytest.mark.parametrize("values", [
        [0.5, 2], [np.float32(0.5), np.int8(2)], np.array([0.5, 2.0], dtype=np.float32),
        np.array([0.5, 2.0]), np.array([[0.5], [2.0]]), (0.5, 2), [[0.5], [2]]],
        ids=["python", "numpy-scalars", "float32-array", "float64-array", "2d-array",
             "tuple", "nested"])
    def test_numbers_pass(self, values):
        out = numbers(values, "score")
        assert out.dtype == np.float64 and out.ravel().tolist() == [0.5, 2.0]
        assert out.shape == np.shape(values)

    @pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5), np.array(0.5)])
    def test_one_number_is_a_python_float(self, value):
        assert type(number(value, "fps")) is float and number(value, "fps") == 0.5

    def test_array_is_copied(self):
        a = np.array([1.0, 2.0])
        out = numbers(a, "score")
        out[0] = 9.0
        assert a.tolist() == [1.0, 2.0]

    def test_without_copy_a_float64_array_is_itself(self):
        a = np.array([1.0, 2.0])
        assert numbers(a, "score", copy=False) is a
        converted = numbers(a.astype(np.float32), "score", copy=False)
        assert converted.dtype == np.float64 and converted.tolist() == [1.0, 2.0]
        with pytest.raises(ValidationError, match="'score' must be a number, got True$"):
            numbers(np.array([True]), "score", copy=False)

    @pytest.mark.parametrize("value, shown", [
        (True, "True"), (np.True_, "np.True_"), ("0.5", "'0.5'"), (None, "None"),
        (1j, "1j"), ({}, "{}")])
    def test_non_numbers_refused(self, value, shown):
        with pytest.raises(ValidationError, match=rf"^tube 1: 'score' must be a number, "
                                                  rf"got {re.escape(shown)}$"):
            numbers([[0.5, value]], "score", "tube 1: ")
        with pytest.raises(ValidationError, match=rf"^'fps' must be a number, "
                                                  rf"got {re.escape(shown)}$"):
            number(value, "fps")

    @pytest.mark.parametrize("values", [np.array([True]), np.array(["0.5"]),
                                        np.array([1.0, "0.5"], dtype=object),
                                        [np.array(0.5), np.array(0.7)]],
                             ids=["bool", "str", "object", "0-d-arrays"])
    def test_arrays_of_other_kinds_refused(self, values):
        with pytest.raises(ValidationError, match="'score' must be a number, got "):
            numbers(values, "score")

    def test_beyond_the_float_range_refused(self):
        with pytest.raises(ValidationError, match=rf"^'box' must be a number that fits in 64 "
                                                  rf"bits, got {10 ** 400}$"):
            corner_rows([[0, 0, 1, 10 ** 400]])
        assert numbers([2 ** 70], "score").tolist() == [2.0 ** 70]

    def test_rows_of_one_length(self):
        with pytest.raises(ValidationError, match=r"^'embed' must be an array of rows of one "
                                                  r"length$"):
            numbers([[1.0, 2.0], [1.0]], "embed")
        with pytest.raises(ValidationError, match=r"must be a number, got \[1.0\]$"):
            numbers([[1.0], 2.0], "embed")

    def test_an_array_is_not_one_number(self):
        with pytest.raises(ValidationError, match=r"^'fps' must be a number, got \[0.5\]$"):
            number([0.5], "fps")
