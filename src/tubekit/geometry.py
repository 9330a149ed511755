"""Axis-aligned box geometry on the normalized unit square.

Boxes live in corner form [x1, y1, x2, y2] with 0 <= x1 < x2 <= 1 and
0 <= y1 < y2 <= 1.  Construction clamps coordinates into [0, 1] and rejects
boxes that are left with zero area.

The scalar functions take Box objects.  The array kernels take (N, 4)
corner arrays, the layout of the boxes of a tube, a GT and a prediction:
`corner_rows` applies Box's rule to every row, and `iou_pairs` and
`giou_pairs` are the scalar IoU and GIoU row by row, bit for bit, for the
per-frame loops of mining, the consistency losses and the metrics;
`sum_in_order` adds per-frame terms in the order a plain accumulation loop
would.  `integers` is the rule of every frame index and id, `pair` of an
interval's or a span's two frames, `numbers` of every other number, the
holders' and the readers' alike; `within` adds a range to them for every
config field, scalar argument and bounded holder column, and `hold` stores
every value a holder checked, scalars and columns alike, an array read-only.
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ValidationError

_INT = frozenset((int,))             # type(True) is bool, not int
_NUMBER = frozenset((int, float))
_NESTED = frozenset((list, tuple, np.ndarray))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in corner form, normalized to the unit square."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
        if not (type(x1) is type(y1) is type(x2) is type(y2) is float):
            numbers((x1, y1, x2, y2), "box")   # refuses what is not a number
        isfinite = math.isfinite
        if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
            raise ValidationError(
                f"box coordinates must be finite, got {(x1, y1, x2, y2)}")
        # Clamp into [0, 1]; min(max(v, 0.0), 1.0) keeps an inside v as given, -0.0 too.
        if not (0.0 <= x1 <= 1.0 and 0.0 <= y1 <= 1.0 and 0.0 <= x2 <= 1.0 and 0.0 <= y2 <= 1.0):
            hold(self, **{k: min(max(v, 0.0), 1.0)
                          for k, v in zip(("x1", "y1", "x2", "y2"), (x1, y1, x2, y2))})
        if self.x2 - self.x1 <= 0.0 or self.y2 - self.y1 <= 0.0:
            raise ValidationError(
                f"box has no area after clamping to the unit square: {(x1, y1, x2, y2)}"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def to_list(self) -> list[float]:
        """Serialize as the canonical 4-element array."""
        return [self.x1, self.y1, self.x2, self.y2]


def intersection_area(a: Box, b: Box) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: Box, b: Box) -> float:
    """Intersection over union, in [0, 1]."""
    inter = intersection_area(a, b)
    return inter / (a.area + b.area - inter)


def giou(a: Box, b: Box) -> float:
    """Generalized IoU: iou minus the enclosing-box penalty, in (-1, 1].

    Equals plain IoU whenever the enclosing box coincides with the union.
    Far-apart small boxes approach -1; identical boxes give exactly 1.
    """
    inter = intersection_area(a, b)
    u = a.area + b.area - inter
    c = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    return inter / u - (c - u) / c


# ------------------------------------------------------------ array kernels

def corners(boxes) -> np.ndarray:
    """(N, 4) float array of the boxes' corners, in Box field order."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)


def corner_rows(rows, where: str = "") -> np.ndarray:
    """A new (N, 4) corner array of `rows`, each row by Box's rule.

    A row is refused, with Box's message after `where`, when a coordinate is
    not a number or not finite, or the box has no area once clamped.  Only
    coordinates outside [0, 1] are clamped, so -0.0 inside stays, as in a Box.
    """
    raw = numbers(rows, "box", where)
    if raw.ndim != 2 or raw.shape[1] != 4:
        raise ValidationError(f"{where}box rows must be an (N, 4) array, got shape {raw.shape}")
    c = np.where(raw < 0.0, 0.0, np.where(raw > 1.0, 1.0, raw))
    refused = (~np.isfinite(raw).all(axis=1) | (c[:, 2] - c[:, 0] <= 0.0)
               | (c[:, 3] - c[:, 1] <= 0.0))
    if refused.any():
        try:
            Box(*raw[np.argmax(refused)].tolist())
        except ValidationError as e:
            raise ValidationError(where + str(e)) from None
    return c


def _array(values, key: str, where: str, ints: bool, copy: bool = True) -> np.ndarray:
    """The body of `integers` (ints) and `numbers`: an ndarray of a safe kind
    is cast by its dtype alone, and without copy returned as itself when it
    has the dtype already; anything else is scanned once, value by value,
    and converted from its elements in one flat list; a refusal is a
    ValidationError naming `key`, after `where`."""
    dtype, kinds, word = (np.int64, "iu", "an integer") if ints else (float, "iuf", "a number")
    if isinstance(values, np.ndarray):
        if values.ndim and values.dtype.kind in kinds and np.can_cast(values.dtype, dtype):
            return values.astype(dtype, copy=copy)
        values = values.tolist()
    if ints:
        try:
            flat = list(values)
        except TypeError:   # a scalar
            raise ValidationError(f"{where}'{key}' must be an array of integers, "
                                  f"got {values!r}") from None
        shape = [len(flat)]
    else:
        flat, shape = (values, [len(values)]) if type(values) is list else ([values], [])
        with suppress(TypeError):   # a 0-d array is no row, and is refused below
            while flat and type(flat[0]) in _NESTED and _NESTED.issuperset(map(type, flat)):
                lengths = set(map(len, flat))   # None: rows of more than one length
                shape.append(lengths.pop() if len(lengths) == 1 else None)
                flat = list(chain.from_iterable(flat))   # rows of one depth: their elements
    if not (_INT if ints else _NUMBER).issuperset(map(type, flat)):
        if ints:   # a numpy integer or an integral float is an int
            flat = [int(v) if isinstance(v, np.integer)
                    or (isinstance(v, (float, np.floating)) and v.is_integer()) else v
                    for v in flat]
        if bad := [v for v in flat if type(v) is not int and (
                ints or type(v) is not float and not isinstance(v, (np.integer, np.floating)))]:
            raise ValidationError(f"{where}'{key}' must be {word}, got {bad[0]!r}")
    if None in shape:
        raise ValidationError(f"{where}'{key}' must be an array of rows of one length")
    try:
        return np.array(flat, dtype=dtype).reshape(shape)
    except OverflowError:
        v = max((v for v in flat if type(v) is int), key=abs)
        raise ValidationError(f"{where}'{key}' must be {word} that fits in 64 bits, "
                              f"got {v!r}") from None


def integers(values, key: str, where: str = "") -> np.ndarray:
    """A new int64 array of `values`, an array or any other sequence of
    integers, numpy's included, or integral floats such as 1.0, each
    fitting in 64 bits.  A bool never passes, nor does anything else: int()
    would take True as 1, 8.7 as 8 and "3" as 3."""
    return _array(values, key, where, ints=True)


def integer(value, key: str) -> int:
    """One value by the rule of `integers`, as a Python int."""
    return integers([value], key)[0].item()


def numbers(values, key: str, where: str = "", copy: bool = True) -> np.ndarray:
    """A new float64 array of `values`, a number or nested arrays of them
    in rows of one length: ints and floats, numpy's included, an int within
    the float range.  A bool never passes, nor does a string or None:
    np.array(..., dtype=float) would take True as 1.0 and "0.5" as 0.5.
    With copy False, a float64 array is returned as itself."""
    return _array(values, key, where, ints=False, copy=copy)


def number(value, key: str, where: str = "") -> float:
    """One value by the rule of `numbers`, as a Python float."""
    if (a := numbers(value, key, where)).ndim:
        raise ValidationError(f"{where}'{key}' must be a number, got {value!r}")
    return a.item()


def pair(value, key: str) -> tuple[int, int]:
    """Two values by the rule of `integers`, as a tuple of Python ints: the
    first and last frame of an interval or a span."""
    if len(a := integers(value, key)) != 2:
        raise ValidationError(f"{key} must be a 2-element array, got {value!r}")
    return tuple(a.tolist())


def _inside(v, bounds: str):
    """Whether `v`, a number or an array, lies in `bounds`, element by element."""
    lo, hi = (float(b) for b in bounds[1:-1].split(", "))
    return (v >= lo if bounds[0] == "[" else v > lo) & (v <= hi if bounds[-1] == "]" else v < hi)


def within(value, key: str, bounds: str, kind: type = float, frames=None, where: str = ""):
    """`value` by the rule of `integer` (kind int) or `number` (kind float),
    as that Python int or float, refused with a ValidationError unless it
    lies in `bounds`, an interval such as "[0, 1)" whose brackets say which
    ends are closed.  An end open at inf keeps inf out, and NaN lies in no
    interval.  A one-sided interval is "[n, inf)" for an int, and "(0, inf)"
    or "[0, inf)" for a number; "(-inf, inf)" is every finite number.

    With `frames`, `value` is a column with one row per frame, returned as
    the array of `integers` or `numbers`; a refusal names, after `where`
    ("tube 3: "), frame frames[i] of the first row i at fault, or `frames`
    itself, an int, for every row."""
    if frames is None:
        v = integer(value, key) if kind is int else number(value, key)
        if _inside(v, bounds):
            return v
        lo, hi = bounds[1:-1].split(", ")
        must = (f"lie in {bounds}" if hi != "inf" else f"be at least {lo}" if kind is int else
                "be a finite number" if lo == "-inf" else
                f"be a {'positive' if bounds[0] == '(' else 'nonnegative'} finite number")
        raise ValidationError(f"{key} must {must}, got {v}")
    try:
        if _inside(a := _array(value, key, "", kind is int), bounds).all():
            return a
        refusal = ValidationError(f"{where}{key} must hold one row per frame")
    except ValidationError as e:
        refusal = ValidationError(where + str(e))
    # The first row refused on its own, value by value, names its frame.
    place = where[:-2] + " " if where else ""   # "tube 3: " becomes "tube 3 frame T: "
    rows = value.tolist() if isinstance(value, np.ndarray) else value
    for frame, row in zip(repeat(frames) if type(frames) is int else frames,
                          rows if type(rows) in _NESTED else [rows]):
        try:
            for v in row if type(row) in _NESTED else [row]:
                within(v, key, bounds, kind)
        except ValidationError as e:
            raise ValidationError(f"{place}frame {frame}: {e}") from None
    raise refusal


def hold_within(holder, kind: type, bounds: str, *keys: str) -> None:
    """Set each field `keys` of the frozen dataclass `holder` to its value by
    `within`: the rule a config's __post_init__ applies to its fields."""
    hold(holder, **{key: within(getattr(holder, key), key, bounds, kind) for key in keys})


def hold(holder, **values) -> None:
    """Set each field of the frozen dataclass `holder` named in `values` to
    its value, an ndarray made read-only first: how a holder keeps what it checked."""
    for key, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(holder, key, value)


def _inter_union(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union areas of each row pair, in the scalar order."""
    ax1, ay1, ax2, ay2 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx1, by1, bx2, by2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    return inter, (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """iou of each row of `a` with the same row of `b`, both (N, 4) corners;
    bit for bit the scalar `iou` on rows that are valid boxes."""
    inter, u = _inter_union(a, b)
    return inter / u


def giou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """giou of each row of `a` with the same row of `b`, both (N, 4) corners,
    or any corner arrays (..., 4) that broadcast, such as (k, N, 4) with (N, 4).

    Performs the IEEE operations of the scalar `giou`, in the same order, so
    for rows that are valid boxes each element equals
    giou(Box(*a[i]), Box(*b[i])) bit for bit.  Rows are not validated: this
    is also the kernel of finite-difference probes.
    """
    inter, u = _inter_union(a, b)
    c = ((np.maximum(a[..., 2], b[..., 2]) - np.minimum(a[..., 0], b[..., 0]))
         * (np.maximum(a[..., 3], b[..., 3]) - np.minimum(a[..., 1], b[..., 1])))
    return inter / u - (c - u) / c


def sum_in_order(values: np.ndarray) -> float:
    """0.0 + v[0] + v[1] + ..., left to right, as an `acc += v` loop adds.

    np.sum adds pairwise and can differ in the last bit; a cumulative sum
    is sequential.  values is 1-D.
    """
    if values.shape[0] == 0:
        return 0.0
    # + 0.0 is the loop's starting value: it turns an all -0.0 sum into 0.0.
    return float(np.add.accumulate(values)[-1]) + 0.0
