"""Axis-aligned box geometry on the normalized unit square.

Boxes live in corner form [x1, y1, x2, y2] with 0 <= x1 < x2 <= 1 and
0 <= y1 < y2 <= 1.  Construction clamps coordinates into [0, 1] and rejects
boxes that are left with zero area.  Center-size form (cx, cy, w, h) is the
secondary representation used by L1 matching costs.

The scalar functions take Box objects.  The array kernels take (N, 4)
corner arrays, the layout of a tube's boxes: `corner_rows` applies Box's
rule to every row, and `iou_pairs` and `giou_pairs` are the scalar IoU and
GIoU row by row, bit for bit, for the per-frame loops of mining, the
consistency losses and the metrics; `sum_in_order` adds per-frame terms in
the order a plain accumulation loop would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Floor on box extent after clamping; anything thinner is treated as empty.
_MIN_EXTENT = 0.0


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in corner form, normalized to the unit square."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
        isfinite = math.isfinite
        if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
            raise ValidationError(
                f"box coordinates must be finite, got {(x1, y1, x2, y2)}")
        # Clamp into [0, 1].  A coordinate already inside is kept as the very
        # object given, as min(max(v, 0.0), 1.0) would return it.
        if not 0.0 <= x1 <= 1.0:
            object.__setattr__(self, "x1", min(max(x1, 0.0), 1.0))
        if not 0.0 <= y1 <= 1.0:
            object.__setattr__(self, "y1", min(max(y1, 0.0), 1.0))
        if not 0.0 <= x2 <= 1.0:
            object.__setattr__(self, "x2", min(max(x2, 0.0), 1.0))
        if not 0.0 <= y2 <= 1.0:
            object.__setattr__(self, "y2", min(max(y2, 0.0), 1.0))
        if self.x2 - self.x1 <= _MIN_EXTENT or self.y2 - self.y1 <= _MIN_EXTENT:
            raise ValidationError(
                f"box has no area after clamping to the unit square: {(x1, y1, x2, y2)}"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def to_list(self) -> list[float]:
        """Serialize as the canonical 4-element array."""
        return [self.x1, self.y1, self.x2, self.y2]

    @classmethod
    def from_list(cls, arr) -> "Box":
        if len(arr) != 4:
            raise ValidationError(f"box array must have 4 elements, got {len(arr)}")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]), float(arr[3]))


@dataclass(frozen=True)
class CenterSizeBox:
    """Box in center-size form (cx, cy, w, h); w and h strictly positive."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.cx, self.cy, self.w, self.h)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"center-size coordinates must be finite, got {vals}")
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"center-size box needs positive extents, got {vals}")


def to_center_size(box: Box) -> CenterSizeBox:
    """Corner form -> center-size form."""
    return CenterSizeBox(
        cx=0.5 * (box.x1 + box.x2),
        cy=0.5 * (box.y1 + box.y2),
        w=box.x2 - box.x1,
        h=box.y2 - box.y1,
    )


def to_corner(cs: CenterSizeBox) -> Box:
    """Center-size form -> corner form.  Inverse of to_center_size."""
    return Box(
        x1=cs.cx - 0.5 * cs.w,
        y1=cs.cy - 0.5 * cs.h,
        x2=cs.cx + 0.5 * cs.w,
        y2=cs.cy + 0.5 * cs.h,
    )


def intersection_area(a: Box, b: Box) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def union_area(a: Box, b: Box) -> float:
    return a.area + b.area - intersection_area(a, b)


def iou(a: Box, b: Box) -> float:
    """Intersection over union, in [0, 1]."""
    inter = intersection_area(a, b)
    return inter / (a.area + b.area - inter)


def enclosing_area(a: Box, b: Box) -> float:
    """Area of the smallest axis-aligned box containing both."""
    return (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))


def giou(a: Box, b: Box) -> float:
    """Generalized IoU: iou minus the enclosing-box penalty, in (-1, 1].

    Equals plain IoU whenever the enclosing box coincides with the union.
    Far-apart small boxes approach -1; identical boxes give exactly 1.
    """
    u = union_area(a, b)
    c = enclosing_area(a, b)
    return intersection_area(a, b) / u - (c - u) / c


# ------------------------------------------------------------ array kernels

def corners(boxes) -> np.ndarray:
    """(N, 4) float array of the boxes' corners, in Box field order."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)


def corner_rows(rows) -> np.ndarray:
    """A new (N, 4) corner array of `rows`, each row by Box's rule.

    A row is refused, with Box's message, when a coordinate is not finite
    or when it has no area once clamped.  Only coordinates outside [0, 1]
    are clamped, so a -0.0 inside stays -0.0, as it does in a Box.
    """
    raw = np.asarray(rows, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != 4:
        raise ValidationError(f"box rows must be an (N, 4) array, got shape {raw.shape}")
    c = np.where(raw < 0.0, 0.0, np.where(raw > 1.0, 1.0, raw))
    refused = (~np.isfinite(raw).all(axis=1) | (c[:, 2] - c[:, 0] <= _MIN_EXTENT)
               | (c[:, 3] - c[:, 1] <= _MIN_EXTENT))
    if refused.any():
        Box(*raw[np.argmax(refused)].tolist())   # raises with Box's message
    return c


def _inter_union(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union areas of each row pair, in the scalar order."""
    ax1, ay1, ax2, ay2 = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bx1, by1, bx2, by2 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
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
    """giou of each row of `a` with the same row of `b`, both (N, 4) corners.

    Performs the IEEE operations of the scalar `giou`, in the same order, so
    for rows that are valid boxes each element equals
    giou(Box(*a[i]), Box(*b[i])) bit for bit.  Rows are not validated: this
    is also the kernel of finite-difference probes.
    """
    inter, u = _inter_union(a, b)
    c = ((np.maximum(a[:, 2], b[:, 2]) - np.minimum(a[:, 0], b[:, 0]))
         * (np.maximum(a[:, 3], b[:, 3]) - np.minimum(a[:, 1], b[:, 1])))
    return inter / u - (c - u) / c


def sum_in_order(values: np.ndarray) -> float:
    """0.0 + v[0] + v[1] + ..., left to right, as an `acc += v` loop adds.

    np.sum adds pairwise and can differ in the last bit; a cumulative sum
    is sequential.
    """
    if values.shape[0] == 0:
        return 0.0
    # + 0.0 is the loop's starting value: it turns an all -0.0 sum into 0.0.
    return float(np.cumsum(values)[-1]) + 0.0
