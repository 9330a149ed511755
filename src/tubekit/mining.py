"""Ground-truth-aligned tube mining.

Scores every tube of a clip against an annotated interval with a weighted
sum of four costs and picks the cheapest:

    total = w_cls * mean(1 - confidence)          over GT frames
          + w_bbox * mean(center-size L1)         over GT frames
          + w_giou * mean(1 - giou)               over GT frames
          + w_temp * temporal cost                over the full clip

The temporal term measures frame-to-frame smoothness of the tube itself and
deliberately covers all frames, not just the annotated span, so a tube that
wanders outside the interval pays for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import Tube
from .errors import ValidationError
from .geometry import corner_rows, giou_pairs, sum_in_order
from .geometry import giou  # noqa: F401  (kept: perfbench counts giou calls through this name)


@dataclass(frozen=True)
class GtTube:
    """Dense per-frame annotation over an inclusive frame interval [ts, te]:
    boxes is a read-only (L, 4) corner array, L = te - ts + 1, whose row i
    is the box of frame ts + i, each row by Box's rule."""

    ts: int
    te: int
    boxes: np.ndarray

    def __post_init__(self):
        if self.ts > self.te:
            raise ValidationError(f"empty GT interval [{self.ts}, {self.te}]")
        boxes = corner_rows(self.boxes)
        if boxes.shape[0] != self.length:
            raise ValidationError(f"GT interval [{self.ts}, {self.te}] has {self.length} "
                                  f"frames but {boxes.shape[0]} boxes")
        boxes.setflags(write=False)
        object.__setattr__(self, "boxes", boxes)

    @property
    def length(self) -> int:
        return self.te - self.ts + 1


@dataclass(frozen=True)
class CostWeights:
    w_cls: float = 1.0
    w_bbox: float = 5.0
    w_giou: float = 3.0
    w_temp: float = 2.0

    def __post_init__(self):
        for name in ("w_cls", "w_bbox", "w_giou", "w_temp"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValidationError(f"{name} must be finite and nonnegative, got {v}")


@dataclass(frozen=True)
class CostBreakdown:
    c_cls: float
    c_bbox: float
    c_giou: float
    c_temp: float
    total: float


def _center_size_l1_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of absolute differences in (cx, cy, w, h) of each row of `a` with
    the same row of `b`, both (N, 4) corners, added in that order."""
    dcx = np.abs(0.5 * (a[:, 0] + a[:, 2]) - 0.5 * (b[:, 0] + b[:, 2]))
    dcy = np.abs(0.5 * (a[:, 1] + a[:, 3]) - 0.5 * (b[:, 1] + b[:, 3]))
    dw = np.abs((a[:, 2] - a[:, 0]) - (b[:, 2] - b[:, 0]))
    dh = np.abs((a[:, 3] - a[:, 1]) - (b[:, 3] - b[:, 1]))
    return dcx + dcy + dw + dh


def corner_temporal_cost(c: np.ndarray) -> float:
    """Mean (1 - giou) over consecutive rows of a (T >= 2, 4) corner array.

    This is both the mining temporal cost and the consistency geometry loss,
    so the two agree bit for bit on the same boxes.
    """
    return sum_in_order(1.0 - giou_pairs(c[:-1], c[1:])) / (c.shape[0] - 1)


def _tube_corners(tube: Tube) -> np.ndarray:
    n = len(tube.t)
    if n < 2:
        raise ValidationError(f"temporal cost needs at least 2 records, tube {tube.slot_id} has {n}")
    return tube.boxes


def temporal_cost(tube: Tube) -> float:
    """Mean (1 - giou) over consecutive box pairs; needs at least 2 records."""
    return corner_temporal_cost(_tube_corners(tube))


def match_cost(tube: Tube, gt: GtTube, weights: CostWeights | None = None) -> CostBreakdown:
    """Cost of one tube against the annotation.  The tube must cover every
    frame of the GT interval (association guarantees full-clip coverage)."""
    if weights is None:
        weights = CostWeights()
    frames = np.arange(gt.ts, gt.te + 1)
    missing = frames[~np.isin(frames, tube.t)]
    if missing.size:
        raise ValidationError(
            f"tube {tube.slot_id} does not cover GT frames {missing[:5].tolist()}")
    c = _tube_corners(tube)
    on_gt = np.searchsorted(tube.t, frames)

    # Per-frame terms summed left to right, in frame order.
    n = gt.length
    c_cls = sum_in_order(1.0 - tube.scores[on_gt]) / n
    c_bbox = sum_in_order(_center_size_l1_pairs(c[on_gt], gt.boxes)) / n
    c_giou = sum_in_order(1.0 - giou_pairs(c[on_gt], gt.boxes)) / n
    c_temp = corner_temporal_cost(c)
    total = (weights.w_cls * c_cls + weights.w_bbox * c_bbox
             + weights.w_giou * c_giou + weights.w_temp * c_temp)
    return CostBreakdown(c_cls=c_cls, c_bbox=c_bbox, c_giou=c_giou,
                         c_temp=c_temp, total=total)


def mine_best_tube(tubes: list[Tube], gt: GtTube,
                   weights: CostWeights | None = None) -> tuple[int, list[CostBreakdown]]:
    """Index of the cheapest tube plus every tube's breakdown.

    Ties go to the lowest index, so the result is deterministic for
    duplicated tubes.
    """
    if not tubes:
        raise ValidationError("mine_best_tube needs at least one tube")
    breakdowns = [match_cost(tube, gt, weights) for tube in tubes]
    return int(np.argmin([b.total for b in breakdowns])), breakdowns   # the first of equals
