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

All k tubes are scored in one batched kernel: their columns are laid end to
end, the GT frames of each tube form a (k, L) index, and the temporal term
takes a (k, T_max) box array in which a shorter tube repeats its last box,
a pair that adds exactly 0.0.  `sum_in_order` adds each row left to right,
so every cost equals, bit for bit, the per-frame loop over that tube alone;
match_cost is the kernel's k = 1 call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import Tube
from .errors import ValidationError
from .geometry import corner_rows, giou_pairs, hold, hold_within, integer, sum_in_order
from .geometry import giou  # noqa: F401  (kept: perfbench counts giou calls through this name)


@dataclass(frozen=True)
class GtTube:
    """Dense per-frame annotation over an inclusive frame interval [ts, te],
    ints by the rule of `integers`: boxes is a read-only (L, 4) corner
    array, L = te - ts + 1, whose row i is the box of frame ts + i, each
    row by Box's rule."""

    ts: int
    te: int
    boxes: np.ndarray

    def __post_init__(self):
        hold(self, **{key: integer(getattr(self, key), key) for key in ("ts", "te")})
        if self.ts > self.te:
            raise ValidationError(f"empty GT interval [{self.ts}, {self.te}]")
        boxes = corner_rows(self.boxes)
        if boxes.shape[0] != self.length:
            raise ValidationError(f"GT interval [{self.ts}, {self.te}] has {self.length} "
                                  f"frames but {boxes.shape[0]} boxes")
        hold(self, boxes=boxes)

    @property
    def length(self) -> int:
        return self.te - self.ts + 1


@dataclass(frozen=True)
class CostWeights:
    """Weights, each finite and >= 0, of the mining cost's class, box, GIoU and temporal terms."""

    w_cls: float = 1.0
    w_bbox: float = 5.0
    w_giou: float = 3.0
    w_temp: float = 2.0

    def __post_init__(self):
        hold_within(self, float, "[0, inf)", "w_cls", "w_bbox", "w_giou", "w_temp")


@dataclass(frozen=True)
class CostBreakdown:
    """A mining cost's class, box L1, GIoU and temporal terms, and their weighted total."""

    c_cls: float
    c_bbox: float
    c_giou: float
    c_temp: float
    total: float


def _center_size_l1_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of absolute differences in (cx, cy, w, h) of each row of `a` with
    the same row of `b`, corner arrays (..., 4) that broadcast, added in
    that order."""
    dcx = np.abs(0.5 * (a[..., 0] + a[..., 2]) - 0.5 * (b[..., 0] + b[..., 2]))
    dcy = np.abs(0.5 * (a[..., 1] + a[..., 3]) - 0.5 * (b[..., 1] + b[..., 3]))
    dw = np.abs((a[..., 2] - a[..., 0]) - (b[..., 2] - b[..., 0]))
    dh = np.abs((a[..., 3] - a[..., 1]) - (b[..., 3] - b[..., 1]))
    return dcx + dcy + dw + dh


def _temporal_costs(c: np.ndarray, n) -> np.ndarray:
    """Mean (1 - giou) over consecutive boxes of each row of a (k, T, 4)
    corner array, row i of n[i] >= 2 boxes followed by copies of its last:
    a copy pairs at giou exactly 1, so it adds exactly 0.0."""
    return sum_in_order(1.0 - giou_pairs(c[:, :-1], c[:, 1:])) / (n - 1)


def corner_temporal_cost(c: np.ndarray) -> float:
    """Mean (1 - giou) over consecutive rows of a (T >= 2, 4) corner array.

    This is both the mining temporal cost and the consistency geometry loss,
    so the two agree bit for bit on the same boxes.
    """
    return _temporal_costs(c[None], c.shape[0]).item()


def _too_short(tube: Tube) -> ValidationError:
    return ValidationError(f"temporal cost needs at least 2 records, tube {tube.slot_id} "
                           f"has {len(tube.t)}")


def temporal_cost(tube: Tube) -> float:
    """Mean (1 - giou) over consecutive box pairs; needs at least 2 records."""
    if len(tube.t) < 2:
        raise _too_short(tube)
    return corner_temporal_cost(tube.boxes)


def _costs(tubes: list[Tube], gt: GtTube, weights: CostWeights) -> list[CostBreakdown]:
    """Every tube's CostBreakdown, from the k tubes' columns laid end to
    end.  A tube must cover every frame of the GT interval
    (association guarantees full-clip coverage) and hold 2 records; the
    first tube that does not is refused."""
    n = np.array([len(tube.t) for tube in tubes])
    start = np.cumsum(n) - n
    t = np.concatenate([tube.t for tube in tubes])
    before = np.r_[0, np.cumsum(t < gt.ts)]   # rows before frame ts, to each row
    first = start + before[start + n] - before[start]   # each tube's row of frame ts, if any
    last = first + gt.length - 1
    # Frames strictly increase, so rows first .. last on ts and te hold every GT frame.
    covers = last < start + n
    covers[covers] = (t[first[covers]] == gt.ts) & (t[last[covers]] == gt.te)
    if (refused := ~covers | (n < 2)).any():
        tube = tubes[i := int(np.argmax(refused))]
        if covers[i]:   # so it holds fewer than 2 records
            raise _too_short(tube)
        frames = np.arange(gt.ts, gt.te + 1)
        raise ValidationError(f"tube {tube.slot_id} does not cover GT frames "
                              f"{frames[~np.isin(frames, tube.t)][:5].tolist()}")

    # Per-frame terms summed left to right, in frame order, each tube a row.
    boxes = np.concatenate([tube.boxes for tube in tubes])
    on_gt = first[:, None] + np.arange(gt.length)
    scores = np.concatenate([tube.scores for tube in tubes])[on_gt]
    c_cls = sum_in_order(1.0 - scores) / gt.length
    c_bbox = sum_in_order(_center_size_l1_pairs(boxes[on_gt], gt.boxes)) / gt.length
    c_giou = sum_in_order(1.0 - giou_pairs(boxes[on_gt], gt.boxes)) / gt.length
    # Each tube a row of n.max() boxes, padded with copies of its last.
    padded = start[:, None] + np.minimum(np.arange(n.max()), n[:, None] - 1)
    c_temp = _temporal_costs(boxes[padded], n)
    totals = (weights.w_cls * c_cls + weights.w_bbox * c_bbox
              + weights.w_giou * c_giou + weights.w_temp * c_temp)
    return [CostBreakdown(*terms) for terms in zip(
        c_cls.tolist(), c_bbox.tolist(), c_giou.tolist(), c_temp.tolist(), totals.tolist())]


def match_cost(tube: Tube, gt: GtTube, weights: CostWeights = CostWeights()) -> CostBreakdown:
    """Cost of one tube against the annotation.  The tube must cover every
    frame of the GT interval (association guarantees full-clip coverage)."""
    return _costs([tube], gt, weights)[0]


def mine_best_tube(tubes: list[Tube], gt: GtTube,
                   weights: CostWeights = CostWeights()) -> tuple[int, list[CostBreakdown]]:
    """Index of the cheapest tube plus every tube's breakdown.

    Ties go to the lowest index, so the result is deterministic for
    duplicated tubes.
    """
    if not tubes:
        raise ValidationError("mine_best_tube needs at least one tube")
    breakdowns = _costs(tubes, gt, weights)
    return int(np.argmin([b.total for b in breakdowns])), breakdowns   # the first of equals
