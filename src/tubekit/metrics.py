"""Tube selection and spatio-temporal grounding metrics.

Intervals are inclusive frame-index ranges, so [0, 9] spans 10 frames.
Temporal IoU counts frames; spatial vIoU averages per-frame box IoU over the
frames both intervals share, normalized by the size of their union:

    v_iou = (1 / |S_u|) * sum_{t in S_i} iou(pred_t, gt_t)

which makes v_iou <= |S_i| / |S_u| with equality at perfect boxes.

The drift profile splits the GT interval into five contiguous parts (longer
parts first when the length is not divisible by 5) and reports the mean box
IoU per part; a prediction that decays over time shows a falling profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import Tube
from .errors import ValidationError
from .geometry import corner_rows, hold, integer, iou_pairs, pair, sum_in_order, within
from .geometry import iou  # noqa: F401  (kept: perfbench counts iou calls through this name)
from .mining import GtTube


@dataclass(frozen=True)
class Prediction:
    """Predicted interval [ts, te] plus boxes contiguous from frame t0,
    every frame an int by the rule of `integers`: boxes is a read-only
    (K, 4) corner array whose row i is the box of frame t0 + i, each row
    by Box's rule, and [ts, te] lies within [t0, t0 + K - 1]."""

    ts: int
    te: int
    t0: int
    boxes: np.ndarray

    def __post_init__(self):
        hold(self, **{key: integer(getattr(self, key), key) for key in ("ts", "te", "t0")})
        if self.ts > self.te:
            raise ValidationError(f"empty predicted interval [{self.ts}, {self.te}]")
        boxes = corner_rows(self.boxes)
        if not boxes.shape[0]:
            raise ValidationError("prediction has no boxes")
        last = integer(self.t0 + boxes.shape[0] - 1, "t")   # a box's frame, as files hold it
        if self.ts < self.t0 or self.te > last:
            raise ValidationError(
                f"predicted interval [{self.ts}, {self.te}] extends past the "
                f"predicted boxes [{self.t0}, {last}]")
        hold(self, boxes=boxes)

    @classmethod
    def from_tube(cls, tube: Tube, ts: int, te: int) -> "Prediction":
        """The prediction of [ts, te] that carries all the tube's boxes; the
        tube's frames must be contiguous."""
        t = tube.t
        if len(t) and t[-1] - t[0] + 1 != len(t):   # t is strictly increasing
            raise ValidationError("prediction boxes must cover a contiguous frame range")
        return cls(ts=ts, te=te, t0=int(t[0]) if len(t) else 0, boxes=tube.boxes)


def select_tube(tubes: list[Tube]) -> int:
    """Index of the tube with the highest mean confidence; ties go to the
    lowest index.  All tubes must span the same frames."""
    if not tubes:
        raise ValidationError("select_tube needs at least one tube")
    spans = {t.t.tobytes() for t in tubes}
    if len(spans) != 1:
        raise ValidationError("tubes disagree on their frame span")
    return int(np.argmax([tube.mean_score() for tube in tubes]))   # the first of equals


def _interval_len(s: int, e: int) -> int:
    return e - s + 1


def t_iou(a: tuple[int, int], b: tuple[int, int]) -> float:
    """Temporal IoU of two inclusive frame intervals."""
    (s1, e1), (s2, e2) = (pair(x, "interval") for x in (a, b))
    if s1 > e1 or s2 > e2:
        raise ValidationError(f"empty interval in t_iou: {a}, {b}")
    inter = max(0, min(e1, e2) - max(s1, s2) + 1)
    union = _interval_len(s1, e1) + _interval_len(s2, e2) - inter
    return inter / union


def v_iou(pred: Prediction, gt: GtTube) -> float:
    """Spatio-temporal IoU of a prediction against the annotation."""
    lo = max(pred.ts, gt.ts)
    n_i = max(0, min(pred.te, gt.te) - lo + 1)
    s_u = _interval_len(pred.ts, pred.te) + _interval_len(gt.ts, gt.te) - n_i
    return sum_in_order(_frame_ious(pred, gt, lo, n_i)) / s_u


def _frame_ious(pred: Prediction, gt: GtTube, lo: int, n: int) -> np.ndarray:
    """Box IoU of the prediction and the GT on frames lo .. lo + n - 1,
    which both cover."""
    return iou_pairs(pred.boxes[lo - pred.t0:lo - pred.t0 + n],
                     gt.boxes[lo - gt.ts:lo - gt.ts + n])


def split_fifths(s: int, e: int) -> list[tuple[int, int]]:
    """Five contiguous parts of [s, e]; the remainder goes to the earliest
    parts, so 12 frames split as 3, 3, 2, 2, 2."""
    s, e = integer(s, "s"), integer(e, "e")
    n = _interval_len(s, e)
    if n < 5:
        raise ValidationError(f"interval [{s}, {e}] is too short to split into fifths")
    base, rem = divmod(n, 5)
    parts = []
    start = s
    for i in range(5):
        size = base + (1 if i < rem else 0)
        parts.append((start, start + size - 1))
        start += size
    return parts


def drift_profile(pred: Prediction, gt: GtTube) -> list[float]:
    """Mean per-frame box IoU over each fifth of the GT interval."""
    parts = split_fifths(gt.ts, gt.te)
    have = range(pred.t0, pred.t0 + pred.boxes.shape[0])
    if gt.ts not in have or gt.te not in have:
        missing = [t for t in range(gt.ts, gt.te + 1) if t not in have]
        raise ValidationError(f"prediction lacks boxes at GT frames {missing[:5]}")
    ious = _frame_ious(pred, gt, gt.ts, gt.length)
    return [float(np.mean(ious[ps - gt.ts:pe - gt.ts + 1])) for ps, pe in parts]


@dataclass(frozen=True)
class SampleResult:
    """One sample's tIoU and vIoU."""

    t_iou: float
    v_iou: float


@dataclass(frozen=True)
class EvalReport:
    """Per-sample results, their mean tIoU and vIoU, and the vIoU@threshold rates."""

    samples: list[SampleResult]
    m_t_iou: float
    m_v_iou: float
    v_iou_at: dict[float, float]


def evaluate(samples: list[tuple[Prediction, GtTube]],
             thresholds: tuple[float, ...] = (0.3, 0.5)) -> EvalReport:
    """Per-sample tIoU and vIoU plus their means and vIoU@threshold rates.

    Aggregates are plain means and fractions, so they are invariant to the
    order of samples.
    """
    if not samples:
        raise ValidationError("evaluate needs at least one sample")
    thresholds = [within(tau, "threshold", "[0, 1]") for tau in thresholds]
    if twice := [tau for i, tau in enumerate(thresholds) if tau in thresholds[:i]]:
        raise ValidationError(f"threshold {twice[0]} is given more than once")
    results = []
    for pred, gt in samples:
        results.append(SampleResult(
            t_iou=t_iou((pred.ts, pred.te), (gt.ts, gt.te)),
            v_iou=v_iou(pred, gt)))
    m_t = float(np.mean([r.t_iou for r in results]))
    m_v = float(np.mean([r.v_iou for r in results]))
    at = {tau: float(np.mean([1.0 if r.v_iou >= tau else 0.0 for r in results]))
          for tau in thresholds}
    return EvalReport(samples=results, m_t_iou=m_t, m_v_iou=m_v, v_iou_at=at)
