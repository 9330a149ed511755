"""Temporal consistency losses over a mined tube, with analytic gradients.

Two losses, both averages over the T-1 consecutive pairs of a tube:

    feature loss   mean(1 - cos(q_t, q_{t+1}))      on the feature rows
    geometry loss  mean(1 - giou(b_t, b_{t+1}))     on the boxes

The geometry loss is piecewise smooth.  Its gradient exists only where
consecutive boxes strictly overlap and share no coordinate value; at
touching edges or partially tied coordinates we refuse with NonSmoothError
rather than silently pick a subgradient.  The one exception is a pair of
exactly identical boxes: that is the global minimum of the pair term
(a symmetric kink), and its gradient contribution is defined as zero so a
constant tube reports zero gradients everywhere.

Both halves work on whole arrays.  A row-pair kernel, cos_pairs for the
features and giou_pairs for the boxes, gives every pair term at once to the
loss and to grad_check's probe; the feature gradient reuses cos_pairs.  The
box gradient is one kernel, _giou_grad, the derivative in the pair's first
box, applied to the second box with the pair swapped: GIoU is symmetric, so
the bits are those of a kernel written for each box.  Pair t-1 adds to row t
before pair t does, as in a per-pair loop, so the array code keeps the
loop's bits.

grad_check differences each coordinate's two pair terms only, and skips a
box coordinate whose step h reaches a kink: the same coordinate of a
neighbouring box, or a pair's zero intersection width or height.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import Tube
from .errors import NonSmoothError, ValidationError
from .assignment import checked_norms, cos_pairs
from .geometry import corner_rows, giou_pairs, hold, hold_within, numbers, sum_in_order, within
from .geometry import giou  # noqa: F401  (kept: perfbench counts giou calls through this name)
from .mining import corner_temporal_cost


@dataclass(frozen=True)
class MinedTube:
    """Dense tube handed to the losses: (T, D) feature rows and (T, 4)
    corner boxes, both read-only, the features C-ordered."""

    features: np.ndarray
    boxes: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(numbers(self.features, "features"))
        if f.ndim != 2 or f.shape[0] < 2:
            raise ValidationError(f"features must be (T >= 2, D), got {f.shape}")
        boxes = corner_rows(self.boxes)
        if boxes.shape[0] != f.shape[0]:
            raise ValidationError(
                f"{boxes.shape[0]} boxes for {f.shape[0]} feature rows")
        checked_norms(f, "features contain a row whose norm is zero or overflows, or NaN")
        hold(self, features=f, boxes=boxes)

    @property
    def length(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_tube(cls, tube: Tube) -> "MinedTube":
        if tube.features is None:
            raise ValidationError(
                f"tube {tube.slot_id} carries no embeddings; write the tube "
                "file with embeddings included")
        return cls(features=tube.features, boxes=tube.boxes)


@dataclass(frozen=True)
class LossWeights:
    """Weights, each finite and >= 0, of the geometry and feature consistency losses."""

    w_temp: float = 2.0
    w_feat: float = 1.0

    def __post_init__(self):
        hold_within(self, float, "[0, inf)", "w_temp", "w_feat")


@dataclass(frozen=True)
class Gradients:
    """Gradients of the feature loss, (T, D), and of the geometry loss, (T, 4) corners."""

    d_features: np.ndarray  # (T, D), gradient of the feature loss
    d_boxes: np.ndarray     # (T, 4), gradient of the geometry loss, corner order


@dataclass(frozen=True)
class GradCheckReport:
    """Central differences against the gradients: worst errors, kinks skipped, step."""

    max_rel_error: float
    max_abs_analytic: float
    max_abs_numeric: float
    skipped_kink_coords: int
    step: float


# Floor for the relative-error denominator.  Components below this magnitude
# are compared absolutely at this scale: central differences carry roundoff
# of about 1e-10 at h = 1e-6, which would swamp a plain relative error on
# near-zero components while a genuine formula error still shows up well
# above any sensible tolerance.
_REL_GUARD = 1e-3


def feature_loss(tube: MinedTube) -> float:
    f = tube.features
    return sum_in_order(1.0 - cos_pairs(f[:-1], f[1:])[0]) / (f.shape[0] - 1)


def geom_loss(tube: MinedTube) -> float:
    # The mining temporal cost itself, so the two agree bit for bit.
    return corner_temporal_cost(tube.boxes)


def combined_loss(tube: MinedTube, weights: LossWeights = LossWeights()) -> float:
    """w_temp * geometry loss + w_feat * feature loss."""
    return weights.w_temp * geom_loss(tube) + weights.w_feat * feature_loss(tube)


def _check_smooth(a: np.ndarray, b: np.ndarray, iw: np.ndarray, ih: np.ndarray,
                  identical: np.ndarray) -> None:
    """Refuse at the first pair, in frame order, that sits at a kink.

    a and b are the (T-1, 4) corners of the first and second box of each
    consecutive pair, iw and ih their intersection extents.
    """
    apart = (iw <= 0.0) | (ih <= 0.0)
    kinked = ~identical & (apart | (a == b).any(axis=1))
    if kinked.any():
        t = int(np.argmax(kinked))
        if apart[t]:
            raise NonSmoothError(
                f"non-smooth point: boxes at frames {t} and {t + 1} touch or do not overlap")
        raise NonSmoothError(
            f"non-smooth point: boxes at frames {t} and {t + 1} share a coordinate")


def _giou_grad(a: np.ndarray, b: np.ndarray, iw: np.ndarray, ih: np.ndarray) -> np.ndarray:
    """d giou(a, b) / d a for each row pair of two (N, 4) corner arrays, all
    strictly overlapping and untied; iw and ih are their intersection extents.

    With I the intersection, U the union and C the enclosing area,
    giou = I/U - 1 + U/C, so

        d giou = (I' U - I U') / U^2 + (U' C - U C') / C^2 .

    Each of I, U, C is bilinear in whichever corner the min/max picks, which
    is why tied coordinates have no derivative.  giou, iw and ih are
    symmetric in a and b, and min, max, + and * commute, so
    _giou_grad(b, a, iw, ih) is d giou / d b, bit for bit.
    """
    ax1, ay1, ax2, ay2 = a.T
    bx1, by1, bx2, by2 = b.T
    inter = iw * ih
    wa, ha = ax2 - ax1, ay2 - ay1
    u = wa * ha + (bx2 - bx1) * (by2 - by1) - inter
    cw = np.maximum(ax2, bx2) - np.minimum(ax1, bx1)
    ch = np.maximum(ay2, by2) - np.minimum(ay1, by1)
    c = cw * ch

    def pick(cond, v):
        return np.where(cond, v, 0.0)

    di = np.stack([pick(ax1 > bx1, -ih), pick(ay1 > by1, -iw),
                   pick(ax2 < bx2, ih), pick(ay2 < by2, iw)], axis=1)
    du = np.stack([-ha, -wa, ha, wa], axis=1) - di
    dc = np.stack([pick(ax1 < bx1, -ch), pick(ay1 < by1, -cw),
                   pick(ax2 > bx2, ch), pick(ay2 > by2, cw)], axis=1)
    inter, u, c = inter[:, None], u[:, None], c[:, None]
    return (di * u - inter * du) / (u * u) + (du * c - u * dc) / (c * c)


def _pair_extents(boxes: np.ndarray):
    """First and second corners of each consecutive pair, with the pair's
    intersection width and height."""
    a, b = boxes[:-1], boxes[1:]
    return (a, b, np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0]),
            np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1]))


def loss_gradients(tube: MinedTube) -> Gradients:
    """Analytic gradients of both losses.

    Raises NonSmoothError when any consecutive box pair sits at a kink of the
    geometry loss, except exactly identical pairs, whose contribution is zero
    by the flat-minimum convention described in the module docstring.
    """
    f = tube.features
    n = f.shape[0]
    scale = 1.0 / (n - 1)

    # d cos(u, v) / du = v/(|u||v|) - cos u/|u|^2, orthogonal to u.
    u, v = f[:-1], f[1:]
    cos, nu, nv = (c[:, None] for c in cos_pairs(u, v))
    d_features = np.zeros_like(f)
    d_features[1:] -= scale * (u / (nu * nv) - cos * v / (nv * nv))
    d_features[:-1] -= scale * (v / (nu * nv) - cos * u / (nu * nu))

    a, b, iw, ih = _pair_extents(tube.boxes)
    identical = (a == b).all(axis=1)
    _check_smooth(a, b, iw, ih, identical)
    # Identical pairs contribute nothing.
    keep = ~identical[:, None]
    d_boxes = np.zeros((n, 4), dtype=float)
    d_boxes[1:] -= np.where(keep, scale * _giou_grad(b, a, iw, ih), 0.0)
    d_boxes[:-1] -= np.where(keep, scale * _giou_grad(a, b, iw, ih), 0.0)
    return Gradients(d_features=d_features, d_boxes=d_boxes)


def _local_differences(x: np.ndarray, pair_cost, h: float) -> np.ndarray:
    """Central differences of mean(pair_cost(x[:-1], x[1:])) for every entry.

    Entry (t, k) enters only pairs (t-1, t) and (t, t+1), so each probe moves
    column k of every row at once and re-evaluates just those two terms
    against the unmoved neighbours.
    """
    def terms(k: int, step: float) -> np.ndarray:
        moved = x.copy()
        moved[:, k] += step
        return np.r_[0.0, pair_cost(x[:-1], moved[1:])] + np.r_[pair_cost(moved[:-1], x[1:]), 0.0]

    num = np.stack([terms(k, h) - terms(k, -h) for k in range(x.shape[1])], axis=1)
    return num / (2.0 * h) / (x.shape[0] - 1)


def grad_check(tube: MinedTube, h: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Every feature component is checked.  A box coordinate is skipped and
    counted in skipped_kink_coords when a kink of its two pair terms lies
    within h: the same coordinate of box t-1 or t+1 is within h of it, or
    either pair's intersection width or height is within h of 0.  Relative
    error floors its denominator at 1e-3, so components near zero are
    compared absolutely at that scale.  A step that moves a feature row to a
    norm that is not finite and positive is refused before any probe.
    """
    h = within(h, "step", "(0, inf)")
    # The probe moves one entry of a row by h either way.  The moved norm is
    # largest with the row's largest |entry| moved away from 0, and smallest
    # with it moved toward 0: those two rows stand for every row probed.
    a = np.abs(tube.features)
    for step in (h, -h):
        moved = a.copy()
        moved[np.arange(a.shape[0]), a.argmax(axis=1)] += step
        checked_norms(moved, f"step {h} moves a feature row to a norm that is not finite "
                             "and positive")
    grads = loss_gradients(tube)
    boxes = tube.boxes
    a, b, iw, ih = _pair_extents(boxes)
    pair_kink = (np.abs(a - b) <= h) | ((iw <= h) | (ih <= h))[:, None]
    kinked = np.pad(pair_kink, ((0, 1), (0, 0))) | np.pad(pair_kink, ((1, 0), (0, 0)))

    ana = np.concatenate([grads.d_features.ravel(), grads.d_boxes[~kinked]])
    num = np.concatenate([
        _local_differences(tube.features, lambda a, b: 1.0 - cos_pairs(a, b)[0], h).ravel(),
        _local_differences(boxes, lambda a, b: 1.0 - giou_pairs(a, b), h)[~kinked]])
    rel = np.abs(ana - num) / np.maximum(np.maximum(np.abs(ana), np.abs(num)), _REL_GUARD)
    return GradCheckReport(
        max_rel_error=float(np.max(rel)),
        max_abs_analytic=float(max(np.max(np.abs(grads.d_features)),
                                   np.max(np.abs(grads.d_boxes)))),
        max_abs_numeric=float(np.max(np.abs(num))),
        skipped_kink_coords=int(kinked.sum()),
        step=h)
