"""Exposure-bias model of autoregressive box decoding.

A decoder that emits boxes as text must get every token right to stay on the
ground-truth track.  With an independent per-token error rate eps over a
stream of L tokens, the chance of a fully clean decode is (1 - eps)^L, with
first-order linearization 1 - L*eps.  The Monte Carlo side walks the stream
frame by frame (each frame consumes a fixed token budget); from the first bad
token onward the emitted box is the true box displaced by a random-walk
offset of per-frame scale drift_step, so a zero drift_step reproduces the
truth exactly no matter how many token errors occur.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import corner_rows, hold_within, within
from .metrics import split_fifths


def p_error_free(length: int, per_step_error: float) -> tuple[float, float]:
    """Exact clean-decode probability (1 - eps)^L and its linearization.

    The linearization undershoots by at most (L * eps)^2 / 2 while L * eps < 1.
    """
    length = within(length, "length", "[1, inf)", int)
    per_step_error = within(per_step_error, "per_step_error", "[0, 1)")
    exact = (1.0 - per_step_error) ** length
    linear = 1.0 - length * per_step_error
    return exact, linear


@dataclass(frozen=True)
class ExposureConfig:
    """A decoding run: per-step error in [0, 1), trials, drift, token budget, seed."""

    per_step_error: float
    trials: int
    drift_step: float = 0.05
    token_budget: int = 4
    seed: int = 0

    def __post_init__(self):
        hold_within(self, int, "[1, inf)", "trials", "token_budget")
        hold_within(self, int, "[0, inf)", "seed")
        hold_within(self, float, "[0, 1)", "per_step_error")
        hold_within(self, float, "[0, inf)", "drift_step")


@dataclass(frozen=True)
class DecodingReport:
    """Error-free rates (empirical, analytic, linearized) and mean IoU per fifth of the track."""

    empirical_error_free: float
    analytic_error_free: float
    linearized_error_free: float
    profile: list[float]   # mean IoU per fifth of the track


def simulate_decoding(cfg: ExposureConfig, gt_boxes) -> DecodingReport:
    """Monte Carlo decode of a ground-truth track.

    gt_boxes is the dense track being decoded, a (T, 4) corner array with
    each row by Box's rule; the stream is T times the token budget tokens
    long.  Needs at least 5 frames so the five-part profile is defined.
    """
    corners = corner_rows(gt_boxes)
    T = corners.shape[0]
    if T < 5:
        raise ValidationError(f"need at least 5 ground-truth boxes, got {T}")

    rng = np.random.default_rng(cfg.seed)
    R = cfg.trials
    L = T * cfg.token_budget

    if cfg.per_step_error == 0.0:
        first_error = np.full(R, L + 1, dtype=np.int64)
    else:
        first_error = rng.geometric(cfg.per_step_error, size=R)
    clean = first_error > L
    # frame containing the first bad token; clean trials point past the end
    error_frame = np.where(clean, T, (first_error - 1) // cfg.token_budget)

    steps = rng.normal(0.0, cfg.drift_step, size=(R, T, 2))
    corrupted = np.arange(T)[None, :] >= error_frame[:, None]   # (R, T)
    offsets = np.cumsum(steps * corrupted[:, :, None], axis=1)  # (R, T, 2)

    w = corners[:, 2] - corners[:, 0]
    h = corners[:, 3] - corners[:, 1]
    gt_cx = 0.5 * (corners[:, 0] + corners[:, 2])
    gt_cy = 0.5 * (corners[:, 1] + corners[:, 3])

    cx = np.clip(gt_cx[None, :] + offsets[:, :, 0], w[None, :] / 2, 1 - w[None, :] / 2)
    cy = np.clip(gt_cy[None, :] + offsets[:, :, 1], h[None, :] / 2, 1 - h[None, :] / 2)

    # Same sizes, shifted centers: IoU has a closed form.
    dx = np.abs(cx - gt_cx[None, :])
    dy = np.abs(cy - gt_cy[None, :])
    inter = np.maximum(w[None, :] - dx, 0.0) * np.maximum(h[None, :] - dy, 0.0)
    iou = inter / (2.0 * w[None, :] * h[None, :] - inter)       # (R, T)

    profile = []
    for ps, pe in split_fifths(0, T - 1):
        profile.append(float(np.mean(iou[:, ps:pe + 1])))

    exact, linear = p_error_free(L, cfg.per_step_error)
    return DecodingReport(
        empirical_error_free=float(np.mean(clean)),
        analytic_error_free=exact,
        linearized_error_free=linear,
        profile=profile,
    )
