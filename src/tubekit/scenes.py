"""Seeded synthetic scenes with latent identity labels.

Objects move as Gaussian random walks reflected at the frame border and carry
a base appearance vector plus an accumulated Gaussian drift.  Distractor
detections with independent appearances are added at a Poisson rate per
frame.  Every detection is labeled with the latent identity that produced it
(object index, or a fresh negative id per distractor), which gives tests an
oracle for identity switches that real footage never provides.

All randomness comes from one generator seeded by the config, and every draw
happens whether or not its scale is zero, so the same seed produces the same
scene layout across noise settings and bit-identical scenes across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import FrameDetections, Tube
from .errors import ValidationError
from .geometry import hold_within
from .mining import GtTube

_MIN_EXTENT = 1e-3


@dataclass(frozen=True)
class SceneConfig:
    """A seeded synthetic clip's size, and its drift, motion, noise and distractor scales."""

    seed: int
    frames: int = 64
    objects: int = 1
    feature_dim: int = 16
    appearance_drift: float = 0.0   # per-step feature walk scale
    motion_step: float = 0.01       # per-step center walk scale
    detection_noise: float = 0.0    # corner jitter scale
    confidence_noise: float = 0.0
    distractor_rate: float = 0.0    # expected spurious detections per frame

    def __post_init__(self):
        hold_within(self, int, "[0, inf)", "seed")
        hold_within(self, int, "[2, inf)", "frames", "feature_dim")
        hold_within(self, int, "[1, inf)", "objects")
        hold_within(self, float, "[0, inf)", "appearance_drift", "motion_step",
                    "detection_noise", "confidence_noise", "distractor_rate")


@dataclass(frozen=True)
class LabeledScene:
    """A simulated clip: config, frames, each detection's latent identity, GT tube."""

    config: SceneConfig
    frames: list[FrameDetections]
    identities: list[list[int]]     # per frame, aligned with detections
    gt: GtTube


def _reflect(x: float, lo: float, hi: float) -> float:
    # Fold a coordinate back into [lo, hi] by mirroring at the borders.
    if hi <= lo:
        return 0.5 * (lo + hi)
    span = hi - lo
    if not lo - span <= x <= hi + span:
        # Farther out than one span, the mirror loop below would take about
        # |x| / span turns (forever at 1e300).  Reduce modulo the mirror
        # period first; a point within one span keeps the plain loop.
        if not math.isfinite(x):
            raise ValidationError(f"a motion step overflowed to {x}; motion_step is too large")
        x = lo + math.fmod(x - lo, 2.0 * span)
    while x < lo or x > hi:
        if x < lo:
            x = lo + (lo - x)
        else:
            x = hi - (x - hi)
    return x


def _sanitize_corners(c) -> list[float]:
    x1, y1, x2, y2 = float(c[0]), float(c[1]), float(c[2]), float(c[3])
    x1, x2 = min(x1, x2), max(x1, x2)
    y1, y2 = min(y1, y2), max(y1, y2)
    x1 = min(max(x1, 0.0), 1.0 - _MIN_EXTENT)
    y1 = min(max(y1, 0.0), 1.0 - _MIN_EXTENT)
    x2 = min(max(x2, x1 + _MIN_EXTENT), 1.0)
    y2 = min(max(y2, y1 + _MIN_EXTENT), 1.0)
    return [x1, y1, x2, y2]


def generate_scene(cfg: SceneConfig) -> LabeledScene:
    """Build one labeled scene.  Same config, same bits."""
    rng = np.random.default_rng(cfg.seed)
    T, D = cfg.frames, cfg.feature_dim

    sizes = rng.uniform(0.12, 0.3, size=(cfg.objects, 2))
    centers = rng.uniform(sizes / 2, 1 - sizes / 2)   # drawn x, y per object in turn
    base_feats = rng.normal(0.0, 1.0, size=(cfg.objects, D))
    base_feats /= np.linalg.norm(base_feats, axis=1, keepdims=True)
    base_conf = rng.uniform(0.7, 0.95, size=cfg.objects)

    # GT interval for the target (object 0): a seeded sub-interval once the
    # clip is long enough to leave room, otherwise the whole clip.
    lo = int(rng.integers(0, T // 4 + 1))
    hi = int(rng.integers((3 * T) // 4, T))
    if T >= 12:
        gt_ts, gt_te = lo, max(hi, lo)
    else:
        gt_ts, gt_te = 0, T - 1

    drift = np.zeros((cfg.objects, D))
    noise_scales = [cfg.detection_noise] * 4 + [cfg.confidence_noise]
    frames: list[FrameDetections] = []
    identities: list[list[int]] = []
    gt_boxes: list[list[float]] = []
    next_distractor = -1

    for t in range(T):
        if t > 0:
            steps = rng.normal(0.0, cfg.motion_step, size=(cfg.objects, 2))
            drift_steps = rng.normal(0.0, cfg.appearance_drift, size=(cfg.objects, D))
            for i in range(cfg.objects):
                w, h = sizes[i]
                centers[i, 0] = _reflect(centers[i, 0] + steps[i, 0], w / 2, 1 - w / 2)
                centers[i, 1] = _reflect(centers[i, 1] + steps[i, 1], h / 2, 1 - h / 2)
            drift += drift_steps

        # Per object, in object order: four corner jitters, then one
        # confidence offset, as one draw.
        noise = rng.normal(0.0, noise_scales, size=(cfg.objects, 5))
        true_corners = np.concatenate([centers - sizes / 2, centers + sizes / 2], axis=1)
        boxes = [_sanitize_corners(c) for c in true_corners + noise[:, :4]]
        scores = [min(max(conf, 0.0), 1.0) for conf in (base_conf + noise[:, 4]).tolist()]
        features = [base_feats + drift]
        ids = list(range(cfg.objects))
        if gt_ts <= t <= gt_te:
            gt_boxes.append(_sanitize_corners(true_corners[0]))

        n_spur = int(rng.poisson(cfg.distractor_rate))
        for _ in range(n_spur):
            w = rng.uniform(0.08, 0.2)
            h = rng.uniform(0.08, 0.2)
            cx = rng.uniform(w / 2, 1 - w / 2)
            cy = rng.uniform(h / 2, 1 - h / 2)
            feat = rng.normal(0.0, 1.0, size=D)
            feat /= np.linalg.norm(feat)
            boxes.append(_sanitize_corners([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2]))
            scores.append(rng.uniform(0.05, 0.5))
            features.append(feat[None])
            ids.append(next_distractor)
            next_distractor -= 1

        frames.append(FrameDetections(t, boxes, scores, np.concatenate(features)))
        identities.append(ids)

    gt = GtTube(ts=gt_ts, te=gt_te, boxes=np.array(gt_boxes))
    return LabeledScene(config=cfg, frames=frames, identities=identities, gt=gt)


def _tube_switch_rate(tube: Tube, identities: list[list[int]]) -> float:
    if len(tube.t) < 2:
        raise ValidationError("switch rate needs at least 2 records")
    if tube.det[0] < 0:
        raise ValidationError("tube starts with a gap record")
    labels = []
    for t, det in zip(tube.t.tolist(), tube.det.tolist()):
        if det >= 0:   # a gap keeps the label of the box it repeats
            if t >= len(identities) or det >= len(identities[t]):
                raise ValidationError(
                    f"record at frame {t} references detection {det} "
                    "outside the labeled scene")
            label = identities[t][det]
        labels.append(label)
    switches = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    return switches / (len(labels) - 1)


def identity_switch_rate(tubes: list[Tube], scene: LabeledScene) -> list[float]:
    """Per-tube fraction of consecutive record pairs whose latent identities
    differ.

    scene.identities[t][i] labels detection i of frame t.  Gap records (det
    -1) inherit the previous record's identity, since the tube is still
    sitting on that object's last box.
    """
    return [_tube_switch_rate(tube, scene.identities) for tube in tubes]
