"""Shared helpers: array-built tubes, and seeded smooth tubes for gradient
and loss tests."""
from __future__ import annotations

import numpy as np

from tubekit.association import Tube
from tubekit.consistency import MinedTube
from tubekit.geometry import Box, corners


def make_tube(slot_id: int, boxes: list[Box], scores, t=None, det=None,
              features=None) -> Tube:
    """Tube over frames 0..T-1 (or `t`) from per-frame Boxes; `scores` may
    be one number for every frame, and det defaults to detection 0 on
    every frame (no gaps)."""
    n = len(boxes)
    return Tube(slot_id=slot_id, t=np.arange(n) if t is None else t,
                boxes=corners(boxes), scores=np.broadcast_to(np.asarray(scores, float), (n,)),
                det=np.zeros(n, dtype=int) if det is None else det, features=features)


def make_smooth_tube(seed: int, length: int = 5, dim: int = 8) -> MinedTube:
    """Random tube whose adjacent boxes overlap heavily and share no corner.

    Coordinates stay inside [0.1, 0.9] so finite-difference probes never hit
    the unit-square clamp, and the center walk is continuous so no adjacent
    pair lands on a kink of the geometric loss.
    """
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1.0, size=(length, dim))
    # Keep every frame vector comfortably away from zero norm.
    features[:, 0] += 2.0

    cx, cy = 0.5, 0.5
    boxes = []
    for _ in range(length):
        cx = float(np.clip(cx + rng.uniform(-0.02, 0.02), 0.3, 0.7))
        cy = float(np.clip(cy + rng.uniform(-0.02, 0.02), 0.3, 0.7))
        w = rng.uniform(0.25, 0.35)
        h = rng.uniform(0.25, 0.35)
        boxes.append(Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    for a, b in zip(boxes, boxes[1:]):
        assert len(set(a.to_list()) & set(b.to_list())) == 0
    return MinedTube(features=features, boxes=corners(boxes))
