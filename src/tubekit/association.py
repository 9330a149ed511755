"""Memory-based association of per-frame detections into tubes.

A frame's detections are read-only columns (FrameDetections): boxes,
scores, features and the features' row norms, one row per detection,
validated once per frame.  One reference memory vector per tube slot, held
with its norm (TubeMemory).  Each frame, the top detections by
confidence are matched to slots by cosine similarity (Hungarian), and matched
slots blend the matched feature into their memory with a constant EMA
factor.  A Tube holds its slot's track as per-frame columns: frame index,
box, score, source detection index and feature.  A slot that finds no match
keeps its memory untouched and repeats its previous box and feature at
score 0 with detection index -1, so a tube always spans every processed
frame.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import checked_norms, solve_assignment
from .errors import ValidationError
from .geometry import Box, corner_rows


@dataclass(frozen=True)
class Detection:
    """One detection, as FrameDetections.detections lists it."""

    box: Box
    score: float
    feature: np.ndarray


@dataclass(frozen=True)
class FrameDetections:
    """One frame's N >= 1 detections, as read-only columns.

    boxes (N, 4) corners, each row a box by Box's rule; scores (N,) in
    [0, 1]; features (N, D), every row with a finite, positive norm (see
    checked_norms), and so finite; norms (N,) those row norms.
    """

    t: int
    boxes: np.ndarray
    scores: np.ndarray
    features: np.ndarray
    norms: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        if not scores.size:
            raise ValidationError(f"frame {self.t} has no detections")
        try:
            features = np.array(self.features, dtype=float)
        except ValueError as e:   # ragged rows
            raise ValidationError(f"frame {self.t}: features must be rows of one length") from e
        boxes = corner_rows(self.boxes)
        if scores.shape != boxes.shape[:1] or features.ndim != 2 or len(features) != len(boxes):
            raise ValidationError(f"frame {self.t}: boxes, scores and features must hold one row "
                                  f"per detection, got {boxes.shape}, {scores.shape} and "
                                  f"{features.shape}")
        in_range = (0.0 <= scores) & (scores <= 1.0)
        if not in_range.all():
            raise ValidationError(f"detection score must lie in [0, 1], "
                                  f"got {scores[np.argmin(in_range)]}")
        norms = checked_norms(features, "detection feature must have a finite, positive norm")
        for name, c in (("boxes", boxes), ("scores", scores), ("features", features),
                        ("norms", norms)):
            c.setflags(write=False)
            object.__setattr__(self, name, c)

    @property
    def detections(self) -> list[Detection]:
        """The frame detection by detection, built anew on each access."""
        return [Detection(Box(*box), score, feature) for box, score, feature in zip(
            self.boxes.tolist(), self.scores.tolist(), self.features)]


@dataclass(frozen=True)
class TubeRecord:
    """One frame of a tube, as Tube.records lists it; det is None for a gap
    and feature None when the tube has no features."""

    t: int
    box: Box
    score: float
    feature: np.ndarray | None
    det: int | None = None


@dataclass(frozen=True)
class Tube:
    """One slot's track over T frames, as read-only per-frame columns.

    t (T,) frame indices, strictly increasing; boxes (T, 4) corners, each
    row a box by Box's rule; scores (T,) in [0, 1]; det (T,) the source
    detection index within its frame, -1 for a gap fill (the previous box
    and feature at score 0); features (T, D), finite, or None for a tube
    loaded from a file written without embeddings.  A refusal names the
    slot, and the frame when one frame is at fault.
    """

    slot_id: int
    t: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray
    det: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        where = f"tube {self.slot_id}"
        try:
            boxes = corner_rows(self.boxes)
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from None
        cols = {"t": np.array(self.t, dtype=np.int64), "boxes": boxes,
                "scores": np.array(self.scores, dtype=float),
                "det": np.array(self.det, dtype=np.int64)}
        if self.features is not None:
            cols["features"] = np.array(self.features, dtype=float)
        t, shapes = cols["t"], {k: c.shape for k, c in cols.items()}
        if any(len(shape) != (2 if k in ("boxes", "features") else 1) or shape[0] != len(t)
               for k, shape in shapes.items()):
            raise ValidationError(f"{where}: columns must hold one row per frame, got {shapes}")
        if np.any(t[1:] <= t[:-1]):
            i = int(np.argmax(t[1:] <= t[:-1]))
            raise ValidationError(f"{where}: records must be strictly increasing in t, "
                                  f"got t={t[i + 1]} after t={t[i]}")
        if np.any(cols["det"] < -1):
            raise ValidationError(f"{where}: det must be a detection index, or -1 for a gap")
        for name, key in (("scores", "score"), ("features", "embed")):   # and a record's key
            if name in cols and not (finite := np.isfinite(cols[name])).all():
                i = int(np.argmin(finite.reshape(len(t), -1).all(axis=1)))
                raise ValidationError(f"{where} frame {t[i]}: {key} must be finite")
        if not (in_range := (0.0 <= cols["scores"]) & (cols["scores"] <= 1.0)).all():
            i = int(np.argmin(in_range))
            raise ValidationError(f"{where} frame {t[i]}: score must lie in [0, 1], "
                                  f"got {cols['scores'][i]}")
        for name, c in cols.items():
            c.setflags(write=False)
            object.__setattr__(self, name, c)

    @property
    def records(self) -> list[TubeRecord]:
        """The tube frame by frame, built anew on each access."""
        features = [None] * len(self.t) if self.features is None else self.features
        return [TubeRecord(t, Box(*box), score, feature, None if det < 0 else det)
                for t, box, score, feature, det in zip(
                    self.t.tolist(), self.boxes.tolist(), self.scores.tolist(),
                    features, self.det.tolist())]

    def timestamps(self) -> list[int]:
        return self.t.tolist()

    def mean_score(self) -> float:
        if not len(self.t):
            raise ValidationError(f"tube {self.slot_id} has no records")
        return float(np.mean(self.scores))


@dataclass(frozen=True)
class TubeMemory:
    """Per-slot reference features, shape (n_q, feature_dim), and their row
    norms, shape (n_q,), both read-only."""

    vectors: np.ndarray
    norms: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValidationError(f"memory must be a non-empty (n_q, d) array, got {v.shape}")
        norms = checked_norms(v, "memory contains a slot vector that is not finite, "
                                 "or whose norm is zero or overflows")
        for name, c in (("vectors", v), ("norms", norms)):
            c.setflags(write=False)
            object.__setattr__(self, name, c)

    @property
    def n_q(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class AssociationConfig:
    n_q: int = 15
    alpha: float = 0.1

    def __post_init__(self):
        if self.n_q < 1:
            raise ValidationError(f"n_q must be at least 1, got {self.n_q}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")


def top_by_confidence(frame: FrameDetections, k: int) -> np.ndarray:
    """Indices of the k highest-confidence detections; score ties keep the
    lower detection index first."""
    return np.argsort(-frame.scores, kind="stable")[:k]


def init_memory(frame: FrameDetections, cfg: AssociationConfig) -> tuple[TubeMemory, np.ndarray]:
    """Seed n_q slots from the first frame; returns the memory and the
    (n_q,) detection index each slot took.

    Slot i takes the i-th detection in confidence order.  When the frame has
    fewer than n_q detections the available ones are cycled so the slot count
    stays fixed for the whole clip.
    """
    order = top_by_confidence(frame, cfg.n_q)
    det = order[np.arange(cfg.n_q) % len(order)]
    return TubeMemory(frame.features[det]), det


def associate_step(memory: TubeMemory, frame: FrameDetections,
                   cfg: AssociationConfig) -> tuple[TubeMemory, np.ndarray]:
    """Match one frame against the memory.

    Returns the updated memory and the (n_q,) detection index each slot
    matched, -1 where it matched none.  Matched slots blend the matched
    detection's feature in with factor alpha; unmatched slots keep theirs.
    A frame whose feature dim is not the memory's is refused.
    """
    if frame.features.shape[1] != memory.vectors.shape[1]:
        raise ValidationError(f"frame {frame.t}: features have {frame.features.shape[1]} "
                              f"columns, the memory has {memory.vectors.shape[1]}")
    chosen = top_by_confidence(frame, cfg.n_q)
    feats = frame.features[chosen]
    # Cosines from the norms both holders took when they were made.
    pairs = solve_assignment(-(memory.vectors @ feats.T)
                             / np.outer(memory.norms, frame.norms[chosen]))
    slots, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    det = np.full(memory.n_q, -1)
    det[slots] = chosen[cols]
    vectors = memory.vectors.copy()
    vectors[slots] = (1.0 - cfg.alpha) * vectors[slots] + cfg.alpha * feats[cols]
    return TubeMemory(vectors), det


def run_association(frames: list[FrameDetections], cfg: AssociationConfig | None = None) -> list[Tube]:
    """Fold a whole clip into n_q tubes, one row per tube per frame."""
    if cfg is None:
        cfg = AssociationConfig()
    if not frames:
        raise ValidationError("cannot associate an empty clip")
    ts = [f.t for f in frames]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("frame timestamps must be strictly increasing")
    memory, seeded = init_memory(frames[0], cfg)
    det = [seeded]
    for frame in frames[1:]:
        memory, matched = associate_step(memory, frame, cfg)
        det.append(matched)
    det = np.array(det)
    # A gap repeats the row before it, so row (k, slot) shows what the slot
    # matched at `last`, its latest match up to frame k; src indexes that
    # detection among all of the clip's.
    last = np.maximum.accumulate(np.where(det >= 0, np.arange(len(frames))[:, None], 0))
    first = np.cumsum([0] + [len(f.scores) for f in frames[:-1]])
    src = first[last] + np.take_along_axis(det, last, axis=0)
    boxes = np.concatenate([f.boxes for f in frames])[src]
    scores = np.where(det >= 0, np.concatenate([f.scores for f in frames])[src], 0.0)
    features = np.concatenate([f.features for f in frames])[src]
    return [Tube(slot, ts, boxes[:, slot], scores[:, slot], det[:, slot], features[:, slot])
            for slot in range(cfg.n_q)]
