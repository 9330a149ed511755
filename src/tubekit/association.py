"""Memory-based association of per-frame detections into tubes.

One reference memory vector per tube slot.  Each frame, the top detections by
confidence are matched to slots by cosine similarity (Hungarian), matched
slots blend the matched feature into their memory with a constant EMA factor,
and every slot appends one record per frame.  Slots that find no match keep
their memory untouched and repeat their last box with confidence 0, so a tube
always spans every processed frame.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import cosine_similarity_matrix, solve_assignment
from .errors import ValidationError
from .geometry import Box


@dataclass(frozen=True)
class Detection:
    box: Box
    score: float
    feature: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"detection score must lie in [0, 1], got {self.score}")
        f = np.asarray(self.feature, dtype=float)
        if f.ndim != 1 or not np.all(np.isfinite(f)):
            raise ValidationError("detection feature must be a finite 1-D vector")
        if not 0.0 < float(np.linalg.norm(f)) < np.inf:
            raise ValidationError("detection feature must have a finite, positive norm")
        object.__setattr__(self, "feature", f)


@dataclass(frozen=True)
class FrameDetections:
    t: int
    detections: list[Detection]

    def __post_init__(self):
        if not self.detections:
            raise ValidationError(f"frame {self.t} has no detections")
        dims = {d.feature.shape[0] for d in self.detections}
        if len(dims) != 1:
            raise ValidationError(f"frame {self.t} mixes feature dims {sorted(dims)}")

    @property
    def feature_dim(self) -> int:
        return self.detections[0].feature.shape[0]


@dataclass(frozen=True)
class TubeRecord:
    """One frame of one tube.  det is the source detection index within its
    frame, or None for a gap fill (repeated box, confidence 0).  feature is
    None only on tubes loaded from files written without embeddings."""

    t: int
    box: Box
    score: float
    feature: np.ndarray | None
    det: int | None = None


@dataclass
class Tube:
    slot_id: int
    records: list[TubeRecord] = field(default_factory=list)

    def timestamps(self) -> list[int]:
        return [r.t for r in self.records]

    def mean_score(self) -> float:
        if not self.records:
            raise ValidationError(f"tube {self.slot_id} has no records")
        return float(np.mean([r.score for r in self.records]))


@dataclass(frozen=True)
class TubeMemory:
    """Per-slot reference features, shape (n_q, feature_dim)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValidationError(f"memory must be a non-empty (n_q, d) array, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("memory contains non-finite values")
        norms = np.linalg.norm(v, axis=1)
        if not np.all((0.0 < norms) & (norms < np.inf)):
            raise ValidationError("memory contains a slot vector whose norm is zero or overflows")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

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


def top_by_confidence(frame: FrameDetections, k: int) -> list[int]:
    """Indices of the k highest-confidence detections; score ties keep the
    lower detection index first."""
    order = sorted(range(len(frame.detections)),
                   key=lambda i: (-frame.detections[i].score, i))
    return order[:k]


def init_memory(frame: FrameDetections, cfg: AssociationConfig) -> tuple[TubeMemory, list[Tube]]:
    """Seed n_q slots from the first frame.

    Slot i takes the i-th detection in confidence order.  When the frame has
    fewer than n_q detections the available ones are cycled so the slot count
    stays fixed for the whole clip.
    """
    order = top_by_confidence(frame, cfg.n_q)
    tubes = []
    vectors = np.empty((cfg.n_q, frame.feature_dim), dtype=float)
    for slot in range(cfg.n_q):
        di = order[slot % len(order)]
        det = frame.detections[di]
        vectors[slot] = det.feature
        tubes.append(Tube(slot_id=slot, records=[
            TubeRecord(t=frame.t, box=det.box, score=det.score,
                       feature=det.feature, det=di)
        ]))
    return TubeMemory(vectors), tubes


def associate_step(memory: TubeMemory, tubes: list[Tube], frame: FrameDetections,
                   cfg: AssociationConfig) -> TubeMemory:
    """Match one frame against the memory and extend every tube by one record.

    Returns the updated memory.  Matched slots blend the matched detection's
    feature in with factor alpha; unmatched slots keep their memory and repeat
    their last record's box and feature at confidence 0.
    """
    if len(tubes) != memory.n_q:
        raise ValidationError(f"expected {memory.n_q} tubes, got {len(tubes)}")
    if frame.feature_dim != memory.vectors.shape[1]:
        raise ValidationError(
            f"frame feature dim {frame.feature_dim} does not match memory dim {memory.vectors.shape[1]}")
    chosen = top_by_confidence(frame, cfg.n_q)
    feats = np.stack([frame.detections[i].feature for i in chosen])
    sim = cosine_similarity_matrix(memory.vectors, feats)
    pairs = solve_assignment(-sim)

    matched: dict[int, int] = {slot: chosen[j] for slot, j in pairs}
    vectors = memory.vectors.copy()
    for tube in tubes:
        slot = tube.slot_id
        if slot in matched:
            det = frame.detections[matched[slot]]
            tube.records.append(TubeRecord(
                t=frame.t, box=det.box, score=det.score,
                feature=det.feature, det=matched[slot]))
            vectors[slot] = (1.0 - cfg.alpha) * vectors[slot] + cfg.alpha * det.feature
        else:
            last = tube.records[-1]
            tube.records.append(TubeRecord(
                t=frame.t, box=last.box, score=0.0,
                feature=last.feature, det=None))
    return TubeMemory(vectors)


def run_association(frames: list[FrameDetections], cfg: AssociationConfig | None = None) -> list[Tube]:
    """Fold a whole clip into n_q tubes, one record per tube per frame."""
    if cfg is None:
        cfg = AssociationConfig()
    if not frames:
        raise ValidationError("cannot associate an empty clip")
    ts = [f.t for f in frames]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("frame timestamps must be strictly increasing")
    memory, tubes = init_memory(frames[0], cfg)
    for frame in frames[1:]:
        memory = associate_step(memory, tubes, frame, cfg)
    return tubes
