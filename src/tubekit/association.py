"""Memory-based association of per-frame detections into tubes.

A frame's detections are read-only columns (FrameDetections): boxes,
scores, features and the features' row norms, one row per detection.  One
reference memory vector per tube slot, held with its norm (TubeMemory).
Each frame, the top detections by confidence are matched to slots by cosine
similarity (Hungarian), and matched slots blend the matched feature into
their memory with a constant EMA factor.  A Tube holds its slot's track as
per-frame columns: frame index, box, score, source detection index and
feature.  A slot that finds no match keeps its memory untouched and repeats
its previous box and feature at score 0 with detection index -1, so a tube
always spans every processed frame.  FrameDetections.from_columns and
Tube.from_columns check the columns of many frames or tubes, laid end to
end, once, by the rules a single holder applies, and cut them into holders.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .assignment import checked_norms, solve_assignment
from .errors import ValidationError
from .geometry import Box, corner_rows, hold, hold_within, integer, integers, numbers, within


@dataclass(frozen=True)
class Detection:
    """One detection, as FrameDetections.detections lists it."""

    box: Box
    score: float
    feature: np.ndarray


@dataclass(frozen=True)
class FrameDetections:
    """One frame's N >= 1 detections, as read-only columns.

    t the frame index, an int by the rule of `integers`; boxes (N, 4)
    corners, each row a box by Box's rule; scores (N,) in [0, 1]; features
    (N, D), every row with a finite, positive norm (see checked_norms), and
    so finite; norms (N,) those row norms.
    """

    t: int
    boxes: np.ndarray
    scores: np.ndarray
    features: np.ndarray
    norms: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        t = integer(self.t, "t")
        hold(self, t=t, **_detection_columns(np.array([t]), None, self.boxes, self.scores,
                                             self.features))

    @classmethod
    def from_columns(cls, t, sizes, boxes, scores, features) -> list[FrameDetections]:
        """The frames whose detections are laid end to end in boxes, scores
        and features: frame t[i] holds the sizes[i] rows after those of the
        frames before it.  The columns are checked once, by FrameDetections'
        rules, and the norms taken once; a refusal names the frame at fault.
        A float64 features array is handed over, not copied: the frames hold
        read-only slices of it."""
        t = integers(t, "t")
        sizes = integers(sizes, "sizes")
        if len(sizes) != len(t) or np.any(sizes < 0) or sizes.sum() != len(scores):
            raise ValidationError(f"sizes {sizes.tolist()} do not cut {len(scores)} rows "
                                  f"into {len(t)} frames")
        return _cut(cls, sizes, _detection_columns(t, sizes, boxes, scores, features),
                    t=t.tolist())

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
    loaded from a file written without embeddings.  slot_id, t and det are
    integers by the rule of `integers`.  A refusal names the slot, and the
    frame when one frame is at fault.
    """

    slot_id: int
    t: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray
    det: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        slot_id = integer(self.slot_id, "slot_id")
        hold(self, slot_id=slot_id, **_tube_columns(f"tube {slot_id}: ", self.t, self.boxes,
                                                    self.scores, self.det, self.features))

    @classmethod
    def from_columns(cls, slot_ids, sizes, t, boxes, scores, det,
                     features=None) -> list[Tube]:
        """The tubes whose columns are laid end to end in t, boxes, scores,
        det and features: tube i holds the sizes[i] rows after those of the
        tubes before it, and no features when it holds no rows.  The columns
        are checked once, by Tube's rules; a refusal names the tube when
        there is one."""
        slot_ids = integers(slot_ids, "slot_id").tolist()
        sizes = integers(sizes, "sizes")
        ends = np.cumsum(sizes)
        where = f"tube {slot_ids[0]}: " if len(slot_ids) == 1 else ""
        columns = _tube_columns(where, t, boxes, scores, det, features, ends[:-1])
        if len(sizes) != len(slot_ids) or np.any(sizes < 0) or sizes.sum() != len(columns["t"]):
            raise ValidationError(f"sizes {sizes.tolist()} do not cut {len(columns['t'])} rows "
                                  f"into {len(slot_ids)} tubes")
        return _cut(cls, sizes, columns, slot_id=slot_ids, features=[None] * len(slot_ids))

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


def _detection_columns(t: np.ndarray, sizes, boxes, scores, features) -> dict:
    """FrameDetections' rules for the detections of frames laid end to end,
    frame t[i] holding sizes[i] rows, or, sizes None, the one frame t[0]
    every row: the checked columns and the features' row norms, by name,
    or a refusal naming the frame at fault."""
    where = f"frame {t[0]}: " if len(t) == 1 else ""
    one_frame = sizes is None   # else from_columns, which hands its features over
    scores = within(scores, "score", "[0, 1]", float,
                    int(t[0]) if one_frame else np.repeat(t, sizes))
    sizes = [scores.size] if one_frame else sizes.tolist()
    if 0 in sizes:
        raise ValidationError(f"frame {t[sizes.index(0)]} has no detections")
    features = numbers(features, "embed", where, copy=one_frame)
    boxes = corner_rows(boxes)
    if scores.shape != boxes.shape[:1] or features.ndim != 2 or len(features) != len(boxes):
        raise ValidationError(f"{where}boxes, scores and features must hold one row per "
                              f"detection, got {boxes.shape}, {scores.shape} and {features.shape}")
    return {"boxes": boxes, "scores": scores, "features": features, "norms": checked_norms(
        features, "detection feature must have a finite, positive norm")}


def _cut(cls, sizes: np.ndarray, columns: dict, **scalars) -> list:
    """Holders of the frozen dataclass cls, cut from checked columns laid
    end to end without checking them again: holder i holds scalars[key][i]
    for each key, and the sizes[i] rows of each column after those of the
    holders before it, as read-only slices: one hold, a slice winning over
    the scalar of its name, unless the holder has no rows."""
    holders = []
    for i, (end, size) in enumerate(zip(np.cumsum(sizes).tolist(), sizes.tolist())):
        holder = object.__new__(cls)
        hold(holder, **{k: values[i] for k, values in scalars.items()}
             | {k: c[end - size:end] for k, c in columns.items() if size or k not in scalars})
        holders.append(holder)
    return holders


def _tube_columns(where: str, t, boxes, scores, det, features, cuts=np.empty(0, int)) -> dict:
    """Tube's rules for the columns of tubes laid end to end, a tube
    starting at each row of `cuts`: the checked columns, by name, or a
    refusal after `where`."""
    t = integers(t, "t", where)
    cols = {"t": t, "boxes": corner_rows(boxes, where),
            "scores": within(scores, "score", "[0, 1]", float, t, where),
            "det": within(det, "det", "[-1, inf)", int, t, where)}
    if features is not None:
        cols["features"] = within(features, "embed", "(-inf, inf)", float, t, where)
    shapes = {k: c.shape for k, c in cols.items()}
    if any(len(shape) != (2 if k in ("boxes", "features") else 1) or shape[0] != len(t)
           for k, shape in shapes.items()):
        raise ValidationError(f"{where}columns must hold one row per frame, got {shapes}")
    starts = np.zeros(len(t), bool)
    starts[cuts[cuts < len(t)]] = True
    if np.any(disorder := (t[1:] <= t[:-1]) & ~starts[1:]):
        i = int(np.argmax(disorder))
        raise ValidationError(f"{where}records must be strictly increasing in t, "
                              f"got t={t[i + 1]} after t={t[i]}")
    return cols


_MEMORY_REFUSAL = ("memory contains a slot vector that is not finite, or whose norm is zero "
                   "or overflows")


@dataclass(frozen=True)
class TubeMemory:
    """Per-slot reference features, shape (n_q, feature_dim), and their row
    norms, shape (n_q,), both read-only."""

    vectors: np.ndarray
    norms: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        v = numbers(self.vectors, "vectors")
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValidationError(f"memory must be a non-empty (n_q, d) array, got {v.shape}")
        hold(self, vectors=v, norms=checked_norms(v, _MEMORY_REFUSAL))

    @property
    def n_q(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class AssociationConfig:
    """n_q >= 1 tube slots, and the memory's EMA factor alpha in [0, 1]."""

    n_q: int = 15
    alpha: float = 0.1

    def __post_init__(self):
        hold_within(self, int, "[1, inf)", "n_q")
        hold_within(self, float, "[0, 1]", "alpha")


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


def _step(vectors: np.ndarray, norms: np.ndarray, frame: FrameDetections,
          cfg: AssociationConfig) -> np.ndarray:
    """Match one frame against the memory held in `vectors` and their row
    `norms`, and blend the matched slots in place; returns the (n_q,)
    detection index each slot matched, -1 where it matched none.  Only the
    blended rows' norms are taken anew: np.linalg.norm reduces each row on
    its own, so they have the bits a whole-memory norm gives.  A blend that
    checked_norms refuses is refused naming the frame, before any write."""
    if frame.features.shape[1] != vectors.shape[1]:
        raise ValidationError(f"frame {frame.t}: features have {frame.features.shape[1]} "
                              f"columns, the memory has {vectors.shape[1]}")
    chosen = top_by_confidence(frame, cfg.n_q)
    feats = frame.features[chosen]
    # Cosines from the norms held for the memory and taken for the frame.
    pairs = solve_assignment(-(vectors @ feats.T) / (norms[:, None] * frame.norms[chosen]))
    slots, cols = np.fromiter(chain.from_iterable(pairs), int, 2 * len(pairs)).reshape(-1, 2).T
    det = np.full(len(vectors), -1)
    det[slots] = chosen[cols]
    blend = (1.0 - cfg.alpha) * vectors[slots] + cfg.alpha * feats[cols]
    norms[slots] = checked_norms(blend, f"frame {frame.t}: {_MEMORY_REFUSAL}")
    vectors[slots] = blend
    return det


def associate_step(memory: TubeMemory, frame: FrameDetections,
                   cfg: AssociationConfig) -> tuple[TubeMemory, np.ndarray]:
    """Match one frame against the memory.

    Returns the updated memory and the (n_q,) detection index each slot
    matched, -1 where it matched none.  Matched slots blend the matched
    detection's feature in with factor alpha; unmatched slots keep theirs.
    A frame whose feature dim is not the memory's is refused, and so is a
    blend whose norm checked_norms refuses, naming the frame.
    """
    vectors, norms = memory.vectors.copy(), memory.norms.copy()
    det = _step(vectors, norms, frame, cfg)
    updated = object.__new__(TubeMemory)   # the kernel checked what it changed
    hold(updated, vectors=vectors, norms=norms)
    return updated, det


def _fold(frames: list[FrameDetections], cfg: AssociationConfig):
    """init_memory on the first frame, then the step kernel over the rest:
    the final memory's vectors and norms, and the (T, n_q) detection index
    of each slot in each frame, -1 for a gap."""
    memory, seeded = init_memory(frames[0], cfg)
    vectors, norms = memory.vectors.copy(), memory.norms.copy()
    det = np.empty((len(frames), cfg.n_q), dtype=int)
    det[0] = seeded
    for i, frame in enumerate(frames[1:], 1):
        det[i] = _step(vectors, norms, frame, cfg)
    return vectors, norms, det


def run_association(frames: list[FrameDetections],
                    cfg: AssociationConfig = AssociationConfig()) -> list[Tube]:
    """Fold a whole clip into n_q tubes, one row per tube per frame: the
    step kernel of associate_step over the memory's two arrays."""
    if not frames:
        raise ValidationError("cannot associate an empty clip")
    ts = [f.t for f in frames]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("frame timestamps must be strictly increasing")
    det = _fold(frames, cfg)[2]
    # Each frame's matched rows, one per slot, and then a gap's row: the row
    # before it, that of `last`, the slot's latest match up to its frame.
    shape = det.shape
    boxes, scores = np.empty(shape + (4,)), np.empty(shape)
    features = np.empty(shape + frames[0].features.shape[1:])
    for frame, rows, *out in zip(frames, np.maximum(det, 0), boxes, scores, features):
        for column, into in zip((frame.boxes, frame.scores, frame.features), out):
            column.take(rows, 0, into, "clip")   # in range; "clip" writes `into` unbuffered
    last = np.maximum.accumulate(np.where(det >= 0, np.arange(len(frames))[:, None], 0))
    gaps = np.nonzero(det < 0)
    boxes[gaps] = boxes[last[gaps], gaps[1]]
    features[gaps] = features[last[gaps], gaps[1]]
    scores[gaps] = 0.0
    # Slot by slot, end to end, cut into tubes without a second check: the
    # rows are the frames' checked ones, and ts increases.
    columns = {k: c.swapaxes(0, 1).reshape((-1,) + c.shape[2:]) for k, c in
               {"boxes": boxes, "scores": scores, "det": det, "features": features}.items()}
    return _cut(Tube, np.full(cfg.n_q, len(frames)), columns | {"t": np.tile(ts, cfg.n_q)},
                slot_id=list(range(cfg.n_q)))
