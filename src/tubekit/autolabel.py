"""Assembling pseudo ground-truth tubes from tracker fragments.

Fragments of the same category whose appearances agree and whose spans do not
overlap are merged greedily, highest similarity first, until no pair
qualifies.  Merging bridges the frame gap by linear interpolation and
averages the appearance vectors weighted by how many real (non-interpolated)
records each side contributes, so the count of real records is conserved.
A gap is bridged only when it spans no more frames than the two fragments
have real records together, so no merge interpolates more frames than the
candidates hold real records.

Fragments that qualify on category and appearance but overlap in time cannot
be one object seen twice; they are left alone and can be listed with
find_merge_conflicts.  The best surviving tube is chosen by an injectable
scoring hook (default: highest mean confidence, standing in for an external
ranker) and kept only if it covers at least half of the query interval.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import checked_norms, cosine_similarity
from .errors import ValidationError
from .geometry import Box, corners, hold, hold_within, integer, number, numbers, pair, within
from .mining import GtTube


@dataclass(frozen=True)
class CandidateRecord:
    """One frame of a fragment; t an int by the rule of `integers`, score a number."""

    t: int
    box: Box
    score: float
    interpolated: bool = False

    def __post_init__(self):
        t = integer(self.t, "t")
        hold(self, t=t, score=number(self.score, "score", f"frame {t}: "))


@dataclass(frozen=True)
class CandidateTube:
    """A fragment: records on every frame of span, a pair of ints by the
    rule of `pair`, each record's score in [0, 1]."""

    category: str
    span: tuple[int, int]
    records: list[CandidateRecord] = field(default_factory=list)
    appearance: np.ndarray = None

    def __post_init__(self):
        hold(self, span=pair(self.span, "span"))
        s, e = self.span
        if s > e:
            raise ValidationError(f"empty span {self.span}")
        ts = [r.t for r in self.records]
        if len(ts) != e - s + 1 or ts != list(range(s, e + 1)):
            raise ValidationError(
                f"records must cover the span densely: span {self.span}, frames {ts[:5]}...")
        within([r.score for r in self.records], "score", "[0, 1]", frames=ts)
        a = numbers(self.appearance, "appearance")
        refusal = "appearance must be a finite 1-D vector with a finite, positive norm"
        if a.ndim != 1:
            raise ValidationError(refusal)
        checked_norms(a, refusal)
        hold(self, appearance=a)

    @property
    def real_record_count(self) -> int:
        return sum(1 for r in self.records if not r.interpolated)

    def mean_score(self) -> float:
        return float(np.mean([r.score for r in self.records]))


@dataclass(frozen=True)
class AutolabelConfig:
    """appearance_threshold in [-1, 1] to merge fragments, coverage_threshold in (0, 1]."""

    appearance_threshold: float = 0.7
    coverage_threshold: float = 0.5

    def __post_init__(self):
        hold_within(self, float, "[-1, 1]", "appearance_threshold")
        hold_within(self, float, "(0, 1]", "coverage_threshold")


def _spans_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def _mergeable(a: CandidateTube, b: CandidateTube) -> bool:
    # merge_tubes tests the appearance.  Not overlapping, so the frames
    # between them are the later start less the earlier end, less one.
    return (a.category == b.category
            and not _spans_overlap(a.span, b.span)
            and (max(a.span[0], b.span[0]) - min(a.span[1], b.span[1]) - 1
                 <= a.real_record_count + b.real_record_count))


def _interpolate_gap(last: CandidateRecord, first: CandidateRecord) -> list[CandidateRecord]:
    out = []
    gap = first.t - last.t
    la, fa = last.box.to_list(), first.box.to_list()
    for t in range(last.t + 1, first.t):
        w = (t - last.t) / gap
        corners = [(1 - w) * la[k] + w * fa[k] for k in range(4)]
        out.append(CandidateRecord(
            t=t, box=Box(*corners),
            score=(1 - w) * last.score + w * first.score,
            interpolated=True))
    return out


def _merge_pair(a: CandidateTube, b: CandidateTube) -> CandidateTube:
    if a.span[0] > b.span[0]:
        a, b = b, a
    records = list(a.records) + _interpolate_gap(a.records[-1], b.records[0]) + list(b.records)
    na, nb = a.real_record_count, b.real_record_count
    appearance = (na * a.appearance + nb * b.appearance) / (na + nb)
    return CandidateTube(category=a.category,
                         span=(a.span[0], b.span[1]),
                         records=records,
                         appearance=appearance)


def merge_tubes(candidates: list[CandidateTube],
                cfg: AutolabelConfig = AutolabelConfig()) -> list[CandidateTube]:
    """Merge until no pair qualifies (same category, non-overlapping spans
    with no more frames between them than real records in the two,
    appearance cosine at or above the threshold).

    Highest-similarity pair first; similarity ties go to the pair whose
    earliest span starts first.  Each merge removes one tube, so the fixed
    point is reached after at most len(candidates) - 1 rounds.
    """
    tubes = list(candidates)
    while True:
        keys = []
        for i in range(len(tubes)):
            for j in range(i + 1, len(tubes)):
                if not _mergeable(tubes[i], tubes[j]):
                    continue
                sim = cosine_similarity(tubes[i].appearance, tubes[j].appearance)
                if sim >= cfg.appearance_threshold:
                    starts = sorted((tubes[i].span[0], tubes[j].span[0]))
                    keys.append((-sim, starts[0], starts[1], i, j))
        if not keys:
            return tubes
        *_, i, j = min(keys)
        merged = _merge_pair(tubes[i], tubes[j])
        tubes = tubes[:i] + [merged] + tubes[i + 1:j] + tubes[j + 1:]


def find_merge_conflicts(candidates: list[CandidateTube],
                         cfg: AutolabelConfig = AutolabelConfig()) -> list[tuple[int, int]]:
    """Pairs that agree on category and appearance but overlap in time.

    These are reported rather than merged; two simultaneous track fragments
    cannot be the same object appearing twice.
    """
    out = []
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a, b = candidates[i], candidates[j]
            if (a.category == b.category
                    and _spans_overlap(a.span, b.span)
                    and cosine_similarity(a.appearance, b.appearance) >= cfg.appearance_threshold):
                out.append((i, j))
    return out


def coverage_filter(tube: CandidateTube, interval: tuple[int, int],
                    cfg: AutolabelConfig = AutolabelConfig()) -> bool:
    """Keep the tube iff it covers at least the threshold fraction of the
    interval, counting frames inclusively.  Exactly at the threshold keeps."""
    s, e = pair(interval, "interval")
    if s > e:
        raise ValidationError(f"empty interval {interval}")
    covered = max(0, min(e, tube.span[1]) - max(s, tube.span[0]) + 1)
    return covered / (e - s + 1) >= cfg.coverage_threshold


def assemble_annotation(candidates: list[CandidateTube], interval: tuple[int, int],
                        cfg: AutolabelConfig = AutolabelConfig(),
                        score_fn=None) -> GtTube | None:
    """Full pipeline: merge, rank with the scoring hook, coverage-filter.

    Returns the pseudo annotation over the part of the interval the winning
    tube covers, or None when no candidate survives.
    """
    if score_fn is None:
        score_fn = CandidateTube.mean_score
    interval = pair(interval, "interval")
    if not candidates:
        return None
    merged = merge_tubes(candidates, cfg)
    best = 0
    best_key = None
    for i, tube in enumerate(merged):
        key = (-float(score_fn(tube)), tube.span[0], i)
        if best_key is None or key < best_key:
            best_key = key
            best = i
    winner = merged[best]
    if not coverage_filter(winner, interval, cfg):
        return None
    s = max(interval[0], winner.span[0])
    e = min(interval[1], winner.span[1])
    records = winner.records[s - winner.span[0]:e - winner.span[0] + 1]
    return GtTube(ts=s, te=e, boxes=corners([r.box for r in records]))
