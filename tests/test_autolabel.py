"""Pseudo-annotation assembly: merging, conflicts, coverage filtering."""
import re

import numpy as np
import pytest

from tubekit.autolabel import (AutolabelConfig, CandidateRecord, CandidateTube,
                               assemble_annotation, coverage_filter,
                               find_merge_conflicts, merge_tubes)
from tubekit.errors import ValidationError
from tubekit.geometry import Box

BOX_A = Box(0.2, 0.2, 0.4, 0.4)
BOX_B = Box(0.5, 0.5, 0.7, 0.7)


def cand(span: tuple[int, int], appearance, category: str = "dog",
         box: Box = BOX_A, score: float = 0.9,
         boxes: dict[int, Box] | None = None) -> CandidateTube:
    records = [CandidateRecord(t=t, box=(boxes or {}).get(t, box), score=score)
               for t in range(span[0], span[1] + 1)]
    return CandidateTube(category=category, span=span, records=records,
                         appearance=np.asarray(appearance, dtype=float))


class TestCandidateTube:
    def test_sparse_records_rejected(self):
        with pytest.raises(ValidationError):
            CandidateTube(category="dog", span=(0, 3),
                          records=[CandidateRecord(t=0, box=BOX_A, score=0.5),
                                   CandidateRecord(t=3, box=BOX_A, score=0.5)],
                          appearance=np.array([1.0, 0.0]))

    def test_zero_appearance_rejected(self):
        with pytest.raises(ValidationError):
            cand((0, 2), [0.0, 0.0])

    def test_overflowing_appearance_rejected(self):
        with pytest.raises(ValidationError, match="finite, positive norm"):
            cand((0, 2), [1e200, 1e200])

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_rejected(self, score):
        with pytest.raises(ValidationError, match=rf"^frame 2: score must lie in \[0, 1\], "
                                                  rf"got {score}$"):
            CandidateTube(category="dog", span=(1, 2),
                          records=[CandidateRecord(t=1, box=BOX_A, score=0.5),
                                   CandidateRecord(t=2, box=BOX_A, score=score)],
                          appearance=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("score", [5.0, -0.5, 1.0000001])
    def test_score_outside_unit_interval_rejected(self, score):
        # Such a fragment was held, and assemble_annotation ranked by it.
        with pytest.raises(ValidationError, match=rf"^frame 2: score must lie in "
                                                  rf"\[0, 1\], got {score}$"):
            CandidateTube(category="dog", span=(1, 2),
                          records=[CandidateRecord(t=1, box=BOX_A, score=0.5),
                                   CandidateRecord(t=2, box=BOX_A, score=score)],
                          appearance=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("span", [(0, 0, 0), (0,), ()])
    def test_span_not_a_pair_rejected(self, span):
        # (0, 0, 0) was a bare ValueError from unpacking it.
        message = f"span must be a 2-element array, got {span!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            CandidateTube(category="dog", span=span,
                          records=[CandidateRecord(t=0, box=BOX_A, score=0.5)],
                          appearance=np.array([1.0, 0.0]))

    def test_real_record_count_ignores_interpolation(self):
        records = [CandidateRecord(t=0, box=BOX_A, score=0.5),
                   CandidateRecord(t=1, box=BOX_A, score=0.5, interpolated=True),
                   CandidateRecord(t=2, box=BOX_A, score=0.5)]
        tube = CandidateTube(category="dog", span=(0, 2), records=records,
                             appearance=np.array([1.0, 0.0]))
        assert tube.real_record_count == 2


class TestConfig:
    def test_defaults(self):
        cfg = AutolabelConfig()
        assert cfg.appearance_threshold == 0.7
        assert cfg.coverage_threshold == 0.5

    def test_ranges(self):
        with pytest.raises(ValidationError):
            AutolabelConfig(appearance_threshold=1.5)
        with pytest.raises(ValidationError):
            AutolabelConfig(coverage_threshold=0.0)


class TestMergeTubes:
    def test_gap_merge_with_interpolation(self):
        # [0, 4] ends on BOX_A, [10, 14] starts on BOX_B: five interpolated
        # frames bridge the gap, the midpoint t=7 sits halfway between them.
        a = cand((0, 4), [1.0, 0.0], boxes={4: BOX_A})
        b = cand((10, 14), [1.0, 0.05], box=BOX_B, score=0.7)
        merged = merge_tubes([a, b])
        assert len(merged) == 1
        m = merged[0]
        assert m.span == (0, 14)
        assert [r.t for r in m.records] == list(range(15))
        interp = [r for r in m.records if r.interpolated]
        assert [r.t for r in interp] == [5, 6, 7, 8, 9]
        mid = next(r for r in m.records if r.t == 7)
        expected = [(ax + bx) / 2 for ax, bx in zip(BOX_A.to_list(), BOX_B.to_list())]
        assert mid.box.to_list() == pytest.approx(expected, abs=1e-12)
        assert mid.score == pytest.approx((0.9 + 0.7) / 2, abs=1e-12)

    def test_merge_conserves_real_records(self):
        a = cand((0, 4), [1.0, 0.0])
        b = cand((10, 14), [1.0, 0.05])
        m = merge_tubes([a, b])[0]
        assert m.real_record_count == 10

    def test_merged_appearance_weighted_by_real_records(self):
        # 5 real records against 2: weights 5/7 and 2/7.
        a = cand((0, 4), [1.0, 0.0])
        b = cand((10, 11), [0.8, 0.1])
        m = merge_tubes([a, b])[0]
        expected = (5 * np.array([1.0, 0.0]) + 2 * np.array([0.8, 0.1])) / 7
        assert np.allclose(m.appearance, expected, rtol=0, atol=1e-12)

    def test_dissimilar_appearances_stay_apart(self):
        a = cand((0, 4), [1.0, 0.0])
        b = cand((10, 14), [0.0, 1.0])
        assert len(merge_tubes([a, b])) == 2

    def test_category_mismatch_stays_apart(self):
        a = cand((0, 4), [1.0, 0.0], category="dog")
        b = cand((10, 14), [1.0, 0.0], category="cat")
        assert len(merge_tubes([a, b])) == 2

    def test_overlapping_spans_not_merged(self):
        a = cand((0, 8), [1.0, 0.0])
        b = cand((5, 14), [1.0, 0.0])
        assert len(merge_tubes([a, b])) == 2
        assert find_merge_conflicts([a, b]) == [(0, 1)]

    def test_singleton_is_untouched(self):
        a = cand((0, 4), [1.0, 0.0])
        assert merge_tubes([a]) == [a]

    def test_chain_of_three(self):
        a = cand((0, 2), [1.0, 0.0])
        b = cand((5, 7), [1.0, 0.02])
        c = cand((10, 12), [1.0, 0.04])
        merged = merge_tubes([a, b, c])
        assert len(merged) == 1
        assert merged[0].span == (0, 12)
        assert merged[0].real_record_count == 9

    @pytest.mark.parametrize("b_start, merges", [(7, True), (8, False)])
    def test_gap_at_most_the_real_records(self, b_start, merges):
        # 2 + 3 real records: a gap of 5 frames merges, one of 6 does not.
        a = cand((0, 1), [1.0, 0.0])
        b = cand((b_start, b_start + 2), [1.0, 0.0])
        assert len(merge_tubes([a, b])) == (1 if merges else 2)
        assert len(merge_tubes([b, a])) == (1 if merges else 2)

    def test_interpolated_records_do_not_widen_the_bound(self):
        # [0, 1] and [4, 5] merge over a gap of 2 into 4 real records and 2
        # interpolated ones; the gap of 6 to [12, 12] is more than 4 + 1.
        merged = merge_tubes([cand((0, 1), [1.0, 0.0]), cand((4, 5), [1.0, 0.0]),
                              cand((12, 12), [1.0, 0.0])])
        assert sorted(m.span for m in merged) == [(0, 5), (12, 12)]

    def test_far_apart_fragments_stay_apart(self):
        far = [cand((0, 0), [1.0, 0.0]), cand((10_000, 10_000), [1.0, 0.0])]
        assert merge_tubes(far) == far

    def test_two_frame_gaps_of_thirds_merge(self):
        # Object 0 cut into thirds of a 24-frame clip with two-frame gaps.
        pieces = [cand((0, 6), [1.0, 0.0]), cand((9, 14), [1.0, 0.02]),
                  cand((17, 23), [1.0, 0.01])]
        merged = merge_tubes(pieces)
        assert [m.span for m in merged] == [(0, 23)]
        assert merged[0].real_record_count == 20

    def test_merge_is_a_fixed_point(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            tubes = []
            start = 0
            for k in range(n):
                length = int(rng.integers(2, 5))
                vec = rng.normal(size=3)
                vec[0] += 2.0
                tubes.append(cand((start, start + length - 1), vec,
                                  category=str(rng.integers(0, 2))))
                start += length + int(rng.integers(1, 4))
            once = merge_tubes(tubes)
            twice = merge_tubes(once)
            assert len(twice) == len(once)
            assert [t.span for t in twice] == [t.span for t in once]
            real_before = sum(t.real_record_count for t in tubes)
            real_after = sum(t.real_record_count for t in once)
            assert real_after == real_before


class TestFindMergeConflicts:
    def test_no_conflicts_when_disjoint(self):
        a = cand((0, 4), [1.0, 0.0])
        b = cand((6, 9), [1.0, 0.0])
        assert find_merge_conflicts([a, b]) == []

    def test_dissimilar_overlap_is_not_a_conflict(self):
        a = cand((0, 6), [1.0, 0.0])
        b = cand((3, 9), [0.0, 1.0])
        assert find_merge_conflicts([a, b]) == []


class TestCoverageFilter:
    def test_exactly_half_keeps(self):
        # 50 of 100 frames: exactly at the default threshold.
        tube = cand((0, 49), [1.0, 0.0])
        assert coverage_filter(tube, (0, 99)) is True

    def test_just_under_half_discards(self):
        tube = cand((0, 48), [1.0, 0.0])
        assert coverage_filter(tube, (0, 99)) is False

    def test_superset_span_keeps(self):
        tube = cand((0, 9), [1.0, 0.0])
        assert coverage_filter(tube, (3, 6)) is True

    def test_short_tube_on_short_interval(self):
        tube = cand((0, 3), [1.0, 0.0])
        assert coverage_filter(tube, (0, 9)) is False
        assert coverage_filter(tube, (0, 7)) is True

    def test_extending_a_tube_never_hurts(self):
        interval = (10, 29)
        for end in range(12, 40):
            kept_short = coverage_filter(cand((10, end - 1), [1.0, 0.0]), interval)
            kept_long = coverage_filter(cand((10, end), [1.0, 0.0]), interval)
            assert kept_long >= kept_short

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError):
            coverage_filter(cand((0, 3), [1.0, 0.0]), (5, 2))


class TestAssembleAnnotation:
    def test_full_pipeline(self):
        a = cand((0, 4), [1.0, 0.0])
        b = cand((8, 14), [1.0, 0.03])
        gt = assemble_annotation([a, b], (0, 14))
        assert gt is not None
        assert (gt.ts, gt.te) == (0, 14)
        assert gt.boxes.shape == (15, 4)

    def test_result_clipped_to_interval(self):
        # Tube [0, 9] covers 6 of the 10 interval frames, enough to keep,
        # and the annotation is the overlap, not the whole tube.
        a = cand((0, 9), [1.0, 0.0])
        gt = assemble_annotation([a], (4, 13))
        assert gt is not None
        assert (gt.ts, gt.te) == (4, 9)

    def test_low_coverage_returns_none(self):
        a = cand((0, 2), [1.0, 0.0])
        assert assemble_annotation([a], (0, 19)) is None

    def test_no_candidates_returns_none(self):
        assert assemble_annotation([], (0, 10)) is None

    @pytest.mark.parametrize("candidates", [0, 1, 2])
    def test_empty_interval_refused(self, candidates):
        # Without candidates, (10, 5) used to return None, as if no tube
        # covered enough of it; with them, coverage_filter refused it.
        fragments = [cand((0, 4), [1.0, 0.0]), cand((10, 14), [0.0, 1.0])][:candidates]
        with pytest.raises(ValidationError, match=r"^empty interval \(10, 5\)$"):
            assemble_annotation(fragments, (10, 5))

    def test_highest_mean_score_wins(self):
        weak = cand((0, 9), [1.0, 0.0], box=BOX_B, score=0.4)
        strong = cand((0, 9), [0.0, 1.0], score=0.9)
        for fragments in ([weak, strong], [strong, weak]):
            gt = assemble_annotation(fragments, (0, 9))
            assert gt is not None
            assert gt.boxes.tolist() == [BOX_A.to_list()] * 10
