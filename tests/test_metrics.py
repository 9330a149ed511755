"""Selection and evaluation metrics on inclusive frame intervals."""
import numpy as np
import pytest

from conftest import make_gt, make_prediction, make_tube
from tubekit.association import Tube
from tubekit.errors import ValidationError
from tubekit.geometry import Box
from tubekit.metrics import (EvalReport, Prediction, drift_profile, evaluate,
                             select_tube, split_fifths, t_iou, v_iou)

B = Box(0.3, 0.3, 0.6, 0.6)
OFF = Box(0.0, 0.0, 0.2, 0.2)  # disjoint from B
HALF = Box(0.3, 0.3, 0.45, 0.6)  # left half of B


def tube(scores: list[float], slot: int = 0) -> Tube:
    return make_tube(slot, [B] * len(scores), scores)


class TestSelectTube:
    def test_highest_mean_confidence_wins(self):
        tubes = [tube([0.2, 0.4]), tube([0.9, 0.7], slot=1), tube([0.5, 0.5], slot=2)]
        assert select_tube(tubes) == 1

    def test_tie_goes_to_lowest_index(self):
        tubes = [tube([0.5, 0.5]), tube([0.4, 0.6], slot=1)]
        assert select_tube(tubes) == 0

    def test_span_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            select_tube([tube([0.5, 0.5]), tube([0.5], slot=1)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            select_tube([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_score_refused_before_selection(self, bad):
        # A tube scored [nan, 0.9, 0.9] used to be accepted, and against a
        # tube scored 0.5 select_tube picked index 0 in either order.
        with pytest.raises(ValidationError, match="tube 0 frame 0: score must be finite"):
            tube([bad, 0.9, 0.9])


class TestTIou:
    def test_identical(self):
        assert t_iou((3, 8), (3, 8)) == 1.0

    def test_disjoint(self):
        assert t_iou((0, 4), (5, 9)) == 0.0

    def test_partial_overlap(self):
        # [0, 9] and [5, 14]: 5 shared frames, 15 in the union.
        assert t_iou((0, 9), (5, 14)) == pytest.approx(5.0 / 15.0, abs=1e-15)

    def test_single_frame(self):
        assert t_iou((4, 4), (4, 4)) == 1.0
        assert t_iou((4, 4), (5, 5)) == 0.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError):
            t_iou((5, 3), (0, 4))


class TestVIou:
    def test_perfect(self):
        gt = make_gt(0, [B] * 5)
        p = make_prediction(0, 4, 0, [B] * 5)
        assert v_iou(p, gt) == 1.0

    def test_disjoint_boxes(self):
        gt = make_gt(0, [B] * 5)
        p = make_prediction(0, 4, 0, [OFF] * 5)
        assert v_iou(p, gt) == 0.0

    def test_half_boxes(self):
        gt = make_gt(0, [B] * 4)
        p = make_prediction(0, 3, 0, [HALF] * 4)
        assert v_iou(p, gt) == pytest.approx(0.5, abs=1e-12)

    def test_interval_mismatch_dilutes(self):
        # Perfect boxes on half the frames: intersection 5, union 10.
        gt = make_gt(0, [B] * 10)
        p = make_prediction(0, 4, 0, [B] * 5)
        assert v_iou(p, gt) == pytest.approx(0.5, abs=1e-12)

    def test_partial_temporal_coverage(self):
        # Perfect boxes on 2 of 5 union frames.
        gt = make_gt(0, [B] * 5)
        p = make_prediction(2, 3, 2, [B, B])
        assert v_iou(p, gt) == pytest.approx(2.0 / 5.0, abs=1e-12)

    @pytest.mark.parametrize("ts, t0", [(10, 8), (10, 10)])
    def test_disjoint_intervals(self, ts, t0):
        # No shared frame: nothing is read past either end of the boxes.
        gt = make_gt(0, [B] * 4)
        assert v_iou(make_prediction(ts, ts + 2, t0, [B] * 5), gt) == 0.0
        assert v_iou(make_prediction(0, 2, 0, [B] * 3), make_gt(5, [B] * 4)) == 0.0


class TestPrediction:
    def test_contiguous_boxes_required(self):
        with pytest.raises(ValidationError, match="contiguous"):
            Prediction.from_tube(make_tube(0, [B, B], 1.0, t=[0, 2]), ts=0, te=2)

    def test_interval_must_be_covered(self):
        with pytest.raises(ValidationError):
            make_prediction(0, 5, 0, [B] * 3)

    def test_boxes_are_a_read_only_copy(self):
        rows = np.array([[0.3, 0.3, 0.6, 0.6]] * 3)
        p = Prediction(ts=4, te=5, t0=4, boxes=rows)
        rows[0, 0] = 0.0
        assert p.boxes[0, 0] == 0.3 and not p.boxes.flags.writeable

    def test_from_tube(self):
        t = tube([0.9, 0.8, 0.7])
        p = Prediction.from_tube(t, ts=1, te=2)
        assert (p.ts, p.te) == (1, 2)
        assert (p.t0, p.boxes.tolist()) == (0, t.boxes.tolist())


class TestSplitFifths:
    def test_twelve_frames(self):
        # 12 = 2 * 5 + 2, so the first two parts take the extra frames.
        assert split_fifths(0, 11) == [(0, 2), (3, 5), (6, 7), (8, 9), (10, 11)]

    def test_exact_multiple(self):
        assert split_fifths(10, 19) == [(10, 11), (12, 13), (14, 15), (16, 17), (18, 19)]

    def test_five_frames(self):
        assert split_fifths(0, 4) == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            split_fifths(0, 3)

    def test_parts_partition_interval(self):
        for n in range(5, 40):
            parts = split_fifths(7, 7 + n - 1)
            assert parts[0][0] == 7
            assert parts[-1][1] == 7 + n - 1
            for (_, e1), (s2, _) in zip(parts, parts[1:]):
                assert s2 == e1 + 1


class TestDriftProfile:
    def test_perfect_is_all_ones(self):
        gt = make_gt(0, [B] * 10)
        p = make_prediction(0, 9, 0, [B] * 10)
        assert drift_profile(p, gt) == [1.0] * 5

    def test_decaying_tail(self):
        # Perfect for the first six frames, disjoint afterwards.
        gt = make_gt(0, [B] * 10)
        boxes = [B if t < 6 else OFF for t in range(10)]
        profile = drift_profile(make_prediction(0, 9, 0, boxes), gt)
        assert profile == [1.0, 1.0, 1.0, 0.0, 0.0]
        assert all(a >= b for a, b in zip(profile, profile[1:]))

    def test_requires_full_gt_coverage(self):
        gt = make_gt(0, [B] * 10)
        with pytest.raises(ValidationError):
            drift_profile(make_prediction(0, 4, 0, [B] * 5), gt)


class TestEvaluate:
    def _sample(self, box: Box, n: int = 5):
        gt = make_gt(0, [B] * n)
        return make_prediction(0, n - 1, 0, [box] * n), gt

    def test_perfect_predictions(self):
        report = evaluate([self._sample(B), self._sample(B)])
        assert report.m_t_iou == 1.0
        assert report.m_v_iou == 1.0
        assert report.v_iou_at == {0.3: 1.0, 0.5: 1.0}

    def test_mixed_thresholds(self):
        # Sample vIoUs 1.0 and 0.0: mean 0.5, half clear each threshold.
        report = evaluate([self._sample(B), self._sample(OFF)])
        assert report.m_v_iou == pytest.approx(0.5, abs=1e-12)
        assert report.v_iou_at[0.3] == 0.5
        assert report.v_iou_at[0.5] == 0.5

    def test_aggregates_self_consistent(self):
        rng = np.random.default_rng(43)
        samples = []
        for _ in range(30):
            x1 = rng.uniform(0.0, 0.6)
            box = Box(x1, 0.3, x1 + 0.3, 0.6)
            samples.append(self._sample(box))
        report = evaluate(samples, thresholds=(0.25, 0.5, 0.75))
        assert report.m_v_iou == pytest.approx(
            np.mean([s.v_iou for s in report.samples]), abs=1e-12)
        assert report.m_t_iou == pytest.approx(
            np.mean([s.t_iou for s in report.samples]), abs=1e-12)
        for tau, rate in report.v_iou_at.items():
            frac = np.mean([1.0 if s.v_iou >= tau else 0.0 for s in report.samples])
            assert rate == pytest.approx(frac, abs=1e-12)

    def test_order_invariance(self):
        samples = [self._sample(B), self._sample(OFF), self._sample(HALF)]
        fwd = evaluate(samples)
        rev = evaluate(list(reversed(samples)))
        assert fwd.m_t_iou == rev.m_t_iou
        assert fwd.m_v_iou == rev.m_v_iou
        assert fwd.v_iou_at == rev.v_iou_at

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([])

    def test_threshold_range_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([self._sample(B)], thresholds=(1.5,))

    def test_report_type(self):
        assert isinstance(evaluate([self._sample(B)]), EvalReport)
