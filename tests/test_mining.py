"""Tube mining: cost terms against hand-computed values, winner selection."""
import numpy as np
import pytest

from conftest import make_tube
from tubekit.association import Tube
from tubekit.errors import ValidationError
from tubekit.geometry import Box
from tubekit.mining import (CostBreakdown, CostWeights, GtTube, center_size_l1,
                            match_cost, mine_best_tube, temporal_cost)

B = Box(0.2, 0.2, 0.4, 0.4)
B_SHIFT = Box(0.3, 0.2, 0.5, 0.4)  # same box moved +0.1 along x


def tube(records: list[tuple[int, Box, float]], slot: int = 0) -> Tube:
    ts, boxes, scores = zip(*records)
    return make_tube(slot, list(boxes), list(scores), t=list(ts))


class TestGtTube:
    def test_dense_interval_ok(self):
        gt = GtTube(ts=3, te=5, boxes={3: B, 4: B, 5: B})
        assert gt.length == 3

    def test_missing_frame_rejected(self):
        with pytest.raises(ValidationError):
            GtTube(ts=0, te=2, boxes={0: B, 2: B})

    def test_extra_frame_rejected(self):
        with pytest.raises(ValidationError):
            GtTube(ts=0, te=1, boxes={0: B, 1: B, 5: B})

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError):
            GtTube(ts=4, te=2, boxes={})


class TestCostTerms:
    def test_center_size_l1_shift(self):
        assert center_size_l1(B, B_SHIFT) == pytest.approx(0.1, abs=1e-12)

    def test_center_size_l1_zero(self):
        assert center_size_l1(B, B) == 0.0

    def test_temporal_cost_static_tube(self):
        assert temporal_cost(tube([(0, B, 1.0), (1, B, 1.0), (2, B, 1.0)])) == 0.0

    def test_temporal_cost_quarter_jump(self):
        # Opposite quadrants give giou -0.5, so the single pair costs 1.5.
        a = Box(0.0, 0.0, 0.5, 0.5)
        b = Box(0.5, 0.5, 1.0, 1.0)
        assert temporal_cost(tube([(0, a, 1.0), (1, b, 1.0)])) == pytest.approx(1.5, abs=1e-12)

    def test_temporal_cost_mixed_pairs(self):
        # Pair one is identical (giou 1), pair two tiles the hull (giou 0).
        a = Box(0.0, 0.0, 1.0, 0.5)
        b = Box(0.0, 0.5, 1.0, 1.0)
        assert temporal_cost(tube([(0, a, 1.0), (1, a, 1.0), (2, b, 1.0)])) == pytest.approx(
            0.5, abs=1e-12)

    def test_temporal_cost_time_reversal(self):
        rng = np.random.default_rng(19)
        recs = []
        for t in range(6):
            x1 = rng.uniform(0.0, 0.6)
            y1 = rng.uniform(0.0, 0.6)
            recs.append((t, Box(x1, y1, x1 + 0.3, y1 + 0.3), 1.0))
        fwd = temporal_cost(tube(recs))
        rev = temporal_cost(tube([(t, b, s) for t, (_, b, s) in
                                  zip(range(6), reversed(recs))]))
        assert rev == pytest.approx(fwd, abs=1e-12)

    def test_temporal_cost_needs_two_records(self):
        with pytest.raises(ValidationError):
            temporal_cost(tube([(0, B, 1.0)]))


class TestMatchCost:
    def test_perfect_tube_costs_nothing(self):
        gt = GtTube(ts=1, te=2, boxes={1: B, 2: B})
        bd = match_cost(tube([(0, B, 1.0), (1, B, 1.0), (2, B, 1.0)]), gt)
        assert bd.c_cls == 0.0
        assert bd.c_bbox == 0.0
        assert bd.c_giou == 0.0
        assert bd.c_temp == 0.0
        assert bd.total == 0.0

    def test_hand_computed_breakdown(self):
        # GT frames 1..2 static at B.  The tube drifts to B_SHIFT at t=1 with
        # confidence 0.8 and is back on B elsewhere.
        gt = GtTube(ts=1, te=2, boxes={1: B, 2: B})
        t = tube([(0, B, 0.9), (1, B_SHIFT, 0.8), (2, B, 0.6), (3, B, 1.0)])
        bd = match_cost(t, gt)
        assert bd.c_cls == pytest.approx((0.2 + 0.4) / 2, abs=1e-12)
        assert bd.c_bbox == pytest.approx(0.05, abs=1e-12)
        # B vs B_SHIFT: inter 0.02, union 0.06, hull = union, giou = 1/3.
        assert bd.c_giou == pytest.approx((1 - 1.0 / 3.0) / 2, abs=1e-12)
        assert bd.c_temp == pytest.approx((2.0 / 3.0 + 2.0 / 3.0 + 0.0) / 3, abs=1e-12)
        expected_total = (1.0 * bd.c_cls + 5.0 * bd.c_bbox
                          + 3.0 * bd.c_giou + 2.0 * bd.c_temp)
        assert bd.total == pytest.approx(expected_total, abs=0)
        assert bd.total == pytest.approx(0.3 + 0.25 + 1.0 + 8.0 / 9.0, abs=1e-12)

    def test_default_weight_arithmetic(self):
        # Reference check on the default weights: a breakdown of
        # (0.2, 0.1, 0.3, 0.4) must combine to 2.4.
        w = CostWeights()
        total = (w.w_cls * 0.2 + w.w_bbox * 0.1 + w.w_giou * 0.3 + w.w_temp * 0.4)
        assert total == pytest.approx(2.4, abs=1e-12)

    def test_weighted_sum_law(self):
        rng = np.random.default_rng(37)
        gt = GtTube(ts=0, te=3, boxes={t: B for t in range(4)})
        for _ in range(25):
            recs = []
            for t in range(4):
                x1 = rng.uniform(0.1, 0.5)
                y1 = rng.uniform(0.1, 0.5)
                recs.append((t, Box(x1, y1, x1 + 0.25, y1 + 0.25),
                             float(rng.uniform(0.0, 1.0))))
            w = CostWeights(w_cls=float(rng.uniform(0, 2)),
                            w_bbox=float(rng.uniform(0, 2)),
                            w_giou=float(rng.uniform(0, 2)),
                            w_temp=float(rng.uniform(0, 2)))
            bd = match_cost(tube(recs), gt, w)
            manual = (w.w_cls * bd.c_cls + w.w_bbox * bd.c_bbox
                      + w.w_giou * bd.c_giou + w.w_temp * bd.c_temp)
            assert bd.total == pytest.approx(manual, abs=1e-12)
            doubled = match_cost(tube(recs), gt, CostWeights(
                w_cls=2 * w.w_cls, w_bbox=2 * w.w_bbox,
                w_giou=2 * w.w_giou, w_temp=2 * w.w_temp))
            assert doubled.total == pytest.approx(2 * bd.total, rel=1e-12)

    def test_uncovered_gt_frames_rejected(self):
        gt = GtTube(ts=0, te=3, boxes={t: B for t in range(4)})
        with pytest.raises(ValidationError):
            match_cost(tube([(0, B, 1.0), (1, B, 1.0)]), gt)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            CostWeights(w_bbox=-1.0)


class TestMineBestTube:
    def _planted_clip(self, jitter_outside_only: bool):
        # Frames 0..5, GT over [2, 3].  Tube 0 sits on the GT box everywhere.
        # Tube 1 is identical inside the interval but jitters outside it.
        gt = GtTube(ts=2, te=3, boxes={2: B, 3: B})
        off = Box(0.6, 0.6, 0.8, 0.8)
        smooth = tube([(t, B, 1.0) for t in range(6)], slot=0)
        jitter_recs = []
        for t in range(6):
            inside = 2 <= t <= 3
            box = B if (inside or not jitter_outside_only) else (off if t % 2 else B)
            jitter_recs.append((t, box, 1.0))
        jittery = tube(jitter_recs, slot=1)
        return gt, smooth, jittery

    def test_planted_winner(self):
        gt, smooth, jittery = self._planted_clip(jitter_outside_only=True)
        best, breakdowns = mine_best_tube([smooth, jittery], gt)
        assert best == 0
        assert breakdowns[0].total < breakdowns[1].total

    def test_temporal_weight_zero_ignores_outside_jitter(self):
        gt, smooth, jittery = self._planted_clip(jitter_outside_only=True)
        w = CostWeights(w_temp=0.0)
        best, breakdowns = mine_best_tube([smooth, jittery], gt, w)
        assert breakdowns[0].total == breakdowns[1].total
        assert best == 0
        # Same tie with the jittery tube listed first: index 0 again.
        best2, _ = mine_best_tube([jittery, smooth], gt, w)
        assert best2 == 0

    def test_empty_tube_list_rejected(self):
        gt = GtTube(ts=0, te=0, boxes={0: B})
        with pytest.raises(ValidationError):
            mine_best_tube([], gt)

    def test_breakdown_per_tube(self):
        gt, smooth, jittery = self._planted_clip(jitter_outside_only=True)
        _, breakdowns = mine_best_tube([smooth, jittery], gt)
        assert len(breakdowns) == 2
        assert all(isinstance(b, CostBreakdown) for b in breakdowns)
