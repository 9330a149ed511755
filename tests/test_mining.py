"""Tube mining: cost terms against hand-computed values, winner selection,
and the batched kernel against the per-tube loop it replaced."""
import re

import numpy as np
import pytest

from conftest import make_gt, make_tube
from tubekit.association import Tube
from tubekit.consistency import MinedTube, geom_loss
from tubekit.errors import ValidationError
from tubekit.geometry import Box, corners, giou_pairs, sum_in_order
from tubekit.mining import (CostBreakdown, CostWeights, GtTube, _center_size_l1_pairs,
                            match_cost, mine_best_tube, temporal_cost)

B = Box(0.2, 0.2, 0.4, 0.4)
B_SHIFT = Box(0.3, 0.2, 0.5, 0.4)  # same box moved +0.1 along x


def tube(records: list[tuple[int, Box, float]], slot: int = 0) -> Tube:
    ts, boxes, scores = zip(*records)
    return make_tube(slot, list(boxes), list(scores), t=list(ts))


class TestGtTube:
    def test_dense_interval_ok(self):
        gt = make_gt(3, [B, B, B])
        assert gt.length == 3

    def test_missing_frame_rejected(self):
        with pytest.raises(ValidationError):
            GtTube(ts=0, te=2, boxes=corners([B, B]))

    def test_extra_frame_rejected(self):
        with pytest.raises(ValidationError):
            GtTube(ts=0, te=1, boxes=corners([B, B, B]))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError):
            GtTube(ts=4, te=2, boxes=np.empty((0, 4)))

    def test_boxes_checked_and_read_only(self):
        with pytest.raises(ValidationError, match="no area"):
            GtTube(ts=0, te=0, boxes=[[0.5, 0.1, 0.5, 0.9]])
        assert not make_gt(0, [B]).boxes.flags.writeable


class TestCostTerms:
    def test_center_size_l1_shift(self):
        assert _center_size_l1_pairs(corners([B]), corners([B_SHIFT]))[0] == pytest.approx(
            0.1, abs=1e-12)

    def test_center_size_l1_zero(self):
        assert _center_size_l1_pairs(corners([B]), corners([B]))[0] == 0.0

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
        gt = make_gt(1, [B, B])
        bd = match_cost(tube([(0, B, 1.0), (1, B, 1.0), (2, B, 1.0)]), gt)
        assert bd.c_cls == 0.0
        assert bd.c_bbox == 0.0
        assert bd.c_giou == 0.0
        assert bd.c_temp == 0.0
        assert bd.total == 0.0

    def test_hand_computed_breakdown(self):
        # GT frames 1..2 static at B.  The tube drifts to B_SHIFT at t=1 with
        # confidence 0.8 and is back on B elsewhere.
        gt = make_gt(1, [B, B])
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
        gt = make_gt(0, [B] * 4)
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
        gt = make_gt(0, [B] * 4)
        with pytest.raises(ValidationError):
            match_cost(tube([(0, B, 1.0), (1, B, 1.0)]), gt)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            CostWeights(w_bbox=-1.0)


class TestMineBestTube:
    def _planted_clip(self, jitter_outside_only: bool):
        # Frames 0..5, GT over [2, 3].  Tube 0 sits on the GT box everywhere.
        # Tube 1 is identical inside the interval but jitters outside it.
        gt = make_gt(2, [B, B])
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
        gt = make_gt(0, [B])
        with pytest.raises(ValidationError):
            mine_best_tube([], gt)

    def test_breakdown_per_tube(self):
        gt, smooth, jittery = self._planted_clip(jitter_outside_only=True)
        _, breakdowns = mine_best_tube([smooth, jittery], gt)
        assert len(breakdowns) == 2
        assert all(isinstance(b, CostBreakdown) for b in breakdowns)


# ------------------------------------------------------ per-tube reference

def reference_match_cost(tube: Tube, gt: GtTube, weights: CostWeights) -> CostBreakdown:
    """The per-tube cost that the batched kernel replaced: one tube's four
    terms, each summed left to right over that tube's own frames."""
    frames = np.arange(gt.ts, gt.te + 1)
    missing = frames[~np.isin(frames, tube.t)]
    if missing.size:
        raise ValidationError(
            f"tube {tube.slot_id} does not cover GT frames {missing[:5].tolist()}")
    if len(tube.t) < 2:
        raise ValidationError(f"temporal cost needs at least 2 records, "
                              f"tube {tube.slot_id} has {len(tube.t)}")
    c = tube.boxes
    on_gt = np.searchsorted(tube.t, frames)
    a, b = c[on_gt], gt.boxes
    l1 = (np.abs(0.5 * (a[:, 0] + a[:, 2]) - 0.5 * (b[:, 0] + b[:, 2]))
          + np.abs(0.5 * (a[:, 1] + a[:, 3]) - 0.5 * (b[:, 1] + b[:, 3]))
          + np.abs((a[:, 2] - a[:, 0]) - (b[:, 2] - b[:, 0]))
          + np.abs((a[:, 3] - a[:, 1]) - (b[:, 3] - b[:, 1])))
    n = gt.length
    c_cls = sum_in_order(1.0 - tube.scores[on_gt]) / n
    c_bbox = sum_in_order(l1) / n
    c_giou = sum_in_order(1.0 - giou_pairs(a, b)) / n
    c_temp = sum_in_order(1.0 - giou_pairs(c[:-1], c[1:])) / (c.shape[0] - 1)
    total = (weights.w_cls * c_cls + weights.w_bbox * c_bbox
             + weights.w_giou * c_giou + weights.w_temp * c_temp)
    return CostBreakdown(c_cls, c_bbox, c_giou, c_temp, total)


def hexes(b: CostBreakdown) -> tuple:
    return tuple(v.hex() for v in (b.c_cls, b.c_bbox, b.c_giou, b.c_temp, b.total))


def random_tube(rng, slot: int, t) -> Tube:
    centers = np.clip(0.5 + np.cumsum(rng.normal(0, 0.03, (len(t), 2)), axis=0), 0.2, 0.8)
    sizes = rng.uniform(0.05, 0.3, (len(t), 2))
    return Tube(slot, t, np.hstack([centers - sizes / 2, centers + sizes / 2]),
                rng.choice([0.0, 1.0, 0.37, 0.9], len(t)), np.zeros(len(t), int),
                rng.normal(1.0, 0.2, (len(t), 3)))


class TestBatchedKernel:
    """mine_best_tube scores the k tubes in one kernel, and match_cost is its
    k = 1 call: every cost the same bits as the per-tube reference."""

    WEIGHTS = [CostWeights(), CostWeights(0.5, 0.0, 7.0, 1e-3)]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_tubes_of_different_lengths(self, seed, weights):
        rng = np.random.default_rng(seed)
        ts, te = 5, 5 + int(rng.integers(0, 6))
        tubes = [random_tube(rng, slot, np.arange(ts - int(rng.integers(0, 6)),
                                                  te + 1 + int(rng.integers(0, 9))))
                 for slot in range(int(rng.integers(1, 7)))]
        gt = random_tube(rng, 99, np.arange(ts, te + 1))
        gt = GtTube(ts, te, gt.boxes)
        want = [reference_match_cost(tube, gt, weights) for tube in tubes]
        best, got = mine_best_tube(tubes, gt, weights)
        assert [hexes(b) for b in got] == [hexes(b) for b in want]
        assert [hexes(match_cost(tube, gt, weights)) for tube in tubes] == [hexes(b) for b in want]
        assert best == int(np.argmin([b.total for b in want]))
        # Criterion 4: the mined tube's temporal cost is its geometry loss.
        assert got[best].c_temp == geom_loss(MinedTube.from_tube(tubes[best]))

    def test_equal_totals_go_to_the_first(self):
        rng = np.random.default_rng(3)
        one = random_tube(rng, 0, np.arange(0, 6))
        twin = Tube(2, one.t, one.boxes, one.scores, one.det)
        tubes = [random_tube(rng, 1, np.arange(0, 9)), one, twin]
        gt = GtTube(1, 4, one.boxes[1:5])
        best, got = mine_best_tube(tubes, gt)
        want = [reference_match_cost(tube, gt, CostWeights()) for tube in tubes]
        assert hexes(got[1]) == hexes(got[2]) == hexes(want[1])
        assert best == int(np.argmin([b.total for b in want]))

    @pytest.mark.parametrize("t, gt_frames", [
        ([0, 1, 3, 4], (1, 3)),    # a gap on a GT frame
        ([2, 3, 4], (1, 3)),       # starts after ts
        ([0, 1, 2], (1, 3)),       # ends before te
        ([], (1, 3)),              # no records
        ([7, 8, 9], (1, 3)),       # all after te
        ([3], (3, 3)),             # one record, on the one GT frame
        ([2], (3, 3)),             # one record, elsewhere
    ])
    def test_first_tube_at_fault_named_as_before(self, t, gt_frames):
        rng = np.random.default_rng(1)
        ts, te = gt_frames
        gt = GtTube(ts, te, random_tube(rng, 9, np.arange(ts, te + 1)).boxes)
        good = random_tube(rng, 0, np.arange(0, 10))
        tubes = [good, random_tube(rng, 1, np.array(t, dtype=int)),
                 random_tube(rng, 2, np.array([ts]))]   # at fault too, but later
        with pytest.raises(ValidationError) as want:
            for tube in tubes:
                reference_match_cost(tube, gt, CostWeights())
        with pytest.raises(ValidationError) as got:
            mine_best_tube(tubes, gt)
        assert str(got.value) == str(want.value)
        assert "tube 1 " in str(got.value)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(want.value))}$"):
            match_cost(tubes[1], gt)
