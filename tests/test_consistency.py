"""Consistency losses and their analytic gradients.

The gradient oracle here is central finite differencing of the public loss
functions, rebuilt through the public constructors for every probe, so it
shares no code with the analytic path.  grad_check's local probe is checked
against central differences of the whole loss, one coordinate at a time.
The feature loss and its gradient must equal, bit for bit, the per-pair
loops below, which the array code replaced.
"""
import time

import numpy as np
import pytest

from conftest import make_smooth_tube, make_tube
from tubekit.assignment import cos_pairs
from tubekit.consistency import (GradCheckReport, Gradients, LossWeights,
                                 MinedTube, _local_differences,
                                 combined_loss, feature_loss, geom_loss,
                                 grad_check, loss_gradients)
from tubekit.errors import NonSmoothError, ValidationError
from tubekit.geometry import Box, corners, giou_pairs
from tubekit.mining import corner_temporal_cost, temporal_cost

A = Box(0.2, 0.2, 0.5, 0.5)
B = Box(0.3, 0.25, 0.62, 0.57)  # strict overlap with A, no tied coordinate


def oracle_feature_loss(f: np.ndarray) -> float:
    acc = 0.0
    for t in range(f.shape[0] - 1):
        u, v = f[t], f[t + 1]
        acc += 1.0 - float(np.dot(u, v)) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
    return acc / (f.shape[0] - 1)


def oracle_feature_gradients(f: np.ndarray) -> np.ndarray:
    scale = 1.0 / (f.shape[0] - 1)
    d_features = np.zeros_like(f)
    for t in range(f.shape[0] - 1):
        u, v = f[t], f[t + 1]
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        cos = float(np.dot(u, v)) / (nu * nv)
        d_features[t] -= scale * (v / (nu * nv) - cos * u / (nu * nu))
        d_features[t + 1] -= scale * (u / (nu * nv) - cos * v / (nv * nv))
    return d_features


def fd_feature_gradients(tube: MinedTube, h: float = 1e-6) -> np.ndarray:
    base = np.array(tube.features, dtype=float)
    out = np.zeros_like(base)
    for t in range(base.shape[0]):
        for d in range(base.shape[1]):
            hi = base.copy()
            hi[t, d] += h
            lo = base.copy()
            lo[t, d] -= h
            out[t, d] = (feature_loss(MinedTube(features=hi, boxes=tube.boxes))
                         - feature_loss(MinedTube(features=lo, boxes=tube.boxes))) / (2 * h)
    return out


def fd_box_gradients(tube: MinedTube, h: float = 1e-6) -> np.ndarray:
    base = np.array(tube.boxes, dtype=float)
    out = np.zeros_like(base)
    for t in range(base.shape[0]):
        for k in range(4):
            hi = base.copy()
            hi[t, k] += h
            lo = base.copy()
            lo[t, k] -= h
            out[t, k] = (geom_loss(MinedTube(features=tube.features, boxes=hi))
                         - geom_loss(MinedTube(features=tube.features, boxes=lo))) / (2 * h)
    return out


def whole_loss_differences(tube: MinedTube, h: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of the whole feature and geometry losses, one
    coordinate at a time, on raw arrays: grad_check's probe before it
    differenced only the pair terms a coordinate enters."""
    f = np.array(tube.features, dtype=float)
    boxes = np.array(tube.boxes, dtype=float)
    out = []
    for x, loss in ((f, oracle_feature_loss), (boxes, corner_temporal_cost)):
        num = np.empty_like(x)
        for t in range(x.shape[0]):
            for k in range(x.shape[1]):
                orig = x[t, k]
                x[t, k] = orig + h
                hi = loss(x)
                x[t, k] = orig - h
                lo = loss(x)
                x[t, k] = orig
                num[t, k] = (hi - lo) / (2.0 * h)
        out.append(num)
    return out[0], out[1]


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestMinedTube:
    def test_needs_two_frames(self):
        with pytest.raises(ValidationError):
            MinedTube(features=np.ones((1, 4)), boxes=corners([A]))

    def test_box_count_must_match(self):
        with pytest.raises(ValidationError):
            MinedTube(features=np.ones((3, 4)), boxes=corners([A, B]))

    def test_zero_norm_row_rejected(self):
        f = np.ones((2, 4))
        f[1] = 0.0
        with pytest.raises(ValidationError):
            MinedTube(features=f, boxes=corners([A, B]))

    def test_overflowing_norm_row_rejected(self):
        f = np.ones((2, 4))
        f[1] = 1e200
        with pytest.raises(ValidationError, match="overflows"):
            MinedTube(features=f, boxes=corners([A, B]))

    def test_features_read_only(self):
        mt = MinedTube(features=np.ones((2, 4)), boxes=corners([A, B]))
        with pytest.raises(ValueError):
            mt.features[0, 0] = 2.0

    def test_from_tube_requires_embeddings(self):
        tube = make_tube(3, [A, B], 1.0)
        with pytest.raises(ValidationError, match="embeddings"):
            MinedTube.from_tube(tube)

    def test_from_tube_stacks_records(self):
        tube = make_tube(0, [A, B], 1.0, features=np.eye(2))
        mt = MinedTube.from_tube(tube)
        assert mt.length == 2
        assert np.array_equal(mt.features, np.eye(2))
        assert np.array_equal(mt.boxes, corners([A, B]))


class TestLossValues:
    def test_feature_loss_orthogonal_alternation(self):
        # Pairs (e1, e2) and (e2, e1): each costs 1, mean is exactly 1.
        mt = MinedTube(features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                       boxes=corners([A, A, A]))
        assert feature_loss(mt) == 1.0

    def test_feature_loss_antipodal(self):
        mt = MinedTube(features=np.array([[1.0, 1.0], [-1.0, -1.0]]), boxes=corners([A, A]))
        assert feature_loss(mt) == pytest.approx(2.0, abs=1e-12)

    def test_constant_tube_both_losses_zero(self):
        mt = MinedTube(features=np.tile([1.0, 2.0, 3.0], (4, 1)),
                       boxes=corners([A, A, A, A]))
        assert geom_loss(mt) == 0.0
        assert feature_loss(mt) == pytest.approx(0.0, abs=1e-12)

    def test_geom_loss_matches_mining_temporal_cost_bitwise(self):
        rng = np.random.default_rng(41)
        for seed in range(100):
            boxes = []
            x1 = rng.uniform(0.1, 0.5)
            y1 = rng.uniform(0.1, 0.5)
            for _ in range(5):
                x1 = float(np.clip(x1 + rng.uniform(-0.05, 0.05), 0.0, 0.6))
                y1 = float(np.clip(y1 + rng.uniform(-0.05, 0.05), 0.0, 0.6))
                boxes.append(Box(x1, y1, x1 + rng.uniform(0.2, 0.3),
                                 y1 + rng.uniform(0.2, 0.3)))
            mt = MinedTube(features=np.ones((5, 2)), boxes=corners(boxes))
            tube = make_tube(seed, boxes, 0.5)
            assert geom_loss(mt) == temporal_cost(tube)

    def test_loss_ranges(self):
        for seed in range(20):
            mt = make_smooth_tube(seed)
            assert 0.0 <= feature_loss(mt) <= 2.0
            assert 0.0 <= geom_loss(mt) <= 2.0

    def test_combined_loss_default_weights(self):
        mt = make_smooth_tube(0)
        assert combined_loss(mt) == pytest.approx(
            2.0 * geom_loss(mt) + 1.0 * feature_loss(mt), abs=1e-15)

    def test_combined_loss_custom_weights(self):
        mt = make_smooth_tube(1)
        w = LossWeights(w_temp=0.5, w_feat=3.0)
        assert combined_loss(mt, w) == pytest.approx(
            0.5 * geom_loss(mt) + 3.0 * feature_loss(mt), abs=1e-15)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            LossWeights(w_feat=-0.1)


class TestFeatureLoops:
    """feature_loss, combined_loss and the feature gradient equal the
    per-pair loops bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_array_code_equals_loops(self, seed):
        rng = np.random.default_rng(seed)
        mt = make_smooth_tube(seed, length=int(rng.integers(2, 130)),
                              dim=int(rng.integers(1, 100)))
        mt = MinedTube(features=mt.features * 10.0 ** int(rng.integers(-5, 5)), boxes=mt.boxes)
        f = np.array(mt.features)
        loss = oracle_feature_loss(f)
        assert np.float64(feature_loss(mt)).tobytes() == np.float64(loss).tobytes()
        w = LossWeights(w_temp=0.7, w_feat=1.3)
        want = w.w_temp * geom_loss(mt) + w.w_feat * loss
        assert np.float64(combined_loss(mt, w)).tobytes() == np.float64(want).tobytes()
        assert loss_gradients(mt).d_features.tobytes() == oracle_feature_gradients(f).tobytes()

    def test_layout_does_not_change_bits(self):
        mt = make_smooth_tube(3, length=40, dim=37)
        fortran = MinedTube(features=np.asfortranarray(mt.features), boxes=mt.boxes)
        assert feature_loss(fortran) == feature_loss(mt)
        assert (loss_gradients(fortran).d_features.tobytes()
                == loss_gradients(mt).d_features.tobytes())


class TestGradients:
    def test_matches_finite_differences(self):
        for seed in range(10):
            mt = make_smooth_tube(seed, length=5, dim=8)
            grads = loss_gradients(mt)
            assert max_rel_error(grads.d_features, fd_feature_gradients(mt)) < 1e-4
            assert max_rel_error(grads.d_boxes, fd_box_gradients(mt)) < 1e-4

    def test_time_reversal_mirrors_gradients_bitwise(self):
        # Reversing the frames swaps the two boxes of every pair, so the
        # second box's gradient, the first box's kernel on the swapped pair,
        # must be the mirror of the first's, bit for bit.
        for seed in range(100):
            mt = make_smooth_tube(seed, length=2 + seed % 20, dim=1 + seed % 8)
            back = MinedTube(features=mt.features[::-1], boxes=mt.boxes[::-1])
            g, r = loss_gradients(mt), loss_gradients(back)
            assert r.d_features.tobytes() == g.d_features[::-1].tobytes()
            assert r.d_boxes.tobytes() == g.d_boxes[::-1].tobytes()

    def test_feature_gradient_orthogonal_to_own_row(self):
        # Cosine is scale-free along each row, so the gradient row has no
        # radial component.
        for seed in range(5):
            mt = make_smooth_tube(seed)
            grads = loss_gradients(mt)
            for t in range(mt.length):
                assert abs(float(np.dot(grads.d_features[t], mt.features[t]))) < 1e-10

    def test_feature_loss_scale_invariance(self):
        mt = make_smooth_tube(2)
        # Power-of-two scaling commutes with every float op in the cosine.
        scaled4 = MinedTube(features=4.0 * np.array(mt.features), boxes=mt.boxes)
        assert feature_loss(scaled4) == feature_loss(mt)
        scaled3 = MinedTube(features=3.0 * np.array(mt.features), boxes=mt.boxes)
        assert feature_loss(scaled3) == pytest.approx(feature_loss(mt), abs=1e-12)

    def test_constant_tube_gradients_vanish(self):
        mt = MinedTube(features=np.tile([1.0, 2.0], (5, 1)),
                       boxes=corners([A] * 5))
        grads = loss_gradients(mt)
        assert np.all(np.abs(grads.d_features) < 1e-12)
        assert np.array_equal(grads.d_boxes, np.zeros((5, 4)))

    def test_constant_tube_grad_check(self):
        mt = MinedTube(features=np.tile([1.0, 2.0], (5, 1)), boxes=corners([A] * 5))
        report = grad_check(mt)
        assert report.max_abs_analytic < 1e-8
        assert report.max_abs_numeric < 1e-8
        assert report.skipped_kink_coords == 5 * 4

    def test_identical_pair_inside_moving_tube(self):
        # Pair (0, 1) is the flat-minimum kink, pair (1, 2) is smooth; the
        # kink contributes nothing and the rest still checks out.
        mt = MinedTube(features=np.array([[1.0, 0.2], [0.8, 0.3], [1.1, 0.1]]),
                       boxes=corners([A, A, B]))
        grads = loss_gradients(mt)
        assert np.array_equal(grads.d_boxes[0], np.zeros(4))
        report = grad_check(mt)
        assert report.skipped_kink_coords == 2 * 4
        assert report.max_rel_error < 1e-4

    def test_touching_boxes_refused(self):
        touching = Box(A.x2, 0.2, A.x2 + 0.3, 0.5)
        mt = MinedTube(features=np.ones((2, 2)), boxes=corners([A, touching]))
        with pytest.raises(NonSmoothError):
            loss_gradients(mt)

    def test_partial_coordinate_tie_refused(self):
        tied = Box(A.x1, 0.25, 0.6, 0.6)  # shares x1 with A, overlaps strictly
        mt = MinedTube(features=np.ones((2, 2)), boxes=corners([A, tied]))
        with pytest.raises(NonSmoothError):
            loss_gradients(mt)

    def test_losses_still_defined_at_kinks(self):
        # Only the gradient refuses; the loss itself is fine everywhere.
        touching = Box(A.x2, 0.2, A.x2 + 0.3, 0.5)
        mt = MinedTube(features=np.ones((2, 2)), boxes=corners([A, touching]))
        assert geom_loss(mt) > 0.0

    def test_grad_check_report_shape(self):
        report = grad_check(make_smooth_tube(3))
        assert isinstance(report, GradCheckReport)
        assert report.step == 1e-6
        assert report.skipped_kink_coords == 0
        assert report.max_rel_error < 1e-4
        assert report.max_abs_analytic > 0.0

    def test_local_probe_matches_whole_loss(self):
        for seed in range(20):
            mt = make_smooth_tube(seed, length=int(2 + seed % 6), dim=6)
            num_f, num_b = whole_loss_differences(mt)
            local_f = _local_differences(mt.features,
                                         lambda a, b: 1.0 - cos_pairs(a, b)[0], 1e-6)
            local_b = _local_differences(mt.boxes,
                                         lambda a, b: 1.0 - giou_pairs(a, b), 1e-6)
            assert np.max(np.abs(local_f - num_f)) < 1e-8
            assert np.max(np.abs(local_b - num_b)) < 1e-8

    def test_near_kink_coordinates_skipped(self):
        # Boxes 3 and 4 have y2 values 2.9e-7 apart, less than the step: a
        # central difference of either y2 straddles the min/max switch.
        mt = make_smooth_tube(7, length=8, dim=4)
        boxes = np.array(mt.boxes)
        boxes[4, 3] = boxes[3, 3] + 2.9e-7
        near = MinedTube(features=mt.features, boxes=boxes)
        report = grad_check(near)
        assert report.skipped_kink_coords == 2
        assert report.max_rel_error < 1e-4

    def test_touching_within_step_skipped(self):
        # Pair (1, 2) overlaps by less than h in x: every coordinate of both
        # boxes sits within a step of the empty-intersection kink.
        near = Box(A.x2 - 5e-7, 0.25, A.x2 + 0.3, 0.55)
        mt = MinedTube(features=np.array([[1.0, 0.2], [0.8, 0.3], [1.1, 0.1]]),
                       boxes=corners([B, A, near]))
        report = grad_check(mt)
        assert report.skipped_kink_coords == 2 * 4
        assert report.max_rel_error < 1e-4

    def test_grad_check_budget(self):
        mt = make_smooth_tube(11, length=128, dim=64)
        start = time.perf_counter()
        report = grad_check(mt)
        assert time.perf_counter() - start < 2.0
        assert report.max_rel_error < 1e-4

    def test_grad_check_step_validation(self):
        with pytest.raises(ValidationError):
            grad_check(make_smooth_tube(4), h=0.0)

    @pytest.mark.parametrize("features, h", [
        (make_smooth_tube(4, length=2).features, 1e200),   # a moved row's norm overflows
        (np.array([[1e-6, 0.0], [1e-6, 1e-6]]), 1e-6),     # a moved row is zero
    ])
    def test_grad_check_refuses_step_its_probe_cannot_take(self, features, h):
        # Refused before any probe: no RuntimeWarning from the probe's cosine.
        mt = MinedTube(features=features, boxes=corners([A, B]))
        with pytest.raises(ValidationError, match="moves a feature row to a norm that is not"):
            grad_check(mt, h)

    def test_step_refusal_matches_every_probed_row(self):
        # grad_check checks two moved rows per row; the oracle moves each
        # entry by h either way, as the probe does.  A step that is not
        # refused runs the whole probe without a warning.
        def some_probed_row_fails(f, h):
            for k in range(f.shape[1]):
                for step in (h, -h):
                    moved = f.copy()
                    moved[:, k] += step
                    with np.errstate(over="ignore"):
                        norms = np.linalg.norm(moved, axis=1)
                    if not np.all((0.0 < norms) & (norms < np.inf)):
                        return True
            return False

        rng = np.random.default_rng(23)
        boxes = make_smooth_tube(0, length=3).boxes
        refusals = checked = 0
        for _ in range(400):
            f = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-165, 155)
            f[rng.uniform(size=f.shape) < 0.6] = 0.0
            f[:, 0] = np.where((f == 0.0).all(axis=1), 1e-3, f[:, 0])
            h = (abs(rng.choice(f[f != 0.0])) if rng.uniform() < 0.3
                 else 10.0 ** rng.uniform(-165, 200))
            try:
                mt = MinedTube(features=f, boxes=boxes)
            except ValidationError:   # a norm that underflows already
                continue
            try:
                grad_check(mt, h)
                refused = False
            except ValidationError:
                refused = True
            refusals, checked = refusals + refused, checked + 1
            assert refused == some_probed_row_fails(f, h), (f, h)
        assert 50 < refusals < checked - 50

    def test_gradients_type(self):
        grads = loss_gradients(make_smooth_tube(5, length=6, dim=3))
        assert isinstance(grads, Gradients)
        assert grads.d_features.shape == (6, 3)
        assert grads.d_boxes.shape == (6, 4)
