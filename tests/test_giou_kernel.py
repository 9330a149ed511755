"""The array IoU and GIoU kernels against scalar oracles, bit for bit.

`giou_pairs` and `iou_pairs` are compared with the scalar `geometry.giou`
and `geometry.iou`.  Mining costs, the geometry loss, the loss gradients,
v_iou and the drift profile are compared with the per-frame Python loops
they replaced, copied below unchanged as oracles.  Every
comparison is `==` on floats or on `tobytes()`, never approximate: the array
code performs the same IEEE operations in the same order.
"""
import re

import numpy as np
import pytest

from tubekit.association import AssociationConfig, Tube, run_association
from tubekit.consistency import MinedTube, geom_loss, loss_gradients
from tubekit.errors import NonSmoothError
from tubekit.geometry import Box, corners, giou, giou_pairs, iou, iou_pairs, sum_in_order
from tubekit.metrics import Prediction, drift_profile, split_fifths, v_iou
from tubekit.mining import (CostWeights, GtTube, match_cost, mine_best_tube,
                            temporal_cost)
from tubekit.scenes import SceneConfig, generate_scene


# ----------------------------------------------------------------- oracles
# The scalar loops the array code replaced, kept as the reference.

def oracle_center_size_l1(a: Box, b: Box) -> float:
    acx, acy, aw, ah = 0.5 * (a.x1 + a.x2), 0.5 * (a.y1 + a.y2), a.x2 - a.x1, a.y2 - a.y1
    bcx, bcy, bw, bh = 0.5 * (b.x1 + b.x2), 0.5 * (b.y1 + b.y2), b.x2 - b.x1, b.y2 - b.y1
    return abs(acx - bcx) + abs(acy - bcy) + abs(aw - bw) + abs(ah - bh)


def oracle_temporal_cost(boxes: list[Box]) -> float:
    acc = 0.0
    for a, b in zip(boxes, boxes[1:]):
        acc += 1.0 - giou(a, b)
    return acc / (len(boxes) - 1)


def oracle_match_cost(tube: Tube, gt: GtTube, w: CostWeights) -> tuple:
    by_t = {r.t: r for r in tube.records}
    c_cls = c_bbox = c_giou = 0.0
    for t in range(gt.ts, gt.te + 1):
        rec = by_t[t]
        c_cls += 1.0 - rec.score
        c_bbox += oracle_center_size_l1(rec.box, gt.boxes[t])
        c_giou += 1.0 - giou(rec.box, gt.boxes[t])
    n = gt.length
    c_cls /= n
    c_bbox /= n
    c_giou /= n
    c_temp = oracle_temporal_cost([r.box for r in tube.records])
    total = w.w_cls * c_cls + w.w_bbox * c_bbox + w.w_giou * c_giou + w.w_temp * c_temp
    return c_cls, c_bbox, c_giou, c_temp, total


def oracle_v_iou(pred: Prediction, gt: GtTube) -> float:
    s_i = range(max(pred.ts, gt.ts), min(pred.te, gt.te) + 1)
    s_u = (pred.te - pred.ts + 1) + (gt.te - gt.ts + 1) - len(s_i)
    acc = 0.0
    for t in s_i:
        acc += iou(pred.boxes[t], gt.boxes[t])
    return acc / s_u


def oracle_drift_profile(pred: Prediction, gt: GtTube) -> list[float]:
    profile = []
    for ps, pe in split_fifths(gt.ts, gt.te):
        vals = [iou(pred.boxes[t], gt.boxes[t]) for t in range(ps, pe + 1)]
        profile.append(float(np.mean(vals)))
    return profile


def _oracle_check_pair_smooth(a, b, t):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        raise NonSmoothError(
            f"non-smooth point: boxes at frames {t} and {t + 1} touch or do not overlap")
    if a[0] == b[0] or a[1] == b[1] or a[2] == b[2] or a[3] == b[3]:
        raise NonSmoothError(
            f"non-smooth point: boxes at frames {t} and {t + 1} share a coordinate")


def _oracle_giou_pair_grads(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = iw * ih
    wa, ha = a[2] - a[0], a[3] - a[1]
    wb, hb = b[2] - b[0], b[3] - b[1]
    u = wa * ha + wb * hb - inter
    cw = max(a[2], b[2]) - min(a[0], b[0])
    ch = max(a[3], b[3]) - min(a[1], b[1])
    c = cw * ch
    di_a = np.array([-ih if a[0] > b[0] else 0.0, -iw if a[1] > b[1] else 0.0,
                     ih if a[2] < b[2] else 0.0, iw if a[3] < b[3] else 0.0])
    di_b = np.array([-ih if b[0] > a[0] else 0.0, -iw if b[1] > a[1] else 0.0,
                     ih if b[2] < a[2] else 0.0, iw if b[3] < a[3] else 0.0])
    du_a = np.array([-ha, -wa, ha, wa]) - di_a
    du_b = np.array([-hb, -wb, hb, wb]) - di_b
    dc_a = np.array([-ch if a[0] < b[0] else 0.0, -cw if a[1] < b[1] else 0.0,
                     ch if a[2] > b[2] else 0.0, cw if a[3] > b[3] else 0.0])
    dc_b = np.array([-ch if b[0] < a[0] else 0.0, -cw if b[1] < a[1] else 0.0,
                     ch if b[2] > a[2] else 0.0, cw if b[3] > a[3] else 0.0])
    dg_a = (di_a * u - inter * du_a) / (u * u) + (du_a * c - u * dc_a) / (c * c)
    dg_b = (di_b * u - inter * du_b) / (u * u) + (du_b * c - u * dc_b) / (c * c)
    return dg_a, dg_b


def oracle_loss_gradients(tube: MinedTube) -> tuple[np.ndarray, np.ndarray]:
    f = tube.features
    n = f.shape[0]
    scale = 1.0 / (n - 1)
    d_features = np.zeros_like(f)
    for t in range(n - 1):
        u, v = f[t], f[t + 1]
        nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        cos = float(np.dot(u, v)) / (nu * nv)
        d_features[t] -= scale * (v / (nu * nv) - cos * u / (nu * nu))
        d_features[t + 1] -= scale * (u / (nu * nv) - cos * v / (nv * nv))
    boxes = np.array(tube.boxes, dtype=float)
    d_boxes = np.zeros((n, 4), dtype=float)
    for t in range(n - 1):
        a, b = boxes[t], boxes[t + 1]
        if a[0] == b[0] and a[1] == b[1] and a[2] == b[2] and a[3] == b[3]:
            continue
        _oracle_check_pair_smooth(a, b, t)
        dg_a, dg_b = _oracle_giou_pair_grads(a, b)
        d_boxes[t] -= scale * dg_a
        d_boxes[t + 1] -= scale * dg_b
    return d_features, d_boxes


def _outcome(fn, *args):
    """fn's result, or the NonSmoothError message it raised."""
    try:
        return fn(*args)
    except NonSmoothError as e:
        return f"NonSmoothError: {e}"


def _grad_bytes(tube: MinedTube):
    g = loss_gradients(tube)
    return g.d_features.tobytes() + g.d_boxes.tobytes()


def _oracle_grad_bytes(tube: MinedTube):
    d_features, d_boxes = oracle_loss_gradients(tube)
    return d_features.tobytes() + d_boxes.tobytes()


# ------------------------------------------------------------------ kernel

def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


EDGE_PAIRS = [
    ("identical", Box(0.2, 0.3, 0.6, 0.7), Box(0.2, 0.3, 0.6, 0.7)),
    ("touching", Box(0.1, 0.1, 0.4, 0.4), Box(0.4, 0.1, 0.7, 0.4)),
    ("touching corner", Box(0.1, 0.1, 0.4, 0.4), Box(0.4, 0.4, 0.7, 0.7)),
    ("disjoint", Box(0.0, 0.0, 0.1, 0.1), Box(0.8, 0.85, 0.9, 1.0)),
    ("nested", Box(0.1, 0.1, 0.9, 0.9), Box(0.3, 0.4, 0.5, 0.6)),
    ("shared edge", Box(0.1, 0.2, 0.5, 0.6), Box(0.1, 0.3, 0.4, 0.6)),
    ("clamped", Box(-0.3, -1e-9, 0.2, 0.5), Box(0.1, 0.2, 1.7, 1.0 + 1e-12)),
    ("whole square", Box(0.0, 0.0, 1.0, 1.0), Box(-5.0, -5.0, 5.0, 5.0)),
    ("thin", Box(0.5, 0.0, 0.5 + 1e-12, 1.0), Box(0.0, 0.5, 1.0, 0.5 + 1e-12)),
    ("negative zero", Box(-0.0, -0.0, 0.3, 0.3), Box(0.0, 0.0, 0.3, 0.4)),
]


class TestGiouPairs:
    @pytest.mark.parametrize("name, a, b", EDGE_PAIRS, ids=[p[0] for p in EDGE_PAIRS])
    def test_edge_cases_equal_scalar_bitwise(self, name, a, b):
        got = giou_pairs(corners([a, b]), corners([b, a]))
        assert _bits(got[0]) == _bits(giou(a, b))
        assert _bits(got[1]) == _bits(giou(b, a))

    def test_seeded_batch_equals_scalar_bitwise(self):
        rng = np.random.default_rng(2019)
        n = 20000
        lo = rng.uniform(-0.1, 0.9, size=(2 * n, 2))
        ext = rng.uniform(0.1 + 1e-6, 0.6, size=(2 * n, 2))   # some clamp at 1
        boxes = [Box(x, y, x + w, y + h) for (x, y), (w, h) in zip(lo, ext)]
        # Corners on a coarse grid, so that ties and touches occur.
        grid = np.round(rng.uniform(0.0, 0.9, size=(2000, 2)), 1)
        ext = np.round(rng.uniform(0.1, 0.5, size=(2000, 2)), 1)
        boxes += [Box(x, y, x + w, y + h) for (x, y), (w, h) in zip(grid, ext)]
        a, b = boxes[0::2], boxes[1::2]
        got = giou_pairs(corners(a), corners(b))
        want = np.array([giou(p, q) for p, q in zip(a, b)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, a, b", EDGE_PAIRS, ids=[p[0] for p in EDGE_PAIRS])
    def test_iou_edge_cases_equal_scalar_bitwise(self, name, a, b):
        got = iou_pairs(corners([a, b]), corners([b, a]))
        assert _bits(got[0]) == _bits(iou(a, b))
        assert _bits(got[1]) == _bits(iou(b, a))

    def test_iou_seeded_batch_equals_scalar_bitwise(self):
        rng = np.random.default_rng(2020)
        lo = rng.uniform(-0.1, 0.9, size=(20000, 2))
        ext = rng.uniform(0.1 + 1e-6, 0.6, size=(20000, 2))
        boxes = [Box(x, y, x + w, y + h) for (x, y), (w, h) in zip(lo, ext)]
        grid = np.round(rng.uniform(0.0, 0.9, size=(2000, 2)), 1)
        ext = np.round(rng.uniform(0.1, 0.5, size=(2000, 2)), 1)
        boxes += [Box(x, y, x + w, y + h) for (x, y), (w, h) in zip(grid, ext)]
        a, b = boxes[0::2], boxes[1::2]
        want = np.array([iou(p, q) for p, q in zip(a, b)])
        assert iou_pairs(corners(a), corners(b)).tobytes() == want.tobytes()
        assert (want == 0.0).any() and (want == 1.0).any()

    def test_corners_keep_field_order(self):
        c = corners([Box(0.1, 0.2, 0.3, 0.4)])
        assert c.shape == (1, 4) and c.tolist() == [[0.1, 0.2, 0.3, 0.4]]
        assert corners([]).shape == (0, 4)

    def test_sum_in_order_is_sequential(self):
        rng = np.random.default_rng(7)
        differs_from_np_sum = 0
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(1, 300))) * 10.0 ** rng.integers(-5, 5)
            acc = 0.0
            for x in v.tolist():
                acc += x
            assert _bits(sum_in_order(v)) == _bits(acc)
            differs_from_np_sum += float(np.sum(v)) != acc
        assert differs_from_np_sum > 0   # the order matters on this data
        assert _bits(sum_in_order(np.array([-0.0, -0.0]))) == _bits(0.0)
        assert sum_in_order(np.array([])) == 0.0


# ------------------------------------------------------ callers vs oracles

def _scene_tubes(seed: int):
    cfg = SceneConfig(seed=seed, frames=40, objects=3, feature_dim=6,
                      motion_step=0.02, detection_noise=0.01 * (seed % 3),
                      distractor_rate=0.6, appearance_drift=0.05)
    scene = generate_scene(cfg)
    tubes = run_association(scene.frames, AssociationConfig(n_q=4, alpha=0.2))
    return tubes, scene.gt


SEEDS = range(20)


class TestCallersEqualOracles:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mining_costs(self, seed):
        tubes, gt = _scene_tubes(seed)
        w = CostWeights(w_cls=0.7, w_bbox=5.0, w_giou=3.0, w_temp=2.0)
        best, costs = mine_best_tube(tubes, gt, w)
        for tube, got in zip(tubes, costs):
            want = oracle_match_cost(tube, gt, w)
            assert (got.c_cls, got.c_bbox, got.c_giou, got.c_temp, got.total) == want
            single = match_cost(tube, gt, w)
            assert single == got
            assert temporal_cost(tube) == want[3]
        totals = [c.total for c in costs]
        assert best == totals.index(min(totals))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_geom_loss_and_gradients(self, seed):
        tubes, _ = _scene_tubes(seed)
        for tube in tubes:
            mined = MinedTube.from_tube(tube)
            assert geom_loss(mined) == oracle_temporal_cost([Box(*r) for r in mined.boxes.tolist()])
            assert _outcome(_grad_bytes, mined) == _outcome(_oracle_grad_bytes, mined)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_v_iou_and_drift_profile(self, seed):
        tubes, gt = _scene_tubes(seed)
        intervals = [(gt.ts, gt.te), (0, 39), (gt.ts + 3, gt.te - 2),
                     (gt.te - 4, 39), (0, gt.ts)]
        for tube in tubes:
            for ts, te in intervals:
                pred = Prediction.from_tube(tube, ts=ts, te=te)
                assert _bits(v_iou(pred, gt)) == _bits(oracle_v_iou(pred, gt))
                assert (np.array(drift_profile(pred, gt)).tobytes()
                        == np.array(oracle_drift_profile(pred, gt)).tobytes())

    def test_scenes_reach_every_gradient_case(self):
        """The seeded scenes above cover smooth tubes, zero-gradient
        identical pairs and both refusal messages."""
        seen = set()
        for seed in SEEDS:
            tubes, _ = _scene_tubes(seed)
            for tube in tubes:
                mined = MinedTube.from_tube(tube)
                out = _outcome(_grad_bytes, mined)
                if isinstance(out, str):
                    seen.add(re.sub(r".* frames \d+ and \d+ ", "", out))
                else:
                    c = mined.boxes
                    seen.add("smooth")
                    if (c[1:] == c[:-1]).all(axis=1).any():
                        seen.add("identical pairs")
        assert seen >= {"smooth", "identical pairs", "touch or do not overlap",
                        "share a coordinate"}, seen

    @pytest.mark.parametrize("kind, third", [
        ("share a coordinate", Box(0.22, 0.3, 0.6, 0.6)),
        ("touch or do not overlap", Box(0.51, 0.2, 0.8, 0.5)),
    ])
    def test_first_kinked_frame_named(self, kind, third):
        a = Box(0.2, 0.2, 0.5, 0.5)
        b = Box(0.22, 0.23, 0.51, 0.52)
        # Pairs: identical (skipped), smooth, the kink under test, and a later
        # kink that must not be the one reported.
        boxes = [a, a, b, third, Box(0.9, 0.9, 1.0, 1.0)]
        mined = MinedTube(features=np.ones((5, 3)) + np.eye(5, 3), boxes=corners(boxes))
        with pytest.raises(NonSmoothError) as err:
            loss_gradients(mined)
        assert str(err.value) == _outcome(_oracle_grad_bytes, mined)[len("NonSmoothError: "):]
        assert str(err.value) == f"non-smooth point: boxes at frames 2 and 3 {kind}"

    def test_constant_tube_zero_box_gradient(self):
        box = Box(0.1, 0.2, 0.4, 0.6)
        mined = MinedTube(features=np.eye(4), boxes=corners([box] * 4))
        g = loss_gradients(mined)
        assert g.d_boxes.tobytes() == np.zeros((4, 4)).tobytes()
        assert _grad_bytes(mined) == _oracle_grad_bytes(mined)
