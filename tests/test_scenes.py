"""Synthetic scene generator and its identity-switch oracle."""
import hashlib

import numpy as np
import pytest

from conftest import make_tube
from tubekit.association import AssociationConfig, run_association
from tubekit.errors import ValidationError
from tubekit.geometry import Box
from tubekit.metrics import select_tube
from tubekit.scenes import (LabeledScene, SceneConfig, _reflect, generate_scene,
                            identity_switch_rate)


class TestSceneConfig:
    def test_defaults(self):
        cfg = SceneConfig(seed=0)
        assert cfg.frames == 64
        assert cfg.objects == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            SceneConfig(seed=0, frames=1)
        with pytest.raises(ValidationError):
            SceneConfig(seed=0, objects=0)
        with pytest.raises(ValidationError):
            SceneConfig(seed=0, motion_step=-0.1)
        with pytest.raises(ValidationError):
            SceneConfig(seed=0, feature_dim=1)


class TestReflect:
    def test_lands_in_range_at_any_distance(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            lo = float(rng.uniform(0.0, 0.2))
            hi = lo + float(rng.uniform(0.3, 0.8))
            x = float(rng.normal()) * 10.0 ** float(rng.uniform(-1, 300))
            assert lo <= _reflect(x, lo, hi) <= hi

    def test_within_one_span_is_one_mirror(self):
        rng = np.random.default_rng(19)
        lo, hi = 0.1, 0.85
        for x in rng.uniform(lo - (hi - lo), hi + (hi - lo), size=2000):
            want = lo + (lo - x) if x < lo else hi - (x - hi) if x > hi else x
            assert _reflect(x, lo, hi) == want

    def test_far_point_folds_with_period_two_spans(self):
        assert _reflect(5.0, 0.0, 1.0) == 1.0
        assert _reflect(5.5, 0.0, 1.0) == 0.5
        assert _reflect(-7.25, 0.0, 1.0) == 0.75

    def test_infinite_step_refused(self):
        with pytest.raises(ValidationError, match="motion_step is too large"):
            _reflect(float("inf"), 0.1, 0.9)


class TestGenerateScene:
    def test_bit_determinism(self):
        cfg = SceneConfig(seed=9, frames=16, objects=3, distractor_rate=1.0,
                          detection_noise=0.01, confidence_noise=0.05,
                          appearance_drift=0.1)
        a = generate_scene(cfg)
        b = generate_scene(cfg)
        assert a.identities == b.identities
        assert (a.gt.ts, a.gt.te) == (b.gt.ts, b.gt.te)
        for fa, fb in zip(a.frames, b.frames):
            for da, db in zip(fa.detections, fb.detections):
                assert da.box == db.box
                assert da.score == db.score
                assert np.array_equal(da.feature, db.feature)

    def test_shape(self):
        scene = generate_scene(SceneConfig(seed=1, frames=10, objects=2))
        assert len(scene.frames) == 10
        assert len(scene.identities) == 10
        assert all(ids[:2] == [0, 1] for ids in scene.identities)

    def test_layout_stable_across_noise_scales(self):
        # Every draw happens even at scale zero, so turning noise knobs
        # changes values, not which draws occur: the seeded layout (sizes,
        # starting boxes, GT interval) survives.
        base = generate_scene(SceneConfig(seed=5, frames=12, objects=2))
        noisy = generate_scene(SceneConfig(seed=5, frames=12, objects=2,
                                           appearance_drift=0.2,
                                           detection_noise=0.0,
                                           confidence_noise=0.0))
        assert base.frames[0].detections[0].box == noisy.frames[0].detections[0].box
        assert (base.gt.ts, base.gt.te) == (noisy.gt.ts, noisy.gt.te)

    def test_distractor_rate_law_of_large_numbers(self):
        cfg = SceneConfig(seed=2, frames=400, objects=1, distractor_rate=2.0)
        scene = generate_scene(cfg)
        spurious = sum(len(ids) - 1 for ids in scene.identities)
        assert spurious / 400 == pytest.approx(2.0, rel=0.1)

    def test_distractor_ids_unique_and_negative(self):
        scene = generate_scene(SceneConfig(seed=3, frames=50, distractor_rate=1.5))
        spur = [i for ids in scene.identities for i in ids if i < 0]
        assert len(spur) == len(set(spur))
        assert all(i <= -1 for i in spur)

    def test_gt_interval_rules(self):
        long_scene = generate_scene(SceneConfig(seed=4, frames=64))
        assert 0 <= long_scene.gt.ts <= long_scene.gt.te <= 63
        short = generate_scene(SceneConfig(seed=4, frames=8))
        assert (short.gt.ts, short.gt.te) == (0, 7)

    def test_gt_boxes_dense(self):
        scene = generate_scene(SceneConfig(seed=6, frames=32, objects=2))
        assert scene.gt.boxes.shape == (scene.gt.te - scene.gt.ts + 1, 4)

    def test_confidence_ordering(self):
        # Object confidences sit in [0.7, 0.95] noiselessly; distractors
        # never exceed 0.5.
        scene = generate_scene(SceneConfig(seed=7, frames=30, objects=3,
                                           distractor_rate=1.0))
        for frame, ids in zip(scene.frames, scene.identities):
            for d, i in zip(frame.detections, ids):
                if i >= 0:
                    assert 0.7 <= d.score <= 0.95
                else:
                    assert d.score <= 0.5


# Configs that reach every branch of the generator: the GT's short-clip
# rule and its sub-interval, one object and several, a motion step that
# folds with fmod, corner and confidence noise past the clamps, distractors.
PINNED_CONFIGS = [
    SceneConfig(seed=0, frames=8),
    SceneConfig(seed=1, frames=11, objects=4, appearance_drift=0.2, distractor_rate=0.5),
    SceneConfig(seed=2, frames=12, objects=3, motion_step=5.0),
    SceneConfig(seed=3, frames=30, objects=2, feature_dim=5, detection_noise=0.5),
    SceneConfig(seed=4, frames=20, objects=5, confidence_noise=1.0, appearance_drift=0.05),
    SceneConfig(seed=5, frames=40, objects=3, distractor_rate=3.0, detection_noise=0.02,
                confidence_noise=0.05, motion_step=0.05),
    SceneConfig(seed=6, frames=64, objects=6, feature_dim=32, appearance_drift=0.1,
                motion_step=5.0, detection_noise=0.5, confidence_noise=1.0,
                distractor_rate=3.0),
]
PINNED_DIGEST = "672475fbe6ba76136d6a41f317d170874a87c51676b11edea6a63b580c316a87"


def _scene_digest(configs) -> str:
    digest = hashlib.sha256()
    for cfg in configs:
        scene = generate_scene(cfg)
        for frame in scene.frames:
            digest.update(np.array([frame.t, len(frame.scores)], np.int64).tobytes())
            for column in (frame.boxes, frame.scores, frame.features, frame.norms):
                digest.update(np.ascontiguousarray(column, np.float64).tobytes())
        for ids in scene.identities:
            digest.update(np.array([len(ids)] + ids, np.int64).tobytes())
        gt = scene.gt
        digest.update(np.array([gt.ts, gt.te], np.int64).tobytes())
        digest.update(np.ascontiguousarray(gt.boxes, np.float64).tobytes())
    return digest.hexdigest()


def test_scene_bits_are_pinned():
    # Every frame's t, boxes, scores, features and norms, the identities
    # and the GT, over PINNED_CONFIGS: a change to how a clip is built
    # must leave every bit of every scene as it was.
    assert _scene_digest(PINNED_CONFIGS) == PINNED_DIGEST


class TestIdentitySwitchRate:
    def _boxes(self):
        return Box(0.1, 0.1, 0.3, 0.3)

    def _scene_with_identities(self, identities: list[list[int]]) -> LabeledScene:
        # Only the identity table matters for the rate; build the rest as
        # light stand-ins.
        scene = generate_scene(SceneConfig(seed=0, frames=max(2, len(identities))))
        return LabeledScene(config=scene.config, frames=scene.frames,
                            identities=identities, gt=scene.gt)

    def test_hand_built_single_switch(self):
        # Ten records, one identity change: 1 differing pair out of 9.
        box = self._boxes()
        identities = [[0]] * 6 + [[1]] * 4
        tube = make_tube(0, [box] * 10, 1.0)
        scene = self._scene_with_identities(identities)
        assert identity_switch_rate([tube], scene) == [pytest.approx(1.0 / 9.0)]

    def test_gap_records_inherit_identity(self):
        box = self._boxes()
        tube = make_tube(0, [box] * 3, [1.0, 0.0, 1.0], det=[0, -1, 0])
        identities = [[0], [5], [0]]
        scene = self._scene_with_identities(identities)
        assert identity_switch_rate([tube], scene) == [0.0]

    def test_leading_gap_rejected(self):
        box = self._boxes()
        tube = make_tube(0, [box] * 2, [0.0, 1.0], det=[-1, 0])
        scene = self._scene_with_identities([[0], [0]])
        with pytest.raises(ValidationError):
            identity_switch_rate([tube], scene)

    def test_out_of_range_detection_rejected(self):
        box = self._boxes()
        tube = make_tube(0, [box] * 2, 1.0, det=[0, 7])
        scene = self._scene_with_identities([[0], [0]])
        with pytest.raises(ValidationError):
            identity_switch_rate([tube], scene)

    @pytest.mark.parametrize("t", [[-1, 0], [1, 2]], ids=["before", "after"])
    def test_frame_outside_scene_rejected(self, t):
        # A frame of -1 used to read the last frame's identities.
        tube = make_tube(0, [self._boxes()] * 2, 1.0, t=t, det=[0, 0])
        scene = self._scene_with_identities([[0], [1]])
        with pytest.raises(ValidationError, match="outside the labeled scene"):
            identity_switch_rate([tube], scene)

    def test_single_record_rejected(self):
        box = self._boxes()
        tube = make_tube(0, [box], 1.0)
        scene = self._scene_with_identities([[0], [0]])
        with pytest.raises(ValidationError):
            identity_switch_rate([tube], scene)

    def test_noiseless_scene_tracks_cleanly(self):
        # Separated static appearances: association never switches identity
        # on the selected tube, and with one slot per object nothing does.
        cfg = SceneConfig(seed=11, frames=24, objects=3)
        scene = generate_scene(cfg)
        tubes = run_association(scene.frames, AssociationConfig(n_q=3, alpha=0.1))
        rates = identity_switch_rate(tubes, scene)
        assert rates == [0.0, 0.0, 0.0]
        assert rates[select_tube(tubes)] == 0.0

    def test_per_tube_ordering(self):
        cfg = SceneConfig(seed=12, frames=20, objects=2)
        scene = generate_scene(cfg)
        tubes = run_association(scene.frames, AssociationConfig(n_q=2, alpha=0.1))
        rates = identity_switch_rate(tubes, scene)
        assert len(rates) == 2
