"""Detection-to-tube association: memory seeding, matching, gaps, EMA."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame
from tubekit.assignment import solve_assignment
from tubekit.association import (AssociationConfig, FrameDetections, Tube, TubeMemory,
                                 _fold, init_memory, run_association, associate_step,
                                 top_by_confidence)
from tubekit.errors import ValidationError
from tubekit.formats import load_detections, save_detections
from tubekit.geometry import Box
from tubekit.scenes import SceneConfig, generate_scene

BOX = Box(0.4, 0.4, 0.6, 0.6)


def det(score: float, feature, box: Box = BOX) -> tuple:
    """One detection as make_frame takes it."""
    return box, score, np.asarray(feature, dtype=float)


def basis(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestValidation:
    def test_detection_score_range(self):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\], got 1.5"):
            make_frame(0, [det(0.5, [1.0, 0.0]), det(1.5, [1.0, 0.0])])

    def test_detection_zero_feature(self):
        with pytest.raises(ValidationError, match="finite, positive norm"):
            make_frame(0, [det(0.5, [1.0, 0.0]), det(0.5, [0.0, 0.0])])

    def test_detection_feature_norm_overflow(self):
        with pytest.raises(ValidationError, match="finite, positive norm"):
            make_frame(0, [det(0.5, [1e200, 1e200])])

    def test_detection_underflowing_norm_refused(self):
        # The squared norm underflows to 0, so the vector is refused as if
        # its norm were zero: the documented rule of checked_norms.
        with pytest.raises(ValidationError, match="finite, positive norm"):
            make_frame(0, [det(0.5, [1e-200, 1e-200])])

    def test_frame_needs_detections(self):
        with pytest.raises(ValidationError, match="frame 0 has no detections"):
            make_frame(0, [])

    def test_frame_rejects_mixed_dims(self):
        # Features of two lengths are a ragged features column.
        with pytest.raises(ValidationError, match="rows of one length"):
            make_frame(0, [det(0.5, [1.0, 0.0]), det(0.5, [1.0, 0.0, 0.0])])

    def test_config_ranges(self):
        with pytest.raises(ValidationError):
            AssociationConfig(n_q=0)
        with pytest.raises(ValidationError):
            AssociationConfig(alpha=1.5)

    def test_memory_rejects_zero_row(self):
        with pytest.raises(ValidationError):
            TubeMemory(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_memory_rejects_overflowing_row(self):
        with pytest.raises(ValidationError, match="overflows"):
            TubeMemory(np.array([[1.0, 0.0], [1e200, 1e200]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_row_refused(self, bad):
        with pytest.raises(ValidationError, match="finite, positive norm"):
            make_frame(0, [det(0.5, [1.0, 0.0]), det(0.5, [bad, 1.0])])
        with pytest.raises(ValidationError, match="not finite"):
            TubeMemory(np.array([[1.0, 0.0], [bad, 1.0]]))

    def test_memory_is_read_only_copy(self):
        src = np.array([[1.0, 0.0], [0.0, 1.0]])
        mem = TubeMemory(src)
        src[0, 0] = 5.0
        assert mem.vectors[0, 0] == 1.0
        with pytest.raises(ValueError):
            mem.vectors[0, 0] = 2.0


class TestFrameDetections:
    def test_columns_are_read_only_copies(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0]])
        frame = make_frame(3, [det(0.5, features[0]),
                               det(0.7, features[1], Box(0.1, 0.2, 0.3, 1.5))])
        features[0, 0] = 5.0
        assert frame.features[0, 0] == 1.0
        assert frame.boxes.tolist() == [BOX.to_list(), [0.1, 0.2, 0.3, 1.0]]
        for column in (frame.boxes, frame.scores, frame.features):
            with pytest.raises(ValueError):
                column[0] = 0
        assert [(d.box, d.score, d.feature.tolist()) for d in frame.detections] == \
            [(BOX, 0.5, [1.0, 0.0]), (Box(0.1, 0.2, 0.3, 1.0), 0.7, [0.0, 1.0])]
        assert frame.features.shape == (2, 2)

    @pytest.mark.parametrize("column, value", [
        ("boxes", [[0.1, 0.1, 0.5, 0.5]]),
        ("scores", [0.5]),
        ("features", np.ones((2, 2, 1))),
    ])
    def test_columns_of_other_lengths_refused(self, column, value):
        columns = dict(t=0, boxes=[[0.1, 0.1, 0.5, 0.5]] * 2, scores=[0.5, 0.5],
                       features=np.eye(2))
        with pytest.raises(ValidationError, match="one row per detection"):
            FrameDetections(**{**columns, column: value})


class TestFrameDetectionsFromColumns:
    """from_columns checks the columns of frames laid end to end once, by
    FrameDetections' rules, and cuts them into frames."""

    T = [10, 11, 12]
    SIZES = [2, 1, 3]

    def _columns(self, **change):
        n = sum(self.SIZES)
        columns = dict(t=self.T, sizes=self.SIZES,
                       boxes=[[0.1 * i, 0.2, 0.1 * i + 0.3, 0.5] for i in range(n)],
                       scores=[0.1 * i for i in range(n)],
                       features=[[1.0, float(i)] for i in range(n)])
        return {**columns, **change}

    def test_frames_equal_frames_made_alone(self):
        columns = self._columns()
        frames = FrameDetections.from_columns(**columns)
        assert [f.t for f in frames] == self.T and all(type(f.t) is int for f in frames)
        end = 0
        for frame, size in zip(frames, self.SIZES):
            rows = slice(end, end + size)
            end += size
            alone = FrameDetections(frame.t, columns["boxes"][rows], columns["scores"][rows],
                                    columns["features"][rows])
            for key in ("boxes", "scores", "features", "norms"):
                assert getattr(frame, key).tobytes() == getattr(alone, key).tobytes()
                assert not getattr(frame, key).flags.writeable

    @pytest.mark.parametrize("change, match", [
        (dict(sizes=[2, 1, 2]), r"^sizes \[2, 1, 2\] do not cut 6 rows into 3 frames$"),
        (dict(sizes=[2, 4]), r"^sizes \[2, 4\] do not cut 6 rows into 3 frames$"),
        (dict(sizes=[3, -1, 4]), r"^sizes \[3, -1, 4\] do not cut 6 rows into 3 frames$"),
        (dict(sizes=[3, 0, 3]), r"^frame 11 has no detections$"),
        (dict(scores=[0.5, 0.5, 0.5, 0.5, 2.0, 0.5]),
         r"^frame 12: score must lie in \[0, 1\], got 2.0$"),
        (dict(scores=[0.5, 0.5, "x", 0.5, 0.5, 0.5]),
         r"^frame 11: 'score' must be a number, got 'x'$"),
        (dict(features=[[1.0, 0.0]] * 5 + [[0.0, 0.0]]),
         r"^detection feature must have a finite, positive norm$"),
        (dict(features=[[1.0, 0.0]] * 5),
         r"^boxes, scores and features must hold one row per detection"),
    ])
    def test_refusals_name_the_frame(self, change, match):
        with pytest.raises(ValidationError, match=match):
            FrameDetections.from_columns(**self._columns(**change))


class TestTube:
    COLUMNS = dict(slot_id=0, t=[0, 1, 2], boxes=np.tile([0.1, 0.1, 0.5, 0.5], (3, 1)),
                   scores=[0.5, 0.5, 0.0], det=[0, 1, -1])

    def test_columns_are_read_only_copies(self):
        boxes = np.tile([0.1, 0.1, 0.5, 0.5], (3, 1))
        tube = Tube(**{**self.COLUMNS, "boxes": boxes})
        boxes[0, 0] = 0.3
        assert tube.boxes[0, 0] == 0.1
        for column in (tube.t, tube.boxes, tube.scores, tube.det):
            with pytest.raises(ValueError):
                column[0] = 0
        assert [(r.t, r.det, r.box.to_list()) for r in tube.records] == \
            [(t, d, [0.1, 0.1, 0.5, 0.5]) for t, d in [(0, 0), (1, 1), (2, None)]]

    @pytest.mark.parametrize("column, value, match", [
        ("t", [0, 2, 2], "strictly increasing in t, got t=2 after t=2"),
        ("scores", [0.5, 0.5], "one row per frame"),
        ("det", [0, -2, 1], r"^tube 0 frame 1: det must be at least -1, got -2$"),
        ("features", np.ones((2, 4)), "one row per frame"),
        ("boxes", [[0.1, 0.1, 0.1, 0.5]] * 3, "no area"),
    ])
    def test_bad_columns_refused(self, column, value, match):
        with pytest.raises(ValidationError, match=match):
            Tube(**{**self.COLUMNS, column: value})

    @pytest.mark.parametrize("column, value, match", [
        ("scores", [0.5, float("nan"), 0.0], r"^tube 0 frame 1: score must lie in \[0, 1\], "
                                             r"got nan$"),
        ("scores", [0.5, 0.5, -float("inf")], r"^tube 0 frame 2: score must lie in \[0, 1\], "
                                              r"got -inf$"),
        ("features", [[1.0, 0.0], [1.0, float("nan")], [0.0, 1.0]],
         r"^tube 0 frame 1: embed must be a finite number, got nan$"),
        ("features", [[float("inf"), 0.0], [1.0, 0.0], [0.0, 1.0]],
         r"^tube 0 frame 0: embed must be a finite number, got inf$"),
    ])
    def test_non_finite_columns_refused(self, column, value, match):
        with pytest.raises(ValidationError, match=match):
            Tube(**{**self.COLUMNS, column: value})

    @pytest.mark.parametrize("sizes, match", [
        ([2, 3], r"^sizes \[2, 3\] do not cut 5 rows into 3 tubes$"),
        ([2, 2, 2], r"^sizes \[2, 2, 2\] do not cut 5 rows into 3 tubes$"),
        ([3, -1, 3], r"^sizes \[3, -1, 3\] do not cut 5 rows into 3 tubes$"),
    ])
    def test_from_columns_refuses_sizes_that_do_not_cut(self, sizes, match):
        with pytest.raises(ValidationError, match=match):
            Tube.from_columns([0, 1, 2], sizes, t=range(5),
                              boxes=np.tile([0.1, 0.1, 0.5, 0.5], (5, 1)),
                              scores=[0.5] * 5, det=[0] * 5)

    @pytest.mark.parametrize("scores, match", [
        ([0.5, 5.0, 0.0], r"tube 0 frame 1: score must lie in \[0, 1\], got 5.0$"),
        ([0.5, 0.5, -0.25], r"tube 0 frame 2: score must lie in \[0, 1\], got -0.25$"),
    ])
    def test_score_outside_unit_interval_refused(self, scores, match):
        # A tube's score is its detection's, or 0 for a gap; match_cost and
        # select_tube would favour one scored above 1.
        with pytest.raises(ValidationError, match=match):
            Tube(**{**self.COLUMNS, "scores": scores})

    def test_scores_at_the_bounds_accepted(self):
        tube = Tube(**{**self.COLUMNS, "scores": [1.0, -0.0, 0.0]})
        assert tube.scores.tolist() == [1.0, -0.0, 0.0]


def _random_stack(rng) -> np.ndarray:
    d = int(rng.integers(1, 130))
    return rng.normal(size=(int(rng.integers(1, 20)), d)) * 10.0 ** rng.integers(-8, 8)


class TestHeldNorms:
    """FrameDetections and TubeMemory keep the row norms that their check
    took, and association divides by them."""

    def test_norms_are_linalg_norms_of_every_subset(self):
        # A row's norm has the same bits over the whole stack as over any
        # subset of its rows, so the held norms serve every chosen pool.
        rng = np.random.default_rng(2024)
        for _ in range(300):
            f = _random_stack(rng)
            frame = FrameDetections(0, np.tile([0.1, 0.1, 0.5, 0.5], (len(f), 1)),
                                    rng.uniform(size=len(f)), f)
            memory = TubeMemory(f)
            want = np.linalg.norm(f, axis=1).tobytes()
            assert frame.norms.tobytes() == want and memory.norms.tobytes() == want
            chosen = top_by_confidence(frame, int(rng.integers(1, len(f) + 1)))
            assert (frame.norms[chosen].tobytes()
                    == np.linalg.norm(frame.features[chosen], axis=1).tobytes())

    @staticmethod
    def _frames_alone(frames):
        return [FrameDetections(f.t, f.boxes, f.scores, f.features) for f in frames]

    @pytest.mark.parametrize("dim", [1, 3, 17, 64, 65, 128])
    def test_clip_norms_are_frame_norms(self, dim):
        # from_columns takes every norm over the clip's stack once, and
        # association divides by them: each row's norm must have the bits
        # it has over its own frame's stack.
        rng = np.random.default_rng(dim)
        sizes = rng.integers(1, 25, size=60)
        n = int(sizes.sum())
        features = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
        frames = FrameDetections.from_columns(range(60), sizes, np.tile(BOX.to_list(), (n, 1)),
                                              rng.uniform(size=n).tolist(), features)
        assert [len(f.norms) for f in frames] == sizes.tolist()
        for frame, alone in zip(frames, self._frames_alone(frames)):
            assert frame.norms.tobytes() == alone.norms.tobytes()

    def test_clip_norms_are_frame_norms_on_the_benchmark_shape(self, tmp_path):
        # 256 frames of 15 objects and about 3 distractors each, D = 64.
        scene = generate_scene(SceneConfig(seed=1, frames=256, objects=15, feature_dim=64,
                                           appearance_drift=0.5, detection_noise=0.005,
                                           distractor_rate=3.0))
        path = str(tmp_path / "dense.jsonl")
        save_detections(path, "dense", 5.0, scene.frames)
        _, frames = load_detections(path)
        assert len({len(f.scores) for f in frames}) > 1
        for frame, alone in zip(frames, self._frames_alone(frames)):
            assert frame.norms.tobytes() == alone.norms.tobytes()

    def test_a_float64_clip_array_is_handed_over(self):
        # One copy of a clip's features: from_columns keeps the float64
        # array it is given, which load_detections makes for it alone, and
        # FrameDetections(...) still copies what its caller keeps.
        features = np.tile([1.0, 0.5], (3, 1))
        frames = FrameDetections.from_columns([0, 1], [2, 1], np.tile(BOX.to_list(), (3, 1)),
                                              [0.5] * 3, features)
        assert all(np.shares_memory(f.features, features) for f in frames)
        assert not any(f.features.flags.writeable for f in frames)
        alone = FrameDetections(0, np.tile(BOX.to_list(), (2, 1)), [0.5] * 2, features[:2])
        assert not np.shares_memory(alone.features, features)

    def test_norms_are_read_only_and_not_an_argument(self):
        frame = make_frame(0, [det(0.5, [3.0, 4.0])])
        memory = TubeMemory([[0.0, 2.0]])
        assert frame.norms.tolist() == [5.0] and memory.norms.tolist() == [2.0]
        for norms in (frame.norms, memory.norms):
            with pytest.raises(ValueError):
                norms[0] = 1.0
        assert replace(frame, t=1).norms.tolist() == [5.0]
        with pytest.raises(TypeError):
            TubeMemory([[0.0, 2.0]], norms=[2.0])

    def test_step_equals_two_pass_formula_bitwise(self):
        """The step divides by the held norms; its memory and matches have
        the bits of the formula that took every norm anew."""
        rng = np.random.default_rng(2025)
        for _ in range(200):
            n_q, n, d = (int(rng.integers(1, k)) for k in (8, 12, 130))
            cfg = AssociationConfig(n_q=n_q, alpha=float(rng.uniform()))
            memory = TubeMemory(rng.normal(size=(n_q, d)) * 10.0 ** rng.integers(-8, 8))
            feats = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 8)
            frame = FrameDetections(1, np.tile([0.1, 0.1, 0.5, 0.5], (n, 1)),
                                    rng.uniform(size=n), feats)
            chosen = np.argsort(-frame.scores, kind="stable")[:n_q]
            pool = frame.features[chosen]
            m = memory.vectors
            cos = (m @ pool.T) / np.outer(np.linalg.norm(m, axis=1),
                                          np.linalg.norm(pool, axis=1))
            slots, cols = np.array(solve_assignment(-cos), dtype=int).reshape(-1, 2).T
            want_det = np.full(n_q, -1)
            want_det[slots] = chosen[cols]
            want = m.copy()
            want[slots] = (1.0 - cfg.alpha) * want[slots] + cfg.alpha * pool[cols]
            got, det_ = associate_step(memory, frame, cfg)
            assert got.vectors.tobytes() == want.tobytes()
            assert det_.tolist() == want_det.tolist()


class TestTopByConfidence:
    def test_sorted_by_score(self):
        frame = make_frame(0, [
            det(0.2, [1.0, 0.0]), det(0.9, [0.0, 1.0]), det(0.5, [1.0, 1.0])])
        assert top_by_confidence(frame, 2).tolist() == [1, 2]

    def test_score_tie_keeps_lower_index(self):
        frame = make_frame(0, [
            det(0.5, [1.0, 0.0]), det(0.5, [0.0, 1.0])])
        assert top_by_confidence(frame, 2).tolist() == [0, 1]

    def test_k_larger_than_frame(self):
        frame = make_frame(0, [det(0.5, [1.0, 0.0])])
        assert top_by_confidence(frame, 4).tolist() == [0]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(scores=st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.5]) | st.floats(0.0, 1.0),
                           min_size=1, max_size=12),
           k=st.integers(1, 14))
    def test_matches_sorting_on_score_then_index(self, scores, k):
        # Tie-heavy scores, 0.0 against -0.0 included: the two compare
        # equal, so the lower index comes first either way.
        frame = make_frame(0, [det(s, [1.0, 0.0]) for s in scores])
        expected = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
        assert top_by_confidence(frame, k).tolist() == expected


class TestInitMemory:
    def test_direct_seeding(self):
        frame = make_frame(0, [
            det(0.9, basis(0, 3)), det(0.8, basis(1, 3)), det(0.7, basis(2, 3))])
        memory, seeded = init_memory(frame, AssociationConfig(n_q=3))
        assert np.array_equal(memory.vectors, np.eye(3))
        assert seeded.tolist() == [0, 1, 2]

    def test_seeding_follows_confidence_order(self):
        frame = make_frame(0, [
            det(0.1, basis(0, 3)), det(0.9, basis(1, 3)), det(0.5, basis(2, 3))])
        memory, seeded = init_memory(frame, AssociationConfig(n_q=3))
        assert seeded.tolist() == [1, 2, 0]
        assert np.array_equal(memory.vectors[0], basis(1, 3))

    def test_cycling_when_short(self):
        frame = make_frame(0, [
            det(0.9, basis(0, 2)), det(0.8, basis(1, 2))])
        memory, seeded = init_memory(frame, AssociationConfig(n_q=5))
        assert seeded.tolist() == [0, 1, 0, 1, 0]
        assert memory.n_q == 5


class TestAssociateStep:
    def test_permutation_recovery_exhaustive(self):
        # Orthogonal features make the optimum unique, so every permutation
        # of the detections must be matched back to its seeding slot.
        n = 5
        cfg = AssociationConfig(n_q=n, alpha=0.5)
        seed_frame = make_frame(0, [
            det(0.9, basis(i, n)) for i in range(n)])
        for perm in itertools.permutations(range(n)):
            memory, _ = init_memory(seed_frame, cfg)
            frame = make_frame(1, [
                det(0.9, basis(perm[j], n)) for j in range(n)])
            _, matched = associate_step(memory, frame, cfg)
            for slot in range(n):
                assert perm[matched[slot]] == slot

    def test_ema_blend_is_bit_exact(self):
        cfg = AssociationConfig(n_q=1, alpha=0.3)
        seed = make_frame(0, [det(0.9, [1.0, 2.0, 3.0])])
        memory, _ = init_memory(seed, cfg)
        nxt = make_frame(1, [det(0.9, [4.0, 5.0, 6.0])])
        memory, _ = associate_step(memory, nxt, cfg)
        expected = 0.7 * np.array([1.0, 2.0, 3.0]) + 0.3 * np.array([4.0, 5.0, 6.0])
        assert np.array_equal(memory.vectors[0], expected)

    def test_alpha_one_memory_equals_frame(self):
        cfg = AssociationConfig(n_q=2, alpha=1.0)
        seed = make_frame(0, [det(0.9, basis(0, 2)),
                              det(0.8, basis(1, 2))])
        memory, _ = init_memory(seed, cfg)
        f1 = np.array([0.9, 0.1])
        f2 = np.array([0.2, 0.8])
        frame = make_frame(1, [det(0.9, f1), det(0.8, f2)])
        memory, _ = associate_step(memory, frame, cfg)
        assert np.array_equal(memory.vectors[0], f1)
        assert np.array_equal(memory.vectors[1], f2)

    def test_alpha_zero_memory_frozen(self):
        cfg = AssociationConfig(n_q=2, alpha=0.0)
        seed = make_frame(0, [det(0.9, basis(0, 2)),
                              det(0.8, basis(1, 2))])
        memory, _ = init_memory(seed, cfg)
        frame = make_frame(1, [det(0.9, [0.9, 0.1]),
                               det(0.8, [0.2, 0.8])])
        memory, matched = associate_step(memory, frame, cfg)
        assert np.array_equal(memory.vectors, np.eye(2))
        assert matched.tolist() == [0, 1]

    def test_pool_truncation_keeps_original_indices(self):
        # n_q = 1 with three detections: only the most confident enters the
        # pool, and the stored det index refers to the full frame list.
        cfg = AssociationConfig(n_q=1, alpha=0.5)
        seed = make_frame(0, [det(0.9, [1.0, 0.0])])
        memory, _ = init_memory(seed, cfg)
        frame = make_frame(1, [
            det(0.1, [1.0, 0.0]), det(0.2, [1.0, 0.0]), det(0.95, [0.8, 0.2])])
        _, matched = associate_step(memory, frame, cfg)
        assert matched.tolist() == [2]

    def test_gap_rule(self):
        # Two slots, one detection in the pool: the unmatched slot matches
        # none, its memory row survives untouched, and its tube repeats the
        # previous box and feature at confidence 0.
        cfg = AssociationConfig(n_q=2, alpha=0.5)
        box0 = Box(0.1, 0.1, 0.3, 0.3)
        box1 = Box(0.6, 0.6, 0.8, 0.8)
        seed = make_frame(0, [det(0.9, basis(0, 2), box0),
                              det(0.8, basis(1, 2), box1)])
        memory, _ = init_memory(seed, cfg)
        frame = make_frame(1, [det(0.9, [1.0, 0.05],
                               Box(0.2, 0.2, 0.4, 0.4))])
        memory, matched = associate_step(memory, frame, cfg)
        assert matched.tolist() == [0, -1]
        # Two gap frames in a row both repeat the last matched row.
        again = replace(frame, t=2)
        tubes = run_association([seed, frame, again], cfg)
        for gap in tubes[1].records[1:]:
            assert gap.det is None
            assert gap.score == 0.0
            assert gap.box == box1
            assert np.array_equal(gap.feature, basis(1, 2))
        assert np.array_equal(memory.vectors[1], basis(1, 2))
        assert tubes[0].records[1].det == 0

    def test_dim_mismatch_rejected(self):
        cfg = AssociationConfig(n_q=1, alpha=0.5)
        seed = make_frame(0, [det(0.9, [1.0, 0.0])])
        memory, _ = init_memory(seed, cfg)
        frame = make_frame(1, [det(0.9, [1.0, 0.0, 0.0])])
        with pytest.raises(ValidationError):
            associate_step(memory, frame, cfg)


def _random_clip(seed: int, frames: int = 8, per_frame: int = 4, dim: int = 6):
    rng = np.random.default_rng(seed)
    out = []
    for t in range(frames):
        dets = []
        for _ in range(per_frame):
            x1 = rng.uniform(0.0, 0.7)
            y1 = rng.uniform(0.0, 0.7)
            box = Box(x1, y1, x1 + 0.2, y1 + 0.2)
            feat = rng.normal(size=dim)
            feat[0] += 2.0
            dets.append(det(float(rng.uniform(0.1, 1.0)), feat, box))
        out.append(make_frame(t, dets))
    return out


class TestRunAssociation:
    def test_every_tube_spans_every_frame(self):
        frames = _random_clip(1)
        tubes = run_association(frames, AssociationConfig(n_q=6, alpha=0.2))
        assert len(tubes) == 6
        for tube in tubes:
            assert tube.timestamps() == list(range(8))

    def test_rejects_non_increasing_timestamps(self):
        frames = _random_clip(2)
        frames[3] = replace(frames[3], t=2)
        with pytest.raises(ValidationError):
            run_association(frames)

    def test_rejects_empty_clip(self):
        with pytest.raises(ValidationError):
            run_association([])

    def test_deterministic(self):
        frames = _random_clip(3)
        a = run_association(frames, AssociationConfig(n_q=5, alpha=0.1))
        b = run_association(frames, AssociationConfig(n_q=5, alpha=0.1))
        for ta, tb in zip(a, b):
            assert ta.slot_id == tb.slot_id
            for ra, rb in zip(ta.records, tb.records):
                assert ra.t == rb.t and ra.det == rb.det
                assert ra.box == rb.box and ra.score == rb.score
                assert np.array_equal(ra.feature, rb.feature)

    def test_memory_stays_in_convex_hull(self):
        # With features embedded in the simplex of seen vectors, every EMA
        # iterate keeps coordinates within the componentwise min/max envelope.
        frames = _random_clip(4, frames=12)
        lo = np.min([d.feature for f in frames for d in f.detections], axis=0)
        hi = np.max([d.feature for f in frames for d in f.detections], axis=0)
        cfg = AssociationConfig(n_q=4, alpha=0.25)
        memory, _ = init_memory(frames[0], cfg)
        for frame in frames[1:]:
            memory, _ = associate_step(memory, frame, cfg)
            assert np.all(memory.vectors >= lo - 1e-12)
            assert np.all(memory.vectors <= hi + 1e-12)


class TestOneKernel:
    """run_association is the public fold, init_memory and then
    associate_step frame by frame, bit for bit: every tube column, and the
    memory it ends with."""

    @staticmethod
    def _cases():
        # n_q above a frame's detections leaves slots unmatched: gap rows.
        for seed, objects, n_q in [(1, 3, 3), (2, 4, 7), (3, 2, 5)]:
            scene = generate_scene(SceneConfig(seed=seed, frames=24, objects=objects,
                                               feature_dim=8, appearance_drift=0.5,
                                               detection_noise=0.005, distractor_rate=1.0))
            yield scene.frames, AssociationConfig(n_q=n_q, alpha=0.3)
        for seed, per_frame, n_q in [(5, 4, 3), (6, 4, 6), (7, 2, 5), (8, 1, 2)]:
            yield (_random_clip(seed, frames=12, per_frame=per_frame),
                   AssociationConfig(n_q=n_q, alpha=0.2))

    def test_run_association_is_the_public_fold(self):
        gaps = 0
        for frames, cfg in self._cases():
            memory, seeded = init_memory(frames[0], cfg)
            det = [seeded]
            for frame in frames[1:]:
                memory, matched = associate_step(memory, frame, cfg)
                det.append(matched)
            det = np.array(det)
            gaps += int((det < 0).sum())
            vectors, norms, folded = _fold(frames, cfg)
            assert folded.tobytes() == det.tobytes()
            assert vectors.tobytes() == memory.vectors.tobytes()
            assert norms.tobytes() == memory.norms.tobytes()
            # The held norms, only the blended rows' taken anew, are those
            # of the whole memory.
            assert norms.tobytes() == TubeMemory(vectors).norms.tobytes()
            tubes = run_association(frames, cfg)
            assert [tube.slot_id for tube in tubes] == list(range(cfg.n_q))
            for tube, slot_det in zip(tubes, det.T.tolist()):
                rows = []
                for frame, d in zip(frames, slot_det):
                    rows.append((frame.boxes[d], frame.scores[d], frame.features[d]) if d >= 0
                                else (rows[-1][0], 0.0, rows[-1][2]))
                boxes, scores, features = (np.array(column) for column in zip(*rows))
                assert tube.t.tolist() == [frame.t for frame in frames]
                assert tube.det.tolist() == slot_det
                assert tube.boxes.tobytes() == boxes.tobytes()
                assert tube.scores.tobytes() == scores.tobytes()
                assert tube.features.tobytes() == features.tobytes()
        assert gaps > 0


class TestCancellingMemory:
    """alpha = 0.5 and a detection that negates the slot's memory blend to
    exactly 0, a slot vector no cosine can divide by: refused, naming the
    frame."""

    REFUSAL = ("memory contains a slot vector that is not finite, or whose norm is zero "
               "or overflows")
    CFG = AssociationConfig(n_q=1, alpha=0.5)

    @staticmethod
    def _clip():
        return [make_frame(0, [det(0.9, [0.6, -0.8])]), make_frame(1, [det(0.9, [-0.6, 0.8])])]

    def test_run_association_names_the_frame(self):
        with pytest.raises(ValidationError, match=f"^frame 1: {self.REFUSAL}$"):
            run_association(self._clip(), self.CFG)

    def test_associate_step_names_the_frame(self):
        seed, frame = self._clip()
        memory, _ = init_memory(seed, self.CFG)
        with pytest.raises(ValidationError, match=f"^frame 1: {self.REFUSAL}$"):
            associate_step(memory, frame, self.CFG)
        assert memory.vectors.tolist() == [[0.6, -0.8]]

    def test_memory_refusal_is_unchanged(self):
        with pytest.raises(ValidationError, match=f"^{self.REFUSAL}$"):
            TubeMemory([[0.0, 0.0]])
