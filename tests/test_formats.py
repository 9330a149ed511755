"""File round trips, byte stability, and malformed-input diagnostics."""
import csv
import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_frame, make_gt, make_prediction, make_tube
from tubekit.assignment import cosine_similarity
from tubekit.association import FrameDetections, Tube, TubeMemory
from tubekit.autolabel import CandidateRecord, CandidateTube
from tubekit.consistency import MinedTube
from tubekit.errors import FormatError, ValidationError
from tubekit.formats import (_DOC, _LINE, _detections_from, _rows_text, f9, load_candidates,
                             load_detections, load_gt, load_gt_collection, load_labels,
                             load_predictions,
                             load_tubes, save_candidates, save_detections,
                             save_gt, save_labels, save_predictions,
                             save_drift, save_report, save_tubes)
from tubekit.geometry import Box, corner_rows
from tubekit.metrics import Prediction
from tubekit.mining import GtTube

BOX = Box(0.25, 0.25, 0.5, 0.5)


def make_frames(n: int = 3, per_frame: int = 2, dim: int = 4):
    rng = np.random.default_rng(53)
    out = []
    for t in range(n):
        dets = []
        for _ in range(per_frame):
            x1 = rng.uniform(0.0, 0.6)
            feat = rng.normal(size=dim)
            feat[0] += 2.0
            dets.append((Box(x1, 0.2, x1 + 0.3, 0.5), float(rng.uniform(0.1, 1.0)), feat))
        out.append(make_frame(t, dets))
    return out


class TestF9:
    def test_idempotent(self):
        rng = np.random.default_rng(59)
        for _ in range(1000):
            x = float(rng.uniform(-10, 10)) * 10 ** int(rng.integers(-8, 8))
            assert f9(f9(x)) == f9(x)

    def test_short_values_survive(self):
        assert f9(0.25) == 0.25
        assert f9(1.0) == 1.0
        assert f9(0.1) == 0.1


class TestF9Rows:
    """Each row's text from the one-pass kernel must be what the C encoder
    writes for scalar f9 of its elements, with either separator."""

    EDGES = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1.7976931348623157e308, 1e-14,
             9.99999999e-15, 3e-15, 1e-5, 9.9999999951e-6, 1e-4, 9.99999999e-5, 0.1, 1 / 3,
             2 / 3, 0.5, 2.675, 4.35, 1.0000000005, 1.0000000015, 9.9999999995, 99999999.5,
             99999999.95, 1e8, 123456788.5, 123456789.5, 999999999.4, 999999999.5, 1e9,
             123456789012.0, 9999999990000000.0, 1e16, 1e22, 6.02214076e23]
    ENCODERS = [(",", _DOC), (", ", _LINE)]

    @staticmethod
    def _want(rows, encoder) -> list[str]:
        return [encoder.encode([f9(v) for v in row]) for row in np.asarray(rows).tolist()]

    @staticmethod
    def _f9_rows(a: np.ndarray, sep: str) -> list[str]:
        """Each row of a 2-D array as a JSON array, or each element of a 1-D one."""
        text = _rows_text(len(a), ["[", a, "]\n"] if a.ndim == 2 else [a, "\n"], sep)
        return text.decode("ascii").split("\n")[:-1]

    def test_matches_scalar_f9(self):
        rng = np.random.default_rng(61)
        mags = 10.0 ** rng.integers(-20, 20, size=20000)
        ties = ((rng.integers(10 ** 8, 10 ** 9, size=5000) + 0.5)
                * 10.0 ** rng.integers(-22, 4, size=5000))   # halfway between 9-digit values
        values = np.concatenate([rng.normal(size=20000) * mags, ties, -ties,
                                 np.array(self.EDGES), -np.array(self.EDGES)])
        rounded = [f9(v) for v in values[:2000]]
        values = np.concatenate([values, rounded])         # already-rounded input
        for sep, encoder in self.ENCODERS:
            assert self._f9_rows(values, sep) == [encoder.encode(f9(v)) for v in values.tolist()]
            rows = values[:len(values) // 7 * 7].reshape(-1, 7)
            assert self._f9_rows(rows, sep) == self._want(rows, encoder)
            for v in np.array_split(values, 997):          # ragged lengths
                assert self._f9_rows(v[None, :], sep) == self._want([v], encoder)

    def test_empty(self):
        for sep, _ in self.ENCODERS:
            assert self._f9_rows(np.empty(0), sep) == []
            assert self._f9_rows(np.empty((0, 4)), sep) == []
            assert self._f9_rows(np.empty((3, 0)), sep) == ["[]"] * 3

    def test_two_dimensional_input_keeps_rows(self):
        rng = np.random.default_rng(62)
        arrays = [rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-12, 8, size=(n, 4))
                  for n in (3, 0, 5)] + [np.array([[-0.0, 1e16, 1 / 3, 2.675]])]
        for a in arrays:
            for sep, encoder in self.ENCODERS:
                assert self._f9_rows(a, sep) == self._want(a, encoder)


class TestDetections:
    def test_round_trip(self, tmp_path):
        frames = make_frames()
        path = str(tmp_path / "clip.detections.jsonl")
        save_detections(path, "vid-1", 25.0, frames)
        meta, loaded = load_detections(path)
        assert meta["video_id"] == "vid-1"
        assert meta["fps"] == 25.0
        assert meta["frame_count"] == 3
        assert meta["feature_dim"] == 4
        for orig, back in zip(frames, loaded):
            assert back.t == orig.t
            for da, db in zip(orig.detections, back.detections):
                assert db.box.to_list() == [f9(v) for v in da.box.to_list()]
                assert db.score == f9(da.score)
                assert np.array_equal(db.feature, [f9(v) for v in da.feature])

    def test_rewrite_is_byte_identical(self, tmp_path):
        frames = make_frames()
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        save_detections(p1, "vid", 30.0, frames)
        _, loaded = load_detections(p1)
        save_detections(p2, "vid", 30.0, loaded)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_empty_refused(self, tmp_path):
        with pytest.raises(ValidationError):
            save_detections(str(tmp_path / "x.jsonl"), "vid", 25.0, [])

    def test_bad_json_line_is_numbered(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        good = json.dumps({"video_id": "v", "fps": 25.0, "frame_count": 1,
                           "feature_dim": 2})
        path.write_text(good + "\n{not json\n")
        with pytest.raises(FormatError) as err:
            load_detections(str(path))
        assert f"{path}:2:" in str(err.value)
        assert err.value.line == 2

    @pytest.mark.parametrize("blank", [" \t", "\x0c", "\u00a0", ""])
    def test_blank_lines_skipped_and_counted(self, tmp_path, blank):
        path = tmp_path / "blank.jsonl"
        save_detections(str(path), "v", 25.0, make_frames(2))
        head, *frames = path.read_text().splitlines()
        path.write_text("\n".join([blank, head, blank, *frames, blank]) + "\n",
                        encoding="utf-8")
        assert [f.t for f in load_detections(str(path))[1]] == [0, 1]
        path.write_text("\n".join([blank, head, blank, frames[0], "{not json"]) + "\n",
                        encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_detections(str(path))
        assert err.value.line == 5 and f"{path}:5:" in str(err.value)

    def test_non_contiguous_frames_rejected(self, tmp_path):
        frames = make_frames()
        path = str(tmp_path / "gap.jsonl")
        save_detections(path, "vid", 25.0, frames)
        lines = (tmp_path / "gap.jsonl").read_text().splitlines()
        del lines[2]  # drop frame t=1
        (tmp_path / "gap.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="expected frame t=1"):
            load_detections(path)

    def test_embed_dim_mismatch_rejected(self, tmp_path):
        frames = make_frames()
        path = tmp_path / "dim.jsonl"
        save_detections(str(path), "vid", 25.0, frames)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["detections"][0]["embed"] = [1.0, 2.0]
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="feature_dim"):
            load_detections(str(path))

    def test_frame_count_mismatch_rejected(self, tmp_path):
        frames = make_frames()
        path = tmp_path / "count.jsonl"
        save_detections(str(path), "vid", 25.0, frames)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError, match="promises"):
            load_detections(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "key.jsonl"
        path.write_text(json.dumps({"video_id": "v", "fps": 25.0}) + "\n")
        with pytest.raises(FormatError, match="frame_count"):
            load_detections(str(path))


@pytest.mark.parametrize("load", [load_detections, load_predictions, load_gt_collection,
                                  load_tubes, load_gt, load_labels, load_candidates])
@pytest.mark.parametrize("name", ["absent.jsonl", ".", "not-utf8.jsonl"])
def test_unreadable_file_is_format_error(tmp_path, load, name):
    path = tmp_path / name
    if name == "not-utf8.jsonl":   # a UTF-16 byte order mark, then a JSON object
        path.write_bytes(b'\xff\xfe{"a": 1}\n')
    with pytest.raises(FormatError, match="cannot read file") as err:
        load(str(path))
    assert str(err.value).startswith(f"{path}: ")


class TestJsonlWriters:
    def test_lines_keep_default_separators(self, tmp_path):
        det = tmp_path / "d.jsonl"
        save_detections(str(det), "v", 1 / 3, [
            make_frame(0, [(Box(0.1, 0.2, 1 / 3, 0.5), 0.5, np.array([1.0, 2]))])])
        assert det.read_text() == (
            '{"video_id": "v", "fps": 0.333333333, "frame_count": 1, "feature_dim": 2}\n'
            '{"t": 0, "detections": [{"box": [0.1, 0.2, 0.333333333, 0.5], "score": 0.5, '
            '"embed": [1.0, 2.0]}]}\n')
        pred = tmp_path / "p.jsonl"
        save_predictions(str(pred), [("a", make_prediction(1, 1, 1, [BOX]))])
        assert pred.read_text() == (
            '{"video_id": "a", "ts": 1, "te": 1, "boxes": [{"t": 1, "box": [0.25, 0.25, 0.5, 0.5]}]}\n')

    @pytest.mark.parametrize("fps", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_and_nothing_written(self, tmp_path, fps):
        path = tmp_path / "d.jsonl"
        with pytest.raises(ValidationError, match="non-finite") as err:
            save_detections(str(path), "v", fps, make_frames())
        assert str(path) in str(err.value)
        assert not path.exists()

    @pytest.mark.parametrize("fps", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_fps_rejected_on_load(self, tmp_path, fps):
        path = tmp_path / "d.jsonl"
        save_detections(str(path), "v", 25.0, make_frames())
        path.write_text(path.read_text().replace('"fps": 25.0', f'"fps": {fps}', 1))
        with pytest.raises(FormatError) as err:
            load_detections(str(path))
        assert str(err.value) == f"{path}:1: fps must be a positive finite number, got {float(fps)}"

    @pytest.mark.parametrize("fps", ["0", "0.0", "-3.0"])
    def test_non_positive_fps_rejected_on_load(self, tmp_path, fps):
        path = tmp_path / "d.jsonl"
        save_detections(str(path), "v", 25.0, make_frames())
        path.write_text(path.read_text().replace('"fps": 25.0', f'"fps": {fps}', 1))
        with pytest.raises(FormatError) as err:
            load_detections(str(path))
        assert str(err.value) == f"{path}:1: fps must be a positive finite number, got {float(fps)}"


class TestRefusedWrites:
    """A write that is refused leaves no file behind."""

    @staticmethod
    def _tubes(bad=None):
        tubes = [make_tube(i, [BOX] * 3, 0.5, features=np.ones((3, 2))) for i in range(3)]
        if bad is not None:
            object.__setattr__(tubes[-1], *bad)   # past Tube's own checks
        return tubes

    @pytest.mark.parametrize("bad", [
        ("features", np.array([[1.0, 2.0], [1.0, math.nan], [1.0, 2.0]])),
        ("features", np.array([[1.0, 2.0], [1.0, 2.0], [-math.inf, 2.0]])),
        ("boxes", np.array([BOX.to_list(), [0.1, math.nan, 0.5, 0.5], BOX.to_list()])),
        ("scores", np.array([0.5, math.inf, 0.5])),
    ], ids=["nan-feature", "inf-feature", "nan-box", "inf-score"])
    def test_tubes_non_finite(self, tmp_path, bad):
        path = tmp_path / "t.tubes.json"
        with pytest.raises(ValidationError, match="non-finite") as err:
            save_tubes(str(path), "v", self._tubes(bad), include_embeds=True)
        assert str(err.value).startswith(f"{path}: ")
        assert not path.exists()

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_detection_embed_non_finite(self, tmp_path, value):
        frames = make_frames()
        features = frames[-1].features.copy()
        features[1, 2] = value
        object.__setattr__(frames[-1], "features", features)   # past FrameDetections' checks
        path = tmp_path / "d.jsonl"
        with pytest.raises(ValidationError, match="non-finite") as err:
            save_detections(str(path), "v", 25.0, frames)
        assert str(err.value).startswith(f"{path}: ")
        assert not path.exists()

    def test_detections_of_two_widths_refused(self, tmp_path):
        path = tmp_path / "d.jsonl"
        with pytest.raises(ValidationError, match="frame 1: features have 3 columns"):
            save_detections(str(path), "v", 25.0, make_frames(1, dim=4) + [
                make_frame(1, [(BOX, 0.5, np.ones(3))])])
        assert not path.exists()

    def test_failure_after_first_tube_removes_file(self, tmp_path):
        """The tube file is written a tube at a time; a tube that fails to
        encode after others were written takes the partial file with it."""
        path = tmp_path / "t.tubes.json"
        tubes = self._tubes()
        object.__setattr__(tubes[-1], "slot_id", math.nan)
        with pytest.raises(ValidationError, match="non-finite"):
            save_tubes(str(path), "v", tubes, include_embeds=True)
        assert not path.exists()


def _candidate(category="dog") -> CandidateTube:
    return CandidateTube(category=category, span=(4, 4),
                         records=[CandidateRecord(t=4, box=BOX, score=0.5)],
                         appearance=np.array([1.0]))


# Each writer with valid arguments around the video_id: write(path, video_id).
WRITERS = {
    "detections": lambda p, vid: save_detections(p, vid, 25.0, make_frames()),
    "gt": lambda p, vid: save_gt(p, vid, make_gt(0, [BOX])),
    "tubes": lambda p, vid: save_tubes(p, vid, [make_tube(0, [BOX], 0.5)]),
    "predictions": lambda p, vid: save_predictions(p, [(vid, make_prediction(0, 0, 0, [BOX]))]),
    "labels": lambda p, vid: save_labels(p, vid, [[0]]),
    "candidates": lambda p, vid: save_candidates(p, vid, [_candidate()]),
}


class TestWritersRefuseWhatReadersRefuse:
    """A writer refuses, with the reader's words and leaving no file, what
    its reader would refuse to load."""

    @staticmethod
    def _refused(path, match, write, *args):
        with pytest.raises(ValidationError, match=match):
            write(str(path), *args)
        assert not path.exists()

    @pytest.mark.parametrize("name", list(WRITERS))
    @pytest.mark.parametrize("bad", [3, None, ["v"]], ids=["number", "null", "array"])
    def test_non_string_video_id(self, tmp_path, name, bad):
        WRITERS[name](str(tmp_path / "ok"), "v")
        self._refused(tmp_path / "f", rf"^'video_id' must be a string, got {re.escape(repr(bad))}$",
                      WRITERS[name], bad)

    def test_non_string_category(self, tmp_path):
        self._refused(tmp_path / "c.json", r"^'category' must be a string, got 3$",
                      save_candidates, "v", [_candidate(), _candidate(3)])

    def test_repeated_slot_id(self, tmp_path):
        tubes = [make_tube(0, [BOX], 0.5), make_tube(1, [BOX], 0.5), make_tube(0, [BOX], 0.5)]
        self._refused(tmp_path / "t.json", r"^slot_id 0 is held by more than one tube$",
                      save_tubes, "v", tubes)

    @pytest.mark.parametrize("ts, match", [
        ([3, 4], r"^expected frame t=0, got t=3$"),
        ([0, 2], r"^expected frame t=1, got t=2$"),
        ([0, 0], r"^expected frame t=1, got t=0$"),
    ])
    def test_detection_frames_not_in_order(self, tmp_path, ts, match):
        frames = [replace(fr, t=t) for fr, t in zip(make_frames(2), ts)]
        self._refused(tmp_path / "d.jsonl", match, save_detections, "v", 25.0, frames)

    @pytest.mark.parametrize("fps", [0.0, -0.0, -25.0])
    def test_detections_fps_not_positive(self, tmp_path, fps):
        self._refused(tmp_path / "d.jsonl", rf"^fps must be a positive finite number, got {fps!r}$",
                      save_detections, "v", fps, make_frames())

    def test_predictions_repeated_video_id(self, tmp_path):
        pred = make_prediction(0, 0, 0, [BOX])
        self._refused(tmp_path / "p.jsonl", r"^video_id 'v' is also on line 1$",
                      save_predictions, [("v", pred), ("w", pred), ("v", pred)])

    def test_predictions_empty(self, tmp_path):
        # It used to write "\n", which load_predictions refuses as empty.
        self._refused(tmp_path / "p.jsonl", r"^refusing to write an empty predictions file$",
                      save_predictions, [])

    @pytest.mark.parametrize("ids, match", [
        ([[0], [1.5]], r"^'ids' must be an integer, got 1.5$"),
        ([[True]], r"^'ids' must be an integer, got True$"),
        ([["1"]], r"^'ids' must be an integer, got '1'$"),
        ([[2 ** 63]], r"^'ids' must be an integer that fits in 64 bits, got 9223372036854775808$"),
    ], ids=["fraction", "bool", "string", "beyond-64-bits"])
    def test_label_ids(self, tmp_path, ids, match):
        self._refused(tmp_path / "l.json", match, save_labels, "v", ids)

    def test_numpy_label_id_written_as_integer(self, tmp_path):
        # It raised a bare TypeError from the JSON encoder, then a
        # ValidationError; a numpy integer is an integer.
        path = tmp_path / "l.json"
        save_labels(str(path), "v", [[np.int64(3), np.int32(-2)]])
        assert load_labels(str(path)) == ("v", [[3, -2]])

    def test_integral_float_label_id_written_as_integer(self, tmp_path):
        path = tmp_path / "l.json"
        save_labels(str(path), "v", [[1.0, -2], []])
        assert path.read_text() == ('{"video_id":"v","frames":[{"t":0,"ids":[1,-2]},'
                                    '{"t":1,"ids":[]}]}\n')


ROW = np.array([BOX.to_list()])
# Each integer field of a holder: (the holder with `v` in that field, the
# refusal's prefix).
INT_FIELDS = {
    "FrameDetections.t": (lambda v: FrameDetections(v, ROW, [0.5], [[1.0]]), "'t'"),
    "Tube.slot_id": (lambda v: Tube(v, [0], ROW, [0.5], [0]), "'slot_id'"),
    "Tube.t": (lambda v: Tube(0, [v], ROW, [0.5], [0]), "tube 0: 't'"),
    "Tube.det": (lambda v: Tube(0, [0], ROW, [0.5], [v]), "tube 0 frame 0: 'det'"),
    "GtTube.ts": (lambda v: GtTube(v, 0, ROW), "'ts'"),
    "GtTube.te": (lambda v: GtTube(0, v, ROW), "'te'"),
    "Prediction.ts": (lambda v: Prediction(v, 0, 0, ROW), "'ts'"),
    "Prediction.te": (lambda v: Prediction(0, v, 0, ROW), "'te'"),
    "Prediction.t0": (lambda v: Prediction(0, 0, v, ROW), "'t0'"),
    "CandidateTube.span": (lambda v: CandidateTube("c", (v, 0), [CandidateRecord(0, BOX, 0.5)],
                                                   np.array([1.0])), "'span'"),
    "CandidateRecord.t": (lambda v: CandidateRecord(v, BOX, 0.5), "'t'"),
}


class TestHoldersApplyTheIntegerRule:
    """Every frame index and id of a holder passes the readers' integer
    rule, so a writer never meets one that its reader would refuse."""

    @pytest.mark.parametrize("field", list(INT_FIELDS))
    @pytest.mark.parametrize("value, refusal", [
        (True, "must be an integer, got True"), (0.5, "must be an integer, got 0.5"),
        ("a", "must be an integer, got 'a'"),
        (2 ** 70, "must be an integer that fits in 64 bits, got 1180591620717411303424")],
        ids=["bool", "fraction", "string", "beyond-64-bits"])
    def test_refused(self, field, value, refusal):
        # Each of these was once held: some written and then refused on
        # load, 0.5 taken as frame 0, 2**70 a bare OverflowError.
        build, key = INT_FIELDS[field]
        with pytest.raises(ValidationError, match=rf"^{re.escape(f'{key} {refusal}')}$"):
            build(value)

    @pytest.mark.parametrize("field", list(INT_FIELDS))
    @pytest.mark.parametrize("value", [np.int64(0), np.uint8(0), 0.0, -0.0],
                             ids=["int64", "uint8", "float", "negative-zero"])
    def test_held_as_python_int(self, field, value):
        holder = INT_FIELDS[field][0](value)
        name = field.split(".")[1]
        held = getattr(holder, name)
        if name == "span":
            assert held == (0, 0) and all(type(v) is int for v in held)
        elif isinstance(held, np.ndarray):
            assert held.dtype == np.int64 and held.tolist() == [0]
        else:
            assert type(held) is int and held == 0

    def test_prediction_boxes_end_within_64_bits(self):
        # Its last box was written at frame 2**63, which no reader takes.
        with pytest.raises(ValidationError, match=r"^'t' must be an integer that fits in 64 "
                                                  r"bits, got 9223372036854775808$"):
            Prediction(2 ** 63 - 1, 2 ** 63 - 1, 2 ** 63 - 1, np.vstack([ROW, ROW]))

    @pytest.mark.parametrize("name, write", [
        ("gt", lambda p, i: save_gt(p, "v", GtTube(i(2), i(2), ROW))),
        ("predictions", lambda p, i: save_predictions(p, [("v", Prediction(i(2), i(2), i(2),
                                                                           ROW))])),
        ("tubes", lambda p, i: save_tubes(p, "v", [Tube(i(1), [i(2)], ROW, [0.5], [i(0)])])),
        ("candidates", lambda p, i: save_candidates(p, "v", [CandidateTube(
            "c", (i(2), i(2)), [CandidateRecord(i(2), BOX, 0.5)], np.array([1.0]))])),
        ("detections", lambda p, i: save_detections(p, "v", 25.0, [
            FrameDetections(i(0), ROW, [0.5], [[1.0]])])),
    ])
    def test_numpy_integers_written_as_integers(self, tmp_path, name, write):
        # A numpy integer raised a bare TypeError from the JSON encoder.
        write(str(tmp_path / "int"), int)
        write(str(tmp_path / "numpy"), np.int64)
        assert (tmp_path / "numpy").read_bytes() == (tmp_path / "int").read_bytes()


CORNERS = [[0.1, 0.1, 1.0, 1.0]]
# Each float column of a holder: (the holder with the column `c`, what it
# holds of it, a valid column, the refusal's prefix).  Every valid column
# stays valid cast to int64.
FLOAT_FIELDS = {
    "corner_rows": (corner_rows, lambda h: h, CORNERS, "'box'"),
    "Box": (lambda c: Box(*c), Box.to_list, CORNERS[0], "'box'"),
    "FrameDetections.boxes": (lambda c: FrameDetections(0, c, [0.5], [[1.0]]),
                              lambda h: h.boxes, CORNERS, "'box'"),
    "FrameDetections.scores": (lambda c: FrameDetections(0, ROW, c, [[1.0]]),
                               lambda h: h.scores, [0.1], "frame 0: 'score'"),
    "FrameDetections.features": (lambda c: FrameDetections(0, ROW, [0.5], c),
                                 lambda h: h.features, [[0.1, 2.0]], "frame 0: 'embed'"),
    "Tube.boxes": (lambda c: Tube(0, [0], c, [0.5], [0]), lambda h: h.boxes, CORNERS,
                   "tube 0: 'box'"),
    "Tube.scores": (lambda c: Tube(0, [0], ROW, c, [0]), lambda h: h.scores, [0.1],
                    "tube 0 frame 0: 'score'"),
    "Tube.features": (lambda c: Tube(0, [0], ROW, [0.5], [0], c), lambda h: h.features,
                      [[0.1, 2.0]], "tube 0 frame 0: 'embed'"),
    "GtTube.boxes": (lambda c: GtTube(0, 0, c), lambda h: h.boxes, CORNERS, "'box'"),
    "Prediction.boxes": (lambda c: Prediction(0, 0, 0, c), lambda h: h.boxes, CORNERS,
                         "'box'"),
    "TubeMemory.vectors": (TubeMemory, lambda h: h.vectors, [[0.1, 2.0]], "'vectors'"),
    "MinedTube.features": (lambda c: MinedTube(c, ROW.repeat(2, axis=0)),
                           lambda h: h.features, [[0.1, 2.0], [1.5, 1.0]], "'features'"),
    "MinedTube.boxes": (lambda c: MinedTube(np.eye(2), c), lambda h: h.boxes, CORNERS * 2,
                        "'box'"),
    "CandidateRecord.score": (lambda c: CandidateRecord(0, BOX, c), lambda h: h.score, 0.1,
                              "frame 0: 'score'"),
    "CandidateTube.appearance": (lambda c: CandidateTube("c", (0, 0), [CandidateRecord(
        0, BOX, 0.5)], c), lambda h: h.appearance, [0.1, 2.0], "'appearance'"),
    "cosine_similarity": (lambda c: cosine_similarity(c, [1.0, 1.0]), lambda h: h,
                          [0.1, 2.0], "'u'"),
}


def _spoil_last(column, bad):
    """The column with its last number replaced by `bad`."""
    if not isinstance(column, list):
        return bad
    return [*column[:-1], _spoil_last(column[-1], bad)]


def _float64_scalars(column):
    """The column with each number an np.float64, in lists as it was."""
    a = np.asarray(column, dtype=float)
    return a[()] if a.ndim == 0 else [list(r) for r in a] if a.ndim == 2 else list(a)


class TestHoldersApplyTheNumberRule:
    """Every float column of a holder passes the readers' number rule
    (geometry.numbers): np.array(..., dtype=float) took "0.5" and True."""

    @pytest.mark.parametrize("field", list(FLOAT_FIELDS))
    @pytest.mark.parametrize("value, refusal", [
        ("0.5", "must be a number, got '0.5'"), (True, "must be a number, got True"),
        (None, "must be a number, got None"),
        (10 ** 400, f"must be a number that fits in 64 bits, got {10 ** 400}")],
        ids=["numeric-string", "bool", "none", "beyond-float"])
    def test_refused(self, field, value, refusal):
        build, _, column, key = FLOAT_FIELDS[field]
        with pytest.raises(ValidationError, match=rf"^{re.escape(f'{key} {refusal}')}$"):
            build(_spoil_last(column, value))

    @pytest.mark.parametrize("field", list(FLOAT_FIELDS))
    @pytest.mark.parametrize("cast", [
        lambda c: np.asarray(c, dtype=np.float32)[()],
        lambda c: np.asarray(c).astype(np.int64)[()], _float64_scalars],
        ids=["float32", "int64", "float64-scalars"])
    def test_held_as_float_arrays_take_them(self, field, cast):
        build, held, column, _ = FLOAT_FIELDS[field]
        column = cast(column)
        got = np.asarray(held(build(column)), dtype=float)
        want = np.asarray(held(build(np.array(column, dtype=float))), dtype=float)
        assert got.tobytes() == want.tobytes()


class TestCandidateScores:
    def test_score_outside_unit_interval_refused_on_load(self, tmp_path):
        # Such a file used to load, and autolabel ranked fragments by it.
        path = tmp_path / "c.json"
        save_candidates(str(path), "v", [_candidate()])
        doc = json.loads(path.read_text())
        doc["candidates"][0]["records"][0]["score"] = 5.0
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as err:
            load_candidates(str(path))
        assert str(err.value) == f"{path}: frame 4: score must lie in [0, 1], got 5.0"
        assert (err.value.path, err.value.line) == (str(path), None)


class TestGt:
    def _gt(self):
        return make_gt(2, [BOX] * 4)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "clip.gt.json")
        save_gt(path, "vid", self._gt())
        video_id, gt = load_gt(path)
        assert video_id == "vid"
        assert (gt.ts, gt.te) == (2, 5)
        assert gt.boxes[3 - gt.ts].tolist() == BOX.to_list()

    def test_seconds_interval_converted(self, tmp_path):
        doc = {"video_id": "v", "ts_sec": 0.2, "te_sec": 0.5, "fps": 10.0,
               "boxes": [{"t": t, "box": BOX.to_list()} for t in range(2, 6)]}
        path = tmp_path / "sec.gt.json"
        path.write_text(json.dumps(doc))
        _, gt = load_gt(str(path))
        assert (gt.ts, gt.te) == (2, 5)

    def test_seconds_without_fps_rejected(self, tmp_path):
        doc = {"video_id": "v", "ts_sec": 0.2, "te_sec": 0.5,
               "boxes": [{"t": 2, "box": BOX.to_list()}]}
        path = tmp_path / "nofps.gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="fps"):
            load_gt(str(path))

    @pytest.mark.parametrize("fps", [0.0, -10.0, math.nan, math.inf])
    def test_seconds_need_a_positive_finite_fps(self, tmp_path, fps):
        doc = {"video_id": "v", "ts_sec": 0.2, "te_sec": 0.5, "fps": fps,
               "boxes": [{"t": 0, "box": BOX.to_list()}]}
        path = tmp_path / "fps.gt.json"
        path.write_text(json.dumps(doc))
        refusal = f"fps must be a positive finite number, got {fps}"
        with pytest.raises(FormatError) as err:
            load_gt(str(path))
        assert str(err.value) == f"{path}: {refusal}"
        pred = tmp_path / "p.jsonl"
        pred.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FormatError) as err:
            load_predictions(str(pred))
        assert str(err.value) == f"{pred}:1: {refusal}"

    def test_frames_in_any_order(self, tmp_path):
        path = tmp_path / "reversed.gt.json"
        path.write_text(json.dumps({"video_id": "v", "ts": 1, "te": 2, "boxes": [
            {"t": 2, "box": BOX.to_list()}, {"t": 1, "box": [0.1, 0.1, 0.2, 0.2]}]}))
        _, gt = load_gt(str(path))
        assert gt.boxes.tolist() == [[0.1, 0.1, 0.2, 0.2], BOX.to_list()]

    def test_duplicate_frame_refused(self, tmp_path):
        # A dict keyed by frame used to keep the last box in silence.
        path = tmp_path / "twice.gt.json"
        path.write_text(json.dumps({"video_id": "v", "ts": 1, "te": 2, "boxes": [
            {"t": 1, "box": BOX.to_list()}, {"t": 2, "box": BOX.to_list()},
            {"t": 1, "box": BOX.to_list()}]}))
        with pytest.raises(FormatError, match="frame 1 has more than one box") as err:
            load_gt(str(path))
        assert str(err.value).startswith(f"{path}: ")

    def test_collection_document_error_at_its_line(self, tmp_path):
        path = tmp_path / "pretty.gt.json"
        save_gt(str(path), "vid", self._gt())
        text = json.dumps(json.loads(path.read_text()), indent=2).splitlines()
        assert text[2].startswith('  "ts": ')
        text[2] = text[2].replace(":", "", 1)
        path.write_text("\n".join(text) + "\n")
        for load in (load_gt, load_gt_collection):
            with pytest.raises(FormatError, match="invalid JSON") as err:
                load(str(path))
            assert err.value.line == 3 and f"{path}:3:" in str(err.value)

    def test_collection_single_document(self, tmp_path):
        path = str(tmp_path / "one.gt.json")
        save_gt(path, "vid", self._gt())
        items = load_gt_collection(path)
        assert len(items) == 1
        assert items[0][0] == "vid"

    def test_collection_jsonl(self, tmp_path):
        path = tmp_path / "many.gt.jsonl"
        line = {"video_id": "a", "ts": 0, "te": 1,
                "boxes": [{"t": 0, "box": BOX.to_list()},
                          {"t": 1, "box": BOX.to_list()}]}
        lines = [json.dumps({**line, "video_id": vid}) for vid in ("a", "b", "c")]
        path.write_text("\n".join(lines) + "\n")
        items = load_gt_collection(str(path))
        assert [vid for vid, _ in items] == ["a", "b", "c"]

    def test_collection_jsonl_lines_numbered_from_the_file(self, tmp_path):
        path = tmp_path / "many.gt.jsonl"
        line = {"video_id": "a", "ts": 0, "te": 0, "boxes": [{"t": 0, "box": BOX.to_list()}]}
        lines = ["", json.dumps(line), "  ", json.dumps({**line, "video_id": "b"})]
        path.write_text("\n".join(lines) + "\n")
        assert [vid for vid, _ in load_gt_collection(str(path))] == ["a", "b"]
        path.write_text("\n".join(lines + [json.dumps({**line, "te": 1})]) + "\n")
        with pytest.raises(FormatError) as err:
            load_gt_collection(str(path))
        assert err.value.line == 5 and f"{path}:5:" in str(err.value)
        path.write_text("\n".join(lines + ["{"]) + "\n")
        with pytest.raises(FormatError, match="invalid JSON") as err:
            load_gt_collection(str(path))
        assert err.value.line == 5

    @pytest.mark.parametrize("inside", ["\u2028", "\u2029", "\x85"])
    def test_collection_line_break_of_str_splitlines_is_text(self, tmp_path, inside):
        # A GT whose video_id held a U+2028 used to be refused as
        # "invalid JSON", though load_predictions read the same line.
        path = tmp_path / "u2028.gt.jsonl"
        line = {"video_id": "a", "ts": 0, "te": 0, "boxes": [{"t": 0, "box": BOX.to_list()}]}
        path.write_text("\n".join(json.dumps(x, ensure_ascii=False)
                                  for x in (line, {**line, "video_id": f"b{inside}c"})) + "\n",
                        encoding="utf-8")
        expected = ["a", f"b{inside}c"]
        assert [vid for vid, _ in load_gt_collection(str(path))] == expected
        assert [vid for vid, _ in load_predictions(str(path))] == expected

    @pytest.mark.parametrize("text, line", [
        ("{a}\n\x0c\x0c\n{bad}\n", 3), ("{a}\r\n\r\n{bad}\r\n", 3), ("{a}\r{bad}\r", 2),
        ("\u2028\n{a}\n\x85\n\u00a0\n{bad}\n", 5), ("{a}\n{b}\n{bad}\n", 3),
        ("{a}\n\x1c\n{{not json\n", 3), ("{a}\n{b}\n\n{a}\n", 4)],
        ids=["form-feed", "crlf", "cr", "blank-kinds", "u2028-in-record", "bad-json", "repeat"])
    def test_collection_names_the_line_load_predictions_names(self, tmp_path, text, line):
        # str.splitlines also broke GT collections at "\x0c", "\x1c", "\x85"
        # and U+2028: the error after a line of "\x0c\x0c" was named at line 5.
        record = {"video_id": "a", "ts": 0, "te": 0, "boxes": [{"t": 0, "box": BOX.to_list()}]}
        path = tmp_path / "lines.jsonl"
        path.write_bytes(text.format_map({
            "a": json.dumps(record),
            "b": json.dumps({**record, "video_id": "b\u2028c"}, ensure_ascii=False),
            "bad": json.dumps({**record, "video_id": "d", "boxes": [{"t": 0, "box": [0]}]}),
        }).encode())
        for load in (load_gt_collection, load_predictions):
            with pytest.raises(FormatError) as err:
                load(str(path))
            assert err.value.line == line, (load.__name__, str(err.value))

    def test_collection_repeated_video_id_refused(self, tmp_path):
        path = tmp_path / "twice.gt.jsonl"
        line = {"video_id": "a", "ts": 0, "te": 0, "boxes": [{"t": 0, "box": BOX.to_list()}]}
        path.write_text("\n".join(json.dumps(x) for x in (line, {**line, "video_id": "b"}, line))
                        + "\n")
        with pytest.raises(FormatError, match="video_id 'a' is also on line 1") as err:
            load_gt_collection(str(path))
        assert err.value.line == 3 and str(err.value).startswith(f"{path}:3: ")

    def test_sparse_boxes_rejected(self, tmp_path):
        doc = {"video_id": "v", "ts": 0, "te": 3,
               "boxes": [{"t": 0, "box": BOX.to_list()}]}
        path = tmp_path / "sparse.gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_gt(str(path))


class TestTubes:
    def _tubes(self, with_features: bool = True):
        feat = np.tile([1.0, 2.0], (3, 1)) if with_features else None
        return [make_tube(s, [BOX] * 3, 0.5, det=[0, -1, 2], features=feat)
                for s in range(2)]

    def test_round_trip_without_embeds(self, tmp_path):
        path = str(tmp_path / "clip.tubes.json")
        save_tubes(path, "vid", self._tubes())
        video_id, tubes = load_tubes(path)
        assert video_id == "vid"
        assert len(tubes) == 2
        assert tubes[0].records[1].det is None
        assert tubes[0].records[2].det == 2
        assert tubes[0].records[0].feature is None

    def test_round_trip_with_embeds(self, tmp_path):
        path = str(tmp_path / "clip.tubes.json")
        save_tubes(path, "vid", self._tubes(), include_embeds=True)
        _, tubes = load_tubes(path)
        assert np.array_equal(tubes[1].records[0].feature, [1.0, 2.0])

    def test_embeds_require_features(self, tmp_path):
        with pytest.raises(ValidationError):
            save_tubes(str(tmp_path / "x.json"), "vid",
                       self._tubes(with_features=False), include_embeds=True)

    def test_tube_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "clip.tubes.json"
        save_tubes(str(path), "vid", self._tubes())
        doc = json.loads(path.read_text())
        doc["n_q"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="n_q"):
            load_tubes(str(path))

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_tubes(str(p1), "vid", self._tubes(), include_embeds=True)
        _, tubes = load_tubes(str(p1))
        save_tubes(str(p2), "vid", tubes, include_embeds=True)
        assert p1.read_bytes() == p2.read_bytes()


    def test_golden_clamp_and_negative_zero_round_trip(self, tmp_path):
        # An out-of-range coordinate is clamped once, -0.0 keeps its sign, and
        # load, save, load, save gives the pinned bytes below.
        doc = {"video_id": "g", "n_q": 2, "tubes": [
            {"slot_id": 0, "records": [
                {"t": 0, "box": [-0.0, 0.25, 1.5, 0.75], "score": 0.5, "det": 0,
                 "embed": [1.0, -0.0]},
                {"t": 2, "box": [-0.25, -0.0, 0.5, 1e-12], "score": 0.0, "det": None,
                 "embed": [1.0, -0.0]}]},
            {"slot_id": 4, "records": [
                {"t": 1, "box": [0.1, 0.2, 0.30000000000000004, 2], "score": 1, "det": 3,
                 "embed": [-2.5e-7, 3]}]}]}
        golden = (
            '{"video_id":"g","n_q":2,"tubes":[{"slot_id":0,"records":['
            '{"t":0,"box":[-0.0,0.25,1.0,0.75],"score":0.5,"det":0,"embed":[1.0,-0.0]},'
            '{"t":2,"box":[0.0,-0.0,0.5,1e-12],"score":0.0,"det":null,"embed":[1.0,-0.0]}]},'
            '{"slot_id":4,"records":['
            '{"t":1,"box":[0.1,0.2,0.3,1.0],"score":1.0,"det":3,"embed":[-2.5e-07,3.0]}]}]}\n')
        src, once, twice = (tmp_path / n for n in ("in.json", "a.json", "b.json"))
        src.write_text(json.dumps(doc))
        save_tubes(str(once), *load_tubes(str(src)), include_embeds=True)
        save_tubes(str(twice), *load_tubes(str(once)), include_embeds=True)
        assert once.read_text() == golden
        assert twice.read_text() == golden


class TestTubeFileOracle:
    """save_tubes writes, byte for byte, what the C encoder writes for the
    file's dict form with f9 of every float, on tubes drawn with gap rows,
    an empty tube, frame indices up to 2**53, -0.0, values of 1 and more,
    and values on the f9 kernel's slow path: zeros, magnitudes below 1e-4
    or from 1e7 up, and rounding ties."""

    @staticmethod
    def _floats(rng, shape, low: float, high: float) -> np.ndarray:
        """Values in [low, high], a third of them plain, a third at a rounding
        tie of their ninth digit, and the rest edge values."""
        plain = rng.uniform(low, high, size=shape)
        ties = ((rng.integers(10 ** 8, 10 ** 9, size=shape) + 0.5)
                * 10.0 ** rng.integers(-13, 4, size=shape))
        edges = rng.choice([0.0, -0.0, 5e-324, 3e-5, -9.99999999e-5, 1e-4, 0.1, 1 / 3, 1.0,
                            2.5, 1e7, -12345678.9, 1e8, 123456789012.0, -1e300], size=shape)
        x = np.select([rng.integers(0, 3, size=shape) == i for i in range(2)], [plain, ties], edges)
        return np.where((x >= low) & (x <= high), x, plain)

    @classmethod
    def _boxes(cls, rng, n: int) -> np.ndarray:
        """n boxes by Box's rule, clamped into the unit square."""
        x1, y1 = cls._floats(rng, (2, n), 0.0, 0.5)
        return corner_rows(np.stack([x1, y1, x1 + cls._floats(rng, n, 0.01, 1.0),
                                     y1 + cls._floats(rng, n, 0.01, 1.0)], axis=1))

    def _tube(self, rng, slot_id: int, n: int, dim: int | None) -> Tube:
        t = np.cumsum(rng.integers(1, 2 ** 45, size=n))
        t += rng.choice([0, -t[-1] if n else 0, 2 ** 53 - (t[-1] if n else 0)])
        boxes = self._boxes(rng, n)
        det = np.where(rng.uniform(size=n) < 0.3, -1, rng.integers(0, 2 ** 40, size=n))
        features = None if dim is None else self._floats(rng, (n, dim), -1e12, 1e12)
        return Tube(slot_id, t, boxes, self._floats(rng, n, 0.0, 1.0), det, features)

    @staticmethod
    def _doc(video_id: str, tubes: list[Tube], include_embeds: bool) -> dict:
        def record(t, box, score, det, feature):
            embed = {"embed": [f9(v) for v in feature]} if include_embeds else {}
            return {"t": t, "box": [f9(v) for v in box], "score": f9(score),
                    "det": None if det < 0 else det, **embed}
        return {"video_id": video_id, "n_q": len(tubes), "tubes": [
            {"slot_id": tube.slot_id, "records": [record(*r) for r in zip(
                tube.t.tolist(), tube.boxes.tolist(), tube.scores.tolist(), tube.det.tolist(),
                [None] * len(tube.t) if tube.features is None else tube.features.tolist())]}
            for tube in tubes]}

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("include_embeds", [True, False])
    def test_file_is_the_encoders_text(self, tmp_path, seed, include_embeds):
        rng = np.random.default_rng([71, seed])
        dims = [int(rng.integers(1, 20)), 0] if include_embeds else [None, 3]
        tubes = [self._tube(rng, slot_id, n, dims[slot_id == 2])
                 for slot_id, n in enumerate([int(rng.integers(1, 40)), 0, 5,
                                              int(rng.integers(1, 40))])]
        path = tmp_path / "o.tubes.json"
        save_tubes(str(path), f"v\u00e9-{seed}", tubes, include_embeds=include_embeds)
        want = _DOC.encode(self._doc(f"v\u00e9-{seed}", tubes, include_embeds)) + "\n"
        assert path.read_text(encoding="utf-8") == want


def _f9s(values) -> list[float]:
    return [f9(v) for v in values]


class TestWriterOracles:
    """The detections, GT, predictions and candidates writers write, byte for
    byte, what the C encoder writes for each file's dict form with f9 of
    every float, on values drawn as for TestTubeFileOracle, and frame
    indices from -2**63 up to 2**63 - 1."""

    _floats = staticmethod(TestTubeFileOracle._floats)
    _boxes = TestTubeFileOracle._boxes

    @classmethod
    def _vectors(cls, rng, shape) -> np.ndarray:
        """Drawn vectors, each with a first element that keeps its norm positive."""
        x = cls._floats(rng, shape, -1e12, 1e12)
        x[..., 0] = rng.uniform(0.5, 2.0, size=shape[:-1])
        return x

    @staticmethod
    def _first_frame(rng, seed: int, n: int) -> int:
        """The first of n frames: 0, a drawn one, -2**63 or 2**63 - n."""
        return [0, int(rng.integers(-2 ** 62, 2 ** 62)), -2 ** 63, 2 ** 63 - n][seed % 4]

    @pytest.mark.parametrize("seed, count", enumerate([1, 31, 32, 33, 64, 97]))
    def test_detections(self, tmp_path, seed, count):
        rng = np.random.default_rng([73, seed])
        dim = int(rng.integers(1, 20))
        frames = []
        for t in range(count):   # one block of frames or more
            n = int(rng.integers(1, 6))
            frames.append(FrameDetections(t, self._boxes(rng, n), self._floats(rng, n, 0.0, 1.0),
                                          self._vectors(rng, (n, dim))))
        fps = float(self._floats(rng, 1, 1e-6, 1e9)[0])
        path = tmp_path / "o.detections.jsonl"
        save_detections(str(path), f"v\u00e9-{seed}", fps, frames)
        lines = [{"video_id": f"v\u00e9-{seed}", "fps": f9(fps), "frame_count": count,
                  "feature_dim": dim}] + [
            {"t": fr.t, "detections": [
                {"box": _f9s(box), "score": f9(score), "embed": _f9s(embed)}
                for box, score, embed in zip(fr.boxes.tolist(), fr.scores.tolist(),
                                             fr.features.tolist())]}
            for fr in frames]
        assert path.read_text(encoding="utf-8") == "".join(_LINE.encode(line) + "\n"
                                                           for line in lines)

    @staticmethod
    def _boxes_doc(t0: int, boxes: np.ndarray) -> list[dict]:
        return [{"t": t, "box": _f9s(box)} for t, box in enumerate(boxes.tolist(), t0)]

    @pytest.mark.parametrize("seed", range(6))
    def test_gt(self, tmp_path, seed):
        rng = np.random.default_rng([79, seed])
        n = int(rng.integers(1, 40))
        ts = self._first_frame(rng, seed, n)
        gt = GtTube(ts, ts + n - 1, self._boxes(rng, n))
        path = tmp_path / "o.gt.json"
        save_gt(str(path), f"v\u00e9-{seed}", gt)
        want = {"video_id": f"v\u00e9-{seed}", "ts": gt.ts, "te": gt.te,
                "boxes": self._boxes_doc(gt.ts, gt.boxes)}
        assert path.read_text(encoding="utf-8") == _DOC.encode(want) + "\n"

    @pytest.mark.parametrize("seed", range(6))
    def test_predictions(self, tmp_path, seed):
        rng = np.random.default_rng([83, seed])
        items = []
        for i in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 30))
            t0 = self._first_frame(rng, seed + i, k)
            ts = t0 + int(rng.integers(0, k))
            te = ts + int(rng.integers(0, t0 + k - ts))
            items.append((f"v\u00e9-{i}", Prediction(ts, te, t0, self._boxes(rng, k))))
        path = tmp_path / "o.pred.jsonl"
        save_predictions(str(path), items)
        assert path.read_text(encoding="utf-8") == "".join(
            _LINE.encode({"video_id": video_id, "ts": pred.ts, "te": pred.te,
                          "boxes": self._boxes_doc(pred.t0, pred.boxes)}) + "\n"
            for video_id, pred in items)

    @pytest.mark.parametrize("seed", range(6))
    def test_candidates(self, tmp_path, seed):
        rng = np.random.default_rng([89, seed])
        candidates = []
        for i in range(seed % 4):   # none at all for seed 0
            k = int(rng.integers(1, 20))
            s = self._first_frame(rng, seed + i, k)
            flags = (rng.uniform(size=k) < 0.4).tolist()   # interpolated and real records
            records = [CandidateRecord(t, Box(*box), score, flag) for t, box, score, flag in zip(
                range(s, s + k), self._boxes(rng, k).tolist(),
                self._floats(rng, k, 0.0, 1.0).tolist(), flags)]
            candidates.append(CandidateTube(f"c\u00e9{i}", (s, s + k - 1), records,
                                            self._vectors(rng, (int(rng.integers(1, 20)),))))
        path = tmp_path / "o.candidates.json"
        save_candidates(str(path), f"v\u00e9-{seed}", candidates)
        want = {"video_id": f"v\u00e9-{seed}", "candidates": [
            {"category": c.category, "span": list(c.span), "records": [
                {"t": r.t, "box": _f9s(r.box.to_list()), "score": f9(r.score),
                 **({"interpolated": True} if r.interpolated else {})} for r in c.records],
             "appearance": _f9s(c.appearance.tolist())}
            for c in candidates]}
        assert path.read_text(encoding="utf-8") == _DOC.encode(want) + "\n"


class TestPredictions:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "preds.jsonl")
        items = [("a", make_prediction(0, 2, 0, [BOX] * 3)),
                 ("b", make_prediction(1, 1, 1, [BOX]))]
        save_predictions(path, items)
        loaded = load_predictions(path)
        assert [vid for vid, _ in loaded] == ["a", "b"]
        assert loaded[0][1].boxes[2 - loaded[0][1].t0].tolist() == BOX.to_list()

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(FormatError, match="empty"):
            load_predictions(str(path))

    def test_duplicate_frame_refused(self, tmp_path):
        path = tmp_path / "twice.jsonl"
        line = {"video_id": "a", "ts": 0, "te": 0, "boxes": [{"t": 0, "box": BOX.to_list()}]}
        twice = {**line, "video_id": "b", "boxes": line["boxes"] * 2}
        path.write_text(json.dumps(line) + "\n" + json.dumps(twice) + "\n")
        with pytest.raises(FormatError, match="frame 0 has more than one box") as err:
            load_predictions(str(path))
        assert err.value.line == 2 and str(err.value).startswith(f"{path}:2: ")

    def test_repeated_video_id_refused(self, tmp_path):
        path = tmp_path / "twice.jsonl"
        line = {"video_id": "a", "ts": 0, "te": 3,
                "boxes": [{"t": t, "box": BOX.to_list()} for t in range(4)]}
        path.write_text(json.dumps({**line, "ts": 3}) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(FormatError, match="video_id 'a' is also on line 1") as err:
            load_predictions(str(path))
        assert err.value.line == 2 and str(err.value).startswith(f"{path}:2: ")

    def test_hole_refused(self, tmp_path):
        path = tmp_path / "hole.jsonl"
        path.write_text(json.dumps({"video_id": "a", "ts": 0, "te": 0, "boxes": [
            {"t": t, "box": BOX.to_list()} for t in (0, 3, 9)]}) + "\n")
        with pytest.raises(FormatError, match=r"contiguous.*frames \[1, 2, 4, 5, 6\]"):
            load_predictions(str(path))


class TestLabels:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "clip.labels.json")
        identities = [[0, 1, -1], [0, 1], [1, 0, -2]]
        save_labels(path, "vid", identities)
        video_id, loaded = load_labels(path)
        assert video_id == "vid"
        assert loaded == identities

    def test_frame_order_enforced(self, tmp_path):
        doc = {"video_id": "v", "frames": [{"t": 1, "ids": [0]}]}
        path = tmp_path / "bad.labels.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="expected frame t=0"):
            load_labels(str(path))


class TestCandidates:
    def test_round_trip(self, tmp_path):
        cands = [CandidateTube(
            category="dog", span=(0, 2),
            records=[CandidateRecord(t=0, box=BOX, score=0.9),
                     CandidateRecord(t=1, box=BOX, score=0.8, interpolated=True),
                     CandidateRecord(t=2, box=BOX, score=0.7)],
            appearance=np.array([1.0, 0.5]))]
        path = str(tmp_path / "clip.candidates.json")
        save_candidates(path, "vid", cands)
        video_id, loaded = load_candidates(path)
        assert video_id == "vid"
        assert loaded[0].category == "dog"
        assert loaded[0].span == (0, 2)
        assert loaded[0].records[1].interpolated is True
        assert loaded[0].real_record_count == 2

    def test_rewrite_bytes(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(
            '{"video_id": "clip-\u00e9", "candidates": [{"category": "dog", "span": [3, 4], '
            '"records": [{"t": 3, "box": [0.1, 0.2, 0.30000000001, 0.4], "score": 0.123456789123}, '
            '{"t": 4, "box": [0.1, 0.2, 0.3, 0.4], "score": 0.5, "interpolated": true}], '
            '"appearance": [1, -0.0, 2.5e-7]}, {"category": "cat \\"x\\"", "span": [0, 0], '
            '"records": [{"t": 0, "box": [0, 0, 1, 1], "score": 1}], '
            '"appearance": [0.333333333333, 123456789012]}]}\n')
        out = tmp_path / "out.json"
        save_candidates(str(out), *load_candidates(str(src)))
        assert out.read_text() == (
            '{"video_id":"clip-\\u00e9","candidates":[{"category":"dog","span":[3,4],'
            '"records":[{"t":3,"box":[0.1,0.2,0.3,0.4],"score":0.123456789},'
            '{"t":4,"box":[0.1,0.2,0.3,0.4],"score":0.5,"interpolated":true}],'
            '"appearance":[1.0,-0.0,2.5e-07]},{"category":"cat \\"x\\"","span":[0,0],'
            '"records":[{"t":0,"box":[0.0,0.0,1.0,1.0],"score":1.0}],'
            '"appearance":[0.333333333,123456789000.0]}]}\n')

    @pytest.mark.parametrize("flag", ["false", 0, None], ids=["string", "number", "null"])
    def test_interpolated_must_be_boolean(self, tmp_path, flag):
        doc = {"video_id": "v", "candidates": [{
            "category": "dog", "span": [0, 1], "appearance": [1.0],
            "records": [{"t": 0, "box": BOX.to_list(), "score": 0.9, "interpolated": flag},
                        {"t": 1, "box": BOX.to_list(), "score": 0.9}]}]}
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="'interpolated' must be true or false"):
            load_candidates(str(path))

    def test_bad_span_rejected(self, tmp_path):
        doc = {"video_id": "v", "candidates": [
            {"category": "dog", "span": [0], "records": [], "appearance": [1.0]}]}
        path = tmp_path / "span.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="span"):
            load_candidates(str(path))


class TestReports:
    def test_plain_json_document(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(str(path), {"metric": f9(0.123456789123)})
        doc = json.loads(path.read_text())
        assert doc["metric"] == f9(0.123456789123)

    def test_every_float_is_rounded(self, tmp_path):
        third = 1 / 3
        doc = {"config": {"tau": (third, 0.5), "slot": None, "name": "x"},
               "costs": [{"slot_id": 7, "total": np.float64(2 / 3), "ok": True}],
               "deep": [[{"v": [third, 1e-300 / 3]}]], "count": 10**20, "flag": False}
        path = tmp_path / "report.json"
        written = save_report(str(path), doc)
        assert written == json.loads(path.read_text()) == {
            "config": {"tau": [0.333333333, 0.5], "slot": None, "name": "x"},
            "costs": [{"slot_id": 7, "total": 0.666666667, "ok": True}],
            "deep": [[{"v": [0.333333333, 3.33333333e-301]}]], "count": 10**20, "flag": False}
        assert type(written["costs"][0]["total"]) is float
        assert [type(v) for v in written["costs"][0].values()] == [int, float, bool]
        save_report(str(tmp_path / "again.json"), written)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_float_keys_are_rounded(self, tmp_path):
        path = tmp_path / "report.json"
        written = save_report(str(path), {"at": {1.0: 1, 0.3000000001: 2, 1 / 3: 3, "k": 4}})
        assert written == {"at": {1.0: 1, 0.3: 2, 0.333333333: 3, "k": 4}}
        assert path.read_text() == '{"at":{"1.0":1,"0.3":2,"0.333333333":3,"k":4}}\n'

    def test_keys_that_coincide_once_rounded_are_refused(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValidationError, match="coincide at 9 significant digits"):
            save_report(str(path), {"at": {0.3: 1.0, 0.3000000001: 1.0}})
        assert not path.exists()

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(FormatError):
            load_gt(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_refused_naming_the_path(self, tmp_path, bad):
        path = tmp_path / "report.json"
        with pytest.raises(ValidationError, match="non-finite") as err:
            save_report(str(path), {"costs": [{"total": bad}]})
        assert str(path) in str(err.value)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_drift_non_finite_refused_naming_the_path(self, tmp_path, bad):
        path = tmp_path / "drift.csv"
        with pytest.raises(ValidationError, match="non-finite") as err:
            save_drift(str(path), [[0.5, 0.25, 0.125, 0.0, 1.0], [bad, 1.0, 0.5, 0.5, 0.1]])
        assert str(err.value).startswith(f"{path}: ")
        assert not path.exists()

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_drift_is_the_csv_modules_text(self, tmp_path, count):
        profiles = TestTubeFileOracle._floats(np.random.default_rng([97, count]), (count, 5),
                                              -1e12, 1e12).tolist()
        path = tmp_path / "drift.csv"
        save_drift(str(path), profiles)
        want = io.StringIO()
        csv.writer(want).writerows([[f"part_{i}" for i in range(1, 6)]]
                                   + [_f9s(p) for p in profiles])
        assert path.read_bytes() == want.getvalue().encode()

    def test_non_finite_tube_score_refused(self, tmp_path):
        tubes = [make_tube(0, [BOX], 0.5)]
        object.__setattr__(tubes[0], "scores", np.array([float("nan")]))   # past Tube's own checks
        with pytest.raises(ValidationError, match="non-finite"):
            save_tubes(str(tmp_path / "t.json"), "vid", tubes)


THIRD = 1.0 / 3.0   # f9 rounds it to 0.333333333
BOX3 = Box(THIRD, 0.25, 0.5, 2.0 / 3.0)
BOX3_F9 = [0.333333333, 0.25, 0.5, 0.666666667]


def _doc_cases():
    """(name, write(path), load-and-rewrite(src, dst) or None, expected dict)."""
    gt = make_gt(1, [BOX3, BOX])

    def write_gt(p):
        save_gt(p, "vid", gt)

    def rewrite_gt(src, dst):
        save_gt(dst, *load_gt(src))

    tubes = [make_tube(3, [BOX3] * 2, [THIRD, 0.0], det=[1, -1],
                       features=np.tile([THIRD, 2.0], (2, 1)))]

    def write_tubes(p, embeds):
        save_tubes(p, "vid", tubes, include_embeds=embeds)

    def rewrite_tubes(src, dst, embeds):
        save_tubes(dst, *load_tubes(src), include_embeds=embeds)

    def tube_doc(embeds):
        recs = [{"t": 0, "box": BOX3_F9, "score": 0.333333333, "det": 1},
                {"t": 1, "box": BOX3_F9, "score": 0.0, "det": None}]
        if embeds:
            for r in recs:
                r["embed"] = [0.333333333, 2.0]
        return {"video_id": "vid", "n_q": 1, "tubes": [{"slot_id": 3, "records": recs}]}

    def write_labels(p):
        save_labels(p, "vid", [[0, -1], [1]])

    def rewrite_labels(src, dst):
        save_labels(dst, *load_labels(src))

    cands = [CandidateTube(category="dog", span=(4, 5), records=[
        CandidateRecord(t=4, box=BOX3, score=THIRD),
        CandidateRecord(t=5, box=BOX, score=0.5, interpolated=True)],
        appearance=np.array([THIRD, 1.0]))]

    def write_cands(p):
        save_candidates(p, "vid", cands)

    def rewrite_cands(src, dst):
        save_candidates(dst, *load_candidates(src))

    def write_report(p):
        save_report(p, {"schema_version": 1, "command": "mine",
                        "config": {"lambda_bbox": 5.0}, "selected": 0,
                        "costs": [{"slot_id": 0, "total": f9(THIRD)}]})

    return [
        ("gt", write_gt, rewrite_gt,
         {"video_id": "vid", "ts": 1, "te": 2,
          "boxes": [{"t": 1, "box": BOX3_F9}, {"t": 2, "box": [0.25, 0.25, 0.5, 0.5]}]}),
        ("tubes", lambda p: write_tubes(p, False),
         lambda s, d: rewrite_tubes(s, d, False), tube_doc(False)),
        ("tubes+embed", lambda p: write_tubes(p, True),
         lambda s, d: rewrite_tubes(s, d, True), tube_doc(True)),
        ("labels", write_labels, rewrite_labels,
         {"video_id": "vid", "frames": [{"t": 0, "ids": [0, -1]}, {"t": 1, "ids": [1]}]}),
        ("candidates", write_cands, rewrite_cands,
         {"video_id": "vid", "candidates": [{
             "category": "dog", "span": [4, 5],
             "records": [{"t": 4, "box": BOX3_F9, "score": 0.333333333},
                         {"t": 5, "box": [0.25, 0.25, 0.5, 0.5], "score": 0.5,
                          "interpolated": True}],
             "appearance": [0.333333333, 1.0]}]}),
        ("report", write_report, None,
         {"schema_version": 1, "command": "mine", "config": {"lambda_bbox": 5.0},
          "selected": 0, "costs": [{"slot_id": 0, "total": 0.333333333}]}),
    ]


def _same_types(a, b) -> bool:
    """== that also tells 1 from 1.0, so ints must stay ints."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_types(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same_types(x, y) for x, y in zip(a, b))
    return a == b


class TestDocumentWriters:
    @pytest.mark.parametrize("name, write, rewrite, expected", _doc_cases(),
                             ids=[c[0] for c in _doc_cases()])
    def test_one_compact_line_with_f9_content(self, tmp_path, name, write, rewrite,
                                              expected):
        first = tmp_path / "a.json"
        write(str(first))
        text = first.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert ": " not in text and ", " not in text
        assert "NaN" not in text and "Infinity" not in text
        assert _same_types(json.loads(text), expected)
        again = tmp_path / "b.json"
        write(str(again))
        assert again.read_bytes() == first.read_bytes()
        if rewrite is not None:
            reread = tmp_path / "c.json"
            rewrite(str(first), str(reread))
            assert reread.read_bytes() == first.read_bytes()


class TestNonFiniteInput:
    def _tube_doc(self, **record):
        rec = {"t": 0, "box": BOX.to_list(), "score": 0.5, "det": 0, "embed": [1.0, 2.0]}
        rec.update(record)
        return {"video_id": "v", "n_q": 1, "tubes": [{"slot_id": 0, "records": [rec]}]}

    @pytest.mark.parametrize("record, refusal", [
        ({"score": float("nan")}, "score must lie in [0, 1], got nan"),
        ({"score": float("inf")}, "score must lie in [0, 1], got inf"),
        ({"embed": [1.0, float("nan")]}, "embed must be a finite number, got nan"),
        ({"embed": [float("-inf"), 1.0]}, "embed must be a finite number, got -inf"),
    ])
    def test_tube_file_rejected(self, tmp_path, record, refusal):
        path = tmp_path / "nan.tubes.json"
        path.write_text(json.dumps(self._tube_doc(**record)))  # bare NaN/Infinity
        with pytest.raises(FormatError) as err:
            load_tubes(str(path))
        assert str(err.value) == f"{path}: tube 0 frame 0: {refusal}"

    def test_overflowing_literal_rejected(self, tmp_path):
        path = tmp_path / "big.tubes.json"
        path.write_text(json.dumps(self._tube_doc(score=0.125)).replace("0.125", "1e999"))
        with pytest.raises(FormatError) as err:
            load_tubes(str(path))
        assert str(err.value) == f"{path}: tube 0 frame 0: score must lie in [0, 1], got inf"


class TestIntegerFields:
    @pytest.mark.parametrize("bad", [True, 1.5])
    def test_detections_frame_index(self, tmp_path, bad):
        path = tmp_path / "clip.jsonl"
        save_detections(str(path), "vid", 25.0, make_frames())
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])   # frame t=1; int(True) and int(1.5) both give 1
        obj["t"] = bad
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="'t' must be an integer") as err:
            load_detections(str(path))
        assert f"{path}:3:" in str(err.value)

    @pytest.mark.parametrize("bad", [True, 8.7])
    def test_predictions_interval(self, tmp_path, bad):
        path = tmp_path / "p.jsonl"
        doc = {"video_id": "v", "ts": 0, "te": bad,
               "boxes": [{"t": t, "box": BOX.to_list()} for t in range(9)]}
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FormatError, match="'te' must be an integer") as err:
            load_predictions(str(path))
        assert f"{path}:1:" in str(err.value)

    @pytest.mark.parametrize("key", ["ts", "te"])
    @pytest.mark.parametrize("bad", [True, 8.7])
    def test_gt_interval(self, tmp_path, key, bad):
        doc = {"video_id": "v", "ts": 1, "te": 8,
               "boxes": [{"t": t, "box": BOX.to_list()} for t in range(1, 9)]}
        doc[key] = bad
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"'{key}' must be an integer"):
            load_gt(str(path))

    @pytest.mark.parametrize("where, key", [("doc", "n_q"), ("tube", "slot_id"),
                                            ("record", "t"), ("record", "det")])
    @pytest.mark.parametrize("bad", [True, 0.5, "0"], ids=["bool", "fraction", "string"])
    def test_tube_fields(self, tmp_path, where, key, bad):
        rec = {"t": 0, "box": BOX.to_list(), "score": 0.5, "det": 0}
        tube = {"slot_id": 0, "records": [rec]}
        doc = {"video_id": "v", "n_q": 1, "tubes": [tube]}
        {"doc": doc, "tube": tube, "record": rec}[where][key] = bad
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"'{key}' must be an integer"):
            load_tubes(str(path))

    def test_null_det_and_integral_float_still_load(self, tmp_path):
        doc = {"video_id": "v", "n_q": 1, "tubes": [{"slot_id": 0, "records": [
            {"t": 0, "box": BOX.to_list(), "score": 0.0, "det": None},
            {"t": 1.0, "box": BOX.to_list(), "score": 0.5}]}]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        _, tubes = load_tubes(str(path))
        assert [(r.t, r.det) for r in tubes[0].records] == [(0, None), (1, None)]
        assert type(tubes[0].records[1].t) is int

    @pytest.mark.parametrize("span", [[0, True], [0.5, 1]])
    def test_candidate_span(self, tmp_path, span):
        doc = {"video_id": "v", "candidates": [{
            "category": "dog", "span": span,
            "records": [{"t": 0, "box": BOX.to_list(), "score": 0.9},
                        {"t": 1, "box": BOX.to_list(), "score": 0.9}],
            "appearance": [1.0]}]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="'span' must be an integer"):
            load_candidates(str(path))

    def test_header_counts(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps({"video_id": "v", "fps": 25.0, "frame_count": 2.5,
                                    "feature_dim": 4}) + "\n")
        with pytest.raises(FormatError, match="'frame_count' must be an integer") as err:
            load_detections(str(path))
        assert f"{path}:1:" in str(err.value)


def _string_field_cases():
    """(loader, key, JSON line builder) for each string field of each loader."""
    boxes = [{"t": 0, "box": BOX.to_list()}]
    cand = {"span": [0, 0], "records": [{"t": 0, "box": BOX.to_list(), "score": 0.5}],
            "appearance": [1.0]}
    return [
        (load_detections, "video_id",
         lambda bad: {"video_id": bad, "fps": 5.0, "frame_count": 0, "feature_dim": 2}),
        (load_gt, "video_id", lambda bad: {"video_id": bad, "ts": 0, "te": 0, "boxes": boxes}),
        (load_gt_collection, "video_id",
         lambda bad: {"video_id": bad, "ts": 0, "te": 0, "boxes": boxes}),
        (load_predictions, "video_id",
         lambda bad: {"video_id": bad, "ts": 0, "te": 0, "boxes": boxes}),
        (load_tubes, "video_id", lambda bad: {"video_id": bad, "n_q": 0, "tubes": []}),
        (load_labels, "video_id", lambda bad: {"video_id": bad, "frames": []}),
        (load_candidates, "video_id", lambda bad: {"video_id": bad, "candidates": []}),
        (load_candidates, "category",
         lambda bad: {"video_id": "v", "candidates": [{**cand, "category": bad}]}),
    ]


class TestStringFields:
    """video_id and category take JSON strings only; str() would take null
    as "None" and 3 as "3"."""

    @pytest.mark.parametrize("load, key, doc", _string_field_cases(),
                             ids=[f"{c[0].__name__}-{c[1]}" for c in _string_field_cases()])
    @pytest.mark.parametrize("bad", [None, 3, ["v"]], ids=["null", "number", "array"])
    def test_non_string_refused(self, tmp_path, load, key, doc, bad):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc("v")) + "\n")
        load(str(path))
        path.write_text(json.dumps(doc(bad)) + "\n")
        with pytest.raises(FormatError, match=f"'{key}' must be a string") as err:
            load(str(path))
        assert str(err.value).startswith(f"{path}:")


NOT_NUMBERS = [pytest.param("high", id="string"), pytest.param("0.5", id="numeric-string"),
               pytest.param(True, id="bool"), pytest.param(None, id="null")]


class TestNumberFields:
    """Float fields take JSON numbers only; float() would take "0.5" and true."""

    @pytest.mark.parametrize("bad", NOT_NUMBERS)
    def test_tube_score(self, tmp_path, bad):
        doc = {"video_id": "v", "n_q": 1, "tubes": [{"slot_id": 0, "records": [
            {"t": 0, "box": BOX.to_list(), "score": bad, "det": 0}]}]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="'score' must be a number") as err:
            load_tubes(str(path))
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("bad", NOT_NUMBERS)
    @pytest.mark.parametrize("key, lineno", [("fps", 1), ("score", 2)])
    def test_detections(self, tmp_path, key, lineno, bad):
        path = tmp_path / "clip.jsonl"
        save_detections(str(path), "vid", 25.0, make_frames())
        lines = path.read_text().splitlines()
        obj = json.loads(lines[lineno - 1])
        if key == "fps":
            obj["fps"] = bad
        else:
            obj["detections"][0]["score"] = bad
        lines[lineno - 1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"'{key}' must be a number") as err:
            load_detections(str(path))
        assert f"{path}:{lineno}:" in str(err.value)

    @pytest.mark.parametrize("bad", NOT_NUMBERS)
    @pytest.mark.parametrize("key", ["fps", "ts_sec", "te_sec"])
    def test_seconds_interval(self, tmp_path, key, bad):
        doc = {"video_id": "v", "ts_sec": 0.2, "te_sec": 0.5, "fps": 10.0,
               "boxes": [{"t": t, "box": BOX.to_list()} for t in range(2, 6)]}
        doc[key] = bad
        path = tmp_path / "sec.gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"'{key}' must be a number"):
            load_gt(str(path))
        pred = tmp_path / "p.jsonl"
        pred.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FormatError, match=f"'{key}' must be a number") as err:
            load_predictions(str(pred))
        assert f"{pred}:1:" in str(err.value)

    @pytest.mark.parametrize("fps, ts_sec", [(1e308, 10.0), (10.0, 1e999)])
    def test_seconds_interval_must_be_finite_in_frames(self, tmp_path, fps, ts_sec):
        doc = {"video_id": "v", "ts_sec": ts_sec, "te_sec": 0.5, "fps": fps,
               "boxes": [{"t": 2, "box": BOX.to_list()}]}
        path = tmp_path / "big.gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as err:
            load_gt(str(path))
        assert str(err.value) == f"{path}: ts_sec * fps must be a finite number, got inf"

    @pytest.mark.parametrize("bad", NOT_NUMBERS)
    def test_candidate_score(self, tmp_path, bad):
        doc = {"video_id": "v", "candidates": [{
            "category": "dog", "span": [0, 1],
            "records": [{"t": 0, "box": BOX.to_list(), "score": bad}],
            "appearance": [1.0]}]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="'score' must be a number"):
            load_candidates(str(path))

    def test_integers_are_numbers(self, tmp_path):
        doc = {"video_id": "v", "ts_sec": 1, "te_sec": 2, "fps": 2,
               "boxes": [{"t": t, "box": BOX.to_list()} for t in range(2, 5)]}
        path = tmp_path / "int.gt.json"
        path.write_text(json.dumps(doc))
        _, gt = load_gt(str(path))
        assert (gt.ts, gt.te) == (2, 4)
        doc = {"video_id": "v", "n_q": 1, "tubes": [{"slot_id": 0, "records": [
            {"t": 0, "box": BOX.to_list(), "score": 1, "det": 0}]}]}
        path = tmp_path / "int.tubes.json"
        path.write_text(json.dumps(doc))
        _, tubes = load_tubes(str(path))
        assert tubes[0].records[0].score == 1.0

    @pytest.mark.parametrize("box", [["a", "b", "c", "d"], "abcd"])
    def test_non_numeric_box_is_format_error(self, tmp_path, box):
        doc = {"video_id": "v", "ts": 0, "te": 0, "boxes": [{"t": 0, "box": box}]}
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="bad box"):
            load_gt(str(path))


NOT_NUMBER_ELEMENTS = NOT_NUMBERS + [pytest.param(10 ** 400, id="huge-int")]


class TestNumberArrays:
    """Box coordinates and vector elements take JSON numbers only, as float
    fields do; float() and np.asarray would take "0.5" and true."""

    @staticmethod
    def _spoil(values, bad):
        # The last element: coerced, true and "0.5" would still make a valid box.
        return [*values[:-1], bad]

    @pytest.mark.parametrize("bad", NOT_NUMBER_ELEMENTS)
    @pytest.mark.parametrize("key, match", [("box", "bad box"),
                                            ("embed", "'embed' must be an array of numbers")])
    def test_detections(self, tmp_path, key, match, bad):
        path = tmp_path / "clip.jsonl"
        save_detections(str(path), "vid", 25.0, make_frames())
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        det = obj["detections"][1]
        det[key] = self._spoil(det[key], bad)
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=match) as err:
            load_detections(str(path))
        assert f"{path}:3:" in str(err.value)

    @pytest.mark.parametrize("bad", NOT_NUMBER_ELEMENTS)
    @pytest.mark.parametrize("key, match", [("box", "bad box"),
                                            ("embed", "every embed must be an array of numbers")])
    def test_tubes(self, tmp_path, key, match, bad):
        rec = {"t": 0, "box": BOX.to_list(), "score": 0.5, "det": 0, "embed": [1.0, 2.0]}
        rec[key] = self._spoil(rec[key], bad)
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"video_id": "v", "n_q": 1,
                                    "tubes": [{"slot_id": 0, "records": [rec]}]}))
        with pytest.raises(FormatError, match=match):
            load_tubes(str(path))

    @pytest.mark.parametrize("bad", NOT_NUMBER_ELEMENTS)
    def test_gt(self, tmp_path, bad):
        good = {"video_id": "a", "ts": 0, "te": 0, "boxes": [{"t": 0, "box": BOX.to_list()}]}
        spoilt = {**good, "boxes": [{"t": 0, "box": self._spoil(BOX.to_list(), bad)}]}
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(spoilt))
        with pytest.raises(FormatError, match="bad box"):
            load_gt(str(path))
        lines = tmp_path / "gt.jsonl"
        lines.write_text(json.dumps(good) + "\n" + json.dumps(spoilt) + "\n")
        with pytest.raises(FormatError, match="bad box") as err:
            load_gt_collection(str(lines))
        assert f"{lines}:2:" in str(err.value)

    @pytest.mark.parametrize("bad", NOT_NUMBER_ELEMENTS)
    def test_predictions(self, tmp_path, bad):
        good = {"video_id": "a", "ts": 0, "te": 0, "boxes": [{"t": 0, "box": BOX.to_list()}]}
        spoilt = {**good, "boxes": [{"t": 0, "box": self._spoil(BOX.to_list(), bad)}]}
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(spoilt) + "\n")
        with pytest.raises(FormatError, match="bad box") as err:
            load_predictions(str(path))
        assert f"{path}:2:" in str(err.value)

    @pytest.mark.parametrize("bad", NOT_NUMBER_ELEMENTS)
    @pytest.mark.parametrize("key, match", [("box", "bad box"),
                                            ("appearance", "'appearance' must be an array")])
    def test_candidates(self, tmp_path, key, match, bad):
        rec = {"t": 0, "box": BOX.to_list(), "score": 0.5}
        cand = {"category": "dog", "span": [0, 0], "records": [rec], "appearance": [1.0, 0.5]}
        target = rec if key == "box" else cand
        target[key] = self._spoil(target[key], bad)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"video_id": "v", "candidates": [cand]}))
        with pytest.raises(FormatError, match=match):
            load_candidates(str(path))


def _record_arrays():
    """(name, loader, a valid record, the file text with that record first
    in its array, the line of a JSONL error or None, the message context)
    for the four record arrays: a detection line's detections, a GT's or a
    prediction's boxes, a tube's records and a candidate's records."""
    box = BOX.to_list()
    header = json.dumps({"video_id": "v", "fps": 5.0, "frame_count": 1, "feature_dim": 2})

    def boxes_doc(rec):
        return json.dumps({"video_id": "v", "ts": 0, "te": 0, "boxes": [rec]}) + "\n"

    return [
        ("detections", load_detections, {"box": box, "score": 0.5, "embed": [1.0, 0.0]},
         lambda rec: header + "\n" + json.dumps({"t": 0, "detections": [rec]}) + "\n", 2, ""),
        ("gt", load_gt, {"t": 0, "box": box}, boxes_doc, None, ""),
        ("predictions", load_predictions, {"t": 0, "box": box}, boxes_doc, 1, ""),
        ("tubes", load_tubes, {"t": 0, "box": box, "score": 0.5, "det": 0},
         lambda rec: json.dumps({"video_id": "v", "n_q": 1,
                                 "tubes": [{"slot_id": 0, "records": [rec]}]}), None, "tube 0: "),
        ("candidates", load_candidates, {"t": 0, "box": box, "score": 0.5},
         lambda rec: json.dumps({"video_id": "v", "candidates": [{
             "category": "c", "span": [0, 0], "records": [rec], "appearance": [1.0]}]}), None, ""),
    ]


BAD_BOX = "bad box: every box must be an array of 4 numbers"
RECORD_FAULTS = [
    ("non-object", lambda rec: [0, 1], "every record must be an object"),
    ("missing-key", lambda rec: {k: v for k, v in rec.items() if k != "box"},
     "missing required key 'box'"),
    ("non-number", lambda rec: {**rec, "box": [0.25, 0.25, "0.5", 0.5]}, BAD_BOX),
    ("bool", lambda rec: {**rec, "box": [0.25, 0.25, True, 0.5]}, BAD_BOX),
    ("ragged", lambda rec: {**rec, "box": [0.25, 0.25, 0.5]}, BAD_BOX),
    # Refused by the holder, not the decoder: its words at the loader's place.
    ("no-area", lambda rec: {**rec, "box": [0.5, 0.25, 0.5, 0.5]},
     "box has no area after clamping to the unit square: (0.5, 0.25, 0.5, 0.5)"),
]


class TestRecordArrayRefusals:
    """One decoder reads every record array, so a fault gives the same
    message in each; a tube's messages start by naming the tube."""

    @pytest.mark.parametrize("fault, spoil, message", RECORD_FAULTS,
                             ids=[f[0] for f in RECORD_FAULTS])
    @pytest.mark.parametrize("name, load, rec, text, line, context", _record_arrays(),
                             ids=[a[0] for a in _record_arrays()])
    def test_refused_alike(self, tmp_path, name, load, rec, text, line, context,
                           fault, spoil, message):
        path = tmp_path / name
        path.write_text(text(rec))
        load(str(path))   # the unspoilt file loads
        path.write_text(text(spoil(rec)))
        with pytest.raises(FormatError) as err:
            load(str(path))
        assert str(err.value) == f"{path if line is None else f'{path}:{line}'}: {context}{message}"
        assert (err.value.path, err.value.line) == (str(path), line)


class TestLabelIds:
    @pytest.mark.parametrize("ids", [[True, 1, -2], [0, 1.5], [0, "1"], [None]],
                             ids=["bool", "fraction", "string", "null"])
    def test_non_integer_id_refused(self, tmp_path, ids):
        path = tmp_path / "l.json"
        path.write_text(json.dumps({"video_id": "v", "frames": [{"t": 0, "ids": ids}]}))
        with pytest.raises(FormatError, match="'ids' must be an integer"):
            load_labels(str(path))

    def test_ids_must_be_an_array(self, tmp_path):
        path = tmp_path / "l.json"
        path.write_text(json.dumps({"video_id": "v", "frames": [{"t": 0, "ids": "12"}]}))
        with pytest.raises(FormatError, match="'ids' must be an array"):
            load_labels(str(path))

    def test_integral_floats_still_load_as_ints(self, tmp_path):
        path = tmp_path / "l.json"
        path.write_text(json.dumps({"video_id": "v", "frames": [{"t": 0, "ids": [1.0, -2]}]}))
        _, identities = load_labels(str(path))
        assert identities == [[1, -2]]
        assert all(type(i) is int for i in identities[0])


class TestTubeDecode:
    def _write(self, tmp_path, records, slot_id=3):
        doc = {"video_id": "v", "n_q": 1, "tubes": [{"slot_id": slot_id, "records": records}]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @staticmethod
    def _rec(t, **extra):
        return {"t": t, "box": BOX.to_list(), "score": 0.5, "det": 0, **extra}

    @pytest.mark.parametrize("ts", [[2, 1, 0], [0, 1, 1], [0, 2, 1]],
                             ids=["reversed", "repeated", "swapped"])
    def test_records_strictly_increasing(self, tmp_path, ts):
        path = self._write(tmp_path, [self._rec(t) for t in ts])
        with pytest.raises(FormatError, match="tube 3: records must be strictly increasing in t"):
            load_tubes(path)

    def test_score_outside_unit_interval_refused(self, tmp_path):
        # Such a file used to load.
        path = self._write(tmp_path, [self._rec(0), self._rec(4, score=5.0)])
        with pytest.raises(FormatError) as err:
            load_tubes(path)
        assert str(err.value) == f"{path}: tube 3 frame 4: score must lie in [0, 1], got 5.0"

    def test_features_are_rows_of_one_float_array(self, tmp_path):
        path = self._write(tmp_path, [self._rec(0, embed=[1, 2]), self._rec(1, embed=[3.5, 4])])
        _, tubes = load_tubes(path)
        feats = [r.feature for r in tubes[0].records]
        assert all(f.dtype == np.float64 and f.shape == (2,) for f in feats)
        assert np.array_equal(np.stack(feats), [[1.0, 2.0], [3.5, 4.0]])

    def test_embed_on_some_records_only(self, tmp_path):
        path = self._write(tmp_path, [self._rec(0, embed=[1.0]), self._rec(1), self._rec(2)])
        with pytest.raises(FormatError, match="tube 3 frame 1: embed missing"):
            load_tubes(path)

    @pytest.mark.parametrize("embeds", [
        [[1.0, 2.0], [1.0]], [[1.0, "2"], [1.0, 2.0]], [[1.0, None], [1.0, 2.0]],
        [[[1.0]], [[2.0]]], [1.0, 2.0], [[True, False], [True, True]], [[1.0, 2.0], [3.5, True]],
        [[1.0, 10 ** 400], [1.0, 2.0]]],
        ids=["ragged", "string", "null", "nested", "scalar", "bool", "mixed-bool", "huge-int"])
    def test_embeds_must_be_equal_length_number_arrays(self, tmp_path, embeds):
        path = self._write(tmp_path, [self._rec(t, embed=e) for t, e in enumerate(embeds)])
        with pytest.raises(FormatError, match="tube 3: every embed must be an array of numbers"):
            load_tubes(path)

    def test_non_finite_embed_names_its_frame(self, tmp_path):
        path = self._write(tmp_path, [self._rec(t, embed=[1.0, 2.0]) for t in (4, 5)]
                           + [self._rec(6, embed=[1.0, 1e999])])
        with pytest.raises(FormatError) as err:
            load_tubes(path)
        assert str(err.value) == f"{path}: tube 3 frame 6: embed must be a finite number, got inf"

    @pytest.mark.parametrize("records", [[[0, 1]], ["r"], {"t": 0}], ids=["list", "str", "dict"])
    def test_records_must_be_objects_in_an_array(self, tmp_path, records):
        with pytest.raises(FormatError, match="tube 3: (every record must be an object"
                                              "|records must be an array)"):
            load_tubes(self._write(tmp_path, records))

    # A fault on record 1 of a tube, and the message it gives, after "tube S".
    FAULTS = {
        "score": ({"score": 2.0}, " frame 1: score must lie in [0, 1], got 2.0"),
        "box": ({"box": [0.1, 0.2, 0.3]}, ": bad box: every box must be an array of 4 numbers"),
        "det": ({"det": "x"}, " frame 1: 'det' must be an integer, got 'x'"),
        "t": ({"t": 0}, ": records must be strictly increasing in t, got t=0 after t=0"),
        "embed": ({"embed": None},
                  " frame 1: embed missing, but other records of the tube have one"),
    }

    def _doc_file(self, tmp_path, tubes):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"video_id": "v", "n_q": len(tubes), "tubes": [
            {"slot_id": slot, "records": records} for slot, records in tubes]}))
        return str(path)

    def _records(self, fault=None, dim=2):
        """Three records with embeds of width dim (None: none), record 1
        changed by fault."""
        embed = {} if dim is None else {"embed": [0.5] * dim}
        records = [{**self._rec(t), **embed} for t in range(3)]
        records[1].update(fault or {})
        return records

    @pytest.mark.parametrize("first", list(FAULTS))
    @pytest.mark.parametrize("second", list(FAULTS))
    def test_faults_in_two_tubes_name_the_earlier(self, tmp_path, first, second):
        # The clip's columns are decoded together; a refusal decodes the tubes
        # again one at a time, so the first tube at fault in the file is
        # named, with the message it gives on its own.
        path = self._doc_file(tmp_path, [
            (5, self._records()), (2, self._records(self.FAULTS[first][0])),
            (7, self._records()), (1, self._records(self.FAULTS[second][0]))])
        with pytest.raises(FormatError) as err:
            load_tubes(path)
        assert str(err.value) == f"{path}: tube 2{self.FAULTS[first][1]}"

    def test_embeds_may_differ_between_tubes(self, tmp_path):
        # Widths 2 and 3, a tube without embeds and one without records: each
        # loads as it does alone in a file.
        tubes = [(0, self._records(dim=2)), (1, self._records(dim=3)),
                 (2, self._records(dim=None)), (3, []), (4, self._records(dim=2))]
        _, loaded = load_tubes(self._doc_file(tmp_path, tubes))
        assert [None if t.features is None else t.features.shape for t in loaded] == [
            (3, 2), (3, 3), None, None, (3, 2)]
        for (slot, records), tube in zip(tubes, loaded):
            _, (alone,) = load_tubes(self._doc_file(tmp_path, [(slot, records)]))
            assert self._columns(tube) == self._columns(alone)
            assert not any(getattr(tube, k).flags.writeable for k in ("t", "boxes", "scores", "det"))

    @staticmethod
    def _columns(tube):
        return [None if c is None else c.tolist() for c in
                (tube.t, tube.boxes, tube.scores, tube.det, tube.features)]

    def test_tube_without_records_has_no_features(self, tmp_path):
        _, loaded = load_tubes(self._doc_file(tmp_path, [(0, self._records()), (1, [])]))
        assert loaded[1].features is None and loaded[1].boxes.shape == (0, 4)


class TestDetectionsDecode:
    """A detections file's lines are decoded to columns that are checked
    once for the clip; a refusal decodes the file again from the top, one
    line at a time, so the first line at fault is named, with the message
    it gives on its own."""

    FRAMES = 8   # on lines 2-9, frame t on line t + 2

    @staticmethod
    def _det(x1=0.1):
        return {"box": [x1, 0.2, x1 + 0.3, 0.5], "score": 0.5, "embed": [0.6, -0.8]}

    def _lines(self, frame_count=FRAMES, frames=FRAMES):
        return [{"video_id": "v", "fps": 25.0, "frame_count": frame_count, "feature_dim": 2}] + [
            {"t": t, "detections": [self._det(), self._det(0.4), self._det(0.6)]}
            for t in range(frames)]

    @staticmethod
    def _file(tmp_path, lines):
        path = tmp_path / "d.jsonl"
        path.write_text("".join((line if type(line) is str else json.dumps(line)) + "\n"
                                for line in lines))
        return str(path)

    @staticmethod
    def _set(key, value):
        """A fault that sets `key` of the line's second detection."""
        def fault(obj):
            obj["detections"][1][key] = value
        return fault

    # A fault on one line, and the message it gives on frame t's line.
    FAULTS = {
        "t-order": (lambda obj: obj.update(t=obj["t"] + 1),
                    lambda t: f"expected frame t={t}, got t={t + 1}"),
        "t-string": (lambda obj: obj.update(t=str(obj["t"])),
                     lambda t: f"'t' must be an integer, got '{t}'"),
        "detections-object": (lambda obj: obj.update(detections={"box": [0.1, 0.2, 0.3, 0.4]}),
                              lambda t: "'detections' must be an array"),
        "detections-empty": (lambda obj: obj.update(detections=[]),
                             lambda t: f"frame {t} has no detections"),
        "box-short": (_set("box", [0.1, 0.2, 0.3]),
                      lambda t: "bad box: every box must be an array of 4 numbers"),
        "box-no-area": (_set("box", [0.5, 0.2, 0.5, 0.6]),
                        lambda t: "box has no area after clamping to the unit square: "
                                  "(0.5, 0.2, 0.5, 0.6)"),
        "embed-width": (_set("embed", [1.0, 2.0, 3.0]),
                        lambda t: "'embed' must be an array of numbers of length feature_dim (2)"),
        "embed-string": (_set("embed", [1.0, "2"]),
                         lambda t: "'embed' must be an array of numbers of length feature_dim (2)"),
        "embed-zero-norm": (_set("embed", [0.0, 0.0]),
                            lambda t: "detection feature must have a finite, positive norm"),
        "embed-inf": (_set("embed", [1.0, math.inf]),
                      lambda t: "detection feature must have a finite, positive norm"),
        "score-2": (_set("score", 2.0), lambda t: f"frame {t}: score must lie in [0, 1], got 2.0"),
        "score-missing": (lambda obj: obj["detections"][1].pop("score"),
                          lambda t: "missing required key 'score'"),
    }

    @pytest.mark.parametrize("first", list(FAULTS))
    @pytest.mark.parametrize("second", list(FAULTS))
    def test_faults_on_two_lines_name_the_earlier(self, tmp_path, first, second):
        lines = self._lines()
        self.FAULTS[first][0](lines[3])    # frame 2
        self.FAULTS[second][0](lines[6])   # frame 5
        path = self._file(tmp_path, lines)
        with pytest.raises(FormatError) as err:
            load_detections(path)
        assert str(err.value) == f"{path}:4: {self.FAULTS[first][1](2)}"
        assert err.value.line == 4

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_fault_before_invalid_json_is_named(self, tmp_path, fault):
        # The clip pass stops at line 7's JSON, before it checks line 3's
        # values; the line-by-line pass names line 3.
        lines = self._lines()
        self.FAULTS[fault][0](lines[2])    # frame 1, line 3
        lines[6] = '{"t": 5, "detections": ['
        path = self._file(tmp_path, lines)
        with pytest.raises(FormatError) as err:
            load_detections(path)
        assert str(err.value) == f"{path}:3: {self.FAULTS[fault][1](1)}"

    def test_invalid_json_alone_is_named(self, tmp_path):
        lines = self._lines()
        lines[6] = '{"t": 5, "detections": ['
        path = self._file(tmp_path, lines)
        with pytest.raises(FormatError, match=re.escape(f"{path}:7: invalid JSON")):
            load_detections(path)

    @pytest.mark.parametrize("fault", [None, "score-2"])
    def test_frame_count_mismatch(self, tmp_path, fault):
        # A fault on a line is named before the count, as the count is only
        # known at the end of the file.
        lines = self._lines(frame_count=self.FRAMES + 1)
        if fault:
            self.FAULTS[fault][0](lines[5])
        path = self._file(tmp_path, lines)
        with pytest.raises(FormatError) as err:
            load_detections(path)
        want = (f"{path}:6: frame 4: score must lie in [0, 1], got 2.0" if fault else
                f"{path}: header promises {self.FRAMES + 1} frames, file has {self.FRAMES}")
        assert str(err.value) == want

    # The clip pass decodes _BLOCK lines at a time: frames 7, 8 and 9 sit on
    # both sides of the first block's end at 8, frames 31-33 at 32, and
    # frame 70 in a later block.
    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("frame", [7, 8, 9, 31, 32, 33, 70])
    def test_a_fault_in_a_later_block_is_named(self, tmp_path, fault, frame):
        lines = self._lines(frame_count=80, frames=80)
        self.FAULTS[fault][0](lines[frame + 1])
        self.FAULTS["score-2"][0](lines[75])   # a later fault, in the last block
        path = self._file(tmp_path, lines)
        with pytest.raises(FormatError) as err:
            load_detections(path)
        assert str(err.value) == f"{path}:{frame + 2}: {self.FAULTS[fault][1](frame)}"

    def test_blocks_give_the_frames_of_the_line_pass(self, tmp_path):
        # Frames of 1 to 4 detections, 80 of them over several blocks: the
        # clip pass accepts them, and gives the one-line pass's columns, bit
        # for bit.
        lines = self._lines(frame_count=80, frames=80)
        for t, line in enumerate(lines[1:]):
            line["detections"] = [self._det(0.1 + 0.01 * (t % 7) + 0.2 * k)
                                  for k in range(1 + t % 4)]
            line["detections"][0]["score"] = (t % 10) / 10
        path = self._file(tmp_path, lines)
        meta, frames = _detections_from(path, clip=True)
        want_meta, want = _detections_from(path, clip=False)
        assert meta == want_meta and len(frames) == len(want) == 80
        for got, frame in zip(frames, want):
            assert got.t == frame.t
            for k in ("boxes", "scores", "features", "norms"):
                assert getattr(got, k).tobytes() == getattr(frame, k).tobytes()
                assert getattr(got, k).shape == getattr(frame, k).shape

    def test_frames_are_read_only_slices_of_the_clip(self, tmp_path):
        lines = self._lines()
        lines[4]["detections"].pop()
        _, frames = load_detections(self._file(tmp_path, lines))
        assert [len(f.scores) for f in frames] == [3, 3, 3, 2] + [3] * 4
        assert [f.t for f in frames] == list(range(self.FRAMES)) and type(frames[0].t) is int
        for frame in frames:
            assert frame.boxes.shape == (len(frame.scores), 4)
            assert frame.features.shape == (len(frame.scores), 2)
            assert not any(getattr(frame, k).flags.writeable
                           for k in ("boxes", "scores", "features", "norms"))
            assert frame.norms.tolist() == [1.0] * len(frame.scores)
            assert all(getattr(frame, k).base is getattr(frames[0], k).base is not None
                       for k in ("boxes", "scores", "features", "norms"))
