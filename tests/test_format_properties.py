"""Property tests for the file formats.

Round trips: a saved file loads back with every float equal to its f9
rounding, and saving what was loaded gives the same bytes.  Closure: holders
drawn with edge values refuse every integer that the integer rule refuses,
and no valid values but those an integer at an end of int64 puts out of
order; on what they hold and on ids that the readers refuse, a writer
either refuses, leaving no file, or writes a file that its reader loads and
that saves again to the same bytes.  Fuzzing: a
valid file, structurally mutated (values replaced, keys and elements dropped
or added, a number made NaN or infinite, text cut or spliced), either loads
with every number it returns finite, or raises FormatError naming the file;
a JSONL loader names the line too, except for the whole-file conditions
listed in WHOLE_FILE.
"""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_frame, make_gt, make_prediction, make_tube
from tubekit import formats as F
from tubekit.association import FrameDetections, Tube
from tubekit.autolabel import CandidateRecord, CandidateTube
from tubekit.errors import FormatError, ValidationError
from tubekit.formats import (f9, load_candidates, load_detections, load_gt,
                             load_gt_collection, load_labels, load_predictions,
                             load_tubes, save_candidates, save_detections,
                             save_gt, save_labels, save_predictions, save_tubes)
from tubekit.geometry import Box, integer, within
from tubekit.metrics import Prediction
from tubekit.mining import GtTube

# Deterministic examples and no example database, so every run tries the
# same inputs.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
FUZZ = settings(PROPERTY, max_examples=150)

# ------------------------------------------------------------ valid objects

video_ids = st.text(max_size=6)
scores = st.floats(0.0, 1.0)
# Elements whose squared norm neither overflows nor underflows to zero.
elements = st.floats(-1e12, 1e12, allow_subnormal=False).filter(lambda v: abs(v) > 1e-100)


@st.composite
def boxes(draw) -> Box:
    x1 = draw(st.floats(0.0, 0.98))
    y1 = draw(st.floats(0.0, 0.98))
    return Box(x1, y1, draw(st.floats(x1 + 0.01, 1.0)), draw(st.floats(y1 + 0.01, 1.0)))


def vectors(dim: int):
    return st.lists(elements, min_size=dim, max_size=dim).map(np.array)


@st.composite
def detection_files(draw):
    dim = draw(st.integers(1, 4))
    frames = [make_frame(t, [(draw(boxes()), draw(scores), draw(vectors(dim)))
                             for _ in range(draw(st.integers(1, 3)))])
              for t in range(draw(st.integers(1, 3)))]
    return draw(video_ids), draw(st.floats(1e-3, 1e3)), frames


@st.composite
def gt_tubes(draw) -> GtTube:
    ts = draw(st.integers(0, 5))
    te = ts + draw(st.integers(0, 3))
    return make_gt(ts, [draw(boxes()) for _ in range(ts, te + 1)])


@st.composite
def tube_files(draw):
    """(video_id, tubes), each tube with features of its own width, or
    none: a file whose tubes share one width decodes in one pass, and one
    whose widths or embed presence differ, one tube at a time."""
    tubes = []
    for slot in range(draw(st.integers(1, 3))):
        dim = draw(st.none() | st.integers(1, 3))
        ts = sorted(draw(st.sets(st.integers(0, 20), max_size=4)))
        rows = [(draw(boxes()), draw(scores), draw(vectors(dim)) if dim else None,
                 draw(st.none() | st.integers(0, 9))) for _ in ts]
        box_col, score_col, feature_col, det_col = zip(*rows) if rows else ([],) * 4
        tubes.append(make_tube(
            slot, list(box_col), list(score_col), t=ts,
            det=[-1 if d is None else d for d in det_col],
            features=np.array(feature_col).reshape(len(ts), dim) if dim else None))
    return draw(video_ids), tubes


def save_tubes_with_embeds(path: str, video_id: str, tubes: list[Tube]) -> None:
    """The tube file save_tubes writes, with embeds on each tube that has
    features: its entry as save_tubes(include_embeds=True) writes it."""
    save_tubes(path, video_id, [tube for tube in tubes if tube.features is not None],
               include_embeds=True)
    embedded = iter(json.loads(Path(path).read_text())["tubes"])
    save_tubes(path, video_id, tubes)
    doc = json.loads(Path(path).read_text())
    doc["tubes"] = [entry if tube.features is None else next(embedded)
                    for tube, entry in zip(tubes, doc["tubes"])]
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


@st.composite
def predictions(draw) -> Prediction:
    k0 = draw(st.integers(0, 4))
    k1 = k0 + draw(st.integers(0, 3))
    ts = draw(st.integers(k0, k1))
    return make_prediction(ts, draw(st.integers(ts, k1)), k0,
                           [draw(boxes()) for _ in range(k0, k1 + 1)])


@st.composite
def candidates(draw) -> CandidateTube:
    s = draw(st.integers(0, 4))
    e = s + draw(st.integers(0, 3))
    return CandidateTube(
        category=draw(st.text(max_size=4)), span=(s, e),
        records=[CandidateRecord(t=t, box=draw(boxes()), score=draw(scores),
                                 interpolated=draw(st.booleans())) for t in range(s, e + 1)],
        appearance=draw(vectors(3)))


def f9_box(box: Box) -> list[float]:
    return [f9(v) for v in box.to_list()]


def f9_vector(v) -> list[float]:
    return [f9(x) for x in v]


# --------------------------------------------------------------- round trips

@PROPERTY
@given(doc=detection_files())
def test_detections_round_trip(tmp_path, doc):
    video_id, fps, frames = doc
    path = tmp_path / "d.jsonl"
    save_detections(str(path), video_id, fps, frames)
    meta, loaded = load_detections(str(path))
    assert meta == {"video_id": video_id, "fps": f9(fps), "frame_count": len(frames),
                    "feature_dim": frames[0].features.shape[1]}
    assert len(loaded) == len(frames)
    for fr, lf in zip(frames, loaded):
        assert lf.t == fr.t and len(lf.detections) == len(fr.detections)
        for d, ld in zip(fr.detections, lf.detections):
            assert ld.box.to_list() == f9_box(d.box)
            assert ld.score == f9(d.score)
            assert ld.feature.tolist() == f9_vector(d.feature)
    again = tmp_path / "again.jsonl"
    save_detections(str(again), meta["video_id"], meta["fps"], loaded)
    assert again.read_bytes() == path.read_bytes()


@PROPERTY
@given(video_id=video_ids, gt=gt_tubes())
def test_gt_round_trip(tmp_path, video_id, gt):
    path = tmp_path / "g.json"
    save_gt(str(path), video_id, gt)
    loaded_id, loaded = load_gt(str(path))
    assert (loaded_id, loaded.ts, loaded.te) == (video_id, gt.ts, gt.te)
    assert loaded.boxes.tolist() == [f9_box(Box(*b)) for b in gt.boxes.tolist()]
    again = tmp_path / "again.json"
    save_gt(str(again), loaded_id, loaded)
    assert again.read_bytes() == path.read_bytes()


@PROPERTY
@given(doc=tube_files())
def test_tubes_round_trip(tmp_path, doc):
    video_id, tubes = doc
    path = tmp_path / "t.json"
    save_tubes_with_embeds(str(path), video_id, tubes)
    loaded_id, loaded = load_tubes(str(path))
    assert loaded_id == video_id
    assert [t.slot_id for t in loaded] == [t.slot_id for t in tubes]
    for tube, lt in zip(tubes, loaded):
        assert len(lt.records) == len(tube.records)
        for r, lr in zip(tube.records, lt.records):
            assert (lr.t, lr.det) == (r.t, r.det)
            assert lr.box.to_list() == f9_box(r.box)
            assert lr.score == f9(r.score)
            if r.feature is None:
                assert lr.feature is None
            else:
                assert lr.feature.tolist() == f9_vector(r.feature)
    again = tmp_path / "again.json"
    save_tubes_with_embeds(str(again), loaded_id, loaded)
    assert again.read_bytes() == path.read_bytes()


# -------------------------------------------------------------------- closure

# Ids as the writers may be handed them: strings, repeated ones, and values
# that no reader takes as a string.
any_ids = st.sampled_from(["v", "w"]) | video_ids | st.sampled_from([3, None, ["v"]])
edge_scores = st.sampled_from([0.0, -0.0, 1.0]) | scores
# Frame indices up to 2^62, far from 0 but within int64 with room for a tube.
frame_index = st.integers(0, 4) | st.integers(2 ** 62 - 8, 2 ** 62)
# Integer fields that the integer rule refuses, and ones at the ends of int64
# that it holds.
REFUSED_INTS = [True, False, 0.5, -1.5, 2 ** 63, -2 ** 63 - 1, 2.0 ** 63]
END_INTS = [2 ** 63 - 1, -2 ** 63]


class Refused(Exception):
    """A holder refused the values drawn for it, as EdgeInts.build allows."""


class EdgeInts:
    """Draws one holder's integer fields as it may be handed them: a Python
    or numpy integer or, where exact, an integral float; and when `odd`, one
    time in three a value of REFUSED_INTS or END_INTS in its place.  It notes
    whether it drew such an odd value, and whether one the integer rule
    refuses, for `build`; what it draws counts for `outer` too."""

    def __init__(self, draw, odd: bool, outer: "EdgeInts | None" = None):
        self.draw, self.odd, self.outer = draw, odd, outer
        self.drew_odd = self.drew_refused = False

    def __call__(self, value: int):
        if self.odd and self.draw(st.integers(0, 2)) == 0:
            refused = self.draw(st.booleans())
            for ints in (self, self.outer):
                if ints:
                    ints.drew_odd, ints.drew_refused = True, ints.drew_refused or refused
            return self.draw(st.sampled_from(REFUSED_INTS if refused else END_INTS))
        exact = [float(value)] if float(value) == value else []
        return self.draw(st.sampled_from([value, np.int64(value), *exact]))

    def build(self, make, *args, **kwargs):
        """make(*args, **kwargs), a holder of the values drawn here: it must
        refuse them when one is refused by the integer rule, and may only
        when one is odd, which raises Refused."""
        try:
            held = make(*args, **kwargs)
        except ValidationError as e:
            assert self.drew_odd, f"{make.__name__} refused valid values: {e}"
            raise Refused from e
        assert not self.drew_refused, f"{make.__name__} held a value the integer rule refuses"
        return held


def odd_example(draw) -> bool:
    """Whether this example's holders may be handed odd integers: one time
    in three, so that most examples reach the writer."""
    return draw(st.integers(0, 2)) == 0


@st.composite
def edge_boxes(draw) -> list[float]:
    x1, y1 = (draw(st.sampled_from([-0.0, 0.0]) | st.floats(0.0, 0.98)) for _ in "xy")
    return [x1, y1, draw(st.floats(x1 + 0.01, 1.0)), draw(st.floats(y1 + 0.01, 1.0))]


def edge_vectors(dim: int):
    """Rows of a finite, positive norm, -0.0 among their elements."""
    return st.tuples(elements, st.lists(elements | st.just(-0.0), min_size=dim - 1,
                                        max_size=dim - 1)).map(lambda v: np.array([v[0], *v[1]]))


@st.composite
def closure_detections(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    ts = draw(st.just(range(n)) | st.permutations(range(n))
              | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    odd, frames = odd_example(draw), []
    for t in ts:
        ints = EdgeInts(draw, odd)
        frames.append(ints.build(FrameDetections, ints(t), *map(np.array, zip(*[
            (draw(edge_boxes()), draw(edge_scores), draw(edge_vectors(dim)))
            for _ in range(draw(st.integers(1, 2)))]))))
    fps = draw(st.floats(1e-3, 1e3) | st.just(25.0) | st.sampled_from([0.0, -0.0, -1.0]))
    return draw(any_ids), fps, frames


@st.composite
def closure_tubes(draw):
    dim = draw(st.integers(1, 3))
    odd, tubes = odd_example(draw), []
    for _ in range(draw(st.integers(0, 3))):
        ts = sorted(draw(st.sets(frame_index, max_size=3)))
        n = len(ts)
        features = (np.array([draw(edge_vectors(dim)) for _ in ts]).reshape(n, dim)
                    if draw(st.booleans()) else None)
        ints = EdgeInts(draw, odd)
        tubes.append(ints.build(Tube, ints(draw(st.integers(0, 2))), [ints(t) for t in ts],
                                np.array([draw(edge_boxes()) for _ in ts]).reshape(n, 4),
                                [draw(edge_scores) for _ in ts],
                                [ints(draw(st.integers(-1, 9) | st.just(2 ** 62))) for _ in ts],
                                features))
    return draw(any_ids), tubes, draw(st.booleans())


@st.composite
def closure_gt(draw) -> GtTube:
    ts = draw(frame_index)
    te = ts + draw(st.integers(0, 2))
    ints = EdgeInts(draw, odd_example(draw))
    return ints.build(GtTube, ints(ts), ints(te),
                      np.array([draw(edge_boxes()) for _ in range(ts, te + 1)]))


@st.composite
def closure_predictions(draw) -> Prediction:
    k0 = draw(frame_index)
    k1 = k0 + draw(st.integers(0, 2))
    ts = draw(st.integers(k0, k1))
    te = draw(st.integers(ts, k1))
    ints = EdgeInts(draw, odd_example(draw))
    return ints.build(Prediction, ints(ts), ints(te), ints(k0),
                      np.array([draw(edge_boxes()) for _ in range(k0, k1 + 1)]))


@st.composite
def closure_candidates(draw) -> CandidateTube:
    s = draw(frame_index)
    e = s + draw(st.integers(0, 2))
    ints = EdgeInts(draw, odd_example(draw))
    records = []
    for t in range(s, e + 1):
        record_ints = EdgeInts(draw, ints.odd, outer=ints)
        records.append(record_ints.build(
            CandidateRecord, t=record_ints(t), box=Box(*draw(edge_boxes())),
            score=draw(edge_scores), interpolated=draw(st.booleans())))
    return ints.build(CandidateTube, category=draw(any_ids), span=(ints(s), ints(e)),
                      records=records, appearance=draw(edge_vectors(draw(st.integers(1, 3)))))


label_ids = st.lists(st.lists(
    st.integers(-3, 9) | st.sampled_from([2 ** 63 - 1, -2 ** 63, 2 ** 63, 1.0, -0.0, 1.5, True,
                                          np.int64(3)]), max_size=3), max_size=4)

# Each writer/reader pair: (strategy of the writer's arguments, writer,
# the writer's arguments from the reader's result and the first arguments).
CLOSURE = {
    load_detections: (closure_detections(), save_detections,
                      lambda out, args: (out[0]["video_id"], out[0]["fps"], out[1])),
    load_gt: (st.tuples(any_ids, closure_gt()), save_gt, lambda out, args: out),
    load_gt_collection: (st.tuples(any_ids, closure_gt()), save_gt, lambda out, args: out[0]),
    load_tubes: (closure_tubes(), save_tubes, lambda out, args: (*out, args[-1])),
    load_predictions: (st.lists(st.tuples(any_ids, closure_predictions()), max_size=3)
                       .map(lambda items: (items,)), save_predictions,
                       lambda out, args: (out,)),
    load_labels: (st.tuples(any_ids, label_ids), save_labels, lambda out, args: out),
    load_candidates: (st.tuples(any_ids, st.lists(closure_candidates(), max_size=2)),
                      save_candidates, lambda out, args: out),
}


@settings(PROPERTY, max_examples=100)
@pytest.mark.parametrize("load", list(CLOSURE), ids=[f.__name__ for f in CLOSURE])
@given(data=st.data())
def test_writers_close_over_their_readers(tmp_path, load, data):
    """The holders refuse the integer fields that the integer rule refuses,
    and no valid one (EdgeInts.build).  Whatever a writer accepts, its
    reader loads and a re-save gives the same bytes; whatever it refuses
    raises ValidationError and leaves no file.  A repeated slot_id, a
    repeated or non-string video_id, frames out of order, fractional label
    ids, and bool, fractional or 65-bit frame indices and ids were all once
    written and then refused on load; a numpy integer one was a bare
    TypeError."""
    strategy, save, again_args = CLOSURE[load]
    try:
        args = data.draw(strategy)
    except Refused:
        return
    path, again = tmp_path / "written", tmp_path / "again"
    path.unlink(missing_ok=True)
    try:
        save(str(path), *args)
    except ValidationError:
        assert not path.exists()
        return
    save(str(again), *again_args(load(str(path)), args))
    assert again.read_bytes() == path.read_bytes()


# -------------------------------------------------------------------- fuzzing

BOX = [0.1, 0.1, 0.5, 0.5]


@pytest.mark.parametrize("load, text, match", [
    (load_gt, json.dumps({"video_id": "v", "ts": 0, "te": 10 ** 12,
                          "boxes": [{"t": 0, "box": BOX}]}),
     r"missing boxes at frames \[1, 2, 3, 4, 5\]"),
    (load_predictions, json.dumps({"video_id": "v", "ts": 0, "te": 0, "boxes": [
        {"t": 0, "box": BOX}, {"t": 10 ** 12, "box": BOX}]}), "contiguous"),
    (load_candidates, json.dumps({"video_id": "v", "candidates": [{
        "category": "c", "span": [0, 10 ** 12], "appearance": [1.0],
        "records": [{"t": 0, "box": BOX, "score": 0.5}]}]}), "cover the span densely"),
], ids=["gt", "predictions", "candidates"])
def test_huge_interval_refused_without_walking_it(tmp_path, load, text, match):
    # Found by the fuzz below: these intervals used to be built in full.
    path = tmp_path / "huge"
    path.write_text(text + "\n")
    with pytest.raises(FormatError, match=match):
        load(str(path))


NON_FINITE_VALUES = [math.nan, math.inf, -math.inf]   # json.dumps writes NaN and Infinity
NON_FINITE = st.sampled_from(NON_FINITE_VALUES)
json_scalars = (st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
                | st.floats() | NON_FINITE | st.text(max_size=3))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


def _nodes(node, at=()):
    """Every (path, node) of a JSON tree, the root included."""
    yield at, node
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, at + (key,))


def _tree(text: str, jsonl: bool):
    """The JSON tree of a file: a list of the objects of a JSONL file."""
    return [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)


def _numbers(tree) -> list:
    """The path of every number of a JSON tree."""
    return [at for at, node in _nodes(tree) if type(node) in (int, float)]


def _set(tree, at, value):
    """The tree with the node at path `at` replaced by value."""
    if not at:
        return value
    parent = tree
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = value
    return tree


def _mutate(data, tree):
    """One structural edit at a drawn node: replace it, drop or add a key
    or element of it, or make a number of the tree NaN or infinite."""
    nodes = list(_nodes(tree))
    op = data.draw(st.sampled_from(["replace", "drop", "add", "non-finite"]), label="op")
    if op == "non-finite" and (numbers := _numbers(tree)):
        at = numbers[data.draw(st.integers(0, len(numbers) - 1), label="number")]
        return _set(tree, at, data.draw(NON_FINITE))
    at, node = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
    if op == "replace" or not isinstance(node, (dict, list)) or (op == "drop" and not node):
        return _set(tree, at, data.draw(json_values))
    if op == "drop":
        keys = list(node) if isinstance(node, dict) else range(len(node))
        del node[data.draw(st.sampled_from(list(keys)))]
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=3))] = data.draw(json_values)
    else:
        node.insert(data.draw(st.integers(0, len(node))), data.draw(json_values))
    return tree


def _fuzz_text(data, tree, jsonl: bool) -> str:
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        tree = _mutate(data, tree)
    if jsonl and isinstance(tree, list):
        text = "\n".join(json.dumps(obj) for obj in tree) + "\n"
    else:
        text = json.dumps(tree, indent=data.draw(st.sampled_from([None, 2])))
    if data.draw(st.booleans(), label="splice text"):
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + data.draw(st.sampled_from(["", "\n", "{", "]", ",", '"', "x", "NaN",
                                                       "Infinity", "-Infinity", "\x0c", "\x85",
                                                       "\u2028"])) \
            + text[cut + data.draw(st.integers(0, 3)):]
    return text


# Conditions of a JSONL file as a whole, which no single line carries.
WHOLE_FILE = ("empty detections file", "header promises", "empty predictions file",
              "empty ground-truth file")


def _lines(path) -> list[str]:
    """The lines of a file as text-mode reading ends them: at "\\n", "\\r\\n"
    or "\\r", not at the other breaks of str.splitlines."""
    with open(path, encoding="utf-8") as fh:
        return list(fh)


def _jsonl_form(path) -> bool:
    """load_gt_collection's rule: JSONL when the first non-blank line is a
    JSON object on its own."""
    first = next((line for line in _lines(path) if line.strip()), "")
    try:
        return isinstance(json.loads(first), dict)
    except ValueError:
        return False


def _finite(loaded) -> bool:
    """Whether every number in what a loader returned is finite."""
    if isinstance(loaded, np.ndarray):
        return bool(np.isfinite(loaded).all())
    if isinstance(loaded, float):
        return math.isfinite(loaded)
    if dataclasses.is_dataclass(loaded):
        return all(_finite(getattr(loaded, f.name)) for f in dataclasses.fields(loaded))
    if isinstance(loaded, (list, tuple, dict)):
        return all(map(_finite, loaded.values() if isinstance(loaded, dict) else loaded))
    return True


def _load_fuzzed(data, tmp_path, text, load, jsonl, numbered=None):
    """Fuzz the valid file `text` and load it.  numbered(path) says whether
    errors must carry a line; by default, when the file is JSONL."""
    tree = _tree(text, jsonl)
    path = tmp_path / "fuzzed"
    path.write_text(_fuzz_text(data, tree, jsonl), encoding="utf-8")
    numbered = jsonl if numbered is None else numbered(path)
    try:
        assert _finite(load(str(path)))
    except FormatError as e:
        assert e.path == str(path)
        if numbered and e.line is None:
            assert any(w in str(e) for w in WHOLE_FILE), str(e)
        if numbered and e.line is not None:
            assert 1 <= e.line <= len(_lines(path)), str(e)


def _saved(tmp_path, save, *args, **kwargs) -> str:
    path = tmp_path / "valid"
    save(str(path), *args, **kwargs)
    return path.read_text()


@FUZZ
@given(data=st.data(), doc=detection_files())
def test_fuzzed_detections(tmp_path, data, doc):
    _load_fuzzed(data, tmp_path, _saved(tmp_path, save_detections, *doc),
                 load_detections, jsonl=True)


@FUZZ
@given(data=st.data(), items=st.lists(st.tuples(video_ids, predictions()), min_size=1,
                                      max_size=3, unique_by=lambda item: item[0]))
def test_fuzzed_predictions(tmp_path, data, items):
    _load_fuzzed(data, tmp_path, _saved(tmp_path, save_predictions, items),
                 load_predictions, jsonl=True)


@FUZZ
@given(data=st.data(), video_id=video_ids, gt=gt_tubes())
def test_fuzzed_gt(tmp_path, data, video_id, gt):
    _load_fuzzed(data, tmp_path, _saved(tmp_path, save_gt, video_id, gt),
                 load_gt, jsonl=False)


@FUZZ
@given(data=st.data(), gts=st.lists(st.tuples(video_ids, gt_tubes()), min_size=1, max_size=3))
def test_fuzzed_gt_collection(tmp_path, data, gts):
    # Either form: one compact GT per line, or one pretty-printed document.
    lines = [_saved(tmp_path, save_gt, video_id, gt) for video_id, gt in gts]
    jsonl = data.draw(st.booleans(), label="jsonl")
    text = "".join(lines) if jsonl else json.dumps(json.loads(lines[0]), indent=2)
    _load_fuzzed(data, tmp_path, text, load_gt_collection, jsonl, numbered=_jsonl_form)


@FUZZ
@given(data=st.data(), doc=tube_files())
def test_fuzzed_tubes(tmp_path, data, doc):
    _load_fuzzed(data, tmp_path, _saved(tmp_path, save_tubes_with_embeds, *doc),
                 load_tubes, jsonl=False)


@FUZZ
@given(data=st.data(), video_id=video_ids,
       ids=st.lists(st.lists(st.integers(-3, 9), max_size=3), max_size=4))
def test_fuzzed_labels(tmp_path, data, video_id, ids):
    _load_fuzzed(data, tmp_path, _saved(tmp_path, save_labels, video_id, ids),
                 load_labels, jsonl=False)


@FUZZ
@given(data=st.data(), video_id=video_ids, cands=st.lists(candidates(), max_size=3))
def test_fuzzed_candidates(tmp_path, data, video_id, cands):
    _load_fuzzed(data, tmp_path, _saved(tmp_path, save_candidates, video_id, cands),
                 load_candidates, jsonl=False)


# ------------------------------------------------- per-line reference loader

def reference_load_detections(path: str) -> tuple[dict, list[FrameDetections]]:
    """load_detections before the clip-wide check: each line decoded, and
    its frame made by FrameDetections(...), on its own and in file order."""
    it = F._iter_jsonl(path)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise FormatError("empty detections file", path=path) from None
    with F._at(path, lineno):
        meta = {
            "video_id": F._str_field(header, "video_id"),
            "fps": within(F._require(header, "fps"), "fps", "(0, inf)"),
            "frame_count": F._field(header, "frame_count", integer),
            "feature_dim": F._field(header, "feature_dim", integer),
        }
    dim = meta["feature_dim"]
    bad_embed = f"'embed' must be an array of numbers of length feature_dim ({dim})"
    frames: list[FrameDetections] = []
    for lineno, obj in it:
        with F._at(path, lineno):
            t = F._field(obj, "t", integer)
            F._frame_at(len(frames), t)
            dets = F._list_field(obj, "detections")
            boxes = F._column(dets, "box", width=4, bad=F._BAD_BOX)
            embeds = F._column(dets, "embed", width=dim, bad=bad_embed)
            frames.append(FrameDetections(t, boxes, F._values(dets, "score"), embeds))
    if len(frames) != meta["frame_count"]:
        raise FormatError(
            f"header promises {meta['frame_count']} frames, file has {len(frames)}",
            path=path)
    return meta, frames


def _detections_outcome(load, path: str):
    """What load gives for the file: the FormatError's text, or the meta
    and, per frame, t and the bytes of every column, norms included."""
    try:
        meta, frames = load(path)
    except FormatError as e:
        return str(e)
    return meta, [(type(f.t), f.t) + tuple((getattr(f, k).shape, getattr(f, k).tobytes())
                                          for k in ("boxes", "scores", "features", "norms"))
                  for f in frames]


@FUZZ
@given(data=st.data(), doc=detection_files())
def test_detections_match_the_per_line_reference(tmp_path, data, doc):
    """On valid and fuzzed files, the clip-wide loader gives the per-line
    loader's frames bit for bit, or its refusal word for word."""
    text = _saved(tmp_path, save_detections, *doc)
    path = tmp_path / "drawn.jsonl"
    path.write_text(_fuzz_text(data, _tree(text, True), True)
                    if data.draw(st.booleans(), label="fuzz") else text)
    assert (_detections_outcome(load_detections, str(path))
            == _detections_outcome(reference_load_detections, str(path)))


# A valid file of each kind: (strategy of the writer's arguments, writer, JSONL).
VALID_FILES = {
    load_detections: (detection_files(), save_detections, True),
    load_predictions: (st.lists(st.tuples(video_ids, predictions()), min_size=1, max_size=3,
                                unique_by=lambda item: item[0]).map(lambda items: (items,)),
                       save_predictions, True),
    load_gt: (st.tuples(video_ids, gt_tubes()), save_gt, False),
    load_gt_collection: (st.tuples(video_ids, gt_tubes()), save_gt, True),
    load_tubes: (tube_files(), save_tubes_with_embeds, False),
    load_labels: (st.tuples(video_ids, st.lists(st.lists(st.integers(-3, 9), max_size=3),
                                                max_size=4)), save_labels, False),
    load_candidates: (st.tuples(video_ids, st.lists(candidates(), min_size=1, max_size=3)),
                      save_candidates, False),
}


@settings(PROPERTY, max_examples=20)
@pytest.mark.parametrize("load", list(VALID_FILES), ids=[f.__name__ for f in VALID_FILES])
@given(data=st.data())
def test_each_number_made_non_finite(tmp_path, load, data):
    """A valid file with any one of its numbers made NaN or infinite is
    refused, or loads with only finite numbers: every number of the file is
    tried, so the property does not hang on which one a draw picks.  A NaN
    candidate score once loaded."""
    strategy, save, jsonl = VALID_FILES[load]
    text = _saved(tmp_path, save, *data.draw(strategy))
    path = tmp_path / "spoilt"
    for at in _numbers(_tree(text, jsonl)):
        for value in NON_FINITE_VALUES:
            tree = _set(_tree(text, jsonl), at, value)
            path.write_text("".join(json.dumps(obj) + "\n" for obj in tree) if jsonl
                            else json.dumps(tree))
            try:
                loaded = load(str(path))
            except FormatError as e:
                assert e.path == str(path)
            else:
                assert _finite(loaded), (at, value)
