"""Property tests for the file formats.

Round trips: a saved file loads back with every float equal to its f9
rounding, and saving what was loaded gives the same bytes.  Fuzzing: a
valid file, structurally mutated (values replaced, keys and elements dropped
or added, text cut or spliced), either loads or raises FormatError naming
the file; a JSONL loader names the line too, except for the whole-file
conditions listed in WHOLE_FILE.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_frame, make_gt, make_prediction, make_tube
from tubekit.autolabel import CandidateRecord, CandidateTube
from tubekit.errors import FormatError
from tubekit.formats import (f9, load_candidates, load_detections, load_gt,
                             load_gt_collection, load_labels, load_predictions,
                             load_tubes, save_candidates, save_detections,
                             save_gt, save_labels, save_predictions, save_tubes)
from tubekit.geometry import Box
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
    embeds = draw(st.booleans())
    dim = draw(st.integers(1, 3))
    tubes = []
    for slot in range(draw(st.integers(1, 3))):
        ts = sorted(draw(st.sets(st.integers(0, 20), max_size=4)))
        rows = [(draw(boxes()), draw(scores), draw(vectors(dim)) if embeds else None,
                 draw(st.none() | st.integers(0, 9))) for _ in ts]
        box_col, score_col, feature_col, det_col = zip(*rows) if rows else ([],) * 4
        tubes.append(make_tube(
            slot, list(box_col), list(score_col), t=ts,
            det=[-1 if d is None else d for d in det_col],
            features=np.array(feature_col).reshape(len(ts), dim) if embeds else None))
    return draw(video_ids), tubes, embeds


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
    video_id, tubes, embeds = doc
    path = tmp_path / "t.json"
    save_tubes(str(path), video_id, tubes, include_embeds=embeds)
    loaded_id, loaded = load_tubes(str(path))
    assert loaded_id == video_id
    assert [t.slot_id for t in loaded] == [t.slot_id for t in tubes]
    for tube, lt in zip(tubes, loaded):
        assert len(lt.records) == len(tube.records)
        for r, lr in zip(tube.records, lt.records):
            assert (lr.t, lr.det) == (r.t, r.det)
            assert lr.box.to_list() == f9_box(r.box)
            assert lr.score == f9(r.score)
            if embeds:
                assert lr.feature.tolist() == f9_vector(r.feature)
            else:
                assert lr.feature is None
    again = tmp_path / "again.json"
    save_tubes(str(again), loaded_id, loaded, include_embeds=embeds)
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


json_scalars = (st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
                | st.floats() | st.text(max_size=3))
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


def _mutate(data, tree):
    """One structural edit at a drawn node: replace it, or drop or add a
    key or element of it."""
    nodes = list(_nodes(tree))
    at, node = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
    op = data.draw(st.sampled_from(["replace", "drop", "add"]), label="op")
    if op == "replace" or not isinstance(node, (dict, list)) or (op == "drop" and not node):
        if not at:
            return data.draw(json_values)
        parent = tree
        for key in at[:-1]:
            parent = parent[key]
        parent[at[-1]] = data.draw(json_values)
    elif op == "drop":
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
        text = text[:cut] + data.draw(st.sampled_from(["", "\n", "{", "]", ",", '"', "x"])) \
            + text[cut + data.draw(st.integers(0, 3)):]
    return text


# Conditions of a JSONL file as a whole, which no single line carries.
WHOLE_FILE = ("empty detections file", "header promises", "empty predictions file",
              "empty ground-truth file")


def _jsonl_form(text: str) -> bool:
    """load_gt_collection's rule: JSONL when the first non-blank line is a
    JSON object on its own."""
    first = next((line for line in text.splitlines() if line.strip()), "")
    try:
        return isinstance(json.loads(first), dict)
    except ValueError:
        return False


def _load_fuzzed(data, tmp_path, text, load, jsonl, numbered=None):
    """Fuzz the valid file `text` and load it.  numbered(text) says whether
    errors must carry a line; by default, when the file is JSONL."""
    tree = [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)
    path = tmp_path / "fuzzed"
    path.write_text(_fuzz_text(data, tree, jsonl))
    numbered = jsonl if numbered is None else numbered(path.read_text())
    try:
        load(str(path))
    except FormatError as e:
        assert e.path == str(path)
        if numbered and e.line is None:
            assert any(w in str(e) for w in WHOLE_FILE), str(e)
        if numbered and e.line is not None:
            assert 1 <= e.line <= len(path.read_text().splitlines()), str(e)


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
                                      max_size=3))
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
    video_id, tubes, embeds = doc
    _load_fuzzed(data, tmp_path,
                 _saved(tmp_path, save_tubes, video_id, tubes, include_embeds=embeds),
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
