"""File formats: JSONL streams and JSON documents, loadable back bit-exact.

Floats are written with 9 significant digits everywhere, so identical inputs
produce byte-identical files.  A JSON document is written compact, on one
line, and a JSONL line with json.dumps' default separators, both by CPython's
C encoder; non-finite numbers are refused on both write and read.  A number
field, box coordinate or vector element must be a JSON number: strings and
booleans are refused.  JSONL diagnostics carry 1-based line numbers.
Intervals may be given in seconds (ts_sec / te_sec) instead of frames when
the document carries an fps; they are converted once at load time.
"""
from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .association import Detection, FrameDetections, Tube
from .autolabel import CandidateRecord, CandidateTube
from .errors import FormatError, ValidationError
from .geometry import Box
from .metrics import Prediction
from .mining import GtTube

SCHEMA_VERSION = 1


def f9(x: float) -> float:
    """Round to 9 significant digits; idempotent, so rereading is stable."""
    return float(f"{float(x):.9g}")


def _f9s(values) -> list[float]:
    """f9 over a whole vector: one .tolist(), then plain Python floats."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return [float(f"{v:.9g}") for v in values]


_POW10 = np.array([float(10 ** i) for i in range(23)])   # all exact doubles


def _f9_rows(arrays: list) -> list[list]:
    """[a.tolist() for a in arrays] with every element f9-rounded, in one
    numpy pass over all the arrays' elements.

    With m = 8 - floor(log10|x|), the nine significant digits of x are
    k = rint(|x|·10^m), and k / 10^m is the double nearest to them, which is
    what float() of the printed digits gives: k and 10^m (m <= 22) are exact
    doubles and IEEE division rounds correctly.  That holds only where the
    rounded product |x|·10^m picks the same k as the exact one, so an element
    goes through f9 instead when it is zero or not finite, when |x| lies
    outside about [1e-14, 1e9), or when the product is within 1e-6 of a
    rounding tie.
    """
    if not arrays:
        return []
    x = np.concatenate([a.ravel() for a in arrays]).astype(float)
    mag = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 8.0 - np.floor(np.log10(mag))
        exact = (m >= 0.0) & (m <= 22.0)
        scale = _POW10[np.where(exact, m, 0.0).astype(np.intp)]
        p = mag * scale
        k = np.rint(p)
        exact &= (p >= 1e8) & (p <= 1e9 - 1.0) & (np.abs(np.abs(p - k) - 0.5) > 1e-6)
    rounded = np.copysign(k / scale, x)
    if not exact.all():
        rounded[~exact] = [f9(v) for v in x[~exact].tolist()]
    out, start = [], 0
    for a in arrays:
        out.append(rounded[start:start + a.size].reshape(a.shape).tolist())
        start += a.size
    return out


# Both refuse NaN and infinities.  JSONL lines keep json.dumps' default
# separators, so their bytes are what they were before the check.
_LINE = json.JSONEncoder(allow_nan=False)
_DOC = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _encode(path: str, obj, encoder: json.JSONEncoder = _LINE) -> str:
    try:
        return encoder.encode(obj)
    except ValueError as e:
        raise ValidationError(f"{path}: refusing to write a non-finite number ({e})") from e


def _write_doc(path: str, doc: dict) -> None:
    """Write `doc` as one compact JSON line."""
    Path(path).write_text(_encode(path, doc, _DOC) + "\n")


def _require(obj: dict, key: str, path: str, line: int | None = None):
    try:
        return obj[key]
    except (KeyError, TypeError):   # TypeError: obj is not an object
        raise FormatError(f"missing required key '{key}'", path=path, line=line) from None


def _list_field(obj: dict, key: str, path: str, line: int | None = None) -> list:
    if type(value := _require(obj, key, path, line)) is not list:
        raise FormatError(f"'{key}' must be an array", path=path, line=line)
    return value


def _as_int(value, what: str, path: str, line: int | None = None) -> int:
    # Not isinstance: bool is an int subclass, and int() would take true as 1
    # and truncate 8.7 to 8 in silence.
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise FormatError(f"'{what}' must be an integer, got {value!r}", path=path, line=line)


def _int_field(obj: dict, key: str, path: str, line: int | None = None) -> int:
    value = _require(obj, key, path, line)
    return value if type(value) is int else _as_int(value, key, path, line)


def _float_field(obj: dict, key: str, path: str, line: int | None = None) -> float:
    # A JSON number only: float() would take the string "0.5", and true as 1.
    value = _require(obj, key, path, line)
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    raise FormatError(f"'{key}' must be a number, got {value!r}", path=path, line=line)


_NUMBER = frozenset((float, int))   # JSON numbers: type(true) is bool, not int


def _box_from(arr, path: str, line: int | None = None) -> Box:
    # Box.from_list's float() would take "0.5" and true.
    if type(arr) is not list or not _NUMBER.issuperset(map(type, arr)):
        raise FormatError(f"bad box {arr!r}: coordinates must be numbers", path=path, line=line)
    try:
        return Box.from_list(arr)
    except (ValidationError, OverflowError) as e:
        raise FormatError(f"bad box {arr!r}: {e}", path=path, line=line) from e


def _vector_field(obj: dict, key: str, path: str, line: int | None = None) -> np.ndarray:
    """A float vector from an array of JSON numbers, the rule of _float_field."""
    value = _require(obj, key, path, line)
    if type(value) is list and _NUMBER.issuperset(map(type, value)):
        try:
            return np.asarray(value, dtype=float)
        except OverflowError:
            pass
    raise FormatError(f"'{key}' must be an array of numbers", path=path, line=line)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise FormatError(f"cannot read file: {e}", path=path) from e


def _parse_json_doc(text: str, path: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", path=path, line=e.lineno) from e
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object at top level", path=path)
    return obj


def _load_json_doc(path: str) -> dict:
    return _parse_json_doc(_read_text(path), path)


def _iter_jsonl(path: str, lines: list[str] | None = None, start: int = 1):
    """(line number, object) for each non-blank line, numbered from start."""
    if lines is None:
        lines = _read_text(path).splitlines()
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise FormatError(f"invalid JSON: {e.msg}", path=path, line=lineno) from e
        if not isinstance(obj, dict):
            raise FormatError("expected a JSON object", path=path, line=lineno)
        yield lineno, obj


def _fps_field(obj: dict, path: str, line: int | None = None) -> float:
    fps = _float_field(obj, "fps", path, line)
    if not (math.isfinite(fps) and fps > 0.0):
        raise FormatError(f"'fps' must be finite and positive, got {fps!r}", path=path, line=line)
    return fps


def _interval_from(obj: dict, path: str, line: int | None = None) -> tuple[int, int]:
    if "ts" in obj and "te" in obj:
        return _int_field(obj, "ts", path, line), _int_field(obj, "te", path, line)
    if "ts_sec" in obj and "te_sec" in obj:
        if "fps" not in obj:
            raise FormatError("second-denominated interval needs an fps key",
                              path=path, line=line)
        fps = _fps_field(obj, path, line)
        ts = _float_field(obj, "ts_sec", path, line) * fps
        te = _float_field(obj, "te_sec", path, line) * fps
        if not (math.isfinite(ts) and math.isfinite(te)):
            raise FormatError(f"interval in frames must be finite, got [{ts!r}, {te!r}]",
                              path=path, line=line)
        return int(round(ts)), int(round(te))
    raise FormatError("interval needs ts/te (frames) or ts_sec/te_sec plus fps",
                      path=path, line=line)


# ---------------------------------------------------------------- detections

def save_detections(path: str, video_id: str, fps: float,
                    frames: list[FrameDetections]) -> None:
    if not frames:
        raise ValidationError("refusing to write an empty detections file")
    header = {"video_id": video_id, "fps": f9(fps),
              "frame_count": len(frames),
              "feature_dim": frames[0].feature_dim}
    lines = [_encode(path, header)]
    embeds = iter(_f9_rows([d.feature for fr in frames for d in fr.detections]))
    for fr in frames:
        lines.append(_encode(path, {
            "t": fr.t,
            "detections": [{
                "box": _f9s(d.box.to_list()),
                "score": f9(d.score),
                "embed": next(embeds),
            } for d in fr.detections],
        }))
    Path(path).write_text("\n".join(lines) + "\n")


def load_detections(path: str) -> tuple[dict, list[FrameDetections]]:
    it = _iter_jsonl(path)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise FormatError("empty detections file", path=path) from None
    meta = {
        "video_id": str(_require(header, "video_id", path, lineno)),
        "fps": _fps_field(header, path, lineno),
        "frame_count": _int_field(header, "frame_count", path, lineno),
        "feature_dim": _int_field(header, "feature_dim", path, lineno),
    }
    frames: list[FrameDetections] = []
    for lineno, obj in it:
        t = _int_field(obj, "t", path, lineno)
        if t != len(frames):
            raise FormatError(f"expected frame t={len(frames)}, got t={t}",
                              path=path, line=lineno)
        dets = []
        for d in _list_field(obj, "detections", path, lineno):
            box = _box_from(_require(d, "box", path, lineno), path, lineno)
            embed = _vector_field(d, "embed", path, lineno)
            if embed.shape != (meta["feature_dim"],):
                raise FormatError(
                    f"embed length {embed.shape} does not match feature_dim "
                    f"{meta['feature_dim']}", path=path, line=lineno)
            try:
                dets.append(Detection(box=box,
                                      score=_float_field(d, "score", path, lineno),
                                      feature=embed))
            except ValidationError as e:
                raise FormatError(str(e), path=path, line=lineno) from e
        try:
            frames.append(FrameDetections(t=t, detections=dets))
        except ValidationError as e:
            raise FormatError(str(e), path=path, line=lineno) from e
    if len(frames) != meta["frame_count"]:
        raise FormatError(
            f"header promises {meta['frame_count']} frames, file has {len(frames)}",
            path=path)
    return meta, frames


# ------------------------------------------------------------------ gt files

def save_gt(path: str, video_id: str, gt: GtTube) -> None:
    doc = {
        "video_id": video_id,
        "ts": gt.ts,
        "te": gt.te,
        "boxes": [{"t": t, "box": _f9s(gt.boxes[t].to_list())}
                  for t in range(gt.ts, gt.te + 1)],
    }
    _write_doc(path, doc)


def _gt_from_obj(obj: dict, path: str, line: int | None = None) -> tuple[str, GtTube]:
    video_id = str(_require(obj, "video_id", path, line))
    ts, te = _interval_from(obj, path, line)
    boxes = {}
    for item in _list_field(obj, "boxes", path, line):
        t = _int_field(item, "t", path, line)
        boxes[t] = _box_from(_require(item, "box", path, line), path, line)
    try:
        return video_id, GtTube(ts=ts, te=te, boxes=boxes)
    except ValidationError as e:
        raise FormatError(str(e), path=path, line=line) from e


def load_gt(path: str) -> tuple[str, GtTube]:
    return _gt_from_obj(_load_json_doc(path), path)


def load_gt_collection(path: str) -> list[tuple[str, GtTube]]:
    """One GT per line (JSONL), or a single GT document (JSON).

    The file is JSONL when its first non-blank line is a JSON object on its
    own; otherwise it is decoded as one document, so a syntax error is
    reported at its own line either way.
    """
    text = _read_text(path)
    lines = text.splitlines()
    first = next((i for i, line in enumerate(lines) if line.strip()), None)
    if first is None:
        raise FormatError("empty ground-truth file", path=path)
    try:
        head = json.loads(lines[first])
    except json.JSONDecodeError:
        head = None
    if not isinstance(head, dict):
        return [_gt_from_obj(_parse_json_doc(text, path), path)]
    rest = _iter_jsonl(path, lines[first + 1:], start=first + 2)
    return [_gt_from_obj(head, path, first + 1),
            *(_gt_from_obj(o, path, lineno) for lineno, o in rest)]


# ---------------------------------------------------------------- tube files

def save_tubes(path: str, video_id: str, tubes: list[Tube],
               include_embeds: bool = False) -> None:
    if include_embeds:
        for tube in tubes:
            if tube.features is None and len(tube.t):
                raise ValidationError(
                    f"tube {tube.slot_id} has no feature at frame {tube.t[0]}")
        embeds = iter(_f9_rows([tube.features for tube in tubes if len(tube.t)]))
    boxes = iter(_f9_rows([tube.boxes for tube in tubes]))
    scores = iter(_f9_rows([tube.scores for tube in tubes]))
    out = []
    for tube in tubes:
        records = [{"t": t, "box": box, "score": score, "det": None if det < 0 else det}
                   for t, box, score, det in zip(tube.t.tolist(), next(boxes),
                                                 next(scores), tube.det.tolist())]
        if include_embeds and records:
            for rec, embed in zip(records, next(embeds)):
                rec["embed"] = embed
        out.append({"slot_id": tube.slot_id, "records": records})
    doc = {"video_id": video_id, "n_q": len(tubes), "tubes": out}
    _write_doc(path, doc)


def load_tubes(path: str) -> tuple[str, list[Tube]]:
    obj = _load_json_doc(path)
    video_id = str(_require(obj, "video_id", path))
    n_q = _int_field(obj, "n_q", path)
    tubes = [_tube_from(entry, path) for entry in _list_field(obj, "tubes", path)]
    if len(tubes) != n_q:
        raise FormatError(f"header promises n_q={n_q} tubes, file has {len(tubes)}",
                          path=path)
    return video_id, tubes


def _tube_from(entry: dict, path: str) -> Tube:
    """Decode one tube a field at a time: each field of its records is
    checked value by value, then stacked into the tube's column."""
    slot_id = _int_field(entry, "slot_id", path)
    raw = _require(entry, "records", path)
    if type(raw) is not list:
        raise FormatError(f"tube {slot_id}: records must be an array", path=path)
    features = _tube_features(slot_id, raw, path)
    t = [_int_field(r, "t", path) for r in raw]
    scores = [_float_field(r, "score", path) for r in raw]
    if not all(map(math.isfinite, scores)):
        i = next(i for i, score in enumerate(scores) if not math.isfinite(score))
        raise FormatError(f"tube {slot_id} frame {t[i]}: score must be finite, "
                          f"got {scores[i]!r}", path=path)
    boxes = _box_rows([_require(r, "box", path) for r in raw], path)
    det = [_det_field(r.get("det"), path) for r in raw]
    try:
        return Tube(slot_id, t, boxes, scores, det, features)
    except (ValidationError, OverflowError) as e:   # OverflowError: t beyond 64 bits
        raise FormatError(f"tube {slot_id}: {e}", path=path) from e


def _det_field(value, path: str) -> int:
    """A record's det: a detection index, or null for a gap, which is -1."""
    if value is None:
        return -1
    if (det := _as_int(value, "det", path)) < 0:
        raise FormatError(f"'det' must be null or a nonnegative integer, got {value!r}", path=path)
    return det


def _box_rows(boxes: list, path: str) -> np.ndarray:
    """(N, 4) floats from JSON box arrays of four JSON numbers each; past
    the first bad box, _box_from's message names it."""
    if all(type(b) is list and len(b) == 4 and _NUMBER.issuperset(map(type, b))
           for b in boxes):
        try:
            return np.array(boxes, dtype=float).reshape(-1, 4)
        except OverflowError:   # an integer beyond the float range
            pass
    return np.array([_box_from(arr, path).to_list() for arr in boxes]).reshape(-1, 4)


def _tube_features(slot_id: int, records: list[dict], path: str):
    """The tube's embeddings as one (T, D) array, or None when it has none."""
    try:
        embeds = [r.get("embed") for r in records]
    except AttributeError:
        raise FormatError(f"tube {slot_id}: every record must be an object", path=path) from None
    missing = embeds.count(None)
    if missing == len(embeds):
        return None
    if missing:
        t = records[embeds.index(None)].get("t")
        raise FormatError(f"tube {slot_id} frame {t}: embed missing, "
                          "but other records of the tube have one", path=path)
    features = None
    if (set(map(type, embeds)) == {list}
            and _NUMBER.issuperset(map(type, chain.from_iterable(embeds)))):
        try:
            features = np.array(embeds)
        except ValueError:
            pass   # ragged
    if features is None or features.ndim != 2 or features.dtype.kind not in "iuf":
        raise FormatError(f"tube {slot_id}: every embed must be an array of numbers, "
                          "all of one length", path=path)
    features = features.astype(float, copy=False)
    if not np.isfinite(features).all():
        t = records[int(np.argmin(np.isfinite(features).all(axis=1)))].get("t")
        raise FormatError(f"tube {slot_id} frame {t}: embed must be finite", path=path)
    return features


# -------------------------------------------------------------- predictions

def save_predictions(path: str, items: list[tuple[str, Prediction]]) -> None:
    lines = []
    for video_id, pred in items:
        keys = sorted(pred.boxes)
        lines.append(_encode(path, {
            "video_id": video_id, "ts": pred.ts, "te": pred.te,
            "boxes": [{"t": t, "box": _f9s(pred.boxes[t].to_list())}
                      for t in keys],
        }))
    Path(path).write_text("\n".join(lines) + "\n")


def load_predictions(path: str) -> list[tuple[str, Prediction]]:
    out = []
    for lineno, obj in _iter_jsonl(path):
        video_id = str(_require(obj, "video_id", path, lineno))
        ts, te = _interval_from(obj, path, lineno)
        boxes = {}
        for item in _list_field(obj, "boxes", path, lineno):
            t = _int_field(item, "t", path, lineno)
            boxes[t] = _box_from(_require(item, "box", path, lineno), path, lineno)
        try:
            out.append((video_id, Prediction(ts=ts, te=te, boxes=boxes)))
        except ValidationError as e:
            raise FormatError(str(e), path=path, line=lineno) from e
    if not out:
        raise FormatError("empty predictions file", path=path)
    return out


# -------------------------------------------------------------- label files

def save_labels(path: str, video_id: str, identities: list[list[int]]) -> None:
    doc = {"video_id": video_id,
           "frames": [{"t": t, "ids": ids} for t, ids in enumerate(identities)]}
    _write_doc(path, doc)


def load_labels(path: str) -> tuple[str, list[list[int]]]:
    obj = _load_json_doc(path)
    video_id = str(_require(obj, "video_id", path))
    identities = []
    for item in _list_field(obj, "frames", path):
        t = _int_field(item, "t", path)
        if t != len(identities):
            raise FormatError(f"expected frame t={len(identities)}, got t={t}", path=path)
        identities.append([_as_int(x, "ids", path) for x in _list_field(item, "ids", path)])
    return video_id, identities


# ---------------------------------------------------------------- candidates

def save_candidates(path: str, video_id: str, candidates: list[CandidateTube]) -> None:
    def _record(r: CandidateRecord) -> dict:
        rec = {"t": r.t, "box": _f9s(r.box.to_list()),
               "score": f9(r.score)}
        if r.interpolated:
            rec["interpolated"] = True
        return rec

    doc = {
        "video_id": video_id,
        "candidates": [{
            "category": c.category,
            "span": [c.span[0], c.span[1]],
            "records": [_record(r) for r in c.records],
            "appearance": _f9s(c.appearance),
        } for c in candidates],
    }
    _write_doc(path, doc)


def load_candidates(path: str) -> tuple[str, list[CandidateTube]]:
    obj = _load_json_doc(path)
    video_id = str(_require(obj, "video_id", path))
    out = []
    for c in _list_field(obj, "candidates", path):
        span = _require(c, "span", path)
        if not (isinstance(span, list) and len(span) == 2):
            raise FormatError(f"span must be a 2-element array, got {span!r}", path=path)
        records = []
        for r in _list_field(c, "records", path):
            records.append(CandidateRecord(
                t=_int_field(r, "t", path),
                box=_box_from(_require(r, "box", path), path),
                score=_float_field(r, "score", path),
                interpolated=bool(r.get("interpolated", False))))
        try:
            out.append(CandidateTube(
                category=str(_require(c, "category", path)),
                span=(_as_int(span[0], "span", path), _as_int(span[1], "span", path)),
                records=records,
                appearance=_vector_field(c, "appearance", path)))
        except ValidationError as e:
            raise FormatError(str(e), path=path) from e
    return video_id, out


# ------------------------------------------------------------------- reports

def save_report(path: str, doc: dict) -> None:
    """Reports are plain JSON documents; floats must already be f9-rounded."""
    _write_doc(path, doc)
