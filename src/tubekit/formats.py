"""File formats: JSONL streams and JSON documents, loadable back bit-exact.

Floats are written with 9 significant digits everywhere, so identical inputs
produce byte-identical files.  A JSON document is written compact, on one
line, and a JSONL line with json.dumps' default separators.  The writers
build the text of their float arrays in one numpy pass (_f9_text), byte for
byte what CPython's C encoder writes for the f9-rounded values; strings and
scalar fields go through that encoder itself.  Non-finite numbers are
refused on write, leaving no file, and so is whatever a reader would
refuse: a writer passes its ids, frame order and repeats through the rule
that the reader applies (_string, _frame_at, _positive_fps, _video_once,
_slots_once), and label ids through the reader's own decoder.  On read,
this module checks JSON types and the file's layout (frame order, counts,
repeats) with one decoder for every record array (_column): a number is a
JSON number, never a string or a boolean.  The holders it fills (FrameDetections, Tube, GtTube,
Prediction, CandidateTube) check the domain rules, finiteness included;
their refusals become FormatErrors at path[:LINE], lines 1-based.
Intervals in seconds (ts_sec / te_sec) need the document's fps.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .association import FrameDetections, Tube
from .autolabel import CandidateRecord, CandidateTube
from .errors import FormatError, ValidationError
from .geometry import Box
from .metrics import Prediction
from .mining import GtTube

SCHEMA_VERSION = 1


def f9(x: float) -> float:
    """Round to 9 significant digits; idempotent, so rereading is stable."""
    return float(f"{float(x):.9g}")


_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])   # 1e0 .. 1e22, all exact

# Number text is built in one uint8 slot per element, then every NUL byte is
# dropped.  Columns: 0 "[" before a row's first element; 1 the sign; 2-6 the
# "0.000" of a value below 1; 7-23 the nine digits at the odd columns, the
# point after digit j at column 8 + 2j; 24-25 the separator, or "]" and
# "\n" after a row's last element.
_SLOT = 26
_n = np.arange(10_000, dtype=np.uint16)
_DIGITS4 = ((_n[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0"))
            .astype(np.uint8).view("<u4").ravel())          # n's four ASCII digits
_ZEROS4 = ((_n % 10 == 0).astype(np.uint8) + (_n % 100 == 0) + (_n % 1000 == 0)
           + (_n == 0))                                      # n's trailing zeros of four
# Row j masks the digit words (NUL NUL NUL d0, d1-d4, d5-d8) to their first j digits.
_FIRST = np.where(np.arange(12) < np.arange(3, 13)[:, None], 255, 0).astype(np.uint8).view("<u4")
# For the point after digit e, e = -4 .. 7: columns 2-6, then 8, 10, .. 22.
_e = np.arange(-4, 8)[:, None]
_PLACES = np.hstack([
    np.where((_e < 0) & (np.arange(5) < 1 - _e), np.where(np.arange(5) == 1, ord("."), ord("0")), 0),
    np.where(np.arange(8) == _e, ord("."), 0)]).astype(np.uint8)
del _n, _e


def _f9_text(a: np.ndarray, sep: str) -> list[str]:
    """The JSON text the C encoder writes for f9 of each row of a finite
    array: of a 2-D array, one JSON array per row, its elements joined by
    `sep`; of a 1-D array, one number per element.

    The encoder writes a float as float.__repr__, the shortest text that
    reads back as the same double.  With m = 8 - floor(log10|x|), the nine
    significant digits of x are k = rint(|x|·10^m).  Any other decimal of
    nine digits or fewer lies at least 1e-9·|x| from k·10^-m, and doubles
    are 2.2e-16·|x| apart, so the text of f9(x) is k's digits without their
    trailing zeros, with the point after digit e = 8 - m: "ddd.ddd",
    "ddd.0" or "0.000ddd", the positional form repr keeps for
    1e-4 <= |x| < 1e16.  k is exact only where the rounded product |x|·10^m
    picks the same k as the exact one, so an element is written by
    repr(f9(|x|)) instead when it is zero, when |x| lies outside
    [1e-4, 1e8), or when the product is within 1e-6 of a rounding tie.
    The sign comes from the sign bit, so -0.0 is "-0.0".
    """
    x = np.asarray(a, dtype=float)
    n = len(x)
    if not x.size:
        return ["[]" if x.ndim == 2 else ""] * n
    mag = np.abs(x.ravel())
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 8.0 - np.floor(np.log10(mag))
        fast = (m >= 1.0) & (m <= 12.0)
        scale = _POW10[np.where(fast, m, 0.0).astype(np.intp)]
        p = mag * scale
        k = np.rint(p)
        fast &= (p >= 1e8) & (p <= 1e9 - 1.0) & (np.abs(np.abs(p - k) - 0.5) > 1e-6)
    k = np.where(fast, k, 1e8).astype(np.intp)
    e = np.where(fast, 8.0 - m, 0.0).astype(np.intp)

    buf = np.zeros((n, x.size // n, _SLOT), np.uint8)
    end = b"\n"
    if x.ndim == 2:
        buf[:, 0, 0] = ord("[")
        buf[:, :-1, 24:24 + len(sep)] = np.frombuffer(sep.encode(), np.uint8)
        end = b"]\n"
    buf[:, -1, 24:24 + len(end)] = np.frombuffer(end, np.uint8)
    slots = buf.reshape(-1, _SLOT)
    slots[:, 1] = np.signbit(x.ravel()) * np.uint8(ord("-"))
    high, low = np.divmod(k, 10_000)
    first, mid = np.divmod(high, 10_000)
    words = np.empty((len(k), 3), np.uint32)
    words[:, 0] = (first + ord("0")) << 24
    words[:, 1] = _DIGITS4[mid]
    words[:, 2] = _DIGITS4[low]
    # Keep the digits up to the last nonzero one, and at least one after the point.
    keep = np.maximum(9 - _ZEROS4[low] - (low == 0) * _ZEROS4[mid], e + 2)
    words[:, 1:] &= _FIRST[keep, 1:]
    slots[:, 7:24:2] = words.view(np.uint8)[:, 3:]
    places = _PLACES[e + 4]
    slots[:, 2:7] = places[:, :5]
    slots[:, 8:23:2] = places[:, 5:]
    if not fast.all():
        slow = np.flatnonzero(~fast)
        text = "".join(repr(f9(v)).ljust(22, "\0") for v in mag[slow].tolist())
        slots[slow, 2:24] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 22)
    rows = buf.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    rows.pop()   # after the last "\n"
    return rows


# Strings and scalar fields go through the C encoder, so their escaping is
# its own; both encoders refuse NaN and infinities.  JSONL lines keep
# json.dumps' default separators.
_LINE = json.JSONEncoder(allow_nan=False)
_DOC = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _non_finite(path: str, what) -> ValidationError:
    return ValidationError(f"{path}: refusing to write a non-finite number ({what})")


def _encode(path: str, obj, encoder: json.JSONEncoder = _LINE) -> str:
    try:
        return encoder.encode(obj)
    except ValueError as e:
        raise _non_finite(path, e) from e


def _check_finite(path: str, arrays) -> None:
    """Refuse arrays holding NaN or infinity before anything is written."""
    for a in arrays:
        flat = np.ravel(a)
        if not np.isfinite(flat).all():
            raise _non_finite(path, f"got {float(flat[~np.isfinite(flat)][0])}")


def _write(path: str, chunks) -> None:
    """Write the text chunks one after another; if making one fails, the
    file is removed, so a refused write leaves no partial file."""
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _write_doc(path: str, doc: dict) -> None:
    """Write `doc` as one compact JSON line."""
    _write(path, [_encode(path, doc, _DOC) + "\n"])


def _require(obj: dict, key: str, path: str, line: int | None = None):
    try:
        return obj[key]
    except (KeyError, TypeError):   # TypeError: obj is not an object
        raise FormatError(f"missing required key '{key}'", path=path, line=line) from None


def _list_field(obj: dict, key: str, path: str, line: int | None = None) -> list:
    if type(value := _require(obj, key, path, line)) is not list:
        raise FormatError(f"'{key}' must be an array", path=path, line=line)
    return value


def _string(value, key: str) -> str:
    """value, refused unless it is a string: str() would take null as "None"
    and 3 as "3"."""
    if not isinstance(value, str):
        raise ValidationError(f"'{key}' must be a string, got {value!r}")
    return value


def _str_field(obj: dict, key: str, path: str, line: int | None = None) -> str:
    return _held(path, line, _string, _require(obj, key, path, line), key)


def _frame_at(i: int, t) -> None:
    """The i-th frame of a detections or labels file must be frame t=i."""
    if t != i:
        raise ValidationError(f"expected frame t={i}, got t={t}")


def _positive_fps(fps: float) -> float:
    if not (math.isfinite(fps) and fps > 0.0):
        raise ValidationError(f"'fps' must be finite and positive, got {fps!r}")
    return fps


def _video_once(lines: dict, video_id: str, line: int) -> None:
    """Record video_id as held by `line`; one that an earlier line holds is
    refused."""
    if (first := lines.setdefault(video_id, line)) != line:
        raise ValidationError(f"video_id '{video_id}' is also on line {first}")


def _slots_once(tubes: list[Tube]) -> None:
    slots = [tube.slot_id for tube in tubes]
    if twice := [s for i, s in enumerate(slots) if s in slots[:i]]:
        raise ValidationError(f"slot_id {twice[0]} is held by more than one tube")


_REQUIRED = object()
_NUMBER = frozenset((float, int))   # JSON numbers: type(true) is bool, not int
_KINDS = {int: (frozenset((int,)), np.int64, "an integer"), float: (_NUMBER, float, "a number")}
_BAD_BOX = "bad box: every box must be an array of 4 numbers"


def _values(records: list, key: str, path: str, line: int | None = None,
            default=_REQUIRED, where: str = "") -> list:
    """The `key` of each record of a JSON record array, or `default` where a
    record lacks it; a record that is not an object, or a missing key
    without a default, is refused."""
    try:
        if default is _REQUIRED:
            return [r[key] for r in records]
        return [r.get(key, default) for r in records]
    except KeyError:
        raise FormatError(f"{where}missing required key '{key}'", path=path, line=line) from None
    except (TypeError, AttributeError):   # a record that is not an object
        raise FormatError(f"{where}every record must be an object", path=path, line=line) from None


def _numbers(values: list, key: str, kind: type, path: str, line: int | None = None,
             where: str = "") -> np.ndarray:
    """int64 from JSON integers (kind int), or floats from JSON numbers (kind
    float).  Not int() or float(): those would take true as 1, "0.5" as 0.5
    and 8.7 as 8; an integral float such as 1.0 is an integer."""
    types, dtype, noun = _KINDS[kind]
    if not types.issuperset(map(type, values)):
        if kind is int:
            values = [int(v) if type(v) is float and v.is_integer() else v for v in values]
        if (v := next((v for v in values if type(v) not in types), _REQUIRED)) is not _REQUIRED:
            raise FormatError(f"{where}'{key}' must be {noun}, got {v!r}", path=path, line=line)
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:   # an integer beyond 64 bits, or beyond the float range
        v = max((v for v in values if type(v) is int), key=abs)
        raise FormatError(f"{where}'{key}' must be {noun} that fits in 64 bits, got {v!r}",
                          path=path, line=line) from None


def _field(obj: dict, key: str, kind: type, path: str, line: int | None = None):
    """One integer or number field of an object, as a Python int or float."""
    if type(value := _require(obj, key, path, line)) is kind:
        return value
    return _numbers([value], key, kind, path, line)[0].item()


def _column(records: list, key: str, kind: type, path: str, line: int | None = None, *,
            default=_REQUIRED, width: int | None = None, bad: str = "",
            where: str = "") -> np.ndarray:
    """The `key` of every record of a JSON record array as one column of
    `kind`: int or float, as _numbers reads them, where with default=None a
    null or missing value reads as -1 (a tube's gap det); list, (N, W)
    floats from arrays of W numbers, W = width or any one width, else
    refused with the message `bad`.  Every message starts with `where`."""
    values = _values(records, key, path, line, default, where)
    if kind is not list:
        return _numbers([-1 if v is None else v for v in values] if default is None else values,
                        key, kind, path, line, where)
    if not values:
        return np.empty((0, width or 0))
    if all(type(r) is list for r in values) \
            and _NUMBER.issuperset(map(type, chain.from_iterable(values))):
        try:
            rows = np.array(values, dtype=float)
        except (ValueError, OverflowError):   # ragged, or an integer beyond the float range
            pass
        else:
            if width in (None, rows.shape[1]):
                return rows
    raise FormatError(where + bad, path=path, line=line)


def _held(path: str, line: int | None, holder, *args):
    """holder(*args), its ValidationError raised as a FormatError at path[:line]."""
    try:
        return holder(*args)
    except ValidationError as e:
        raise FormatError(str(e), path=path, line=line) from e


@contextmanager
def _open(path: str):
    """The file as UTF-8 text, whatever the locale; a file that cannot be
    opened, or whose bytes are not UTF-8, is a FormatError."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise FormatError(f"cannot read file: {e}", path=path) from e
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise FormatError(f"cannot read file: not UTF-8 text ({e.reason})", path=path) from e


def _parse_json_doc(text: str, path: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", path=path, line=e.lineno) from e
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object at top level", path=path)
    return obj


def _load_json_doc(path: str) -> dict:
    with _open(path) as fh:
        return _parse_json_doc(fh.read(), path)


def _iter_jsonl(path: str, lines=None, start: int = 1):
    """(line number, object) for each non-blank line of `lines`, numbered
    from start; without `lines`, of the file, read one line at a time so
    that a large file is never held whole."""
    if lines is None:
        with _open(path) as fh:
            yield from _iter_jsonl(path, fh, start)
        return
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
    return _held(path, line, _positive_fps, _field(obj, "fps", float, path, line))


def _interval_from(obj: dict, path: str, line: int | None = None) -> tuple[int, int]:
    if "ts" in obj and "te" in obj:
        return _field(obj, "ts", int, path, line), _field(obj, "te", int, path, line)
    if "ts_sec" in obj and "te_sec" in obj:
        fps = _fps_field(obj, path, line)
        ts = _field(obj, "ts_sec", float, path, line) * fps
        te = _field(obj, "te_sec", float, path, line) * fps
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
    _string(video_id, "video_id")
    dim = frames[0].features.shape[1]
    for i, fr in enumerate(frames):
        _frame_at(i, fr.t)
        if fr.features.shape[1] != dim:
            raise ValidationError(f"frame {fr.t}: features have {fr.features.shape[1]} "
                                  f"columns, frame {frames[0].t} has {dim}")
    fps = np.array([fps], dtype=float)
    columns = [np.concatenate([getattr(fr, name) for fr in frames])
               for name in ("boxes", "scores", "features")]
    _check_finite(path, [fps, *columns])
    _positive_fps(float(fps[0]))
    rows = zip(*(_f9_text(c, ", ") for c in columns))

    def lines():
        yield (f'{{"video_id": {_encode(path, video_id)}, "fps": {_f9_text(fps, ", ")[0]}, '
               f'"frame_count": {len(frames)}, "feature_dim": {dim}}}\n')
        for t, fr in enumerate(frames):
            dets = ", ".join(f'{{"box": {box}, "score": {score}, "embed": {embed}}}'
                             for box, score, embed in islice(rows, len(fr.scores)))
            yield f'{{"t": {t}, "detections": [{dets}]}}\n'

    _write(path, lines())


def load_detections(path: str) -> tuple[dict, list[FrameDetections]]:
    it = _iter_jsonl(path)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise FormatError("empty detections file", path=path) from None
    meta = {
        "video_id": _str_field(header, "video_id", path, lineno),
        "fps": _fps_field(header, path, lineno),
        "frame_count": _field(header, "frame_count", int, path, lineno),
        "feature_dim": _field(header, "feature_dim", int, path, lineno),
    }
    dim = meta["feature_dim"]
    bad_embed = f"'embed' must be an array of numbers of length feature_dim ({dim})"
    frames: list[FrameDetections] = []
    for lineno, obj in it:
        t = _field(obj, "t", int, path, lineno)
        _held(path, lineno, _frame_at, len(frames), t)
        dets = _list_field(obj, "detections", path, lineno)
        boxes = _column(dets, "box", list, path, lineno, width=4, bad=_BAD_BOX)
        embeds = _column(dets, "embed", list, path, lineno, width=dim, bad=bad_embed)
        scores = _column(dets, "score", float, path, lineno)
        frames.append(_held(path, lineno, FrameDetections, t, boxes, scores, embeds))
    if len(frames) != meta["frame_count"]:
        raise FormatError(
            f"header promises {meta['frame_count']} frames, file has {len(frames)}",
            path=path)
    return meta, frames


# ------------------------------------------------------------------ gt files

def _interval_boxes(obj: dict, path: str, line: int | None = None) -> tuple:
    """What a GT and a prediction share: (video_id, ts, te, t0, rows), their
    'boxes' [{"t": ..., "box": [...]}, ...] in any frame order as rows, row i
    the box of frame t0 + i.  A frame listed twice, or a frame missing
    between the first and the last, is refused.  No boxes give t0 = 0 and
    an empty (0, 4) array."""
    video_id = _str_field(obj, "video_id", path, line)
    ts, te = _interval_from(obj, path, line)
    items = _list_field(obj, "boxes", path, line)
    t = _column(items, "t", int, path, line).tolist()
    rows = _column(items, "box", list, path, line, width=4, bad=_BAD_BOX)
    if t and t != list(range(t[0], t[0] + len(t))):   # not already one frame after another
        order = sorted(range(len(t)), key=t.__getitem__)
        t, rows = [t[i] for i in order], rows[order]
        if twice := [a for a, b in zip(t, t[1:]) if a == b]:
            raise FormatError(f"frame {twice[0]} has more than one box", path=path, line=line)
        if missing := list(islice(chain.from_iterable(range(a + 1, b)
                                                      for a, b in zip(t, t[1:])), 5)):
            raise FormatError(f"boxes must cover a contiguous frame range; missing boxes at "
                              f"frames {missing}", path=path, line=line)
    return video_id, ts, te, (t[0] if t else 0), rows


def _frame_boxes_text(t0: int, boxes: np.ndarray, sep: str) -> str:
    """The "boxes" array of a GT (sep ",") or a prediction (sep ", "): box i
    is the box of frame t0 + i."""
    colon = ":" if sep == "," else ": "
    return "[" + sep.join(f'{{"t"{colon}{t}{sep}"box"{colon}{box}}}'
                          for t, box in enumerate(_f9_text(boxes, sep), t0)) + "]"


def save_gt(path: str, video_id: str, gt: GtTube) -> None:
    _string(video_id, "video_id")
    _check_finite(path, [gt.boxes])
    _write(path, [f'{{"video_id":{_encode(path, video_id)},"ts":{_encode(path, gt.ts)},'
                  f'"te":{_encode(path, gt.te)},"boxes":{_frame_boxes_text(gt.ts, gt.boxes, ",")}}}\n'])


def _gt_misfit(ts: int, te: int, t0: int, n: int) -> str:
    """Why boxes on frames t0 .. t0 + n - 1 do not fill [ts, te]: the first
    five GT frames without a box or, failing those, with a box outside."""
    have = range(t0, t0 + n)
    # The first five missing frames lie within n + 5 of ts.
    missing = [t for t in range(ts, min(te, ts + n + 4) + 1) if t not in have]
    if missing:
        return f"GT interval is missing boxes at frames {missing[:5]}"
    return f"GT has boxes outside its interval at frames {[t for t in have if not ts <= t <= te][:5]}"


def _gt_from_obj(obj: dict, path: str, line: int | None = None) -> tuple[str, GtTube]:
    video_id, ts, te, t0, rows = _interval_boxes(obj, path, line)
    if ts <= te and (t0, len(rows)) != (ts, te - ts + 1):
        raise FormatError(_gt_misfit(ts, te, t0, len(rows)), path=path, line=line)
    return video_id, _held(path, line, GtTube, ts, te, rows)


def load_gt(path: str) -> tuple[str, GtTube]:
    return _gt_from_obj(_load_json_doc(path), path)


def load_gt_collection(path: str) -> list[tuple[str, GtTube]]:
    """One GT per line (JSONL), or a single GT document (JSON).

    The file is JSONL when its first non-blank line is a JSON object on its
    own; otherwise it is decoded as one document, so a syntax error is
    reported at its own line either way.
    """
    with _open(path) as fh:
        text = fh.read()
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
    return _one_per_video(path, ((lineno, _gt_from_obj(o, path, lineno))
                                 for lineno, o in chain([(first + 1, head)], rest)))


def _one_per_video(path: str, numbered) -> list:
    """The (video_id, item) of each (line, (video_id, item)), in order; a
    video_id that an earlier line holds is refused at its second line."""
    lines: dict[str, int] = {}
    out = []
    for lineno, item in numbered:
        _held(path, lineno, _video_once, lines, item[0], lineno)
        out.append(item)
    return out


# ---------------------------------------------------------------- tube files

def save_tubes(path: str, video_id: str, tubes: list[Tube],
               include_embeds: bool = False) -> None:
    """Write the tube file one tube at a time."""
    _string(video_id, "video_id")
    _slots_once(tubes)
    if include_embeds:
        for tube in tubes:
            if tube.features is None and len(tube.t):
                raise ValidationError(
                    f"tube {tube.slot_id} has no feature at frame {tube.t[0]}")
    _check_finite(path, chain.from_iterable(
        (tube.boxes, tube.scores) + ((tube.features,) if include_embeds and len(tube.t) else ())
        for tube in tubes))

    def tube_text(tube: Tube) -> str:
        embeds = ([f',"embed":{e}' for e in _f9_text(tube.features, ",")]
                  if include_embeds and len(tube.t) else [""] * len(tube.t))
        text = ",".join(f'{{"t":{t},"box":{box},"score":{score},"det":{det}{embed}}}'
                        for t, box, score, det, embed in zip(
                            tube.t.tolist(), _f9_text(tube.boxes, ","), _f9_text(tube.scores, ","),
                            ["null" if det < 0 else det for det in tube.det.tolist()], embeds))
        return f'{{"slot_id":{_encode(path, tube.slot_id)},"records":[{text}]}}'

    def chunks():
        yield f'{{"video_id":{_encode(path, video_id)},"n_q":{len(tubes)},"tubes":['
        for i, tube in enumerate(tubes):
            yield ("," if i else "") + tube_text(tube)
        yield "]}\n"

    _write(path, chunks())


def load_tubes(path: str) -> tuple[str, list[Tube]]:
    obj = _load_json_doc(path)
    video_id = _str_field(obj, "video_id", path)
    n_q = _field(obj, "n_q", int, path)
    tubes = [_tube_from(entry, path) for entry in _list_field(obj, "tubes", path)]
    if len(tubes) != n_q:
        raise FormatError(f"header promises n_q={n_q} tubes, file has {len(tubes)}",
                          path=path)
    _held(path, None, _slots_once, tubes)
    return video_id, tubes


def _tube_from(entry: dict, path: str) -> Tube:
    slot_id = _field(entry, "slot_id", int, path)
    raw = _require(entry, "records", path)
    if type(raw) is not list:
        raise FormatError(f"tube {slot_id}: records must be an array", path=path)
    where = f"tube {slot_id}: "
    t = _column(raw, "t", int, path, where=where)
    embeds = _values(raw, "embed", path, default=None)   # none at all: written without them
    if None in embeds and embeds.count(None) < len(embeds):
        raise FormatError(f"tube {slot_id} frame {t[embeds.index(None)]}: embed missing, "
                          "but other records of the tube have one", path=path)
    features = None if None in embeds or not embeds else _column(
        raw, "embed", list, path, where=where,
        bad="every embed must be an array of numbers, all of one length")
    return _held(path, None, Tube, slot_id, t,
                 _column(raw, "box", list, path, width=4, bad=_BAD_BOX, where=where),
                 _column(raw, "score", float, path, where=where),
                 _column(raw, "det", int, path, default=None, where=where), features)


# -------------------------------------------------------------- predictions

def save_predictions(path: str, items: list[tuple[str, Prediction]]) -> None:
    if not items:
        raise ValidationError("refusing to write an empty predictions file")
    lines: dict[str, int] = {}
    for line, (video_id, _) in enumerate(items, 1):
        _video_once(lines, _string(video_id, "video_id"), line)
    _check_finite(path, [pred.boxes for _, pred in items])
    _write(path, [f'{{"video_id": {_encode(path, video_id)}, "ts": {_encode(path, pred.ts)}, '
                  f'"te": {_encode(path, pred.te)}, '
                  f'"boxes": {_frame_boxes_text(pred.t0, pred.boxes, ", ")}}}\n'
                  for video_id, pred in items])


def _prediction_from(obj: dict, path: str, line: int) -> tuple[str, Prediction]:
    video_id, ts, te, t0, rows = _interval_boxes(obj, path, line)
    return video_id, _held(path, line, Prediction, ts, te, t0, rows)


def load_predictions(path: str) -> list[tuple[str, Prediction]]:
    out = _one_per_video(path, ((lineno, _prediction_from(obj, path, lineno))
                                for lineno, obj in _iter_jsonl(path)))
    if not out:
        raise FormatError("empty predictions file", path=path)
    return out


# -------------------------------------------------------------- label files

def save_labels(path: str, video_id: str, identities: list[list[int]]) -> None:
    """Ids go through load_labels' decoder: an integral float is written as
    an integer, and any other id that it would refuse is refused."""
    try:
        ids = iter(_numbers(list(chain.from_iterable(identities)), "ids", int, None).tolist())
    except FormatError as e:
        raise ValidationError(str(e)) from None
    _write_doc(path, {"video_id": _string(video_id, "video_id"),
                      "frames": [{"t": t, "ids": list(islice(ids, len(row)))}
                                 for t, row in enumerate(identities)]})


def load_labels(path: str) -> tuple[str, list[list[int]]]:
    obj = _load_json_doc(path)
    video_id = _str_field(obj, "video_id", path)
    frames = _list_field(obj, "frames", path)
    for i, t in enumerate(_column(frames, "t", int, path).tolist()):
        _held(path, None, _frame_at, i, t)
    ids = _values(frames, "ids", path)
    if any(type(row) is not list for row in ids):
        raise FormatError("'ids' must be an array", path=path)
    flat = iter(_numbers(list(chain.from_iterable(ids)), "ids", int, path).tolist())
    return video_id, [list(islice(flat, len(row))) for row in ids]


# ---------------------------------------------------------------- candidates

def save_candidates(path: str, video_id: str, candidates: list[CandidateTube]) -> None:
    _string(video_id, "video_id")
    for c in candidates:
        _string(c.category, "category")
    columns = [(np.array([r.box.to_list() for r in c.records]),
                np.array([r.score for r in c.records], dtype=float), c.appearance[None, :])
               for c in candidates]
    _check_finite(path, chain.from_iterable(columns))

    def candidate_text(c: CandidateTube, boxes, scores, appearance) -> str:
        records = ",".join(
            f'{{"t":{_encode(path, r.t)},"box":{box},"score":{score}'
            + (',"interpolated":true}' if r.interpolated else "}")
            for r, box, score in zip(c.records, _f9_text(boxes, ","), _f9_text(scores, ",")))
        return (f'{{"category":{_encode(path, c.category)},'
                f'"span":{_encode(path, [c.span[0], c.span[1]], _DOC)},'
                f'"records":[{records}],"appearance":{_f9_text(appearance, ",")[0]}}}')

    text = ",".join(candidate_text(c, *cols) for c, cols in zip(candidates, columns))
    _write(path, [f'{{"video_id":{_encode(path, video_id)},"candidates":[{text}]}}\n'])


def load_candidates(path: str) -> tuple[str, list[CandidateTube]]:
    obj = _load_json_doc(path)
    video_id = _str_field(obj, "video_id", path)
    out = []
    for c in _list_field(obj, "candidates", path):
        span = _require(c, "span", path)
        if not (isinstance(span, list) and len(span) == 2):
            raise FormatError(f"span must be a 2-element array, got {span!r}", path=path)
        raw = _list_field(c, "records", path)
        flags = _values(raw, "interpolated", path, default=False)
        if bad := [flag for flag in flags if type(flag) is not bool]:   # bool("false") is True
            raise FormatError(f"'interpolated' must be true or false, got {bad[0]!r}", path=path)
        columns = (_column(raw, "t", int, path).tolist(),
                   _column(raw, "box", list, path, width=4, bad=_BAD_BOX).tolist(),
                   _column(raw, "score", float, path).tolist(), flags)
        appearance = _column([c], "appearance", list, path,
                             bad="'appearance' must be an array of numbers")[0]
        records = [CandidateRecord(t, _held(path, None, Box, *box), score, flag)
                   for t, box, score, flag in zip(*columns)]
        out.append(_held(path, None, CandidateTube, _str_field(c, "category", path),
                         tuple(_numbers(span, "span", int, path).tolist()), records, appearance))
    return video_id, out


# ------------------------------------------------------------------- reports

def save_report(path: str, doc: dict) -> None:
    """Reports are plain JSON documents; floats must already be f9-rounded."""
    _write_doc(path, doc)
