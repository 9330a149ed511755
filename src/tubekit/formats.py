"""File formats: JSONL streams and JSON documents, loadable back bit-exact.

Floats are written with 9 significant digits everywhere, so identical inputs
produce byte-identical files.  A JSON document is written compact, on one
line, and a JSONL line with json.dumps' default separators.  Every array of
numbers becomes text in one place, _rows_text: each number of a row gets a
fixed cell of three uint64 words, key text fixed words, text that some rows
lack (a gap's null, "interpolated", a separator) words zeroed on the other
rows, and one pass drops the NUL bytes, leaving byte for byte what CPython's
C encoder writes for the f9-rounded floats and ints.  A writer makes one pass
per tube, candidate, GT, prediction or 32 frames of detections; headers,
strings and scalar fields go through the C encoder itself, and save_report
applies f9 to every float of a report, so no caller rounds.  Non-finite
numbers are refused on write, leaving no file, and so is whatever a reader
would refuse: a writer passes its ids, frame order and repeats through the
rule that the reader applies (_string, _frame_at, _video_once, _slots_once),
and label ids through the reader's own rule.  On read, this module checks
the layout only: JSON types, frame order, counts and repeats, and that each
box, embed or appearance is an array of numbers of its width (_column); it
keeps no number rule.  The holders it fills (FrameDetections, Tube, GtTube,
Prediction, CandidateTube) check every value, by geometry.integers,
geometry.numbers, geometry.within and the domain rules, finiteness included;
score, t and det columns reach them raw.  Every rule is a function of its
value alone and raises ValidationError; each loader names the place once,
with _at around a document's or a JSONL line's decode, which turns a refusal
into a FormatError at path[:LINE].  Only _iter_jsonl splits a file into
lines, numbered from 1, where text-mode reading ends them ("\n", "\r\n",
"\r"), so a U+2028 or form feed in a record is text.  Intervals in seconds
(ts_sec / te_sec) need the document's fps.

A tube file is decoded in one pass: the records of all its tubes make one
_values or _column call per key, and Tube.from_columns checks the columns
once and cuts them into tubes.  When that pass refuses, the same decoder
runs on one tube at a time, in file order, so the first tube at fault is
named, and tubes whose embeds differ in width or presence still load.  A
detections file is decoded _BLOCK lines at a time, each key once per
block, and FrameDetections.from_columns checks the clip's columns once and
cuts them into frames.  When anything refuses, the JSON of a later line
included, the same decoder runs again from the top on one line at a time,
checking each line's columns at its line, so the first line at fault is
named.
"""
from __future__ import annotations

import json
from contextlib import contextmanager, suppress
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .association import FrameDetections, Tube
from .autolabel import CandidateRecord, CandidateTube
from .errors import FormatError, ValidationError
from .geometry import Box, integer, integers, number, numbers, within
from .metrics import Prediction
from .mining import GtTube

SCHEMA_VERSION = 1


def f9(x: float) -> float:
    """Round to 9 significant digits; idempotent, so rereading is stable."""
    return float(f"{float(x):.9g}")


_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])   # 1e0 .. 1e22, all exact

# Number text is built in cells of 24 bytes, one per number, as three
# little-endian uint64 words A, B and C, and every NUL byte is then dropped.
# A float's cell: byte 0 the sign; 1-5 the "0." to "0.000" of a value below
# 1; its nine digits at bytes 6, 8, .. 20 and 21, the point after digit j at
# byte 7 + 2j; 22-23 the separator.  An int's cell: byte 0 the sign, and the
# twenty digits of its magnitude, leading zeros NUL, at bytes 4-23.
_n = np.arange(10_000, dtype=np.uint32)
_DIGITS4 = ((_n[:, None] // np.array([1000, 100, 10, 1], np.uint32) % 10 + ord("0"))
            .astype(np.uint8).view("<u4").ravel())          # n's four ASCII digits
_DIGIT_AT = np.r_[6:21:2, 21]                               # digit j of a float's cell


def _digits(word: int, strip: bool) -> np.ndarray:
    """Word B (1) or C (2) of the cell whose digits 4·word - 3 .. 4·word are
    n, for each n < 10_000; with strip, n's trailing zeros are NUL."""
    digits = _DIGITS4.view(np.uint8).reshape(-1, 4)
    if strip:   # a digit stays if it or a later one is not "0"
        digits = digits * np.logical_or.accumulate(digits[:, ::-1] > ord("0"), axis=1)[:, ::-1]
    words = np.zeros((10_000, 8), np.uint8)
    words[:, _DIGIT_AT[4 * word - 3:4 * word + 1] - 8 * word] = digits
    return words.view("<u8").ravel()


# Digits 1-4 as index mid + 10_000 * (low == 0), trailing zeros NUL only
# when digits 5-8 are all zeros; digits 5-8, trailing zeros NUL.
_MID = np.concatenate([_digits(1, False), _digits(1, True)])
_LOW = _digits(2, True)


def _points() -> tuple[np.ndarray, np.ndarray]:
    """The words of a float's cell that follow from e, the point after digit
    e, -4 <= e <= 6: word A with the sign bit s and the first digit d0, at
    index e·20 + s·10 + d0; and words B and C, one row each, at index e, of
    the point and of a "0" at each digit up to e + 1, kept though trailing.
    A negative index counts from the end, as numpy reads it."""
    cells = np.zeros((11, 24), np.uint8)
    for e in range(-4, 7):
        if e < 0:
            cells[e, 1:2 - e] = np.frombuffer(("0." + "0" * (-e - 1)).encode(), np.uint8)
        else:
            cells[e, 7 + 2 * e] = ord(".")
            cells[e, _DIGIT_AT[1:e + 2]] = ord("0")
    heads = np.broadcast_to(cells[:, None, None, :8], (11, 2, 10, 8)).copy()   # e, s, d0
    heads[:, 1, :, 0] = ord("-")
    heads[..., 6] = np.arange(10) + ord("0")
    return heads.view("<u8").ravel(), cells.view("<u8").T[1:].copy()


_HEADS, _POINTS = _points()
del _n


def _f9_cells(x: np.ndarray, out: np.ndarray, seps: np.ndarray) -> None:
    """Write into the cells `out`, shape x.shape + (3,), the JSON text the C
    encoder writes for f9 of each element of the finite array x, each
    followed by its separator, seps[j] for an element in column j.

    The encoder writes a float as float.__repr__, the shortest text that
    reads back as the same double.  With e = floor(log10|x|), the nine
    significant digits of x are k = rint(|x|·10^(8 - e)).  Any other decimal
    of nine digits or fewer lies at least 1e-9·|x| from k·10^(e - 8), and
    doubles are 2.2e-16·|x| apart, so the text of f9(x) is k's digits
    without their trailing zeros, with the point after digit e: "ddd.ddd",
    "ddd.0" or "0.000ddd", the positional form repr keeps for
    1e-4 <= |x| < 1e16.  k is exact only where the rounded product picks
    the same k as the exact one, so an element is written by repr(f9(|x|))
    instead when it is zero, when |x| lies outside [1e-4, 1e7), or when the
    product is within 1e-6 of a rounding tie.  The sign comes from the sign
    bit, so -0.0 is "-0.0".
    """
    shape = out.shape[:-1]
    x = x.ravel()
    mag = np.abs(x)
    with np.errstate(all="ignore"):   # log10(0), -inf as an int, and the slow path's product
        e = np.log10(mag)
        np.floor(e, out=e)
        fast = np.clip(e, -4.0, 6.0) == e
        e = e.astype(np.intp)
        e[~fast] = 0
        p = mag * _POW10[8 - e]
        k = np.rint(p)
        fast &= (p >= 1e8) & (p <= 1e9 - 1.0) & (np.abs(p - k) < 0.5 - 1e-6)
    k = np.where(fast, k, 1e8).astype(np.uint32)
    high = k // 10_000
    low = k - high * 10_000
    first = high // 10_000
    mid = high - first * 10_000
    out[..., 0] = _HEADS[e * 20 + np.signbit(x) * 10 + first].reshape(shape)
    np.bitwise_or(_MID[mid + (low == 0) * 10_000].reshape(shape), _POINTS[0][e].reshape(shape),
                  out=out[..., 1])
    np.bitwise_or(_LOW[low].reshape(shape), _POINTS[1][e].reshape(shape) | seps, out=out[..., 2])
    if not fast.all():
        slow = np.flatnonzero(~fast)
        text = "".join(repr(f9(v)).ljust(21, "\0") for v in mag[slow].tolist())
        out.view(np.uint8)[np.unravel_index(slow, shape) + (slice(1, 22),)] = (
            np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 21))


_POW10_4 = np.array([10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4, 1], np.uint64)
_LAST = np.arange(20) == 19


def _int_cells(v: np.ndarray, out: np.ndarray, negative: str | None) -> None:
    """Write into the cells `out`, shape (n, 3), the decimal text of each
    int64 of v, or, given `negative`, that text for a negative one."""
    neg = v < 0
    mag = np.abs(v).view(np.uint64)   # |-2**63| wraps to -2**63, whose bits are 2**63
    groups = -(-len(str(int(mag.max(initial=0)))) // 4)   # of four digits, the most any needs
    digits = _DIGITS4[mag[:, None] // _POW10_4[5 - groups:] % 10_000]
    b = digits.view(np.uint8)
    b *= np.logical_or.accumulate(b > ord("0"), axis=1) | _LAST[-4 * groups:]   # no leading zeros
    cells = out.view(np.uint32)
    cells[:, 0] = neg * ord("-")
    cells[:, 1:6 - groups] = 0
    cells[:, 6 - groups:] = digits
    if negative is not None:
        out[neg] = np.frombuffer(negative.encode().ljust(24, b"\0"), "<u8")


def _rows_text(n: int, fields, sep: str = ",") -> bytes:
    """The ASCII text of n rows, row i the text of each field in turn: a str
    as it is; of a float array, f9 of its row i, a 2-D row as its numbers
    joined by sep; of an int array, element i; of a pair (int array, text),
    element i, or the text where it is negative; of a pair (bool array,
    text), the text where element i is true, a pair's text 24 bytes at
    most.  Each field takes whole words of every row, so one uint64 array
    holds all rows, and one pass drops its NUL bytes."""
    widths = [-(-len(f) // 8) if isinstance(f, str) else 3 * (
        f.shape[1] if isinstance(f, np.ndarray) and f.ndim == 2 else 1) for f in fields]
    buf = np.empty((n, sum(widths)), np.uint64)
    at = 0
    for f, width in zip(fields, widths):
        words = buf[:, at:at + width]
        at += width
        if isinstance(f, str):
            words[:] = np.frombuffer(f.encode().ljust(8 * width, b"\0"), "<u8")
        elif isinstance(f, tuple) and f[0].dtype == bool:
            words[:] = np.frombuffer(f[1].encode().ljust(24, b"\0"), "<u8") * f[0][:, None]
        elif isinstance(f, tuple):
            _int_cells(f[0], words, f[1])
        elif f.dtype.kind in "iu":
            _int_cells(f, words, None)
        else:
            ends = [sep] * (width // 3 - 1) + [""]
            _f9_cells(f, words.reshape(n, width // 3, 3) if f.ndim == 2 else words, np.array(
                [int.from_bytes(s.encode(), "little") << 48 for s in ends], np.uint64))
    return buf.tobytes().translate(None, b"\0")


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
    """Write the chunks one after another, a str as UTF-8, bytes as they
    are, and no newline translated.  A refused write leaves no partial
    file, and a path that cannot be opened or written is a FormatError."""
    try:
        fh = open(path, "wb")
        try:
            with fh:
                fh.writelines(c.encode() if isinstance(c, str) else c for c in chunks)
        except BaseException:
            Path(path).unlink(missing_ok=True)
            raise
    except OSError as e:
        raise FormatError(f"cannot write file: {e}", path=path) from e


def _write_doc(path: str, doc: dict) -> None:
    """Write `doc` as one compact JSON line."""
    _write(path, [_encode(path, doc, _DOC) + "\n"])


def _require(obj: dict, key: str):
    try:
        return obj[key]
    except (KeyError, TypeError):   # TypeError: obj is not an object
        raise ValidationError(f"missing required key '{key}'") from None


def _list_field(obj: dict, key: str) -> list:
    if type(value := _require(obj, key)) is not list:
        raise ValidationError(f"'{key}' must be an array")
    return value


def _string(value, key: str) -> str:
    """value, refused unless it is a string: str() would take null as "None"
    and 3 as "3"."""
    if not isinstance(value, str):
        raise ValidationError(f"'{key}' must be a string, got {value!r}")
    return value


def _str_field(obj: dict, key: str) -> str:
    return _string(_require(obj, key), key)


def _frame_at(i: int, t) -> None:
    """The i-th frame of a detections or labels file must be frame t=i."""
    if t != i:
        raise ValidationError(f"expected frame t={i}, got t={t}")


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
_BAD_BOX = "bad box: every box must be an array of 4 numbers"


def _values(records: list, key: str, default=_REQUIRED, where: str = "") -> list:
    """The `key` of each record of a JSON record array, or `default` where a
    record lacks it; a record that is not an object, or a missing key
    without a default, is refused."""
    try:
        if default is _REQUIRED:
            return [r[key] for r in records]
        return [r.get(key, default) for r in records]
    except KeyError:
        raise ValidationError(f"{where}missing required key '{key}'") from None
    except (TypeError, AttributeError):   # a record that is not an object
        raise ValidationError(f"{where}every record must be an object") from None


def _field(obj: dict, key: str, rule):   # rule: geometry.integer or geometry.number
    return rule(_require(obj, key), key)


def _column(records: list, key: str, *, width: int | None = None, bad: str,
            where: str = "") -> np.ndarray:
    """The `key` of every record of a JSON record array, each an array of W
    numbers (geometry.numbers), W = width or any one width, as one (N, W)
    float column; else refused with `bad`, after `where`."""
    values = _values(records, key, where=where)
    if not values:
        return np.empty((0, width or 0))
    with suppress(ValidationError):
        if (rows := numbers(values, key)).ndim == 2 and width in (None, rows.shape[1]):
            return rows
    raise ValidationError(where + bad)


@contextmanager
def _at(path: str, line: int | None = None):
    """A refusal raised inside, by a decoder, a layout check or a holder,
    as a FormatError at path[:line]."""
    try:
        yield
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


def _load_json_doc(path: str) -> dict:
    with _open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"invalid JSON: {e.msg}", path=path, line=e.lineno) from e
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object at top level", path=path)
    return obj


def _iter_jsonl(path: str):
    """(line number, object) for each non-blank line of the file, lines
    counted from 1 as text-mode reading ends them, blank ones included, and
    read one at a time so that a large file is never held whole."""
    with _open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line or line.isspace():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise FormatError(f"invalid JSON: {e.msg}", path=path, line=lineno) from e
            if not isinstance(obj, dict):
                raise FormatError("expected a JSON object", path=path, line=lineno)
            yield lineno, obj


def _interval_from(obj: dict) -> tuple[int, int]:
    if "ts" in obj and "te" in obj:
        return _field(obj, "ts", integer), _field(obj, "te", integer)
    if "ts_sec" in obj and "te_sec" in obj:
        fps = within(_require(obj, "fps"), "fps", "(0, inf)")
        return tuple(round(within(_field(obj, key, number) * fps, f"{key} * fps", "(-inf, inf)"))
                     for key in ("ts_sec", "te_sec"))
    raise ValidationError("interval needs ts/te (frames) or ts_sec/te_sec plus fps")


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
    fps = number(fps, "fps")
    boxes, scores, features = (np.concatenate([getattr(fr, name) for fr in frames])
                               for name in ("boxes", "scores", "features"))
    _check_finite(path, [fps, boxes, scores, features])
    within(fps, "fps", "(0, inf)")
    starts = np.cumsum([0] + [len(fr.scores) for fr in frames])   # every frame has one
    last = np.isin(np.arange(len(scores)), starts - 1)   # a frame's last detection
    block = 32   # frames per text pass: one pass per clip measured slower

    def lines():
        yield (f'{{"video_id": {_encode(path, video_id)}, "fps": {_encode(path, f9(fps))}, '
               f'"frame_count": {len(frames)}, "feature_dim": {dim}}}\n')
        for b in range(0, len(frames), block):
            at = slice(starts[b], starts[min(b + block, len(frames))])
            text = _rows_text(at.stop - at.start, [
                '{"box": [', boxes[at], '], "score": ', scores[at], ', "embed": [', features[at],
                "]}", (~last[at], ", "), (last[at], "\n")], ", ")
            for t, dets in enumerate(text.decode("ascii").split("\n")[:-1], b):
                yield f'{{"t": {t}, "detections": [{dets}]}}\n'

    _write(path, lines())


# Lines per decode in a clip pass.  On 256 frames of some 18 detections,
# D=64, load_detections took a median 60.7 ms at 8 lines (and at 4), 62.7
# ms at 32; a pass over the whole clip holds all its parsed JSON, a traced
# peak of 16.9 MB against 5.5 MB at 8 lines.
_BLOCK = 8


def load_detections(path: str) -> tuple[dict, list[FrameDetections]]:
    try:
        return _detections_from(path, clip=True)
    except (FormatError, ValidationError):
        # One line at a time, from the top: the first line at fault is
        # named, even where a later line's JSON stopped the clip pass.
        return _detections_from(path, clip=False)


def _detections_from(path: str, clip: bool) -> tuple[dict, list[FrameDetections]]:
    """The header and frames of a detections file: with clip, the lines
    decoded _BLOCK at a time, and FrameDetections.from_columns checking
    the clip's columns once at the end; else one line at a time, and
    FrameDetections checking each line's at its line."""
    it = _iter_jsonl(path)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise FormatError("empty detections file", path=path) from None
    with _at(path, lineno):
        meta = {
            "video_id": _str_field(header, "video_id"),
            "fps": within(_require(header, "fps"), "fps", "(0, inf)"),
            "frame_count": _field(header, "frame_count", integer),
            "feature_dim": _field(header, "feature_dim", integer),
        }
    dim = meta["feature_dim"]
    count, blocks, frames = 0, [], []
    while lines := list(islice(it, _BLOCK if clip else 1)):
        with _at(path, lines[0][0]):   # in a clip pass, a refusal only starts the line pass
            block = _lines_columns([obj for _, obj in lines], count, dim)
            if clip:
                blocks.append(block)
            else:
                t, _, boxes, scores, embeds = block
                frames.append(FrameDetections(t[0], boxes, scores, embeds))
        count += len(lines)
    if count != meta["frame_count"]:
        raise FormatError(f"header promises {meta['frame_count']} frames, file has {count}",
                          path=path)
    if blocks:
        t, sizes, boxes, scores, embeds = zip(*blocks)
        del blocks
        boxes, embeds = np.concatenate(boxes), np.concatenate(embeds)   # frees the blocks' arrays
        frames = FrameDetections.from_columns(
            list(chain.from_iterable(t)), list(chain.from_iterable(sizes)), boxes,
            list(chain.from_iterable(scores)), embeds)
    return meta, frames


def _lines_columns(objs: list, count: int, dim: int) -> tuple:
    """The detections lines `objs`, frames count, count + 1, ..., decoded a
    key at a time: their t, detection counts, and their detections' box,
    score and embed columns laid end to end, scores raw.  One line gets the
    refusals a line gets alone, in the same order: t, detections, box,
    embed, score."""
    t = integers([_require(obj, "t") for obj in objs], "t").tolist()
    for i, ti in enumerate(t, count):
        _frame_at(i, ti)
    dets = [_list_field(obj, "detections") for obj in objs]
    flat = list(chain.from_iterable(dets))
    boxes = _column(flat, "box", width=4, bad=_BAD_BOX)
    embeds = _column(flat, "embed", width=dim,
                     bad=f"'embed' must be an array of numbers of length feature_dim ({dim})")
    return t, list(map(len, dets)), boxes, _values(flat, "score"), embeds


# ------------------------------------------------------------------ gt files

def _interval_boxes(obj: dict) -> tuple:
    """What a GT and a prediction share: (video_id, ts, te, t0, rows), their
    'boxes' [{"t": ..., "box": [...]}, ...] in any frame order as rows, row i
    the box of frame t0 + i.  A frame listed twice, or a frame missing
    between the first and the last, is refused.  No boxes give t0 = 0 and
    an empty (0, 4) array."""
    video_id = _str_field(obj, "video_id")
    ts, te = _interval_from(obj)
    items = _list_field(obj, "boxes")
    t = integers(_values(items, "t"), "t").tolist()
    rows = _column(items, "box", width=4, bad=_BAD_BOX)
    if t and t != list(range(t[0], t[0] + len(t))):   # not already one frame after another
        order = sorted(range(len(t)), key=t.__getitem__)
        t, rows = [t[i] for i in order], rows[order]
        if twice := [a for a, b in zip(t, t[1:]) if a == b]:
            raise ValidationError(f"frame {twice[0]} has more than one box")
        if missing := list(islice(chain.from_iterable(range(a + 1, b)
                                                      for a, b in zip(t, t[1:])), 5)):
            raise ValidationError(f"boxes must cover a contiguous frame range; missing boxes at "
                                  f"frames {missing}")
    return video_id, ts, te, (t[0] if t else 0), rows


def _interval_text(path: str, video_id: str, ts: int, te: int, t0: int, boxes, encoder) -> str:
    """A GT (encoder _DOC) or a prediction (_LINE) as one line, box i the
    box of frame t0 + i: the encoder's text with no boxes, less its "[]}",
    then the box array."""
    sep, colon = encoder.item_separator, encoder.key_separator
    head = _encode(path, {"video_id": video_id, "ts": ts, "te": te, "boxes": []}, encoder)[:-3]
    text = _rows_text(len(boxes), ['{"t"' + colon, np.arange(len(boxes)) + t0,
                                   sep + '"box"' + colon + "[", boxes, "]}" + sep], sep)
    return head + "[" + text.decode("ascii")[:len(text) - len(sep)] + "]}\n"   # no last sep


def save_gt(path: str, video_id: str, gt: GtTube) -> None:
    _string(video_id, "video_id")
    _check_finite(path, [gt.boxes])
    _write(path, [_interval_text(path, video_id, gt.ts, gt.te, gt.ts, gt.boxes, _DOC)])


def _gt_misfit(ts: int, te: int, t0: int, n: int) -> str:
    """Why boxes on frames t0 .. t0 + n - 1 do not fill [ts, te]: the first
    five GT frames without a box or, failing those, with a box outside."""
    have = range(t0, t0 + n)
    # The first five missing frames lie within n + 5 of ts.
    missing = [t for t in range(ts, min(te, ts + n + 4) + 1) if t not in have]
    if missing:
        return f"GT interval is missing boxes at frames {missing[:5]}"
    return f"GT has boxes outside its interval at frames {[t for t in have if not ts <= t <= te][:5]}"


def _gt_from_obj(obj: dict) -> tuple[str, GtTube]:
    video_id, ts, te, t0, rows = _interval_boxes(obj)
    if ts <= te and (t0, len(rows)) != (ts, te - ts + 1):
        raise ValidationError(_gt_misfit(ts, te, t0, len(rows)))
    return video_id, GtTube(ts, te, rows)


def load_gt(path: str) -> tuple[str, GtTube]:
    obj = _load_json_doc(path)
    with _at(path):
        return _gt_from_obj(obj)


def load_gt_collection(path: str) -> list[tuple[str, GtTube]]:
    """One GT per line (JSONL), or a single GT document (JSON).

    The file is JSONL when its first non-blank line, as _iter_jsonl reads
    it, is a JSON object on its own; otherwise it is decoded as one
    document, so a syntax error is reported at its own line either way.
    """
    lines = _iter_jsonl(path)
    try:
        head = next(lines)
    except StopIteration:
        raise FormatError("empty ground-truth file", path=path) from None
    except FormatError as e:
        if e.line is None:   # the file cannot be read
            raise
        obj = _load_json_doc(path)
        with _at(path):
            return [_gt_from_obj(obj)]
    return _one_per_video(path, chain([head], lines), _gt_from_obj)


def _one_per_video(path: str, numbered, decode) -> list:
    """decode(obj), a (video_id, item), of each (line, obj), in order, a
    refusal at its line; a video_id that an earlier line holds is refused
    at its second line."""
    lines: dict[str, int] = {}
    out = []
    for lineno, obj in numbered:
        with _at(path, lineno):
            out.append(decode(obj))
            _video_once(lines, out[-1][0], lineno)
    return out


# ---------------------------------------------------------------- tube files

def save_tubes(path: str, video_id: str, tubes: list[Tube],
               include_embeds: bool = False) -> None:
    """Write the tube file one tube at a time, each tube's records in one
    array pass (_rows_text)."""
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

    def records(tube: Tube) -> memoryview:
        fields = ['{"t":', tube.t, ',"box":[', tube.boxes, '],"score":', tube.scores,
                  ',"det":', (tube.det, "null")]
        if include_embeds and len(tube.t):
            fields += [',"embed":[', tube.features, "]"]
        return memoryview(_rows_text(len(tube.t), fields + ["},"]))[:-1]   # no "," after the last

    def chunks():
        yield f'{{"video_id":{_encode(path, video_id)},"n_q":{len(tubes)},"tubes":['
        for i, tube in enumerate(tubes):
            yield f'{"," if i else ""}{{"slot_id":{_encode(path, tube.slot_id)},"records":['
            yield records(tube)
            yield "]}"
        yield "]}\n"

    _write(path, chunks())


def load_tubes(path: str) -> tuple[str, list[Tube]]:
    obj = _load_json_doc(path)
    with _at(path):
        video_id = _str_field(obj, "video_id")
        n_q = _field(obj, "n_q", integer)
        entries = _list_field(obj, "tubes")
        try:
            tubes = _tubes_from(entries)
        except ValidationError:
            # One tube at a time, in file order: the first tube at fault is
            # named, and tubes whose embeds differ in width or presence load.
            tubes = [tube for entry in entries for tube in _tubes_from([entry])]
        if len(tubes) != n_q:
            raise ValidationError(f"header promises n_q={n_q} tubes, file has {len(tubes)}")
        _slots_once(tubes)
    return video_id, tubes


def _tubes_from(entries: list) -> list[Tube]:
    """The tubes of `entries`, their records decoded as one set of columns
    and checked once (Tube.from_columns); a refusal names the tube when
    there is one."""
    slot_ids = integers([_require(entry, "slot_id") for entry in entries], "slot_id").tolist()
    records = [_require(entry, "records") for entry in entries]
    if bad := [slot_id for slot_id, raw in zip(slot_ids, records) if type(raw) is not list]:
        raise ValidationError(f"tube {bad[0]}: records must be an array")
    where = f"tube {slot_ids[0]}: " if len(entries) == 1 else ""
    raw = list(chain.from_iterable(records))
    t = _values(raw, "t", where=where)   # raw: Tube applies its rules to t, score and det
    embeds = _values(raw, "embed", default=None)   # none at all: written without them
    if None in embeds and embeds.count(None) < len(embeds):
        frame = integers(t, "t", where)[embeds.index(None)]   # a bad t is refused first
        raise ValidationError(f"{where[:-2]} frame {frame}: embed missing, "
                              "but other records of the tube have one")
    features = None if None in embeds or not embeds else _column(
        raw, "embed", where=where, bad="every embed must be an array of numbers, all of one length")
    return Tube.from_columns(slot_ids, [len(r) for r in records], t,
                             _column(raw, "box", width=4, bad=_BAD_BOX, where=where),
                             _values(raw, "score", where=where),
                             [-1 if d is None else d for d in _values(raw, "det", None, where)],
                             features)


# -------------------------------------------------------------- predictions

def save_predictions(path: str, items: list[tuple[str, Prediction]]) -> None:
    if not items:
        raise ValidationError("refusing to write an empty predictions file")
    lines: dict[str, int] = {}
    for line, (video_id, _) in enumerate(items, 1):
        _video_once(lines, _string(video_id, "video_id"), line)
    _check_finite(path, [pred.boxes for _, pred in items])
    _write(path, [_interval_text(path, video_id, pred.ts, pred.te, pred.t0, pred.boxes, _LINE)
                  for video_id, pred in items])


def _prediction_from(obj: dict) -> tuple[str, Prediction]:
    video_id, ts, te, t0, rows = _interval_boxes(obj)
    return video_id, Prediction(ts, te, t0, rows)


def load_predictions(path: str) -> list[tuple[str, Prediction]]:
    out = _one_per_video(path, _iter_jsonl(path), _prediction_from)
    if not out:
        raise FormatError("empty predictions file", path=path)
    return out


# -------------------------------------------------------------- label files

def save_labels(path: str, video_id: str, identities: list[list[int]]) -> None:
    """Ids go through load_labels' decoder: an integral float is written as
    an integer, and any other id that it would refuse is refused."""
    ids = iter(integers(list(chain.from_iterable(identities)), "ids").tolist())
    _write_doc(path, {"video_id": _string(video_id, "video_id"),
                      "frames": [{"t": t, "ids": list(islice(ids, len(row)))}
                                 for t, row in enumerate(identities)]})


def load_labels(path: str) -> tuple[str, list[list[int]]]:
    obj = _load_json_doc(path)
    with _at(path):
        video_id = _str_field(obj, "video_id")
        frames = _list_field(obj, "frames")
        for i, t in enumerate(integers(_values(frames, "t"), "t").tolist()):
            _frame_at(i, t)
        ids = _values(frames, "ids")
        if any(type(row) is not list for row in ids):
            raise ValidationError("'ids' must be an array")
        flat = iter(integers(list(chain.from_iterable(ids)), "ids").tolist())
        return video_id, [list(islice(flat, len(row))) for row in ids]


# ---------------------------------------------------------------- candidates

def save_candidates(path: str, video_id: str, candidates: list[CandidateTube]) -> None:
    _string(video_id, "video_id")
    for c in candidates:
        _string(c.category, "category")
    columns = [(np.array([r.box.to_list() for r in c.records]),
                np.array([r.score for r in c.records], dtype=float), c.appearance[None, :],
                np.array([r.interpolated for r in c.records], dtype=bool))
               for c in candidates]
    _check_finite(path, chain.from_iterable(columns))

    def chunks():
        yield f'{{"video_id":{_encode(path, video_id)},"candidates":['
        for i, (c, (boxes, scores, appearance, flags)) in enumerate(zip(candidates, columns)):
            yield (f'{"," if i else ""}{{"category":{_encode(path, c.category)},'
                   f'"span":{_encode(path, [c.span[0], c.span[1]], _DOC)},"records":[')
            t = np.arange(len(boxes)) + c.span[0]   # the records cover the span
            yield memoryview(_rows_text(len(t), [
                '{"t":', t, ',"box":[', boxes, '],"score":', scores,
                (flags, ',"interpolated":true'), "},"]))[:-1]   # no "," after the last
            yield _rows_text(1, ['],"appearance":[', appearance, "]}"])
        yield "]}\n"

    _write(path, chunks())


def load_candidates(path: str) -> tuple[str, list[CandidateTube]]:
    obj = _load_json_doc(path)
    with _at(path):
        video_id = _str_field(obj, "video_id")
        out = []
        for c in _list_field(obj, "candidates"):
            span = _require(c, "span")   # CandidateTube applies its rule, `pair`
            raw = _list_field(c, "records")
            flags = _values(raw, "interpolated", default=False)
            if bad := [flag for flag in flags if type(flag) is not bool]:   # bool("false") is True
                raise ValidationError(f"'interpolated' must be true or false, got {bad[0]!r}")
            columns = (_values(raw, "t"),   # raw: CandidateRecord applies its rules to t and score
                       _column(raw, "box", width=4, bad=_BAD_BOX).tolist(),
                       _values(raw, "score"), flags)
            appearance = _column([c], "appearance",
                                 bad="'appearance' must be an array of numbers")[0]
            records = [CandidateRecord(t, Box(*box), score, flag)
                       for t, box, score, flag in zip(*columns)]
            out.append(CandidateTube(_str_field(c, "category"), span, records, appearance))
    return video_id, out


# ------------------------------------------------------------------- reports

def _rounded(value):
    """`value` with f9 applied to every float in it, dict keys included,
    however deeply nested; a dict whose keys coincide once rounded is refused."""
    if isinstance(value, dict):
        if len(out := {_rounded(k): _rounded(v) for k, v in value.items()}) < len(value):
            raise ValidationError(f"report keys {list(value)} coincide at 9 significant digits")
        return out
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return f9(value) if isinstance(value, float) else value


def save_report(path: str, doc: dict) -> dict:
    """Write `doc` with every float in it, dict keys included, however deeply
    nested, rounded by f9, and return it as written; NaN and infinity, and
    keys that coincide once rounded, are refused, leaving no file."""
    doc = _rounded(doc)
    _write_doc(path, doc)
    return doc


def save_drift(path: str, profiles: list[list[float]]) -> None:
    """The drift profiles as CSV: a header, then one row of five f9-rounded
    parts per profile, each line ending in CRLF, as the csv module writes."""
    parts = np.array(profiles, dtype=float).reshape(-1, 5)
    _check_finite(path, [parts])
    _write(path, [",".join(f"part_{i}" for i in range(1, 6)) + "\r\n",
                  _rows_text(len(parts), [parts, "\r\n"])])
