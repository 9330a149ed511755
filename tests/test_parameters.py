"""The parameter rule: every config field and scalar argument is an int by
the rule of `integer` or a number by the rule of `number`, inside one
interval, or a ValidationError.

The intervals below are written out here, apart from the code, as the
oracle.  Each field is tried with a string, a bool, NaN, a fractional value
where an int is due, and the values just outside each end; the values just
inside each end must pass and be held in normal form.
"""
import ast
import json
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import tubekit
from conftest import make_smooth_tube
from tubekit import (AssociationConfig, AutolabelConfig, Box, CandidateRecord,
                     CandidateTube, CostWeights, ExposureConfig, FormatError,
                     FrameDetections, GtTube, LossWeights, MinedTube, Prediction,
                     SceneConfig, Tube, TubeMemory, ValidationError,
                     assemble_annotation, coverage_filter, evaluate, grad_check,
                     p_error_free, run_association, split_fifths, t_iou)
from tubekit.formats import load_detections, save_detections
from tubekit.geometry import within

TUBE = make_smooth_tube(3)
SAMPLE = (Prediction(0, 1, 0, [[0.1, 0.1, 0.5, 0.5]] * 2),
          GtTube(0, 1, [[0.1, 0.1, 0.5, 0.5]] * 2))

# name -> (callable taking keywords, the keywords of a valid call)
TARGETS = {
    "AssociationConfig": (AssociationConfig, {}),
    "AutolabelConfig": (AutolabelConfig, {}),
    "CostWeights": (CostWeights, {}),
    "LossWeights": (LossWeights, {}),
    "SceneConfig": (SceneConfig, {"seed": 0}),
    "ExposureConfig": (ExposureConfig,
                       {"sequence_length": 20, "per_step_error": 0.1, "trials": 10}),
    "p_error_free": (p_error_free, {"length": 10, "per_step_error": 0.1}),
    "grad_check": (lambda h: grad_check(TUBE, h), {"h": 1e-6}),
    "evaluate": (lambda threshold: evaluate([SAMPLE], (threshold,)), {"threshold": 0.5}),
}

# (target, field, kind, interval, largest value accepted if not the interval's)
PARAMETERS = [
    ("AssociationConfig", "n_q", int, "[1, inf)", None),
    ("AssociationConfig", "alpha", float, "[0, 1]", None),
    ("AutolabelConfig", "appearance_threshold", float, "[-1, 1]", None),
    ("AutolabelConfig", "coverage_threshold", float, "(0, 1]", None),
    *[("CostWeights", key, float, "[0, inf)", None)
      for key in ("w_cls", "w_bbox", "w_giou", "w_temp")],
    *[("LossWeights", key, float, "[0, inf)", None) for key in ("w_temp", "w_feat")],
    ("SceneConfig", "seed", int, "[0, inf)", None),
    ("SceneConfig", "frames", int, "[2, inf)", None),
    ("SceneConfig", "objects", int, "[1, inf)", None),
    ("SceneConfig", "feature_dim", int, "[2, inf)", None),
    *[("SceneConfig", key, float, "[0, inf)", None)
      for key in ("appearance_drift", "motion_step", "detection_noise",
                  "confidence_noise", "distractor_rate")],
    ("ExposureConfig", "sequence_length", int, "[1, inf)", None),
    ("ExposureConfig", "per_step_error", float, "[0, 1)", None),
    ("ExposureConfig", "trials", int, "[1, inf)", None),
    ("ExposureConfig", "drift_step", float, "[0, inf)", None),
    ("ExposureConfig", "token_budget", int, "[1, inf)", None),
    ("ExposureConfig", "seed", int, "[0, inf)", None),
    ("p_error_free", "length", int, "[1, inf)", None),
    ("p_error_free", "per_step_error", float, "[0, 1)", None),
    # A larger step moves the probe's feature rows out of the float range.
    ("grad_check", "h", float, "(0, inf)", 1.0),
    ("evaluate", "threshold", float, "[0, 1]", None),
]


def edges(kind, interval: str, largest):
    """(values just outside the interval, values just inside it)."""
    lo, hi = (float(b) for b in interval[1:-1].split(", "))
    if kind is int:   # no open end but inf's; past inf is past 64 bits
        return [int(lo) - 1, 2 ** 63], [int(lo), 2 ** 63 - 1]
    below, above = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
    first, last = np.nextafter(lo, math.inf), np.nextafter(hi, -math.inf)
    return ([below if interval[0] == "[" else lo, above if interval[-1] == "]" else hi],
            [lo if interval[0] == "[" else first,
             largest or (hi if interval[-1] == "]" else last)])


@pytest.mark.parametrize("target, key, kind, interval, largest", PARAMETERS,
                         ids=[f"{t}.{k}" for t, k, *_ in PARAMETERS])
def test_parameter_rule(target, key, kind, interval, largest):
    make, valid = TARGETS[target]
    refused, accepted = edges(kind, interval, largest)
    for value in ["0.5", True, math.nan, *refused, *([2.5] if kind is int else [])]:
        with pytest.raises(ValidationError):
            make(**{**valid, key: value})
    for value in accepted:
        held = make(**{**valid, key: value})
        if isinstance(make, type):   # held in normal form
            assert type(getattr(held, key)) is kind and getattr(held, key) == value


def test_every_config_field_is_covered():
    configs = {name for name in tubekit.__all__ if name.endswith(("Config", "Weights"))}
    assert configs == {t for t in TARGETS if isinstance(TARGETS[t][0], type)}
    for name in configs:
        covered = {key for t, key, *_ in PARAMETERS if t == name}
        assert {f.name for f in fields(getattr(tubekit, name))} == covered, name


def test_normal_form():
    assert (n_q := AssociationConfig(n_q=2.0).n_q) == 2 and type(n_q) is int
    assert type(AssociationConfig(n_q=np.int64(2)).n_q) is int
    assert type(CostWeights(w_cls=1).w_cls) is float
    assert type(SceneConfig(seed=np.uint8(3)).seed) is int


@pytest.mark.parametrize("interval, value, message", [
    ("[1, inf)", 0, "x must be at least 1, got 0"),
    ("(0, inf)", math.nan, "x must be a positive finite number, got nan"),
    ("[0, inf)", math.inf, "x must be a nonnegative finite number, got inf"),
    ("[0, 1)", 1.0, "x must lie in [0, 1), got 1.0"),
    ("(0, 1]", 0, "x must lie in (0, 1], got 0.0"),
])
def test_messages_are_built_from_the_interval(interval, value, message):
    kind = int if interval == "[1, inf)" else float
    with pytest.raises(ValidationError) as err:
        within(value, "x", interval, kind)
    assert str(err.value) == message


# The column rule: a bounded holder column goes through `within` with the
# frame of each row, so a refusal is the scalar rule's, after the place.
ROWS = np.array([[0.1, 0.1, 0.5, 0.5]] * 2)
BOX = Box(0.1, 0.1, 0.5, 0.5)


def _detections_fps(v, path):
    save_detections(str(path), "v", 25.0, [FrameDetections(0, ROWS[:1], [0.5], [[1.0]])])
    path.write_text(path.read_text().replace('"fps": 25.0', f'"fps": {json.dumps(v)}', 1))
    return load_detections(str(path))[0]["fps"]


# name -> (holder with `v` as its column's last value, returning the value
# held; kind; interval; key; the place a refusal names)
COLUMNS = {
    "FrameDetections.scores": (lambda v, _: FrameDetections(3, ROWS, [0.5, v], [[1.0]] * 2)
                               .scores[-1], float, "[0, 1]", "score", "frame 3: "),
    "Tube.scores": (lambda v, _: Tube(2, [4, 7], ROWS, [0.5, v], [0, 0]).scores[-1],
                    float, "[0, 1]", "score", "tube 2 frame 7: "),
    "Tube.det": (lambda v, _: Tube(2, [4, 7], ROWS, [0.5, 0.5], [0, v]).det[-1],
                 int, "[-1, inf)", "det", "tube 2 frame 7: "),
    "Tube.features": (lambda v, _: Tube(2, [4, 7], ROWS, [0.5, 0.5], [0, 0],
                                        [[1.0, 2.0], [1.0, v]]).features[-1, -1],
                      float, "(-inf, inf)", "embed", "tube 2 frame 7: "),
    "CandidateTube.records.score": (
        lambda v, _: CandidateTube("c", (4, 5), [CandidateRecord(4, BOX, 0.5),
                                                 CandidateRecord(5, BOX, v)],
                                   np.array([1.0])).records[-1].score,
        float, "[0, 1]", "score", "frame 5: "),
    "detections.fps": (_detections_fps, float, "(0, inf)", "fps", "{path}:1: "),
}


@pytest.mark.parametrize("column", list(COLUMNS))
def test_column_rule(column, tmp_path):
    build, kind, interval, key, place = COLUMNS[column]
    path = tmp_path / "d.jsonl"
    refused, accepted = edges(kind, interval, None)
    for value in [*refused, math.nan, math.inf, -math.inf, "0.5", True]:
        with pytest.raises(ValidationError) as scalar:
            within(value, key, interval, kind)
        with pytest.raises((ValidationError, FormatError)) as err:
            build(value, path)
        assert str(err.value) == place.format(path=path) + str(scalar.value)
    for value in accepted:
        held = build(value, path)
        if kind is int:
            assert held == value
        else:
            assert float(held).hex() == float(value).hex()


def _holders() -> dict:
    """One instance of each holder: a class in tubekit.__all__ that checks
    what it holds (__post_init__) and holds an array."""
    frame = FrameDetections(0, ROWS, [0.5, 0.7], [[1.0, 0.0], [0.0, 1.0]])
    return {
        "FrameDetections": frame,
        "Tube": run_association([frame], AssociationConfig(n_q=2))[0],
        "TubeMemory": TubeMemory([[1.0, 0.0]]),
        "CandidateTube": CandidateTube("c", (0, 0), [CandidateRecord(0, BOX, 0.5)],
                                       [1.0, 0.0]),
        "GtTube": GtTube(0, 1, ROWS.tolist()),
        "Prediction": Prediction(0, 1, 0, ROWS.tolist()),
        "MinedTube": MinedTube([[1.0, 0.0], [0.0, 1.0]], ROWS.tolist()),
    }


def test_every_holder_keeps_its_arrays_read_only():
    holders = _holders()
    expected = {name for name in tubekit.__all__
                if is_dataclass(cls := getattr(tubekit, name)) and "__post_init__" in vars(cls)
                and any("ndarray" in str(f.type) for f in fields(cls))}
    assert set(holders) == expected
    for name, holder in holders.items():
        arrays = [k for k, v in vars(holder).items() if isinstance(v, np.ndarray)]
        assert arrays, name
        for key in arrays:
            assert not getattr(holder, key).flags.writeable, f"{name}.{key}"


def test_hold_is_the_one_store():
    # geometry.hold is the one writer of a frozen holder's fields: no other
    # code calls object.__setattr__, nor freezes an array with setflags.
    sites = {}
    for path in sorted(Path(tubekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        hold = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "hold"]
        inside = {id(n) for h in hold for n in ast.walk(h)} if path.name == "geometry.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    (name := ast.unparse(node.func)) == "object.__setattr__"
                    or name.endswith(".setflags")):
                sites[f"{path.name}:{node.lineno}"] = id(node) in inside
    assert sorted(sites.values()) == [True, True], sites


def test_reports_are_rounded_in_one_place():
    # save_report rounds every float of a report, so no module but formats
    # calls f9: a command passes its results as the library returns them.
    callers = set()
    for path in sorted(Path(tubekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "f9":
                callers.add(path.name)
    assert callers == {"formats.py"}


def test_lines_are_split_in_one_place():
    # formats._iter_jsonl reads every JSONL file a line at a time, as
    # text-mode reading ends lines; str.splitlines also breaks at form
    # feeds, U+2028 and more, so no module calls it.
    callers = set()
    for path in sorted(Path(tubekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "splitlines":
                callers.add(path.name)
    assert callers == set()


CANDIDATE = CandidateTube("c", (0, 9), [CandidateRecord(t, BOX, 0.5) for t in range(10)],
                          np.array([1.0]))
# Each interval argument, given the bounds (s, e).
INTERVALS = {
    "t_iou.a": lambda s, e: t_iou((s, e), (0, 9)),
    "t_iou.b": lambda s, e: t_iou((0, 9), (s, e)),
    "split_fifths": split_fifths,
    "coverage_filter": lambda s, e: coverage_filter(CANDIDATE, (s, e)),
    "assemble_annotation": lambda s, e: assemble_annotation([CANDIDATE], (s, e)),
}


@pytest.mark.parametrize("call", list(INTERVALS))
def test_interval_bounds_follow_the_integer_rule(call):
    # t_iou((0, 9.5), (0, 9)) was 0.952, split_fifths(0, 9.5) gave float
    # parts and assemble_annotation died on a float slice index.
    INTERVALS[call](0, 9.0)   # an integral float is an int
    for value in [9.5, True, "3", 2 ** 63]:
        for bounds in [(0, value), (value, 20)]:
            with pytest.raises(ValidationError, match="^'(interval|s|e)' must be an integer"):
                INTERVALS[call](*bounds)


# Each interval argument, given whole.
PAIRS = {
    "t_iou.a": lambda pair: t_iou(pair, (0, 9)),
    "t_iou.b": lambda pair: t_iou((0, 9), pair),
    "coverage_filter": lambda pair: coverage_filter(CANDIDATE, pair),
    "assemble_annotation": lambda pair: assemble_annotation([CANDIDATE], pair),
}


@pytest.mark.parametrize("call", list(PAIRS))
def test_interval_must_be_a_pair(call):
    # (0, 1, 2) was "too many values to unpack", and 5 "'int' object is not
    # iterable": a bare ValueError or TypeError.
    PAIRS[call]([0, 9.0])   # any sequence of two ints
    for value, message in [((0, 1, 2), "interval must be a 2-element array, got (0, 1, 2)"),
                           ((4,), "interval must be a 2-element array, got (4,)"),
                           (5, "'interval' must be an array of integers, got 5"),
                           ("09", "'interval' must be an integer, got '0'"),
                           (((0, 1), (2, 3)), "'interval' must be an integer, got (0, 1)")]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            PAIRS[call](value)


def test_every_public_dataclass_is_documented():
    # A dataclass without a docstring gets one built from inspect.signature
    # at import, which costs each CLI start time and says nothing.
    undocumented = []
    for path in sorted(Path(tubekit.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                    and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                    and not ast.get_docstring(node)):
                undocumented.append(f"{path.name}:{node.name}")
    assert undocumented == []
