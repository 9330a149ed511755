"""The parameter rule: every config field and scalar argument is an int by
the rule of `integer` or a number by the rule of `number`, inside one
interval, or a ValidationError.

The intervals below are written out here, apart from the code, as the
oracle.  Each field is tried with a string, a bool, NaN, a fractional value
where an int is due, and the values just outside each end; the values just
inside each end must pass and be held in normal form.
"""
import math
from dataclasses import fields

import numpy as np
import pytest

import tubekit
from conftest import make_smooth_tube
from tubekit import (AssociationConfig, AutolabelConfig, CostWeights,
                     ExposureConfig, GtTube, LossWeights, Prediction,
                     SceneConfig, ValidationError, evaluate, grad_check,
                     p_error_free)
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
