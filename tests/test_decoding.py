"""Exposure-bias decoding model: clean-decode rates and drift profiles."""
import math

import numpy as np
import pytest

from tubekit.decoding import (DecodingReport, ExposureConfig, p_error_free,
                              simulate_decoding)
from tubekit.errors import ValidationError
BOX = [0.4, 0.4, 0.6, 0.6]
TRACK = np.array([BOX] * 10)


class TestPErrorFree:
    def test_known_value(self):
        exact, linear = p_error_free(100, 0.01)
        assert exact == pytest.approx(0.3660323412732292, abs=1e-15)
        assert linear == 0.0

    def test_zero_error(self):
        assert p_error_free(50, 0.0) == (1.0, 1.0)

    def test_single_step(self):
        exact, linear = p_error_free(1, 0.25)
        assert exact == 0.75
        assert linear == 0.75

    def test_monotone_in_length(self):
        vals = [p_error_free(n, 0.01)[0] for n in (1, 10, 100, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_error(self):
        vals = [p_error_free(100, e)[0] for e in (0.0, 0.001, 0.01, 0.1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_linearization_bound(self):
        # Second-order Taylor bound while L * eps stays below 1.
        for length, eps in [(50, 0.01), (200, 0.004), (10, 0.05)]:
            exact, linear = p_error_free(length, eps)
            assert abs(exact - linear) <= (length * eps) ** 2 / 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            p_error_free(0, 0.01)
        with pytest.raises(ValidationError):
            p_error_free(10, 1.0)


class TestExposureConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ExposureConfig(sequence_length=0, per_step_error=0.01, trials=10)
        with pytest.raises(ValidationError):
            ExposureConfig(sequence_length=10, per_step_error=-0.1, trials=10)
        with pytest.raises(ValidationError):
            ExposureConfig(sequence_length=10, per_step_error=0.1, trials=0)
        with pytest.raises(ValidationError):
            ExposureConfig(sequence_length=10, per_step_error=0.1, trials=5,
                           token_budget=0)


class TestSimulateDecoding:
    def test_budget_must_match_sequence_length(self):
        cfg = ExposureConfig(sequence_length=42, per_step_error=0.01, trials=10,
                             token_budget=4)
        with pytest.raises(ValidationError):
            simulate_decoding(cfg, TRACK)

    def test_needs_five_frames(self):
        cfg = ExposureConfig(sequence_length=16, per_step_error=0.01, trials=10,
                             token_budget=4)
        with pytest.raises(ValidationError):
            simulate_decoding(cfg, TRACK[:4])

    def test_zero_error_is_always_clean(self):
        cfg = ExposureConfig(sequence_length=40, per_step_error=0.0, trials=200,
                             token_budget=4, seed=3)
        report = simulate_decoding(cfg, TRACK)
        assert report.empirical_error_free == 1.0
        assert report.analytic_error_free == 1.0
        assert report.profile == [1.0] * 5

    def test_zero_drift_reproduces_truth(self):
        # Token errors still happen, but the walk has zero scale, so every
        # decoded box equals the true box.
        cfg = ExposureConfig(sequence_length=40, per_step_error=0.3, trials=500,
                             drift_step=0.0, token_budget=4, seed=5)
        report = simulate_decoding(cfg, TRACK)
        assert report.profile == [1.0] * 5
        assert report.empirical_error_free < 1.0

    def test_empirical_matches_analytic_within_three_se(self):
        trials = 4000
        for length, eps, budget in [(40, 0.01, 4), (100, 0.005, 4)]:
            cfg = ExposureConfig(sequence_length=length, per_step_error=eps,
                                 trials=trials, token_budget=budget, seed=11)
            track = [BOX] * (length // budget)
            report = simulate_decoding(cfg, track)
            p = report.analytic_error_free
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(report.empirical_error_free - p) <= 3 * se + 1e-12

    def test_profile_non_increasing_under_drift(self):
        # Once off the track the offset walk only accumulates variance, so
        # later fifths can never beat earlier ones by more than noise.
        cfg = ExposureConfig(sequence_length=200, per_step_error=0.02, trials=3000,
                             drift_step=0.05, token_budget=4, seed=7)
        track = [BOX] * 50
        report = simulate_decoding(cfg, track)
        for a, b in zip(report.profile, report.profile[1:]):
            assert b <= a + 1e-9
        assert report.profile[-1] < report.profile[0]

    def test_deterministic_for_fixed_seed(self):
        cfg = ExposureConfig(sequence_length=40, per_step_error=0.05, trials=300,
                             token_budget=4, seed=13)
        a = simulate_decoding(cfg, TRACK)
        b = simulate_decoding(cfg, TRACK)
        assert a == b

    def test_track_rows_checked(self):
        cfg = ExposureConfig(sequence_length=40, per_step_error=0.01, trials=10,
                             token_budget=4)
        with pytest.raises(ValidationError, match="no area"):
            simulate_decoding(cfg, [BOX] * 9 + [[0.5, 0.4, 0.5, 0.6]])

    def test_report_type(self):
        cfg = ExposureConfig(sequence_length=20, per_step_error=0.01, trials=50,
                             token_budget=2, seed=1)
        report = simulate_decoding(cfg, TRACK)
        assert isinstance(report, DecodingReport)
        assert len(report.profile) == 5
