"""Confidence machinery (Eq. 18-21), adaptive padding and the error band."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.cluster.scheduler import PredictionLog, share_within
from repro.forecast.confidence import PredictionErrorTracker, z_value
from repro.forecast.padding import AdaptivePadding

#: ``scipy.stats.norm.ppf(1 - (1 - η) / 2)`` (scipy 1.17.1), transcribed.
SCIPY_Z = {
    0.5: 0.6744897501960817,
    0.6: 0.8416212335729143,
    0.7: 1.0364333894937898,
    0.8: 1.2815515655446004,
    0.9: 1.6448536269514722,
    0.95: 1.959963984540054,
}


class TestZValue:
    def test_known_quantiles(self):
        for eta, z in SCIPY_Z.items():
            assert z_value(eta) == pytest.approx(z, rel=1e-15), eta

    def test_monotone_in_confidence(self):
        assert z_value(0.9) > z_value(0.8) > z_value(0.5)

    def test_invalid(self):
        for eta in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                z_value(eta)

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys, repro; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[]"


class TestErrorTracker:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            PredictionErrorTracker(window=1)

    def test_record_returns_delta(self):
        tracker = PredictionErrorTracker()
        assert tracker.record(predicted=1.0, actual=1.5) == pytest.approx(0.5)

    def test_sigma_needs_two_samples(self):
        tracker = PredictionErrorTracker()
        assert tracker.sigma() == 0.0
        tracker.record(0.0, 1.0)
        assert tracker.sigma() == 0.0
        tracker.record(0.0, 3.0)
        assert tracker.sigma() == pytest.approx(np.std([1.0, 3.0], ddof=1))

    def test_window_evicts_old(self):
        tracker = PredictionErrorTracker(window=3)
        for v in (1.0, 2.0, 3.0, 10.0):
            tracker.record(0.0, v)
        assert tracker.n_samples == 3
        assert tracker.sigma() == pytest.approx(np.std([2.0, 3.0, 10.0], ddof=1))

    def test_probability_within(self):
        tracker = PredictionErrorTracker()
        for d in (0.1, 0.2, 0.6, -0.1):
            tracker.record(0.0, d)
        assert tracker.probability_within(0.5) == pytest.approx(0.5)

    def test_probability_empty(self):
        # Undefined without samples — NaN, not a confident 0.0.
        assert np.isnan(PredictionErrorTracker().probability_within(0.5))

    def test_probability_bad_tolerance(self):
        with pytest.raises(ValueError):
            PredictionErrorTracker().probability_within(0.0)

    def test_seed(self):
        tracker = PredictionErrorTracker()
        tracker.seed(np.array([0.1, 0.2, 0.3]))
        assert tracker.n_samples == 3


class TestAdaptivePadding:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePadding(window=1)
        with pytest.raises(ValueError):
            AdaptivePadding(percentile=0.0)

    def test_empty_pads_zero(self):
        assert AdaptivePadding().pad() == 0.0

    def test_burst_pad_tracks_spikes(self):
        pad = AdaptivePadding(window=20, percentile=90)
        for v in [1.0] * 15 + [5.0] * 5:
            pad.observe_usage(v)
        assert pad.burst_pad() > 1.0

    def test_constant_usage_no_burst_pad(self):
        pad = AdaptivePadding()
        for _ in range(10):
            pad.observe_usage(3.0)
        assert pad.burst_pad() == pytest.approx(0.0)

    def test_error_pad_only_counts_underprediction(self):
        pad = AdaptivePadding()
        pad.observe_error(predicted=5.0, actual=3.0)  # over-predicted: no pad
        assert pad.error_pad() == 0.0
        pad.observe_error(predicted=3.0, actual=5.0)  # under: shortfall 2
        assert pad.error_pad() > 0.0

    def test_pad_is_max_of_components(self):
        pad = AdaptivePadding(percentile=100)
        for v in (1.0, 1.0, 2.0):
            pad.observe_usage(v)
        pad.observe_error(2.0, 6.0)
        assert pad.pad() == pytest.approx(max(pad.burst_pad(), pad.error_pad()))


class TestErrorMetrics:
    def test_prediction_error_rate_band(self):
        # errors: 0.1 ok, -0.1 bad, 0.6 bad, 0.0 ok with eps 0.5
        assert share_within([0.1, -0.1, 0.6, 0.0], 0.5) == pytest.approx(0.5)

    def test_error_rate_validation(self):
        with pytest.raises(ValueError):
            share_within([1.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            share_within([1.0], -0.5)
        assert np.isnan(share_within([], 0.5))

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=20))
    def test_error_rate_in_unit_interval(self, deltas):
        assert 0.0 <= share_within(deltas, 0.5) <= 1.0


def _log_error_rate(deltas, tolerance):
    log = PredictionLog()
    for delta in deltas:
        log.add(predicted=0.0, actual=delta)
    return log.error_rate(tolerance)


def _tracker_error_rate(deltas, tolerance):
    tracker = PredictionErrorTracker()
    tracker.seed(np.asarray(deltas, dtype=np.float64))
    return 1.0 - tracker.probability_within(tolerance)


#: Fig. 6's error rate and Eq. 21's gate probability, each as an error
#: rate over the same δ samples.
ERROR_RATES = {
    "prediction_log": _log_error_rate,
    "tracker": _tracker_error_rate,
}


class TestOneBand:
    @pytest.mark.parametrize("error_rate", ERROR_RATES.values(), ids=ERROR_RATES.keys())
    def test_band_boundaries(self, error_rate):
        assert error_rate([0.0], 0.5) == 0.0  # δ = 0 is conservative and close
        assert error_rate([0.5], 0.5) == 1.0  # δ = ε is outside [0, ε)
        assert error_rate([-1e-12], 0.5) == 1.0  # any over-prediction is wrong

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=50))
    def test_callers_agree(self, deltas):
        rates = {name: rate(deltas, 0.5) for name, rate in ERROR_RATES.items()}
        assert len(set(rates.values())) == 1, rates
