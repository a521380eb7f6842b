"""The HMM correction path inside the predictor, exercised directly.

The ablation shows the correction is near-neutral statistically on this
workload; these tests pin that the *mechanism* works: a peak symbol
raises the forecast by the correction scale, a valley lowers it, and
the adjustment is clipped into [0, request].
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.resources import as_row, fits_within
from repro.core.predictor import CorpPredictor
from repro.hmm.discretize import CENTER, PEAK, VALLEY


class StubFluctuation:
    """Always-fitted fluctuation model with a forced symbol."""

    def __init__(self, symbol, scale=0.2):
        self.symbol = symbol
        self.scale = scale
        self.fitted = True

    def predict_next_symbols(self, recents):
        return np.full(len(recents), self.symbol)

    def correction(self, symbol):
        if symbol == PEAK:
            return self.scale
        if symbol == VALLEY:
            return -self.scale
        return 0.0


@pytest.fixture()
def predictor_with(fitted_predictor):
    def make(symbol):
        clone = CorpPredictor(
            config=fitted_predictor.config,
            networks=fitted_predictor.networks,
            fluctuation=[StubFluctuation(symbol) for _ in range(3)],
            seed_errors=fitted_predictor.seed_errors,
            prior_unused_fraction=fitted_predictor.prior_unused_fraction,
        )
        return clone

    return make


class TestCorrectionDirection:
    def test_peak_raises_forecast(self, predictor_with):
        util = np.full((12, 3), 0.5)
        request = as_row([4, 4, 4])
        base = predictor_with(CENTER).predict_job_unused(util, request)
        peak = predictor_with(PEAK).predict_job_unused(util, request)
        assert np.all(peak >= base)
        # The raise equals scale x request where unclipped.
        diff = peak - base
        assert diff.max() <= 0.2 * 4 + 1e-9

    def test_valley_lowers_forecast(self, predictor_with):
        util = np.full((12, 3), 0.5)
        request = as_row([4, 4, 4])
        base = predictor_with(CENTER).predict_job_unused(util, request)
        valley = predictor_with(VALLEY).predict_job_unused(util, request)
        assert np.all(valley <= base)

    def test_clipped_into_request_bounds(self, predictor_with):
        util = np.full((12, 3), 0.02)  # near-idle: base forecast near max
        request = as_row([4, 4, 4])
        peak = predictor_with(PEAK).predict_job_unused(util, request)
        assert fits_within(peak, request)
        util_busy = np.full((12, 3), 0.98)
        valley = predictor_with(VALLEY).predict_job_unused(util_busy, request)
        assert np.all(valley >= 0.0)

    def test_disabled_correction_ignores_symbols(
        self, fitted_predictor, predictor_with
    ):
        cfg = dataclasses.replace(fitted_predictor.config, use_hmm_correction=False)
        clone = predictor_with(PEAK)
        clone.config = cfg
        util = np.full((12, 3), 0.5)
        request = as_row([4, 4, 4])
        no_hmm = clone.predict_job_unused(util, request)
        base = predictor_with(CENTER).predict_job_unused(util, request)
        np.testing.assert_allclose(no_hmm, base)
