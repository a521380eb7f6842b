"""The series kernels answer every row exactly as the one-series classes.

``repro.forecast.kernels`` replaced the per-series ``Forecaster``
classes, which live on in ``tests/forecast/oracles`` as the oracle: for
any block, row ``i`` of a kernel must be the bits the class computes on
``block[i]`` alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forecast.kernels import (
    by_length,
    fft_signature,
    holt_path,
    markov_forecast,
    ses_level,
)

from .oracles.ets import HoltLinear, SimpleExponentialSmoothing
from .oracles.fft_signature import FftSignaturePredictor
from .oracles.markov_chain import MarkovChainPredictor


def make_block(n: int, length: int, seed: int) -> np.ndarray:
    """``n`` rows of noise, constants, periodic shapes and few-level steps."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 4, n)
    block = rng.uniform(0.0, 4.0, (n, length))
    const = kind == 1
    block[const] = rng.uniform(0.0, 4.0, (const.sum(), 1))
    periodic = np.flatnonzero(kind == 2)
    t = np.arange(length)
    for i in periodic:
        period = rng.integers(2, 8)
        block[i] = 2.0 + np.sin(2 * np.pi * t / period) + rng.normal(0, 0.05, length)
    steps = kind == 3
    block[steps] = rng.integers(0, 3, (steps.sum(), length)).astype(float)
    return block


blocks = st.builds(
    make_block,
    n=st.integers(1, 80),
    length=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)


def same_bits(got: np.ndarray, want: np.ndarray) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.flatnonzero(got != want)


class TestSesLevel:
    @settings(max_examples=60)
    @given(blocks, st.sampled_from([0.1, 0.3, 0.77, 1.0]))
    def test_each_row_is_the_class(self, block, alpha):
        want = [SimpleExponentialSmoothing(alpha).fit(row).forecast(6) for row in block]
        same_bits(ses_level(block, alpha), want)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ses_level(np.ones((1, 3)), 0.0)


class TestHoltPath:
    @settings(max_examples=60)
    @given(blocks, st.sampled_from([0.3, 0.8]), st.sampled_from([0.0, 0.1, 0.5]),
           st.integers(1, 8))
    def test_each_row_is_the_class(self, block, alpha, beta, horizon):
        want = [HoltLinear(alpha, beta).fit(row).forecast_path(horizon) for row in block]
        same_bits(holt_path(block, alpha, beta, horizon), want)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            holt_path(np.ones((1, 3)), 0.3, 1.5, 2)
        with pytest.raises(ValueError):
            holt_path(np.ones((1, 3)), 0.3, 0.1, 0)


class TestMarkovForecast:
    @settings(max_examples=60)
    @given(blocks, st.sampled_from([2, 5, 8]), st.integers(1, 8))
    def test_each_row_is_the_class(self, block, n_bins, horizon):
        want = [
            MarkovChainPredictor(n_bins).fit(row).forecast_path(horizon)
            for row in block
        ]
        got = markov_forecast(block, range(1, horizon + 1), n_bins)
        same_bits(got, want)

    def test_one_horizon_is_its_column_of_the_path(self):
        block = make_block(20, 15, seed=3)
        path = markov_forecast(block, range(1, 7))
        same_bits(markov_forecast(block, (6,))[:, 0], path[:, 5])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            markov_forecast(np.ones((1, 3)), (1,), n_bins=1)
        with pytest.raises(ValueError):
            markov_forecast(np.ones((1, 3)), (0,))


class TestFftSignature:
    @settings(max_examples=60)
    @given(blocks, st.sampled_from([0.15, 0.25, 0.6]), st.integers(2, 20),
           st.integers(1, 8))
    def test_each_row_is_the_class(self, block, threshold, max_period, horizon):
        want = []
        for row in block:
            fft = FftSignaturePredictor(threshold, max_period).fit(row)
            want.append(fft.forecast(horizon) if fft.has_signature else np.nan)
        same_bits(fft_signature(block, horizon, threshold, max_period), want)

    def test_periodic_rows_carry_a_signature(self):
        t = np.arange(30)
        block = np.array([2.0 + np.sin(2 * np.pi * t / p) for p in (3, 5, 6)])
        got = fft_signature(block, 6)
        assert not np.isnan(got).any()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            fft_signature(np.ones((1, 8)), 1, threshold=0.0)
        with pytest.raises(ValueError):
            fft_signature(np.ones((1, 8)), 1, max_period=1)


def test_by_length_keeps_input_order():
    series = [np.zeros(3), np.zeros(1), np.zeros(3), np.zeros(0)]
    assert by_length(series) == {3: [0, 2], 1: [1], 0: [3]}


@pytest.mark.parametrize("target", ["window_min", "window_mean", "point"])
def test_markov_family_matches_the_per_series_fit(target):
    """The ``markov`` family forecasts mixed-length series in blocks,
    each as the per-series fit it replaced."""
    from repro.forecast.jobwise import MarkovJobPredictor

    predictor = MarkovJobPredictor(prediction_target=target)
    rng = np.random.default_rng(5)
    series = [make_block(1, int(rng.integers(2, 7)), seed)[0] for seed in range(120)]
    want = []
    for unused in series:
        if np.ptp(unused) < 1e-12:
            want.append(float(unused[-1]))
            continue
        path = MarkovChainPredictor(predictor.n_bins).fit(unused).forecast_path(
            predictor.window_slots
        )
        want.append({"window_min": path.min(), "window_mean": path.mean(),
                     "point": path[-1]}[target])
    same_bits(predictor._forecast_fractions(series), want)
