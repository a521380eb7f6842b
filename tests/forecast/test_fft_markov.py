"""FFT-signature and Markov-chain predictors (CloudScale's models)."""

import numpy as np
import pytest

from .oracles.fft_signature import FftSignaturePredictor
from .oracles.markov_chain import MarkovChainPredictor


def periodic_series(n=128, period=16, amp=2.0, base=5.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return base + amp * np.sin(2 * np.pi * t / period) + rng.normal(0, noise, n)


class TestFftSignature:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FftSignaturePredictor(signature_threshold=0.0)
        with pytest.raises(ValueError):
            FftSignaturePredictor(max_period=1)

    def test_detects_periodicity(self):
        fft = FftSignaturePredictor().fit(periodic_series())
        assert fft.has_signature
        assert fft.period == pytest.approx(16, abs=1)

    def test_forecast_continues_phase(self):
        series = periodic_series(n=128, period=16)
        fft = FftSignaturePredictor().fit(series)
        # One full period ahead must look like the last sample; a half
        # period ahead like the sample half a period back.
        assert fft.forecast(16) == pytest.approx(series[-1], abs=0.3)
        assert fft.forecast(8) == pytest.approx(series[-9], abs=0.3)

    def test_no_signature_on_noise(self):
        rng = np.random.default_rng(1)
        fft = FftSignaturePredictor(signature_threshold=0.3).fit(
            rng.normal(size=256)
        )
        assert not fft.has_signature

    def test_fallback_forecast_is_mean(self):
        rng = np.random.default_rng(2)
        series = rng.normal(5.0, 1.0, size=256)
        fft = FftSignaturePredictor(signature_threshold=0.5).fit(series)
        assert not fft.has_signature
        assert fft.forecast(3) == pytest.approx(series.mean())

    def test_constant_series_no_signature(self):
        fft = FftSignaturePredictor().fit(np.full(64, 3.0))
        assert not fft.has_signature
        assert fft.forecast() == pytest.approx(3.0)

    def test_short_series_no_signature(self):
        fft = FftSignaturePredictor().fit(np.array([1.0, 2.0, 1.0]))
        assert not fft.has_signature

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FftSignaturePredictor().forecast()

    def test_bad_horizon(self):
        fft = FftSignaturePredictor().fit(periodic_series())
        with pytest.raises(ValueError):
            fft.forecast(0)


class TestMarkovChain:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MarkovChainPredictor(n_bins=1)
        with pytest.raises(ValueError):
            MarkovChainPredictor(smoothing=-1.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MarkovChainPredictor().forecast()
        with pytest.raises(RuntimeError):
            MarkovChainPredictor().update(1.0)

    def test_transition_rows_stochastic(self):
        rng = np.random.default_rng(3)
        markov = MarkovChainPredictor(n_bins=6).fit(rng.uniform(0, 10, 200))
        np.testing.assert_allclose(markov._transition.sum(axis=1), 1.0)

    def test_constant_series(self):
        markov = MarkovChainPredictor(n_bins=4).fit(np.full(30, 2.0))
        # All mass in one bin; forecast must be near the value.
        assert markov.forecast(1) == pytest.approx(2.0, abs=1.0)

    def test_sticky_chain_short_horizon_prediction(self):
        # Alternating two-level series: one step ahead flips levels.
        series = np.tile([1.0, 9.0], 50)
        markov = MarkovChainPredictor(n_bins=2, smoothing=0.01).fit(series)
        # last value 9 -> next should be near 1.
        assert markov.forecast(1) < 5.0

    def test_long_horizon_converges_to_stationary_mean(self):
        # Section IV-A: multi-step Markov prediction loses correlation
        # with the actual state — the forecast drifts toward the mean.
        # A period-2 chain approaches it while oscillating, so compare
        # the average of two consecutive horizons and the contraction.
        series = np.tile([1.0, 9.0], 50)
        markov = MarkovChainPredictor(n_bins=2, smoothing=0.01).fit(series)
        pair_mean = 0.5 * (markov.forecast(49) + markov.forecast(50))
        assert pair_mean == pytest.approx(5.0, abs=0.5)
        assert abs(markov.forecast(50) - 5.0) < abs(markov.forecast(2) - 5.0)

    def test_state_distribution_normalized(self):
        rng = np.random.default_rng(4)
        markov = MarkovChainPredictor(n_bins=5).fit(rng.uniform(0, 1, 100))
        dist = markov.state_distribution(3)
        assert dist.sum() == pytest.approx(1.0)

    def test_update_moves_state(self):
        series = np.tile([1.0, 9.0], 50)
        markov = MarkovChainPredictor(n_bins=2, smoothing=0.01).fit(series)
        markov.update(1.0)  # now in the low bin
        assert markov.forecast(1) > 5.0  # low -> high next

    def test_bad_horizon(self):
        markov = MarkovChainPredictor().fit(np.arange(10.0))
        with pytest.raises(ValueError):
            markov.forecast(0)
