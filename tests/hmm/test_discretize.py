"""Peak/center/valley symbolization (Section III-A.1b's intervals)."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.hmm.discretize import (
    CENTER,
    PEAK,
    VALLEY,
    ThresholdBands,
    windowed_observations,
)


class TestBands:
    def test_from_history(self):
        bands = ThresholdBands.from_history(np.array([0.0, 4.0, 8.0]))
        assert bands.minimum == 0.0
        assert bands.mean == 4.0
        assert bands.maximum == 8.0

    def test_thresholds_match_paper_formulas(self):
        bands = ThresholdBands(minimum=2.0, mean=6.0, maximum=14.0)
        # t1 = min + (m - min)/2; t2 = m + (max - m)/2
        assert bands.lower_threshold == pytest.approx(4.0)
        assert bands.upper_threshold == pytest.approx(10.0)

    def test_correction_magnitude_is_min(self):
        bands = ThresholdBands(minimum=2.0, mean=6.0, maximum=14.0)
        # min(max - m, m - min) = min(8, 4) = 4
        assert bands.correction_magnitude() == pytest.approx(4.0)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            ThresholdBands(minimum=5.0, mean=4.0, maximum=6.0)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            ThresholdBands.from_history(np.array([]))

    def test_nonfinite_history_rejected(self):
        with pytest.raises(ValueError):
            ThresholdBands.from_history(np.array([1.0, np.nan]))

    def test_constant_history(self):
        bands = ThresholdBands.from_history(np.full(5, 3.0))
        assert bands.correction_magnitude() == 0.0
        assert bands.symbolize(3.0) == VALLEY  # <= lower threshold


class TestSymbolize:
    @pytest.fixture()
    def bands(self):
        return ThresholdBands(minimum=0.0, mean=4.0, maximum=12.0)
        # t1 = 2, t2 = 8

    def test_valley(self, bands):
        assert bands.symbolize(1.0) == VALLEY
        assert bands.symbolize(2.0) == VALLEY  # inclusive

    def test_center(self, bands):
        assert bands.symbolize(5.0) == CENTER

    def test_peak(self, bands):
        assert bands.symbolize(8.0) == PEAK  # inclusive upper
        assert bands.symbolize(11.0) == PEAK

    @example(stats=[0.3, 0.3, 0.3], values=[0.3])  # t_1 == t_2: VALLEY
    @given(
        stats=st.lists(
            st.one_of(st.floats(-100, 100), st.sampled_from([0.0, 1.0])),
            min_size=3, max_size=3,
        ),
        values=st.lists(st.floats(-200, 200), max_size=20),
    )
    def test_vectorized_matches_scalar(self, stats, values):
        bands = ThresholdBands(*sorted(stats))  # equal stats: degenerate bands
        # The thresholds themselves are the values a rule can split on.
        values = np.array(values + [bands.lower_threshold, bands.upper_threshold, bands.minimum])
        expected = [bands.symbolize(v) for v in values]
        np.testing.assert_array_equal(bands.symbolize_many(values), expected)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_symbol_always_valid(self, value):
        bands = ThresholdBands(minimum=0.0, mean=4.0, maximum=12.0)
        assert bands.symbolize(value) in (PEAK, CENTER, VALLEY)

    def test_symbol_constants_match_paper_indexing(self):
        # "1, 2, 3 represent 'peak', 'center' and 'valley'" → 0-based.
        assert PEAK == 0 and CENTER == 1 and VALLEY == 2


class TestWindowedObservations:
    def test_window_delta_rule(self):
        bands = ThresholdBands(minimum=0.0, mean=4.0, maximum=12.0)
        # window ranges: [0..1] delta 1 -> valley; [0..5] delta 5 -> center;
        # [0..9] delta 9 -> peak.
        series = np.array([0, 1, 0, 5, 0, 9])
        obs = windowed_observations(series, window=2, bands=bands)
        np.testing.assert_array_equal(obs, [VALLEY, CENTER, PEAK])

    def test_trailing_partial_window_dropped(self):
        bands = ThresholdBands(minimum=0.0, mean=4.0, maximum=12.0)
        obs = windowed_observations(np.zeros(7), window=3, bands=bands)
        assert obs.shape == (2,)

    def test_too_short_series(self):
        bands = ThresholdBands(minimum=0.0, mean=4.0, maximum=12.0)
        assert windowed_observations(np.zeros(1), window=3, bands=bands).size == 0

    def test_bad_window(self):
        bands = ThresholdBands(minimum=0.0, mean=4.0, maximum=12.0)
        with pytest.raises(ValueError):
            windowed_observations(np.zeros(5), window=0, bands=bands)

    def test_constant_series_all_valley(self):
        bands = ThresholdBands(minimum=0.0, mean=4.0, maximum=12.0)
        obs = windowed_observations(np.full(9, 5.0), window=3, bands=bands)
        assert np.all(obs == VALLEY)  # zero fluctuation range
