"""One forecast pass per window: the batch is the per-job path, byte for byte.

``Predictor.predict_jobs_unused`` serves a whole window refresh in one
call and ``predict_job_unused`` is its ``n = 1`` case, so a batch of any
size and order must return the bytes the same jobs get one at a time.
For CORP that rests on two facts checked here directly: the network's
stacked ``(n, 1, L)`` forward is the single-row kernel per row (the
plain ``(n, L)`` product is not, which the negative control shows), and
the HMM's batched forward pass ends in Viterbi's last state.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.predictor import CorpPredictor
from repro.hmm.discretize import CENTER, PEAK, VALLEY, ThresholdBands
from repro.hmm.fluctuation import FluctuationPredictor
from repro.hmm.model import HiddenMarkovModel
from repro.hmm.viterbi import viterbi
from repro.obs import OBS

from .test_contract import FAMILIES, probes, zoo  # noqa: F401  (zoo is a fixture)

BATCH_SIZES = (1, 2, 7, 48)


def per_job_bytes(predictor, pairs) -> list[bytes]:
    return [
        predictor.predict_job_unused(util, request).tobytes()
        for util, request in pairs
    ]


def batched_bytes(predictor, pairs, batch_size) -> list[bytes]:
    rows = []
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start : start + batch_size]
        got = predictor.predict_jobs_unused(
            [util for util, _ in chunk], [request for _, request in chunk]
        )
        assert got.shape == (len(chunk), 3)
        rows.extend(row.tobytes() for row in got)
    return rows


def assert_batches_match(predictor) -> None:
    pairs = probes()
    want = per_job_bytes(predictor, pairs)
    for batch_size in BATCH_SIZES:
        assert batched_bytes(predictor, pairs, batch_size) == want, batch_size
    order = np.random.default_rng(5).permutation(len(pairs))
    shuffled = batched_bytes(predictor, [pairs[i] for i in order], len(pairs))
    assert shuffled == [want[i] for i in order]


@pytest.mark.parametrize("name", FAMILIES)
def test_every_family_batches_bit_identically(name, zoo):  # noqa: F811
    assert_batches_match(zoo(name))


@pytest.fixture(scope="module")
def corp_fits(history_trace, fast_corp_config):
    fits = {}

    def fit(hmm_mode, train_quantile):
        key = (hmm_mode, train_quantile)
        if key not in fits:
            config = dataclasses.replace(
                fast_corp_config, hmm_mode=hmm_mode, train_quantile=train_quantile
            )
            fits[key] = CorpPredictor(config=config).fit(history_trace)
        return fits[key]

    return fit


class TestCorpBatch:
    @pytest.mark.parametrize("hmm_mode", ["level", "range"])
    @pytest.mark.parametrize("train_quantile", [None, 0.3])
    def test_both_hmm_modes_and_quantiles(self, corp_fits, hmm_mode, train_quantile):
        predictor = corp_fits(hmm_mode, train_quantile)
        assert all(fp.fitted for fp in predictor.fluctuation)
        assert_batches_match(predictor)

    def test_counters_are_counted_once_per_job(self, corp_fits):
        predictor = corp_fits("level", None)
        pairs = probes()
        young = sum(u.shape[0] < predictor.min_history_slots for u, _ in pairs)
        counts = []
        for batch_size in (1, len(pairs)):
            obs.reset()  # counters are process-global
            obs.enable_profiling()
            try:
                batched_bytes(predictor, pairs, batch_size)
                counts.append({
                    name: OBS.counters.get(name)
                    for name in (
                        "predictor.predict", "predictor.prior_fallback",
                        "predictor.hmm_correction",
                    )
                })
            finally:
                obs.reset()
        assert counts[0] == counts[1] == {
            "predictor.predict": len(pairs),
            "predictor.prior_fallback": young,
            "predictor.hmm_correction": 3 * (len(pairs) - young),
        }

    def test_stacked_rows_are_required(self, corp_fits):
        """Negative control: the plain ``(n, L)`` product is not the
        single-row kernel, so it fails the byte check on the probes."""
        predictor = corp_fits("level", None)
        width = predictor.config.input_slots
        # The probes' DNN inputs, padded as CorpPredictor pads them.
        windows = np.array([
            np.concatenate([np.full(max(width - len(u), 0), u[0, 0]), u[-width:, 0]])
            for u, _ in probes()
        ])
        net = predictor.networks[0]
        single = np.concatenate([net.predict(row[None, :])[0] for row in windows])
        assert net.predict_rows(windows)[:, 0].tobytes() == single.tobytes()
        assert net.predict(windows)[:, 0].tobytes() != single.tobytes()


# ----------------------------------------------------------------------
# the batched decode ends where Viterbi does
# ----------------------------------------------------------------------
#: Each symbol as the mean level of a window, for bands (0, 0.5, 1).
LEVEL = {PEAK: 0.9, CENTER: 0.5, VALLEY: 0.1}


@st.composite
def models(draw):
    """Small-integer weights: zero entries (−inf logs) and tied δ."""
    n_states = draw(st.integers(1, 3))

    def stochastic(rows, cols):
        weights = np.array(
            draw(st.lists(
                st.lists(st.integers(0, 2), min_size=cols, max_size=cols)
                .filter(any),
                min_size=rows, max_size=rows,
            )),
            dtype=np.float64,
        )
        return weights / weights.sum(axis=1, keepdims=True)

    return HiddenMarkovModel(
        stochastic(n_states, n_states),
        stochastic(n_states, 3),
        stochastic(1, n_states)[0],
    )


class TestBatchedDecodeIsViterbi:
    @settings(max_examples=200)
    @given(
        model=models(),
        window=st.integers(1, 3),
        sequences=st.lists(
            st.lists(st.sampled_from([PEAK, CENTER, VALLEY]), max_size=6),
            min_size=1, max_size=12,
        ),
    )
    def test_last_state(self, model, window, sequences):
        fp = FluctuationPredictor(
            window=window, model=model, bands=ThresholdBands(0.0, 0.5, 1.0)
        )
        # Report the last state itself: state s "predicts" symbol s.
        fp.next_symbol_distribution = lambda state: np.eye(3)[state]
        # Each series ends in a partial window, which is not observed.
        recents = [
            np.repeat([LEVEL[s] for s in seq] + [LEVEL[PEAK]], window)[:-1]
            for seq in sequences
        ]
        got = fp.predict_next_symbols(recents)
        for seq, state in zip(sequences, got):
            if not seq:
                assert state == CENTER
            else:
                assert state == viterbi(model, np.array(seq)).states[-1]
