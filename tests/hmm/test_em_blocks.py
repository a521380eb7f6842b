"""Baum-Welch in blocks: each EM step is the per-sequence step, byte for byte.

``_em_step`` runs one :func:`forward_backward_block` per distinct
sequence length and adds each sequence's statistics into the
accumulators in input order, and :func:`forward_backward` is the block's
``n = 1`` call.  The per-sequence forms they replaced are kept here as
the oracles: ``reference_forward_backward`` (two Python loops over time)
and ``reference_em_step`` (one ``forward_backward`` per sequence,
accumulated with ``+=``).
"""

import hashlib
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.config import CorpConfig
from repro.core.predictor import CorpPredictor
from repro.hmm.baum_welch import (
    BaumWelchConfig,
    _em_step,
    _length_blocks,
    baum_welch,
)
from repro.hmm.forward_backward import forward_backward, forward_backward_block
from repro.hmm.model import HiddenMarkovModel, default_fluctuation_model

# ``repro.hmm`` re-exports functions under its modules' names.
bw_module = import_module("repro.hmm.baum_welch")
fb_module = import_module("repro.hmm.forward_backward")
fluctuation_module = import_module("repro.hmm.fluctuation")


def reference_forward_backward(model, obs):
    """The scaled recursions one sequence at a time:
    ``(alpha, beta, gamma, scales, log_likelihood)``."""
    T, H = obs.size, model.n_states
    A, B = model.transition, model.emission
    alpha = np.empty((T, H))
    beta = np.empty((T, H))
    scales = np.empty(T)
    alpha[0] = model.initial * B[:, obs[0]]
    scales[0] = alpha[0].sum()
    alpha[0] /= scales[0]
    for t in range(1, T):
        alpha[t] = (alpha[t - 1] @ A) * B[:, obs[t]]
        scales[t] = alpha[t].sum()
        alpha[t] /= scales[t]
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = (A * B[:, obs[t + 1]]) @ beta[t + 1]
        beta[t] /= scales[t + 1]
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    return alpha, beta, gamma, scales, float(np.log(scales).sum())


def reference_em_step(model, sequences, smoothing):
    """One EM iteration visiting the sequences one at a time."""
    H, M = model.n_states, model.n_symbols
    A, B = model.transition, model.emission
    trans_num = np.full((H, H), smoothing)
    emit_num = np.full((H, M), smoothing)
    gamma_sum_not_last = np.full(H, smoothing * H)
    gamma_sum_all = np.full(H, smoothing * M)
    pi_acc = np.full(H, smoothing)
    total_ll = 0.0
    for obs in sequences:
        alpha, beta, gamma, scales, ll = reference_forward_backward(model, obs)
        total_ll += ll
        pi_acc += gamma[0]
        if obs.size > 1:
            b_next = B[:, obs[1:]].T
            weighted = beta[1:] * b_next / scales[1:, None]
            trans_num += A * np.einsum("ti,tj->ij", alpha[:-1], weighted)
            gamma_sum_not_last += gamma[:-1].sum(axis=0)
        gamma_sum_all += gamma.sum(axis=0)
        np.add.at(emit_num.T, obs, gamma)
    new_A = trans_num / gamma_sum_not_last[:, None]
    new_B = emit_num / gamma_sum_all[:, None]
    new_pi = pi_acc / (len(sequences) + smoothing * H)
    new_A /= new_A.sum(axis=1, keepdims=True)
    new_B /= new_B.sum(axis=1, keepdims=True)
    new_pi /= new_pi.sum()
    return HiddenMarkovModel(new_A, new_B, new_pi), total_ll


def model_bytes(model) -> bytes:
    return model.transition.tobytes() + model.emission.tobytes() + model.initial.tobytes()


@st.composite
def models(draw, n_states=None, n_symbols=None):
    """A random ``λ`` with every probability positive."""
    H = n_states or draw(st.integers(1, 4))
    M = n_symbols or draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(0.01, 1.0, (H, H))
    B = rng.uniform(0.01, 1.0, (H, M))
    pi = rng.uniform(0.01, 1.0, H)
    return HiddenMarkovModel(
        A / A.sum(axis=1, keepdims=True), B / B.sum(axis=1, keepdims=True), pi / pi.sum()
    )


@st.composite
def ragged_sets(draw, n_symbols):
    """1-8 sequences of lengths 1-300, short ones and length 1 mixed in."""
    lengths = draw(st.lists(
        st.one_of(st.integers(1, 6), st.integers(1, 300)), min_size=1, max_size=8
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rng.integers(0, n_symbols, size=n) for n in lengths]


class TestForwardBackwardBlock:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_one_sequence_is_the_reference(self, data):
        model = data.draw(models())
        obs = data.draw(ragged_sets(model.n_symbols))[0]
        result = forward_backward(model, obs)
        alpha, beta, gamma, scales, ll = reference_forward_backward(model, obs)
        assert result.alpha.tobytes() == alpha.tobytes()
        assert result.beta.tobytes() == beta.tobytes()
        assert result.gamma.tobytes() == gamma.tobytes()
        assert result.scales.tobytes() == scales.tobytes()
        assert result.log_likelihood == ll

    @settings(max_examples=40)
    @given(data=st.data())
    def test_each_row_of_a_block_is_its_sequence_alone(self, data):
        model = data.draw(models())
        n = data.draw(st.integers(1, 6))
        T = data.draw(st.integers(1, 120))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        obs = rng.integers(0, model.n_symbols, size=(n, T))
        block = forward_backward_block(model, obs)
        for i in range(n):
            alone = reference_forward_backward(model, obs[i])
            for got, want in zip(block, alone):
                assert got[i].tobytes() == want.tobytes()

    def test_zero_forward_mass_still_raises(self):
        model = HiddenMarkovModel(
            np.array([[0.5, 0.5], [0.5, 0.5]]),
            np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]),
            np.array([0.5, 0.5]),
        )
        with pytest.raises(ValueError, match="t=1 impossible"):
            forward_backward_block(model, np.array([[0, 1], [0, 2]]))
        with pytest.raises(ValueError, match="zero forward mass"):
            forward_backward_block(model, np.array([[2, 1]]))


class TestEmStepInBlocks:
    @settings(max_examples=40)
    @given(data=st.data(), warm=st.booleans(), smoothing=st.sampled_from([1e-6, 0.1]))
    def test_three_chained_steps_are_the_reference(self, data, warm, smoothing):
        start = data.draw(models())
        sequences = data.draw(ragged_sets(start.n_symbols))
        if warm:  # a warm start: a model EM already fitted on other data
            donor_data = data.draw(ragged_sets(start.n_symbols))
            start = baum_welch(start, donor_data, BaumWelchConfig(max_iterations=5)).model
        blocks = _length_blocks(sequences)
        got = want = start
        for _ in range(3):
            got, got_ll = _em_step(got, sequences, blocks, smoothing)
            want, want_ll = reference_em_step(want, sequences, smoothing)
            assert model_bytes(got) == model_bytes(want)
            assert got_ll == want_ll

    def test_blocks_keep_input_positions(self):
        sequences = [np.array([0, 1]), np.array([2]), np.array([1, 1]), np.array([0])]
        blocks = _length_blocks(sequences)
        assert [positions.tolist() for positions, _ in blocks] == [[0, 2], [1, 3]]
        np.testing.assert_array_equal(blocks[0][1], [[0, 1], [1, 1]])

    def test_invalid_symbols_fail_before_the_first_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("EM step ran on an invalid sequence")

        monkeypatch.setattr(bw_module, "_em_step", no_step)
        with pytest.raises(ValueError, match="observations must be in"):
            baum_welch(default_fluctuation_model(), [np.array([0, 1]), np.array([0, 3])])
        with pytest.raises(ValueError, match="empty"):
            baum_welch(default_fluctuation_model(), [np.array([0, 1]), np.array([], dtype=int)])


#: sha256 of each resource's fitted ``A``, ``B`` and ``π`` bytes for the
#: default-config CORP predictor on the seed-7 cluster history, recorded
#: with the per-sequence EM step.
SEED7_HMM_SHA256 = (
    "b96bbe5d2fd0f357d7dc5b2294c60ccd4c26062efcadf12e9a93fdaaaeae2b9a",
    "b9267ab7446be12344c0929126697dc78ffb464b1c050415aef467cafe0d262d",
    "f3fe81a106e87ef7db4a65821d979675a0fb337e07ae7c37406d3032abb82bdb",
)


@pytest.fixture(scope="module")
def seed7_fit():
    """The seed-7 CORP fit with ``forward_backward`` patched to raise.

    Returns the predictor and, per resource, ``(sequences, distinct
    lengths, EM iterations, forward_backward_block calls)``.
    """
    fits = []
    calls = [0]

    def refuse(*args, **kwargs):
        raise AssertionError("the fit called forward_backward")

    block = getattr(bw_module, "forward_backward_block", None)

    def counting_block(*args, **kwargs):
        calls[0] += 1
        return block(*args, **kwargs)

    fit_hmm = fluctuation_module.baum_welch

    def spy(model, sequences, config=None):
        calls[0] = 0
        result = fit_hmm(model, sequences, config)
        lengths = {len(seq) for seq in sequences}
        fits.append((len(sequences), len(lengths), result.n_iterations, calls[0]))
        return result

    history = api.build_scenario(jobs=30, testbed="cluster", seed=7).history_trace()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fb_module, "forward_backward", refuse)
        mp.setattr(bw_module, "forward_backward", refuse, raising=False)
        mp.setattr(bw_module, "forward_backward_block", counting_block, raising=False)
        mp.setattr(fluctuation_module, "baum_welch", spy)
        predictor = CorpPredictor(config=CorpConfig(seed=7)).fit(history)
    return predictor, fits


class TestSeed7Fit:
    def test_a_fit_never_calls_forward_backward(self, seed7_fit):
        predictor, fits = seed7_fit
        assert predictor.fitted
        assert len(fits) == 3

    def test_one_block_per_length_per_iteration(self, seed7_fit):
        _, fits = seed7_fit
        for n_sequences, n_lengths, iterations, block_calls in fits:
            assert block_calls == iterations * n_lengths
        # Resource 0: 50 iterations x 4 lengths, against one
        # forward_backward per sequence per iteration before.
        n_sequences, n_lengths, iterations, block_calls = fits[0]
        assert (iterations, n_lengths, block_calls) == (50, 4, 200)
        assert iterations * n_sequences == 6000

    def test_fitted_hmms_are_pinned(self, seed7_fit):
        predictor, _ = seed7_fit
        digests = tuple(
            hashlib.sha256(model_bytes(fp.model)).hexdigest() for fp in predictor.fluctuation
        )
        assert digests == SEED7_HMM_SHA256
