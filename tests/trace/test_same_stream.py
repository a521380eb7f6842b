"""The trace generator draws the same stream as its frozen oracle.

``oracle_generator`` is the per-sample code before the generator
clipped scalars with ``min`` / ``max``, hoisted its config reads and
replaced ``rng.choice(n, p=...)`` with a bisection of the cumulative sum
``choice`` searches.  Every rng call must keep its order and arguments,
so every record comes out byte for byte the same.
"""

import bisect

import numpy as np
import pytest

from repro.trace.generator import GoogleTraceGenerator, TraceConfig

from . import oracle_generator


def record_bytes(record) -> tuple:
    return (
        record.task_id, record.submit_time_s.hex(), record.duration_s.hex(),
        record.requested.tobytes(), record.usage.tobytes(),
        record.usage.shape, record.sample_period_s, record.is_short,
    )


def config(seed: int, short_fraction: float, period: float, span: bool) -> TraceConfig:
    return TraceConfig(
        n_jobs=40, seed=seed, short_fraction=short_fraction, sample_period_s=period,
        arrival_span_s=600.0 if span else None,
    )


@pytest.mark.parametrize("span", [True, False], ids=["span", "poisson"])
@pytest.mark.parametrize("period", [10.0, 300.0])
@pytest.mark.parametrize("short_fraction", [0.9, 1.0])
@pytest.mark.parametrize("seed", [0, 7, 41])
def test_every_record_matches_the_oracle(seed, short_fraction, period, span):
    cfg = config(seed, short_fraction, period, span)
    want = [record_bytes(r) for r in oracle_generator.iter_records(cfg)]
    generator = GoogleTraceGenerator(cfg)
    assert [record_bytes(r) for r in generator.iter_records()] == want
    assert [record_bytes(r) for r in generator.generate()] == want
    chunks = [record_bytes(r) for chunk in generator.generate_chunks(7) for r in chunk]
    assert chunks == want


def test_the_class_draw_is_rng_choice():
    """What ``rng.choice(n, p=probs)`` does with ``size=None``: one
    ``random()`` draw searched (right side) in the normalised cumulative
    sum.  A numpy that changes ``choice`` fails here first."""
    probs = TraceConfig().class_probs
    cdf = GoogleTraceGenerator()._class_cdf
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(10_000):
        want = int(theirs.choice(len(probs), p=probs))
        assert bisect.bisect_right(cdf, ours.random()) == want


@pytest.mark.parametrize(
    "probs", [(0.6, -0.1, 0.3, 0.2), (0.5, float("nan"), 0.3, 0.2)],
    ids=["negative", "nan"],
)
def test_a_class_mix_that_is_no_distribution_is_refused(probs):
    """``choice`` refused such a ``p`` at the first draw; the bisection
    would search a non-monotone or NaN cumulative sum, so the config
    refuses it at construction."""
    with pytest.raises(ValueError):
        TraceConfig(class_probs=probs)
