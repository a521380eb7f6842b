"""What a finished run keeps per executed job-slot.

Every executed job-slot logs one rate and one usage position.  Held as
typed arrays those cost 16 bytes; as a list of numpy row views and
Python floats they cost about 150 more.  The fence: after a seed-7
300-job CORP run on the cluster testbed, the bytes tracemalloc still
sees held (the result and everything it reaches), divided by the run's
job-slots, stay at or below 120 B.  The row-view logs read 210 B, the
typed arrays 79 B.
"""

import gc
import tracemalloc

import pytest

from repro import api
from repro.experiments.scenarios import cluster_scenario

pytestmark = pytest.mark.slow

BYTES_PER_JOB_SLOT = 120


def held_bytes_per_job_slot() -> float:
    cache = api.PredictorCache()
    scenario = cluster_scenario(300, seed=7)
    api.run_one(scenario=scenario, method="CORP", seed=7, predictor_cache=cache)  # fit, caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = api.run_one(scenario=scenario, method="CORP", seed=7, predictor_cache=cache)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    job_slots = sum(len(job.rate_history) for job in result.jobs)
    assert job_slots > 1000
    return held / job_slots


def test_a_finished_run_keeps_few_bytes_per_job_slot():
    per_slot = held_bytes_per_job_slot()
    assert per_slot <= BYTES_PER_JOB_SLOT, f"{per_slot:.1f} B per job-slot"
