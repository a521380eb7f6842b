"""The JSONL event stream of a faulted four-method comparison, byte for byte.

A sink that encodes once and a placement event that reads the pool's
rows must write exactly the bytes the sanitize-everything sink and the
vector-wrapping event wrote.  The digest below was measured on the
sanitize-everything implementation; it moves with the package version
(the ``run_meta`` record carries it) and, like the goldens, with the
BLAS build behind the CORP fit.
"""

import hashlib
import json

import pytest

from repro import api
from repro.obs import MemorySink

pytestmark = pytest.mark.slow

#: sha256 of the 30-job, seed-7, four-method stream under a severe fault plan.
PINNED_SHA256 = "77d62fe2b661342c0631b25f5a7c8587130df6612c0f01cfe3a96b51ef69520e"


def test_faulted_compare_stream_is_pinned(tmp_path, predictor_cache):
    plan = api.build_fault_plan(seed=7, n_slots=200, intensity=1.0)
    # The CORP fit outside the capture: a cached fit emits no event.
    api.compare(jobs=30, seed=7, methods=("CORP",), fault_plan=plan,
                predictor_cache=predictor_cache)
    path = tmp_path / "stream.jsonl"
    with api.capture_events(str(path)):
        api.compare(jobs=30, seed=7, fault_plan=plan, predictor_cache=predictor_cache)
    data = path.read_bytes()

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    names = {json.loads(line, parse_constant=refuse)["event"] for line in data.splitlines()}
    assert {"run_meta", "slot", "placement", "preemption", "capacity_revoked"} <= names
    assert hashlib.sha256(data).hexdigest() == PINNED_SHA256


def test_a_sink_adds_no_feasibility_scan(monkeypatch, predictor_cache):
    """The placement event reads the chooser's decision (its feasible-set
    size and pool row): a listening sink costs no second scan of the pool
    per placed entity."""
    from repro.core.vm_selection import CandidateSet

    scans = [0]
    scan = CandidateSet.feasible_mask

    def counted(self, demand):
        scans[0] += 1
        return scan(self, demand)

    monkeypatch.setattr(CandidateSet, "feasible_mask", counted)

    def compare_scans():
        scans[0] = 0
        api.compare(jobs=300, seed=7, predictor_cache=predictor_cache)
        return scans[0]

    quiet = compare_scans()
    with api.capture_events(MemorySink()) as sink:
        heard = compare_scans()
    assert sink.named("placement") and quiet > 0
    assert heard == quiet
