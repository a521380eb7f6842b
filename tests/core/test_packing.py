"""Complementary job packing (Section III-B) — incl. algebraic identities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.job import Job
from repro.cluster.resources import ResourceKind, ResourceVector
from repro.core.packing import (
    JobEntity,
    deviation,
    dominant_resource,
    pack_jobs,
    singleton_entities,
)

from ..cluster.test_job import make_record

pos = st.floats(min_value=0.01, max_value=100, allow_nan=False)
vectors = st.builds(lambda a, b, c: ResourceVector([a, b, c]), pos, pos, pos)


def job_with_request(request, task_id=0):
    return Job(record=make_record(request=request, task_id=task_id), submit_slot=0)


class TestDominantResource:
    def test_raw_units(self):
        assert dominant_resource(ResourceVector([20, 1, 5])) is ResourceKind.CPU
        assert dominant_resource(ResourceVector([1, 1, 30])) is ResourceKind.STORAGE

    def test_normalized_changes_answer(self):
        # Raw: storage dominates (30 > 4); normalized by capacity
        # (8, 32, 360): CPU dominates (0.5 > 0.083).
        demand = ResourceVector([4, 2, 30])
        reference = ResourceVector([8, 32, 360])
        assert dominant_resource(demand) is ResourceKind.STORAGE
        assert dominant_resource(demand, reference) is ResourceKind.CPU


class TestDeviation:
    def test_identical_jobs_zero(self):
        v = ResourceVector([2, 3, 4])
        assert deviation(v, v) == pytest.approx(0.0)

    def test_algebraic_identity(self):
        # DV(a, b) = Σ_k (a_k − b_k)² / 2
        a, b = ResourceVector([1, 5, 2]), ResourceVector([3, 1, 2])
        expected = ((1 - 3) ** 2 + (5 - 1) ** 2 + 0) / 2
        assert deviation(a, b) == pytest.approx(expected)

    def test_symmetry(self):
        a, b = ResourceVector([1, 5, 2]), ResourceVector([3, 1, 9])
        assert deviation(a, b) == pytest.approx(deviation(b, a))

    def test_normalization_rescales(self):
        a, b = ResourceVector([1, 0, 100]), ResourceVector([2, 0, 0])
        reference = ResourceVector([10, 10, 1000])
        raw = deviation(a, b)
        norm = deviation(a, b, reference)
        assert raw > norm  # the 100-GB storage axis dominates raw units

    @given(vectors, vectors)
    def test_nonnegative(self, a, b):
        assert deviation(a, b) >= 0.0

    @given(vectors, vectors)
    def test_identity_property(self, a, b):
        expected = float(np.sum((a.as_array() - b.as_array()) ** 2) / 2)
        assert deviation(a, b) == pytest.approx(expected, rel=1e-9)


class TestJobEntity:
    def test_singleton(self):
        job = job_with_request((2, 4, 10))
        entity = JobEntity(jobs=(job,))
        assert not entity.is_packed
        assert entity.demand == job.requested

    def test_pair_demand_sums(self):
        a = job_with_request((2, 4, 10), task_id=1)
        b = job_with_request((1, 1, 1), task_id=2)
        entity = JobEntity(jobs=(a, b))
        assert entity.is_packed
        assert entity.demand == ResourceVector([3, 5, 11])
        assert entity.job_ids() == (1, 2)

    def test_size_limits(self):
        jobs = tuple(job_with_request((1, 1, 1), task_id=i) for i in range(3))
        with pytest.raises(ValueError):
            JobEntity(jobs=jobs)
        with pytest.raises(ValueError):
            JobEntity(jobs=())


class TestPackJobs:
    def test_complementary_pair_packed(self):
        cpu_job = job_with_request((8, 1, 5), task_id=1)
        mem_job = job_with_request((1, 16, 5), task_id=2)
        entities = pack_jobs([cpu_job, mem_job])
        assert len(entities) == 1
        assert entities[0].is_packed

    def test_same_dominant_not_packed(self):
        a = job_with_request((8, 1, 5), task_id=1)
        b = job_with_request((6, 2, 4), task_id=2)
        entities = pack_jobs([a, b])
        assert len(entities) == 2
        assert not any(e.is_packed for e in entities)

    def test_highest_deviation_partner_chosen(self):
        # Paper Section III-B: "the job with the highest deviation value
        # is the complementary job of J_i".
        cpu_job = job_with_request((10, 1, 1), task_id=1)
        mem_small = job_with_request((9, 2, 1), task_id=2)   # MEM-dominant? no...
        mem_mild = job_with_request((1, 4, 1), task_id=3)
        mem_strong = job_with_request((1, 40, 1), task_id=4)
        entities = pack_jobs([cpu_job, mem_mild, mem_strong])
        packed = [e for e in entities if e.is_packed]
        assert packed and set(packed[0].job_ids()) == {1, 4}

    def test_odd_job_out_is_singleton(self):
        cpu1 = job_with_request((10, 1, 1), task_id=1)
        cpu2 = job_with_request((9, 1, 1), task_id=2)
        mem = job_with_request((1, 20, 1), task_id=3)
        entities = pack_jobs([cpu1, cpu2, mem])
        packed = [e for e in entities if e.is_packed]
        single = [e for e in entities if not e.is_packed]
        assert len(packed) == 1 and len(single) == 1
        assert sum(len(e.jobs) for e in entities) == 3

    def test_every_job_appears_exactly_once(self):
        rng = np.random.default_rng(0)
        jobs = [
            job_with_request(tuple(rng.uniform(0.5, 10, 3)), task_id=i)
            for i in range(11)
        ]
        entities = pack_jobs(jobs)
        ids = [j for e in entities for j in e.job_ids()]
        assert sorted(ids) == list(range(11))

    def test_empty_input(self):
        assert pack_jobs([]) == []

    def test_arrival_order_greedy(self):
        # The first job gets first pick of partners.
        cpu1 = job_with_request((10, 1, 1), task_id=1)
        cpu2 = job_with_request((10, 1, 1), task_id=2)
        mem = job_with_request((1, 20, 1), task_id=3)
        entities = pack_jobs([cpu1, cpu2, mem])
        packed = [e for e in entities if e.is_packed]
        assert set(packed[0].job_ids()) == {1, 3}

    def test_reference_normalization_affects_dominance(self):
        # With raw units a 30-GB storage request dominates; normalized by
        # the VM capacity the CPU does, so two such jobs stop pairing.
        a = job_with_request((4, 1, 30), task_id=1)
        b = job_with_request((0.5, 2, 35), task_id=2)
        reference = ResourceVector([8, 32, 360])
        raw_entities = pack_jobs([a, b])  # STORAGE vs STORAGE: no pack
        norm_entities = pack_jobs([a, b], reference)  # CPU vs STORAGE: pack
        assert not any(e.is_packed for e in raw_entities)
        assert any(e.is_packed for e in norm_entities)


def pack_jobs_per_pair(jobs, reference=None):
    """``pack_jobs`` with ``dominant_resource()`` / ``deviation()`` called
    per candidate pair, as it stood before the per-call normalization."""
    entities, used = [], set()
    for i, job in enumerate(jobs):
        if job.job_id in used:
            continue
        used.add(job.job_id)
        best, best_dv = None, -1.0
        for other in jobs[i + 1 :]:
            if other.job_id in used:
                continue
            if dominant_resource(other.requested, reference) == dominant_resource(
                job.requested, reference
            ):
                continue
            dv = deviation(job.requested, other.requested, reference)
            if dv > best_dv + 1e-12:
                best_dv, best = dv, other
        if best is not None:
            used.add(best.job_id)
        entities.append(JobEntity(jobs=(job,) if best is None else (job, best)))
    return entities


# A coarse grid forces exact ties and zero demands into most queues.
grid = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 7.5])
requests = st.lists(st.tuples(grid, grid, grid), min_size=0, max_size=14)
references = st.one_of(
    st.none(),
    st.just(ResourceVector([8, 32, 360])),
    st.just(ResourceVector([8, 0, 360])),  # a resource no VM offers
)


class TestPackJobsMatchesPerPairReference:
    @given(requests, references)
    def test_same_entities_in_the_same_order(self, reqs, reference):
        jobs = [job_with_request(r, task_id=i) for i, r in enumerate(reqs)]
        got = [e.job_ids() for e in pack_jobs(jobs, reference)]
        want = [e.job_ids() for e in pack_jobs_per_pair(jobs, reference)]
        assert got == want


class TestSingletonEntities:
    def test_one_entity_per_job(self):
        jobs = [job_with_request((1, 1, 1), task_id=i) for i in range(4)]
        entities = singleton_entities(jobs)
        assert len(entities) == 4
        assert all(not e.is_packed for e in entities)
