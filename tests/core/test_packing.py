"""Complementary job packing (Section III-B) — incl. algebraic identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.job import Job
from repro.cluster.resources import ResourceKind, ResourceVector, as_row
from repro.core.packing import (
    JobEntity,
    deviation,
    dominant_resource,
    pack_jobs,
    singleton_entities,
)

from ..cluster.test_job import make_record

pos = st.floats(min_value=0.01, max_value=100, allow_nan=False)
vectors = st.builds(lambda a, b, c: np.array([a, b, c]), pos, pos, pos)


def job_with_request(request, task_id=0):
    return Job(record=make_record(request=request, task_id=task_id), submit_slot=0)


class TestDominantResource:
    def test_raw_units(self):
        assert dominant_resource(as_row([20, 1, 5])) is ResourceKind.CPU
        assert dominant_resource(as_row([1, 1, 30])) is ResourceKind.STORAGE

    def test_normalized_changes_answer(self):
        # Raw: storage dominates (30 > 4); normalized by capacity
        # (8, 32, 360): CPU dominates (0.5 > 0.083).
        demand = as_row([4, 2, 30])
        reference = as_row([8, 32, 360])
        assert dominant_resource(demand) is ResourceKind.STORAGE
        assert dominant_resource(demand, reference) is ResourceKind.CPU


    @pytest.mark.parametrize("wrap", [as_row, ResourceVector], ids=["row", "vector"])
    def test_a_vector_reads_as_its_row(self, wrap):
        """(0.5, 1, 1) is MEM-dominant whichever type carries it: handed a
        vector, ``np.argmax`` once read a 0-d object array and answered
        CPU for every job."""
        first, second = wrap([1, 1, 1]), wrap([0.5, 1, 1])
        assert dominant_resource(first) is ResourceKind.CPU
        assert dominant_resource(second) is ResourceKind.MEM
        assert dominant_resource(second, wrap([1, 2, 2])) is ResourceKind.CPU
        assert deviation(first, second) == pytest.approx(0.125)
        assert deviation(first, second, wrap([2, 1, 1])) == pytest.approx(0.03125)

    @pytest.mark.parametrize(
        "bad",
        [np.ones((1, 3)), np.ones(2), np.array([1, 1, 1], dtype=object)],
        ids=["(1, 3)", "(2,)", "object"],
    )
    def test_anything_but_a_row_raises(self, bad):
        row = as_row([1, 2, 3])
        for call in (
            lambda: dominant_resource(bad),
            lambda: dominant_resource(row, bad),
            lambda: deviation(bad, row),
            lambda: deviation(row, bad),
        ):
            with pytest.raises(ValueError, match="3 real entries"):
                call()


class TestDeviation:
    def test_identical_jobs_zero(self):
        v = as_row([2, 3, 4])
        assert deviation(v, v) == pytest.approx(0.0)

    def test_algebraic_identity(self):
        # DV(a, b) = Σ_k (a_k − b_k)² / 2
        a, b = as_row([1, 5, 2]), as_row([3, 1, 2])
        expected = ((1 - 3) ** 2 + (5 - 1) ** 2 + 0) / 2
        assert deviation(a, b) == pytest.approx(expected)

    def test_symmetry(self):
        a, b = as_row([1, 5, 2]), as_row([3, 1, 9])
        assert deviation(a, b) == pytest.approx(deviation(b, a))

    def test_normalization_rescales(self):
        a, b = as_row([1, 0, 100]), as_row([2, 0, 0])
        reference = as_row([10, 10, 1000])
        raw = deviation(a, b)
        norm = deviation(a, b, reference)
        assert raw > norm  # the 100-GB storage axis dominates raw units

    @given(vectors, vectors)
    def test_nonnegative(self, a, b):
        assert deviation(a, b) >= 0.0

    @given(vectors, vectors)
    def test_identity_property(self, a, b):
        expected = float(np.sum((a - b) ** 2) / 2)
        assert deviation(a, b) == pytest.approx(expected, rel=1e-9)


class TestJobEntity:
    def test_singleton(self):
        job = job_with_request((2, 4, 10))
        entity = JobEntity(jobs=(job,))
        assert not entity.is_packed
        assert entity.demand is job.requested

    def test_pair_demand_sums(self):
        a = job_with_request((2, 4, 10), task_id=1)
        b = job_with_request((1, 1, 1), task_id=2)
        entity = JobEntity(jobs=(a, b))
        assert entity.is_packed
        np.testing.assert_array_equal(entity.demand, [3, 5, 11])
        assert not entity.demand.flags.writeable
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
        reference = as_row([8, 32, 360])
        raw_entities = pack_jobs([a, b])  # STORAGE vs STORAGE: no pack
        norm_entities = pack_jobs([a, b], reference)  # CPU vs STORAGE: pack
        assert not any(e.is_packed for e in raw_entities)
        assert any(e.is_packed for e in norm_entities)


def pack_jobs_per_pair(jobs, reference=None):
    """The scalar pair scan ``pack_jobs`` is the matrix form of — the one
    oracle: ``dominant_resource()`` / ``deviation()`` called per candidate
    pair, the running ``1e-12`` tie scan, a ``used`` set keyed by id."""
    entities, used = [], set()
    for i, job in enumerate(jobs):
        if job.job_id in used:
            continue
        used.add(job.job_id)
        best, best_dv = None, -1.0
        for other in jobs[i + 1 :]:
            if other.job_id in used:
                continue
            mine, theirs = job.requested, other.requested
            if dominant_resource(theirs, reference) == dominant_resource(mine, reference):
                continue
            dv = deviation(mine, theirs, reference)
            if dv > best_dv + 1e-12:
                best_dv, best = dv, other
        if best is not None:
            used.add(best.job_id)
        entities.append(JobEntity(jobs=(job,) if best is None else (job, best)))
    return entities


def assert_same_packing(jobs, reference):
    """Same entities, same order, same member order — by queue position,
    so that jobs sharing an id stay distinguishable."""
    position = {id(job): i for i, job in enumerate(jobs)}

    def positions(entities):
        return [tuple(position[id(j)] for j in e.jobs) for e in entities]

    assert positions(pack_jobs(jobs, reference)) == positions(
        pack_jobs_per_pair(jobs, reference)
    )


CAPACITY = (8.0, 32.0, 360.0)
# A coarse grid forces exact ties and zero demands into most queues.
GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 7.5)
grid = st.sampled_from(GRID)
requests = st.lists(st.tuples(grid, grid, grid), min_size=0, max_size=14)
references = st.one_of(
    st.none(),
    st.just(as_row(CAPACITY)),
    st.just(as_row([8, 0, 360])),  # a resource no VM offers
)
# Shared values nudged by multiples of 3e-13 *in normalised units*: DV
# values a few 1e-13 apart, inside and just outside the 1e-12 tie window.
shared = st.sampled_from((0.25, 0.5, 1.0))
nudged = st.builds(lambda base, k: base + k * 3e-13, shared, st.integers(-6, 6))
near_ties = st.lists(st.tuples(nudged, nudged, nudged), max_size=12)


def chain_queue(offsets):
    """A CPU job, then MEM candidates whose ``DV`` to it is
    ``1 + offset * 1e-12`` (``DV((1,0,0), (0,y,0)) = (1 + y²) / 2``)."""
    return [(1.0, 0.0, 0.0)] + [(0.0, 1.0 + o * 1e-12, 0.0) for o in offsets]


def running_scan(values):
    best, best_value = None, -1.0
    for i, value in enumerate(values):
        if value > best_value + 1e-12:
            best, best_value = i, value
    return best


def midpoint_dv(queue):
    first, *rest = (as_row(r) for r in queue)
    return [deviation(first, other) for other in rest]


def algebraic_dv(queue):
    first, *rest = (np.array(r) for r in queue)
    return [float(np.sum((first - other) ** 2 / 2)) for other in rest]


def first_in_window(values):
    return next(i for i, v in enumerate(values) if v >= max(values) - 1e-12)


#: Queues (a CPU job, then MEM candidates) on which a plausible wrong
#: tie rule picks another partner than the running scan over the
#: midpoint ``DV``: name -> (queue, the wrong rule's candidate index).
RIVAL_RULES = {
    # The scan keeps the third candidate; the first within 1e-12 of the
    # maximum is the second.
    "first-in-window": (
        chain_queue((0.5, 1.4, 1.6)),
        lambda q: first_in_window(midpoint_dv(q)),
    ),
    # The scan keeps the first candidate; the maximum is the third.
    "argmax": (
        chain_queue((0.0, 0.6, 1.0)),
        lambda q: int(np.argmax(midpoint_dv(q))),
    ),
    # The second candidate beats the first by 1e-12 and one rounding:
    # ||a - b||² / 2 rounds the other way and keeps the first.
    "algebraic-dv": (
        [(1.0, 0.45, 0.22), (0.68, 0.95, 0.35), (0.68, 0.950000000002, 0.35)],
        lambda q: running_scan(algebraic_dv(q)),
    ),
}


class TestPackJobsMatchesPerPairReference:
    @given(requests, references)
    def test_same_entities_in_the_same_order(self, reqs, reference):
        jobs = [job_with_request(r, task_id=i) for i, r in enumerate(reqs)]
        assert_same_packing(jobs, reference)

    @given(near_ties, st.booleans())
    @example(RIVAL_RULES["first-in-window"][0], False)
    @example(RIVAL_RULES["argmax"][0], False)
    @example(RIVAL_RULES["algebraic-dv"][0], False)
    def test_near_ties_follow_the_running_scan(self, normalised, scaled):
        reference = as_row(CAPACITY) if scaled else None
        scale = np.array(CAPACITY) if scaled else 1.0
        jobs = [
            job_with_request(tuple(np.array(row) * scale), task_id=i)
            for i, row in enumerate(normalised)
        ]
        assert_same_packing(jobs, reference)

    @pytest.mark.parametrize("rule", sorted(RIVAL_RULES))
    def test_the_examples_tell_the_tie_rules_apart(self, rule):
        """Each ``@example`` above fails an implementation that pairs by
        the rival rule: the running scan's partner is not the rival's."""
        queue, rival = RIVAL_RULES[rule]
        jobs = [job_with_request(r, task_id=i) for i, r in enumerate(queue)]
        partner = 1 + running_scan(midpoint_dv(queue))
        assert partner != 1 + rival(queue)
        assert pack_jobs_per_pair(jobs)[0].job_ids() == (0, partner)
        assert pack_jobs(jobs)[0].job_ids() == (0, partner)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(0, 250),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(("continuous", "grid", "nudged")),
        reference=references,
        twins=st.booleans(),
    )
    def test_deep_queues(self, n, seed, kind, reference, twins):
        """Queues as deep as the overload path sees: the candidate masks
        shrink as partners retire, and ids may repeat (``used`` is keyed
        by id, so pairing one twin retires the other)."""
        rng = np.random.default_rng(seed)
        if kind == "continuous":
            reqs = rng.uniform(0.01, 1.0, (n, 3))
        elif kind == "grid":
            reqs = rng.choice(GRID, (n, 3)) / 7.5
        else:
            reqs = rng.choice((0.25, 0.5, 1.0), (n, 3)) + 3e-13 * rng.integers(
                -6, 7, (n, 3)
            )
        if reference is not None:
            reqs = reqs * np.array(CAPACITY)
        ids = rng.integers(0, max(n // 2, 1), n) if twins else np.arange(n)
        jobs = [
            job_with_request(tuple(r), task_id=int(i)) for r, i in zip(reqs, ids)
        ]
        assert_same_packing(jobs, reference)


class TestSingletonEntities:
    def test_one_entity_per_job(self):
        jobs = [job_with_request((1, 1, 1), task_id=i) for i in range(4)]
        entities = singleton_entities(jobs)
        assert len(entities) == 4
        assert all(not e.is_packed for e in entities)
