"""Golden-trace regression digests for the seeded ``compare()`` runs.

A golden file freezes the per-method summary dicts of one seeded
comparison — every method of :data:`repro.api.METHOD_ORDER`, fault-free
and under one seeded fault intensity — with floats rounded to 10
significant digits and a SHA-256 digest over the canonical JSON.  The
committed files under ``tests/golden/`` turn any behavioural drift in
the simulator, schedulers, predictors or fault layer into a readable
test failure (method, metric, old vs new value) instead of a silently
shifted benchmark number.

Since v1.8 each scenario family of the zoo
(:data:`GOLDEN_FAMILIES` — ``pipeline``, ``diurnal``, ``storm``) pins
its own golden file alongside the base one, so the phased-submission
barriers, the diurnal time warp and the revocation-wave storm path are
all frozen, not just the flat-arrival run.

Regenerate after an *intentional* behavioural change with::

    PYTHONPATH=src python -m repro golden --update
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Mapping

__all__ = [
    "GOLDEN_JOBS",
    "GOLDEN_SEED",
    "GOLDEN_FAULT_INTENSITY",
    "GOLDEN_FAULT_SEED",
    "GOLDEN_FAMILIES",
    "NONDETERMINISTIC_KEYS",
    "default_golden_path",
    "family_golden_path",
    "compute_golden",
    "compute_family_golden",
    "golden_digest",
    "diff_golden",
    "write_golden",
    "load_golden",
]

#: Parameters of the committed golden runs — small enough for CI, large
#: enough that every scheduler exercises packing, gating and faults.
GOLDEN_JOBS = 30
GOLDEN_SEED = 7
GOLDEN_TESTBED = "cluster"
GOLDEN_FAULT_INTENSITY = 0.5
GOLDEN_FAULT_SEED = 0

#: Scenario families with their own committed golden file each
#: (``{family}_j{jobs}_seed{seed}.json``).  Mirrors
#: :data:`repro.experiments.scenarios.SCENARIO_FAMILIES`.
GOLDEN_FAMILIES = ("pipeline", "diurnal", "storm")


def default_golden_path(directory: str, *, jobs: int, testbed: str, seed: int) -> str:
    """Canonical file name for one golden parameter set."""
    return os.path.join(directory, f"{testbed}_j{jobs}_seed{seed}.json")


def family_golden_path(directory: str, *, family: str, jobs: int, seed: int) -> str:
    """Canonical file name for one scenario-family golden."""
    return os.path.join(directory, f"{family}_j{jobs}_seed{seed}.json")


#: Summary keys measured from the wall clock — different on every run,
#: so goldens must not freeze them.
NONDETERMINISTIC_KEYS = frozenset({"allocation_latency_s"})


def _round(value: float) -> float:
    """10-significant-digit rounding: stable across platforms, still far
    tighter than any behavioural change would move a summary metric."""
    return float(f"{float(value):.10g}")


def _rounded_summaries(results: Mapping[str, object]) -> dict[str, dict[str, float]]:
    return {
        method: {
            key: _round(val)
            for key, val in result.summary().items()
            if key not in NONDETERMINISTIC_KEYS
        }
        for method, result in results.items()
    }


def golden_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON of a golden payload (sans digest)."""
    body = {k: v for k, v in payload.items() if k != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def compute_golden(
    *,
    jobs: int = GOLDEN_JOBS,
    testbed: str = GOLDEN_TESTBED,
    seed: int = GOLDEN_SEED,
    fault_intensity: float = GOLDEN_FAULT_INTENSITY,
    fault_seed: int = GOLDEN_FAULT_SEED,
) -> dict:
    """Run the seeded comparisons and build the golden payload."""
    from .. import api

    cache = api.PredictorCache()  # both sections run off one offline fit
    fault_free = api.compare(
        jobs=jobs, testbed=testbed, seed=seed, predictor_cache=cache
    )
    plan = api.build_fault_plan(seed=fault_seed, intensity=fault_intensity)
    faulted = api.compare(
        jobs=jobs, testbed=testbed, seed=seed, fault_plan=plan,
        predictor_cache=cache,
    )
    payload: dict = {
        "meta": {
            "jobs": jobs,
            "testbed": testbed,
            "seed": seed,
            "fault_intensity": fault_intensity,
            "fault_seed": fault_seed,
            "methods": list(api.METHOD_ORDER),
            "precision": "10 significant digits",
        },
        "fault_free": _rounded_summaries(fault_free),
        "faulted": _rounded_summaries(faulted),
    }
    payload["digest"] = golden_digest(payload)
    return payload


def compute_family_golden(
    family: str,
    *,
    jobs: int = GOLDEN_JOBS,
    testbed: str = GOLDEN_TESTBED,
    seed: int = GOLDEN_SEED,
) -> dict:
    """Run one scenario-family comparison and build its golden payload.

    The payload's single ``summaries`` section carries the family's
    extra metrics (``pipeline_stall_slots``, ``flash_crowd_p99_wait``,
    ``storm_*``) through :meth:`SimulationResult.summary`, so the
    phased barriers, the time warp and the wave schedule are all under
    the digest.  The storm family runs its builder's default seeded
    plan at intensity :data:`GOLDEN_FAULT_INTENSITY`.
    """
    from .. import api

    if family not in GOLDEN_FAMILIES:
        raise ValueError(
            f"unknown golden family {family!r}; expected one of {GOLDEN_FAMILIES}"
        )
    scenario = api.build_scenario(
        jobs=jobs, testbed=testbed, seed=seed, family=family
    )
    results = api.compare(scenario=scenario)
    payload: dict = {
        "meta": {
            "family": family,
            "jobs": jobs,
            "testbed": testbed,
            "seed": seed,
            "methods": list(api.METHOD_ORDER),
            "precision": "10 significant digits",
        },
        "summaries": _rounded_summaries(results),
    }
    payload["digest"] = golden_digest(payload)
    return payload


def diff_golden(recorded: dict, fresh: dict) -> list[str]:
    """Readable drift lines between a committed and a fresh payload.

    Sections are discovered from the payloads themselves (``fault_free``
    and ``faulted`` for the base golden, ``summaries`` for the family
    goldens), so one differ serves every golden shape.  Values are
    compared exactly — both sides passed through the same
    10-significant-digit rounding, and the runs are deterministic.
    """
    lines: list[str] = []
    sections = sorted((set(recorded) | set(fresh)) - {"meta", "digest"})
    for section in sections:
        old = recorded.get(section, {})
        new = fresh.get(section, {})
        for method in sorted(set(old) | set(new)):
            old_m = old.get(method)
            new_m = new.get(method)
            if old_m is None or new_m is None:
                lines.append(
                    f"{section}/{method}: "
                    f"{'missing from recorded' if old_m is None else 'missing from fresh run'}"
                )
                continue
            for key in sorted(set(old_m) | set(new_m)):
                old_v = old_m.get(key)
                new_v = new_m.get(key)
                if old_v != new_v:
                    lines.append(
                        f"{section}/{method}/{key}: recorded {old_v!r} -> "
                        f"fresh {new_v!r}"
                    )
    if not lines and recorded.get("digest") != fresh.get("digest"):
        lines.append(
            f"digest drift without value drift (metadata changed): "
            f"recorded {recorded.get('digest')} -> fresh {fresh.get('digest')}"
        )
    return lines


def write_golden(path: str, payload: dict) -> None:
    """Write a golden payload as stable, diff-friendly JSON."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_golden(path: str) -> dict:
    """Read a committed golden payload."""
    with open(path) as fh:
        return json.load(fh)
