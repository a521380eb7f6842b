"""The bundled examples import cleanly and expose a main() entry point.

Full executions are exercised manually / in CI-nightly (they run
multi-second simulations); importability plus the __main__ guard is the
regression surface worth pinning here.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # must not run main() on import
    assert callable(getattr(module, "main", None)), path.stem


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "compare_schedulers",
        "iot_burst_queries",
        "capacity_planning",
        "custom_scheduler",
    } <= names


def test_custom_scheduler_runs_its_hooks():
    """The extension example is a working scheduler: its batched forecast
    and admission hooks and its row ``choose_vm`` run through
    ``run_scenario`` on a small scenario, and riders are admitted."""
    from repro import cluster_scenario
    from repro.experiments.runner import run_scenario

    path = pathlib.Path(__file__).parent.parent / "examples" / "custom_scheduler.py"
    spec = importlib.util.spec_from_file_location("custom_scheduler", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    scheduler = module.OracleScheduler()
    calls = {"forecast": 0, "admission": 0, "choose_vm": 0}

    def counted(name, hook):
        def run(*args):
            calls[name] += 1
            return hook(*args)

        return run

    scheduler.predict_vms_unused = counted("forecast", scheduler.predict_vms_unused)
    scheduler.opportunistic_admission_sizes = counted(
        "admission", scheduler.opportunistic_admission_sizes
    )
    scheduler.choose_vm = counted("choose_vm", scheduler.choose_vm)
    result = run_scenario(cluster_scenario(n_jobs=30, seed=7), scheduler)
    assert result.all_done
    assert all(calls.values()), calls
    assert any(job.opportunistic for job in result.jobs)
