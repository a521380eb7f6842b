"""``predictor=`` dispatch through the public API and the CLI."""

import pytest

from repro import api
from repro.cluster.profiles import ClusterProfile
from repro.core.config import CorpConfig
from repro.experiments.ablations import run_predictor_ablation
from repro.experiments.scenarios import cluster_scenario
from repro.forecast.quantile import QuantileHistogramPredictor
from repro.obs import OBS, MemorySink


@pytest.fixture(autouse=True)
def pristine_observer():
    OBS.reset()
    yield
    OBS.reset()


@pytest.fixture(scope="module")
def small_scenario():
    return cluster_scenario(
        20, seed=5, profile=ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)
    )


TINY_CFG = dict(n_hidden_layers=1, units_per_layer=8, train_max_epochs=2)
#: The families the registry ships, in registration order.
REGISTERED = ("corp", "quantile", "classify", "markov")


def _behavior(result):
    summary = result.summary()
    summary.pop("allocation_latency_s", None)
    return summary


class TestRunOneDispatch:
    @pytest.mark.parametrize(
        "name", ["quantile", "classify", "markov"]
    )
    def test_each_family_drives_corp(self, small_scenario, name):
        result = api.run_one(
            scenario=small_scenario, method="CORP", predictor=name
        )
        assert result.all_done

    def test_default_is_corp(self, small_scenario):
        cfg = CorpConfig(seed=5, **TINY_CFG)
        implicit = api.run_one(
            scenario=small_scenario, method="CORP", corp_config=cfg
        )
        explicit = api.run_one(
            scenario=small_scenario,
            method="CORP",
            corp_config=cfg,
            predictor="corp",
        )
        assert _behavior(implicit) == _behavior(explicit)

    def test_baselines_ignore_the_knob(self, small_scenario):
        default = api.run_one(scenario=small_scenario, method="DRA")
        swapped = api.run_one(
            scenario=small_scenario, method="DRA", predictor="quantile"
        )
        assert _behavior(default) == _behavior(swapped)

    def test_unknown_name_rejected_with_registry(self, small_scenario):
        with pytest.raises(ValueError, match="registered: corp, quantile"):
            api.run_one(
                scenario=small_scenario, method="CORP", predictor="bogus"
            )

    def test_prefit_instance_is_used_as_is(self, small_scenario):
        instance = QuantileHistogramPredictor().fit(
            small_scenario.history_trace()
        )
        by_instance = api.run_one(
            scenario=small_scenario, method="CORP", predictor=instance
        )
        by_name = api.run_one(
            scenario=small_scenario, method="CORP", predictor="quantile"
        )
        assert _behavior(by_instance) == _behavior(by_name)


class TestCompareAndSweepDispatch:
    def test_removed_family_name_rejected(self, small_scenario):
        with pytest.raises(ValueError, match="unknown predictor 'auto'"):
            api.compare(scenario=small_scenario, predictor="auto")

    def test_compare_name_path(self, small_scenario):
        results = api.compare(
            scenario=small_scenario,
            methods=("CORP", "DRA"),
            predictor="quantile",
        )
        assert all(r.all_done for r in results.values())

    def test_run_meta_records_the_family(self, small_scenario):
        sink = MemorySink()
        with api.capture_events(sink):
            api.compare(
                jobs=12, seed=3, methods=("DRA",), predictor="quantile"
            )
        meta = [e for e in sink.events if e.name == "run_meta"]
        assert len(meta) == 1
        assert meta[0].to_dict()["predictor"] == "quantile"

    def test_run_meta_default_family_is_corp(self, small_scenario):
        sink = MemorySink()
        with api.capture_events(sink):
            api.compare(jobs=12, seed=3, methods=("DRA",))
        (meta,) = [e for e in sink.events if e.name == "run_meta"]
        assert meta.to_dict()["predictor"] == "corp"

    def test_instance_with_workers_rejected(self, small_scenario):
        instance = QuantileHistogramPredictor()
        with pytest.raises(ValueError, match="process boundaries"):
            api.compare(
                scenario=small_scenario, workers=2, predictor=instance
            )
        with pytest.raises(ValueError, match="process boundaries"):
            api.sweep(
                scenarios=[small_scenario], workers=2, predictor=instance
            )

    def test_sweep_instance_matches_name_path(self, small_scenario):
        instance = QuantileHistogramPredictor().fit(
            small_scenario.history_trace()
        )
        by_instance = api.sweep(
            scenarios=[small_scenario],
            methods=("CORP", "DRA"),
            predictor=instance,
        )
        by_name = api.sweep(
            scenarios=[small_scenario],
            methods=("CORP", "DRA"),
            predictor="quantile",
        )
        assert [r.scheduler_name for r in by_instance] == [
            r.scheduler_name for r in by_name
        ]
        assert [_behavior(r) for r in by_instance] == [
            _behavior(r) for r in by_name
        ]

    def test_parallel_name_path_matches_serial(self, small_scenario):
        serial = api.compare(
            jobs=12, seed=3, methods=("CORP", "DRA"), predictor="quantile"
        )
        parallel = api.compare(
            jobs=12,
            seed=3,
            methods=("CORP", "DRA"),
            predictor="quantile",
            workers=2,
        )
        assert {m: _behavior(r) for m, r in serial.items()} == {
            m: _behavior(r) for m, r in parallel.items()
        }


class TestReplayPassthrough:
    def test_replay_rebuilds_the_captured_family(self, tmp_path):
        events = tmp_path / "ev.jsonl"
        api.attach_sink(str(events))
        try:
            api.compare(
                jobs=12, seed=3, methods=("CORP",), predictor="quantile"
            )
        finally:
            api.detach_sink()
        report = api.replay(events=str(events))
        assert report.ok
        assert report.meta["predictor"] == "quantile"


class TestPredictorAblation:
    def test_summary_per_family(self):
        out = run_predictor_ablation(
            n_jobs=20, seed=5, predictors=("quantile", "classify")
        )
        assert list(out) == ["quantile", "classify"]
        for summary in out.values():
            assert "riders" in summary
            assert 0.0 <= summary["overall_utilization"] <= 1.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            run_predictor_ablation(n_jobs=10, predictors=("bogus",))


@pytest.mark.slow
class TestCliDispatch:
    def test_compare_accepts_predictor_flag(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                ["compare", "--jobs", "12", "--quick",
                 "--predictor", "quantile"]
            )
            == 0
        )
        assert "CORP" in capsys.readouterr().out

    def test_unknown_predictor_is_clean_error(self, capsys):
        from repro.__main__ import main

        code = main(
            ["compare", "--jobs", "12", "--predictor", "bogus"]
        )
        assert code == 2
        assert "unknown predictor 'bogus'" in capsys.readouterr().err

    def test_predictors_command_lists_registry(self, capsys):
        from repro.__main__ import main

        assert main(["predictors"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert [row.split()[0] for row in rows] == list(REGISTERED)

    @pytest.mark.parametrize("name", ["auto", "ets"])
    def test_removed_families_are_clean_errors(self, capsys, name):
        from repro.__main__ import main

        assert main(["compare", "--quick", "--jobs", "8", "--predictor", name]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown predictor {name!r} "
            f"(registered: {', '.join(REGISTERED)})\n"
        )
