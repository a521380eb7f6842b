"""Fast smoke tests of the figure functions, ablations, mixed runs and CLI.

These use tiny job counts / level sets; the full-size runs live in
``benchmarks/``.
"""

import pytest

from repro.experiments.ablations import run_ablations
from repro.experiments.figures import (
    FigureResult,
    fig06_prediction_error,
    fig08_utilization_vs_slo,
    fig09_slo_vs_confidence,
    fig10_overhead,
)
from repro.experiments.mixed import mixed_scenario, run_mixed_workload
from repro.experiments.runner import METHOD_ORDER


@pytest.fixture(scope="module")
def cache(predictor_cache):
    return predictor_cache


class TestFigureResult:
    def test_add_and_table(self):
        result = FigureResult(
            figure_id="x", title="t", x_label="n", x_values=[1, 2]
        )
        for m in METHOD_ORDER:
            result.add(m, 0.1)
            result.add(m, 0.2)
        table = result.to_table()
        assert "CORP" in table and "0.2000" in table

    def test_shape_holds_wiring(self):
        result = FigureResult(
            figure_id="x", title="t", x_label="n", x_values=[1],
            expected_order=("a", "b"),
        )
        result.series = {"a": [1.0], "b": [2.0]}
        assert result.shape_holds()


class TestFigureSmoke:
    def test_fig06_small(self, cache):
        result = fig06_prediction_error(job_counts=(20, 40), cache=cache)
        assert set(result.series) == set(METHOD_ORDER)
        assert all(len(v) == 2 for v in result.series.values())
        assert all(0.0 <= x <= 1.0 for v in result.series.values() for x in v)

    def test_fig08_small(self, cache):
        curves = fig08_utilization_vs_slo(n_jobs=40, levels=(0.0, 1.0), cache=cache)
        assert set(curves) == set(METHOD_ORDER)
        for points in curves.values():
            assert len(points) == 2
            for slo, util in points:
                assert 0.0 <= slo <= 1.0 and 0.0 <= util <= 1.0

    def test_fig09_small(self, cache):
        result = fig09_slo_vs_confidence(n_jobs=40, levels=(0.5, 0.9), cache=cache)
        assert all(len(v) == 2 for v in result.series.values())

    def test_fig10_small(self, cache):
        latencies = fig10_overhead(n_jobs=40, cache=cache)
        assert set(latencies) == set(METHOD_ORDER)
        assert all(v > 0 for v in latencies.values())

    def test_unknown_testbed_rejected(self, cache):
        with pytest.raises(ValueError):
            fig10_overhead(testbed="mars", cache=cache)


class TestAblationsSmoke:
    def test_subset_of_variants(self, cache):
        results = run_ablations(
            n_jobs=30,
            cache=cache,
            variants={"full": {}, "A3-no-ci": {"use_confidence_interval": False}},
        )
        assert set(results) == {"full", "A3-no-ci"}
        for s in results.values():
            assert "riders" in s


@pytest.mark.slow
class TestMixedSmoke:
    def test_scenario_builder(self):
        scenario = mixed_scenario(50, short_fraction=0.6)
        assert scenario.trace_config.short_fraction == 0.6
        assert scenario.trace_config.long_duration_range_s == (900.0, 1800.0)

    def test_run_two_methods(self, cache):
        results = run_mixed_workload(
            n_jobs=25, cache=cache, methods=("CORP", "DRA")
        )
        assert set(results) == {"CORP", "DRA"}
        assert all(s["n_long"] >= 0 for s in results.values())

    def test_unknown_method_rejected(self, cache):
        with pytest.raises(ValueError):
            run_mixed_workload(n_jobs=10, cache=cache, methods=("Borg",))


@pytest.mark.slow
class TestCli:
    def test_parser_commands(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        args = parser.parse_args(["compare", "--jobs", "10"])
        assert args.jobs == 10
        args = parser.parse_args(["figure", "fig09", "--testbed", "ec2"])
        assert args.name == "fig09"

    def test_compare_command_runs(self, capsys, cli_store):
        from repro.__main__ import main

        assert main(
            ["compare", "--jobs", "15", "--seed", "3", "--store", cli_store]
        ) == 0
        out = capsys.readouterr().out
        assert "CORP" in out and "utilization" in out

    def test_figure_command_runs(self, capsys):
        from repro.__main__ import main

        assert main(["figure", "fig10"]) == 0
        assert "allocation latency" in capsys.readouterr().out

    def test_invalid_figure_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["storms", "--quick", "--jobs", "8", "--intensities", "0"],
            ["check", "--quick", "--jobs", "8"],
        ],
        ids=["storms", "check"],
    )
    def test_unknown_method_is_a_one_line_error(self, argv, capsys):
        # Used to escape main() as a raw KeyError traceback.
        from repro.__main__ import main

        assert main(argv + ["--methods", "FOO"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown method 'FOO'")
        assert err.count("\n") == 1

    def test_negative_storm_intensity_is_a_one_line_error(self, capsys):
        # Used to exit 0 with a fault-free table headed "intensity -1":
        # the `> 0` control-point guard swallowed the negative value.
        from repro.__main__ import main

        argv = ["storms", "--quick", "--jobs", "8", "--intensities", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: intensity must be >= 0\n"
        assert "storm intensity" not in captured.out

    def test_workers_parser_option(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["compare", "--workers", "2"])
        assert args.workers == 2

    def test_cache_parser_options(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["cache", "warm", "--jobs", "20"])
        assert args.action == "warm" and args.jobs == 20
        args = build_parser().parse_args(
            ["compare", "--store", "/tmp/s", "--warm-start",
             "--predictor-cache-size", "4"]
        )
        assert args.store == "/tmp/s" and args.warm_start
        assert args.predictor_cache_size == 4
        # Bare --store means "the default directory".
        args = build_parser().parse_args(["profile", "--store"])
        assert args.store == ""

    def test_warm_start_without_store_rejected(self, capsys):
        from repro.__main__ import main

        assert main(["compare", "--jobs", "5", "--warm-start"]) == 2
        assert "--warm-start requires --store" in capsys.readouterr().err

    def test_cache_lifecycle_commands(self, tmp_path, capsys):
        from repro.__main__ import main

        store_dir = str(tmp_path / "store")
        assert main(["cache", "stats", "--dir", store_dir]) == 0
        assert main(
            ["cache", "warm", "--jobs", "12", "--quick", "--dir", store_dir]
        ) == 0
        assert "fitted and stored" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", store_dir]) == 0
        assert "1" in capsys.readouterr().out
        # Warming again is a no-op load, and compare reuses the artifact.
        assert main(
            ["cache", "warm", "--jobs", "12", "--quick", "--dir", store_dir]
        ) == 0
        assert "already warm" in capsys.readouterr().out
        assert main(
            ["compare", "--jobs", "12", "--seed", "7", "--store", store_dir]
        ) == 0
        assert "1 hit(s)" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", store_dir]) == 0
        assert "cleared 1 artifact" in capsys.readouterr().out
