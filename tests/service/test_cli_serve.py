"""The ``repro serve`` subcommand and the shared truncation warning."""

import json

import pytest


@pytest.mark.slow
class TestServeCommand:
    def test_parser_options(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["serve", "--jobs", "12", "--method", "RCCR", "--faults"]
        )
        assert args.jobs == 12
        assert args.method == "RCCR"
        assert args.faults == 0.3

    def test_serve_command_runs(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "serve", "--jobs", "10", "--seed", "3", "--method", "RCCR",
                "--show-placements", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "10 job(s) submitted" in out
        assert "placement update(s) streamed" in out
        assert "-> vm" in out  # the echoed placement lines

    def test_serve_streams_events_jsonl(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "events.jsonl"
        assert main(
            ["serve", "--jobs", "8", "--method", "DRA", "--events", str(path)]
        ) == 0
        names = {
            json.loads(line)["event"]
            for line in path.read_text().splitlines()
        }
        assert "slot" in names and "placement" in names


class TestTruncationWarning:
    def test_warns_on_truncated_result(self, capsys, small_scenario):
        import dataclasses

        from repro import api
        from repro.__main__ import _warn_truncated

        scenario = dataclasses.replace(
            small_scenario,
            sim_config=dataclasses.replace(small_scenario.sim_config, max_slots=3),
        )
        result = api.run_one(scenario=scenario, method="RCCR")
        _warn_truncated({"RCCR": result})
        assert "truncated at max_slots" in capsys.readouterr().err

    def test_storm_runs_labelled_method_at_intensity(
        self, capsys, monkeypatch, small_scenario
    ):
        # `repro storms` used to report a truncated run as "run3".
        import dataclasses

        from repro import api
        from repro.__main__ import main

        scenario = dataclasses.replace(
            small_scenario,
            sim_config=dataclasses.replace(small_scenario.sim_config, max_slots=3),
        )
        monkeypatch.setattr(api, "build_scenario", lambda **_: scenario)
        argv = ["storms", "--intensities", "0", "0.5", "--methods", "RCCR", "DRA"]
        assert main(argv) == 0
        assert "RCCR@0, DRA@0, RCCR@0.5, DRA@0.5 " in capsys.readouterr().err

    def test_silent_on_complete_result(self, capsys, small_scenario):
        from repro import api
        from repro.__main__ import _warn_truncated

        result = api.run_one(scenario=small_scenario, method="RCCR")
        _warn_truncated({"RCCR": result})
        assert capsys.readouterr().err == ""
