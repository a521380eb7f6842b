"""The repro.api facade (v1.2), LRU cache and event wiring."""

import json

import pytest

from repro import api
from repro.cluster.profiles import ClusterProfile
from repro.core.config import CorpConfig
from repro.experiments.runner import (
    METHOD_ORDER,
    PredictorCache,
    run_specs,
    sweep_specs,
)
from repro.obs import OBS, MemorySink, events_by_name, read_jsonl


@pytest.fixture(autouse=True)
def pristine_observer():
    OBS.reset()
    yield
    OBS.reset()


@pytest.fixture(scope="module")
def small_scenario():
    from repro.experiments.scenarios import cluster_scenario

    return cluster_scenario(
        n_jobs=20, seed=5, profile=ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)
    )


TINY_CFG = dict(n_hidden_layers=1, units_per_layer=8, train_max_epochs=2)


class TestBuildScenario:
    def test_cluster_and_ec2(self):
        assert api.build_scenario(jobs=30, testbed="cluster").n_jobs == 30
        assert api.build_scenario(jobs=30, testbed="ec2").profile.name == "ec2"

    def test_unknown_testbed_rejected(self):
        with pytest.raises(ValueError, match="unknown testbed"):
            api.build_scenario(testbed="mars")

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            api.build_scenario(30)


class TestRunOne:
    def test_unknown_method_rejected(self, small_scenario):
        with pytest.raises(ValueError, match="unknown method"):
            api.run_one(scenario=small_scenario, method="Borg")

    def test_keyword_only(self, small_scenario):
        with pytest.raises(TypeError):
            api.run_one(small_scenario, "DRA")

    def test_runs_one_method(self, small_scenario):
        result = api.run_one(scenario=small_scenario, method="DRA")
        assert result.scheduler_name == "DRA"
        assert result.all_done


class TestCompare:
    def test_subset_of_methods(self, small_scenario):
        results = api.compare(scenario=small_scenario, methods=("RCCR", "DRA"))
        assert list(results) == ["RCCR", "DRA"]
        assert all(r.all_done for r in results.values())

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            api.compare(50)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_unknown_method_rejected(self, small_scenario, workers):
        # Used to surface as a raw KeyError from the factory lookup.
        with pytest.raises(ValueError, match="unknown method 'FOO'.*CORP"):
            api.compare(
                scenario=small_scenario, methods=("DRA", "FOO"), workers=workers
            )
        with pytest.raises(ValueError, match="unknown method 'FOO'.*CORP"):
            api.sweep(
                scenarios=[small_scenario], methods=["FOO"], workers=workers
            )

    def test_negative_workers_rejected(self, small_scenario, capsys):
        # Used to run serially and exit 0, as if workers were 0.
        from repro.__main__ import main

        with pytest.raises(ValueError, match="workers must be >= 0, got -1"):
            run_specs(specs=[], workers=-1)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            api.compare(scenario=small_scenario, methods=("DRA",), workers=-1)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            api.sweep(scenarios=[small_scenario], methods=["DRA"], workers=-1)
        assert main(["compare", "--quick", "--jobs", "8", "--workers", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: workers must be >= 0, got -1\n"
        assert captured.out == ""

    def test_memory_sink_with_workers_rejected(self, small_scenario):
        # In-memory sinks cannot receive events from worker processes;
        # v1.2 raises a clear error instead of silently forcing serial.
        api.attach_sink(MemorySink())
        try:
            with pytest.raises(ValueError, match="in-memory"):
                api.compare(
                    scenario=small_scenario, methods=("DRA",), workers=4
                )
        finally:
            api.detach_sink()

    def test_profiling_with_workers_rejected(self, small_scenario):
        from repro import obs

        obs.enable_profiling()
        try:
            with pytest.raises(ValueError, match="profiling"):
                api.compare(
                    scenario=small_scenario, methods=("DRA",), workers=2
                )
        finally:
            obs.disable_profiling()

    def test_jsonl_sink_with_workers_merges_shards(
        self, small_scenario, tmp_path
    ):
        # A path-backed JSONL sink shards per worker and merges on join:
        # parallel capture keeps working instead of being forced serial.
        path = tmp_path / "ev.jsonl"
        api.attach_sink(str(path))
        try:
            results = api.compare(
                scenario=small_scenario, methods=("DRA", "RCCR"), workers=2
            )
        finally:
            api.detach_sink()
        assert list(results) == ["DRA", "RCCR"]
        grouped = events_by_name(read_jsonl(str(path)))
        assert grouped["slot"]  # worker events reached the parent's file
        # Merged in spec (method) order: every DRA slot precedes RCCR's.
        schedulers = [e["scheduler"] for e in grouped["slot"]]
        assert schedulers.index("RCCR") == len(
            [s for s in schedulers if s == "DRA"]
        )
        assert not list(tmp_path.glob("*.shard-*"))  # shards cleaned up


class TestRemovedPositionalForms:
    """The v1.1 deprecation shims are gone: positional calls now raise."""

    def test_run_methods_positional_raises(self, small_scenario):
        # runner.run_methods is gone; its replacement, api.compare, is
        # keyword-only in the same way.
        with pytest.raises(TypeError):
            api.compare(small_scenario, methods=("DRA",))

    def test_sweep_specs_positional_raises(self, small_scenario):
        with pytest.raises(TypeError):
            sweep_specs([small_scenario])

    def test_run_specs_positional_raises(self):
        with pytest.raises(TypeError):
            run_specs([])

    def test_cache_keyword_raises(self):
        with pytest.raises(TypeError):
            run_specs(specs=[], cache=PredictorCache())

    def test_keyword_forms_work_without_warning(self, small_scenario, recwarn):
        assert len(sweep_specs(scenarios=[small_scenario])) == len(METHOD_ORDER)
        assert run_specs(specs=[]) == []
        deprecations = [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations

    def test_scenario_still_required(self):
        with pytest.raises(TypeError, match="scenario"):
            api.run_one(method="DRA")


class TestPredictorCacheLru:
    def test_eviction_and_hit_miss_counts(self, small_scenario):
        history = small_scenario.history_trace()
        cache = PredictorCache(maxsize=1)
        cfg_a = CorpConfig(**TINY_CFG, seed=1)
        cfg_b = CorpConfig(**TINY_CFG, seed=2)
        first = cache.get(cfg_a, history)
        assert cache.get(cfg_a, history) is first  # hit
        cache.get(cfg_b, history)  # miss; evicts cfg_a
        assert len(cache) == 1
        assert cache.get(cfg_a, history) is not first  # refit after eviction
        assert (cache.hits, cache.misses) == (1, 3)

    def test_hit_miss_counters_reach_obs(self, small_scenario):
        from repro import obs

        history = small_scenario.history_trace()
        cache = PredictorCache()
        cfg = CorpConfig(**TINY_CFG, seed=3)
        obs.enable_profiling()
        cache.get(cfg, history)
        cache.get(cfg, history)
        assert OBS.counters.get("predictor_cache.miss") == 1.0
        assert OBS.counters.get("predictor_cache.hit") == 1.0

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            PredictorCache(maxsize=0)

    def test_plain_dict_seed_normalized(self):
        cache = PredictorCache(_cache={})
        assert len(cache) == 0


class TestPlacementEventRegression:
    def test_one_placement_event_per_placed_job(self, small_scenario):
        """Every placed job yields exactly one placement event."""
        sink = api.attach_sink(MemorySink())
        try:
            result = api.run_one(scenario=small_scenario, method="RCCR")
        finally:
            api.detach_sink()
        placements = sink.named("placement")
        placed_jobs = [e.fields["job"] for e in placements]
        assert len(placed_jobs) == len(set(placed_jobs))  # one event per job
        assert len(placed_jobs) == result.n_completed
        assert result.all_done and result.n_rejected == 0
        for event in placements:
            assert event.fields["scheduler"] == "RCCR"
            assert event.fields["vm"] is not None


class TestDisabledOverhead:
    def test_disabled_path_never_builds_events(self, small_scenario, monkeypatch):
        """With the observer disabled, no emit/count/gauge call executes.

        This is the structural guarantee behind the <5% no-sink overhead
        budget: every instrumentation site guards on ``OBS.enabled``, so
        the disabled cost is one attribute load and a branch — no Event
        objects, no dict packing, no sink dispatch.
        """
        def explode(*args, **kwargs):
            raise AssertionError("instrumentation ran while disabled")

        # Observer uses __slots__, so patch the hooks on the class.
        monkeypatch.setattr(type(OBS), "emit", explode)
        monkeypatch.setattr(type(OBS), "count", explode)
        monkeypatch.setattr(type(OBS), "gauge", explode)
        result = api.run_one(scenario=small_scenario, method="DRA")
        assert result.all_done


class TestProfileRun:
    def test_report_shape(self):
        report = api.profile_run(jobs=10, methods=("DRA", "RCCR"))
        assert set(report["summaries"]) == {"DRA", "RCCR"}
        stages = {s["stage"] for s in report["stages"]}
        assert "trace:generate" in stages
        assert "run:DRA" in stages and "run:RCCR" in stages
        assert report["total_s"] > 0
        counters = report["counters"]
        assert counters["sim.slots"] > 0
        # Every online VM's slot is executed or skipped (no faults here).
        n_vms = api.build_scenario(jobs=10).profile.n_vms
        assert counters["sim.vm_slots_skipped"] > 0
        assert (
            counters["sim.vm_slots_executed"] + counters["sim.vm_slots_skipped"]
            == counters["sim.slots"] * n_vms
        )
        assert not OBS.enabled  # profiling switched back off


@pytest.mark.slow
class TestCliObservability:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_compare_events_writes_parseable_jsonl(self, tmp_path, capsys, cli_store):
        from repro.__main__ import main

        out = tmp_path / "ev.jsonl"
        assert main([
            "compare", "--jobs", "15", "--events", str(out), "--store", cli_store,
        ]) == 0
        grouped = events_by_name(read_jsonl(str(out)))
        assert {"slot", "placement", "preemption"} <= set(grouped)
        assert not OBS.enabled  # CLI detached its sink

    def test_compare_events_with_workers_merges_shards(
        self, tmp_path, capsys, cli_store
    ):
        from repro.__main__ import main

        out = tmp_path / "ev.jsonl"
        code = main([
            "compare", "--jobs", "12", "--workers", "4",
            "--events", str(out), "--seed", "3", "--store", cli_store,
        ])
        assert code == 0
        grouped = events_by_name(read_jsonl(str(out)))
        assert grouped["slot"]  # worker events merged into the target file
        assert set(METHOD_ORDER) <= {
            e["scheduler"] for e in grouped["slot"]
        }
        assert not list(tmp_path.glob("*.shard-*"))  # shards cleaned up

    def test_profile_command_writes_report(self, tmp_path, capsys, cli_store):
        from repro.__main__ import main

        out = tmp_path / "profile.json"
        assert main([
            "profile", "--jobs", "10", "--out", str(out), "--store", cli_store,
        ]) == 0
        stdout = capsys.readouterr().out
        assert "per-stage wall clock" in stdout and "counters" in stdout
        report = json.loads(out.read_text())
        assert report["stages"] and report["summaries"]

    def test_cli_error_is_clean_nonzero(self, tmp_path, capsys, cli_store):
        from repro.__main__ import main

        # Unwritable events path → OSError → one stderr line, exit 2.
        bad = tmp_path / "missing-dir" / "ev.jsonl"
        code = main([
            "compare", "--jobs", "10", "--events", str(bad), "--store", cli_store,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_argparse_rejects_unknown_figure(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig99"])
        assert exc.value.code != 0


class TestSinkHygiene:
    """The process-global OBS sink must never leak out of an entry point.

    v1.6 regression tests: ``profile_run(events=...)`` and
    ``capture_events`` both attach the process-global sink and must
    detach it in ``try``/``finally`` — a mid-run exception used to leave
    a stale sink attached, silently swallowing every later run's events.
    """

    def test_profile_run_detaches_events_sink_on_success(self, tmp_path):
        out = tmp_path / "ev.jsonl"
        report = api.profile_run(jobs=10, methods=("DRA",), events=str(out))
        assert OBS.sink is None and not OBS.enabled
        assert report["predictor"] == "corp"
        grouped = events_by_name(read_jsonl(str(out)))
        assert grouped["slot"]

    def test_profile_run_detaches_events_sink_on_failure(
        self, tmp_path, monkeypatch
    ):
        from repro.api import _run

        def explode(**kwargs):
            raise RuntimeError("mid-run failure")

        monkeypatch.setattr(_run, "compare", explode)
        with pytest.raises(RuntimeError, match="mid-run failure"):
            api.profile_run(jobs=10, events=str(tmp_path / "ev.jsonl"))
        assert OBS.sink is None
        assert not OBS.enabled  # profiling switched back off too

    def test_profile_run_without_events_keeps_caller_sink(self):
        sink = MemorySink()
        api.attach_sink(sink)
        try:
            api.profile_run(jobs=10, methods=("DRA",))
            assert OBS.sink is sink  # caller-attached sink untouched
        finally:
            api.detach_sink()
        assert OBS.sink is None

    def test_capture_events_detaches_on_failure(self):
        with pytest.raises(RuntimeError, match="boom"):
            with api.capture_events(MemorySink()):
                raise RuntimeError("boom")
        assert OBS.sink is None and not OBS.enabled


class TestScaleConfigThreading:
    """``scale=`` reaches the simulator and never changes the answer.

    ``shards`` is a deprecated no-op: still threaded through, still
    validated, warns when set above 1.
    """

    def test_sharded_run_matches_default(self, small_scenario):
        base = api.run_one(scenario=small_scenario, method="RCCR")
        with pytest.warns(DeprecationWarning, match="shards"):
            scale = api.ScaleConfig(shards=3)
        sharded = api.run_one(
            scenario=small_scenario, method="RCCR", scale=scale
        )
        expect = base.summary()
        got = sharded.summary()
        # Wall-clock is the one legitimately nondeterministic field.
        expect.pop("allocation_latency_s")
        got.pop("allocation_latency_s")
        assert got == expect

    def test_sharded_placements_match_default(self, small_scenario):
        streams = []
        with pytest.warns(DeprecationWarning, match="shards"):
            sharded = api.ScaleConfig(shards=4)
        for scale in (None, sharded):
            sink = MemorySink()
            api.attach_sink(sink)
            try:
                api.run_one(
                    scenario=small_scenario, method="RCCR", scale=scale
                )
            finally:
                api.detach_sink()
            streams.append([
                (e.fields["slot"], e.fields["job"], e.fields["vm"])
                for e in sink.named("placement")
            ])
            assert streams[-1], "run emitted no placement events"
        assert streams[0] == streams[1]

    def test_scale_is_keyword_only_and_validated(self, small_scenario):
        with pytest.raises(ValueError):
            api.ScaleConfig(shards=0)
        with pytest.warns(DeprecationWarning, match="shards"):
            scale = api.ScaleConfig(shards=2)
        scenario = small_scenario.with_scale(scale)
        assert scenario.sim_config.scale.shards == 2
        assert small_scenario.with_scale(None) is small_scenario
