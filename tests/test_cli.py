"""CLI entry point (fast experiments only)."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "routeID" in out and "0b10000" in out

    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        assert "two-path TE optimization" in capsys.readouterr().out

    def test_fig5_runs(self, capsys):
        assert main(["fig5"]) == 0
        assert "indoor" in capsys.readouterr().out

    def test_fig9_runs(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "PolKA node IDs" in out and "config applied: True" in out

    def test_every_registered_experiment_has_description(self):
        for _key, (description, runner) in EXPERIMENTS.items():
            assert description
            assert callable(runner)


class TestScenarioCli:
    def test_scenarios_list(self, capsys):
        from repro.scenarios import list_scenarios

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for scenario in list_scenarios():
            assert scenario.name in out
        assert "topology" in out and "traffic" in out

    def test_scenarios_run_fluid(self, capsys):
        assert main([
            "scenarios", "run", "ring-uniform",
            "--backend", "fluid", "--horizon", "8", "--warmup", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "ring-uniform" in out and "[fluid]" in out
        assert "throughput" in out

    def test_scenarios_run_des(self, capsys):
        assert main([
            "scenarios", "run", "p4lab-bursty-udp",
            "--horizon", "5", "--warmup", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "[des]" in out and "migrations" in out

    def test_scenarios_run_unknown_name(self, capsys):
        assert main(["scenarios", "run", "atlantis"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenarios_compare(self, capsys):
        assert main([
            "scenarios", "compare", "line-baseline",
            "--horizon", "5", "--warmup", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "des" in out and "fluid" in out
        assert "Mbps total" in out

    def test_scenarios_seed_override_is_reported(self, capsys):
        assert main([
            "scenarios", "run", "ring-uniform",
            "--backend", "fluid", "--seed", "5",
        ]) == 0
        assert "seed=5" in capsys.readouterr().out

    def test_scenarios_run_hybrid(self, capsys):
        assert main([
            "scenarios", "run", "wan-elephant-mice",
            "--backend", "hybrid", "--horizon", "5", "--warmup", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "[hybrid]" in out and "sim_events" in out

    def test_scenarios_run_profile(self, capsys, tmp_path):
        """--profile wraps the run in cProfile: same summary, plus the
        hot-loop / call-path tables and a loadable raw dump."""
        import pstats

        dump = tmp_path / "run.prof"
        assert main([
            "scenarios", "run", "line-baseline",
            "--backend", "fluid", "--horizon", "4", "--warmup", "1",
            "--profile", str(dump),
        ]) == 0
        out = capsys.readouterr().out
        assert "by internal time" in out and "by cumulative time" in out
        assert "line-baseline" in out and "throughput" in out
        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0

    def test_scenarios_run_profile_summary_only(self, capsys):
        # bare --profile prints the tables without writing a dump
        assert main([
            "scenarios", "run", "line-baseline",
            "--backend", "fluid", "--horizon", "4", "--warmup", "1",
            "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "by internal time" in out
        assert "raw profile written" not in out

    def test_scenarios_list_includes_scale_tier(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "scale-fat-tree-2k" in out and "scale_mix" in out

    def test_sweep_all_excludes_scale_tier(self, monkeypatch, tmp_path):
        """--all must not drag 2k-10k-flow scenarios into a sweep; they
        are named explicitly."""
        from repro.scenarios import list_scenarios
        from repro.sweep import SweepSpec

        class _Abort(Exception):
            pass

        names = []

        def spy(self):
            names.extend(self.scenarios)
            raise _Abort()

        monkeypatch.setattr(SweepSpec, "expand", spy)
        with pytest.raises(_Abort):
            main([
                "scenarios", "sweep", "--all",
                "--cache-dir", str(tmp_path),
            ])
        assert names == [
            s.name for s in list_scenarios(include_scale=False)
        ]
        assert names and not any(n.startswith("scale-") for n in names)


class TestSweepCli:
    GRID = [
        "scenarios", "sweep", "line-baseline", "ring-uniform",
        "--backend", "fluid", "--seeds", "0-2",
        "--horizon", "8", "--warmup", "2",
    ]

    def test_sweep_prints_aggregate_table(self, capsys, tmp_path):
        assert main(self.GRID + ["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "line-baseline" in out and "ring-uniform" in out
        assert "Mbps mean" in out and "Mbps p95" in out

    def test_second_sweep_is_served_from_cache(self, capsys, tmp_path):
        args = self.GRID + ["--cache-dir", str(tmp_path), "--stats"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "6 cache hits" not in first
        assert main(args + ["--jobs", "2"]) == 0
        second = capsys.readouterr().out
        assert "6 cache hits (100.0%)" in second
        assert "0 executed" in second

    def test_sweep_jobs_do_not_change_the_json_artifact(self, tmp_path):
        for jobs, name in (("1", "a.json"), ("3", "b.json")):
            assert main(
                self.GRID
                + ["--cache-dir", str(tmp_path), "--jobs", jobs,
                   "--json", str(tmp_path / name)]
            ) == 0
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "agg.csv"
        assert main(
            self.GRID + ["--cache-dir", str(tmp_path), "--csv", str(out_csv)]
        ) == 0
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("scenario,backend,variant,n_seeds")

    def test_sweep_no_cache_leaves_no_artifacts(self, tmp_path):
        assert main(
            self.GRID + ["--cache-dir", str(tmp_path), "--no-cache"]
        ) == 0
        assert list(tmp_path.iterdir()) == []

    def test_sweep_policy_grid_shows_pairwise_table(self, capsys, tmp_path):
        assert main([
            "scenarios", "sweep", "line-baseline",
            "--backend", "fluid", "--horizon", "8", "--warmup", "2",
            "--policy", "k_paths=1", "--policy", "k_paths=2",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "k_paths=1" in out and "k_paths=2" in out
        assert "B - A" in out

    def test_sweep_rejects_bad_seeds(self, capsys, tmp_path):
        assert main([
            "scenarios", "sweep", "line-baseline",
            "--seeds", "zero", "--cache-dir", str(tmp_path),
        ]) == 2
        assert "bad seed spec" in capsys.readouterr().err

    def test_sweep_rejects_unknown_scenario(self, capsys, tmp_path):
        assert main([
            "scenarios", "sweep", "atlantis", "--cache-dir", str(tmp_path),
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_compare_from_cache_errors_when_cold(self, capsys, tmp_path):
        assert main([
            "scenarios", "compare", "line-baseline",
            "--from-cache", "--cache-dir", str(tmp_path),
        ]) == 2
        assert "no artifact" in capsys.readouterr().err

    def test_compare_from_cache_serves_a_warm_sweep(self, capsys, tmp_path):
        assert main([
            "scenarios", "sweep", "line-baseline",
            "--backend", "des", "--backend", "fluid",
            "--horizon", "5", "--warmup", "1",
            "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "scenarios", "compare", "line-baseline",
            "--from-cache", "--cache-dir", str(tmp_path),
            "--horizon", "5", "--warmup", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "des" in out and "fluid" in out and "Mbps total" in out

    def test_sweep_rejects_bad_override_cleanly(self, capsys, tmp_path):
        assert main([
            "scenarios", "sweep", "line-baseline",
            "--horizon", "-5", "--cache-dir", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "horizon must be positive" in err

    def test_sweep_rejects_unknown_policy_field_cleanly(self, capsys, tmp_path):
        assert main([
            "scenarios", "sweep", "line-baseline",
            "--backend", "fluid", "--policy", "bogus_field=1",
            "--cache-dir", str(tmp_path),
        ]) == 2
        assert "bogus_field" in capsys.readouterr().err

    def test_sweep_rejects_reversed_seed_range(self, capsys, tmp_path):
        assert main([
            "scenarios", "sweep", "line-baseline",
            "--seeds", "0,5-3", "--cache-dir", str(tmp_path),
        ]) == 2
        assert "empty seed range '5-3'" in capsys.readouterr().err

    def test_sweep_rejects_zero_jobs_as_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "scenarios", "sweep", "line-baseline",
                "--jobs", "0", "--cache-dir", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_compare_from_cache_tabulates_a_single_backend(
        self, capsys, tmp_path
    ):
        """A fluid-only sweep is a legitimate --from-cache source: the
        cached backend is tabulated and the absent one noted, not fatal."""
        assert main([
            "scenarios", "sweep", "line-baseline", "--backend", "fluid",
            "--horizon", "8", "--warmup", "2",
            "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "scenarios", "compare", "line-baseline",
            "--from-cache", "--cache-dir", str(tmp_path),
            "--horizon", "8", "--warmup", "2",
        ]) == 0
        captured = capsys.readouterr()
        assert "fluid" in captured.out
        assert "line-baseline[des] seed=0" in captured.err  # the note


class TestBackendsCli:
    def test_backends_list_shows_the_registry(self, capsys):
        from repro.backends import list_backends

        assert main(["backends", "list"]) == 0
        out = capsys.readouterr().out
        for caps in list_backends():
            assert caps.name in out
            assert caps.description in out
        assert "packet" in out and "external" in out

    def test_run_accepts_every_registered_backend_name(self):
        """--backend choices come from the registry, not a frozen tuple."""
        from repro.backends import backend_names
        from repro.cli import build_scenarios_parser

        parser = build_scenarios_parser()
        for name in backend_names():
            args = parser.parse_args(["run", "ring-uniform",
                                      "--backend", name])
            assert args.backend == name

    def test_run_emulation_mock_end_to_end(self, capsys):
        assert main([
            "scenarios", "run", "ring-uniform",
            "--backend", "emulation-mock",
            "--horizon", "6", "--warmup", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "[emulation-mock]" in out
        assert "throughput" in out

    def test_run_rejects_unregistered_backend_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "run", "ring-uniform", "--backend", "ns3"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSweepExecutorCli:
    GRID = [
        "scenarios", "sweep", "line-baseline",
        "--backend", "fluid", "--seeds", "0-1",
        "--horizon", "6", "--warmup", "2",
    ]

    def test_work_queue_executor_runs_a_sweep(self, capsys, tmp_path):
        assert main(self.GRID + [
            "--cache-dir", str(tmp_path / "cache"),
            "--executor", "work-queue",
            "--queue-dir", str(tmp_path / "queue"),
        ]) == 0
        out = capsys.readouterr().out
        assert "line-baseline" in out
        assert (tmp_path / "queue" / "results").is_dir()

    def test_work_queue_without_queue_dir_is_a_user_error(
        self, capsys, tmp_path
    ):
        assert main(self.GRID + [
            "--cache-dir", str(tmp_path),
            "--executor", "work-queue",
        ]) == 2
        assert "--queue-dir" in capsys.readouterr().err

    def test_store_flag_writes_columnar_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "sweep-store.json"
        assert main(self.GRID + [
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(target),
        ]) == 0
        assert "columnar store written to" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert payload["format"] == "repro-sweep-columnar"
        assert payload["rows"] == 2
        assert payload["columns"]["scenario"] == ["line-baseline"] * 2

    def test_serial_executor_matches_default_output(self, capsys, tmp_path):
        args = self.GRID + ["--no-cache", "--json", "-"]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main(args + ["--executor", "serial"]) == 0
        explicit = capsys.readouterr().out
        assert default == explicit


class TestServiceCli:
    RUN = [
        "service", "run", "ring-steady",
        "--rate", "30", "--duration", "4", "--warmup", "1", "--seed", "2",
    ]

    def test_service_list(self, capsys):
        from repro.scenarios import list_workloads

        assert main(["service", "list"]) == 0
        out = capsys.readouterr().out
        for workload in list_workloads():
            assert workload.name in out
        assert "fat-tree-churn" in out and "geo-diurnal" in out

    def test_service_run_prints_summary(self, capsys):
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "ring-steady" in out and "seed=2" in out
        assert "admission" in out and "latency" in out
        assert "p99" in out

    def test_service_run_json_to_stdout_is_deterministic(self, capsys):
        import json

        assert main(self.RUN + ["--json", "-"]) == 0
        first = capsys.readouterr().out
        assert main(self.RUN + ["--json", "-"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["workload"] == "ring-steady"
        assert payload["rate"] == 30.0
        assert payload["admitted"] + payload["rejected"] + \
            payload["deferred_pending"] == payload["offered"]

    def test_service_run_json_to_file(self, capsys, tmp_path):
        import json

        target = tmp_path / "service.json"
        assert main(self.RUN + ["--json", str(target)]) == 0
        out = capsys.readouterr().out
        assert "admission" in out  # summary still printed
        payload = json.loads(target.read_text())
        assert payload["duration_s"] == 4.0

    def test_service_run_unknown_workload(self, capsys):
        assert main(["service", "run", "atlantis"]) == 2
        assert "unknown service workload" in capsys.readouterr().err


class TestObjectivesCli:
    def test_objectives_list_prints_the_registry(self, capsys):
        from repro.hecate.objectives import list_objectives

        assert main(["objectives", "list"]) == 0
        out = capsys.readouterr().out
        for spec in list_objectives():
            assert spec.name in out
            assert spec.description in out
        assert "app-aware" in out
        # the table is name / app-aware / description and nothing else:
        # ObjectiveSpec.joint is a registrant's declaration to the
        # non-packet backends, not a column
        lines = out.splitlines()
        assert lines[0] == "name                 app-aware description"
        assert lines[2] == (
            "max_bandwidth        -         most predicted available "
            "bandwidth (the paper's default)"
        )
        assert len(lines) == 2 + len(list_objectives())

    def test_objective_choices_come_from_the_registry(self, capsys):
        """A name argparse accepts must be a registered objective, and
        an unregistered one must be rejected at parse time."""
        from repro.hecate.objectives import objective_names

        with pytest.raises(SystemExit):
            main(["scenarios", "run", "qoe-mixed-steady",
                  "--objective", "max_everything"])
        err = capsys.readouterr().err
        for name in objective_names():
            assert name in err  # argparse lists the valid choices

    def test_scenarios_run_objective_override(self, capsys):
        assert main([
            "scenarios", "run", "qoe-mixed-steady",
            "--objective", "max_bandwidth",
            "--horizon", "6", "--warmup", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "qoe" in out and "mean MOS over 5 flows" in out

    def test_service_run_objective_override(self, capsys):
        assert main([
            "service", "run", "ring-steady",
            "--rate", "30", "--duration", "4", "--warmup", "1",
            "--objective", "min_latency",
        ]) == 0
        assert "admission" in capsys.readouterr().out

    def test_sweep_objective_adds_a_policy_axis(self, capsys):
        assert main([
            "scenarios", "sweep", "qoe-mixed-steady",
            "--backend", "fluid", "--objective", "max_qoe",
            "--horizon", "6", "--warmup", "2", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "objective=max_qoe" in out

    def test_policy_parse_error_names_the_objectives(self, capsys):
        assert main([
            "scenarios", "sweep", "qoe-mixed-steady",
            "--policy", "objective", "--no-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "repro objectives list" in err and "max_qoe" in err

    def test_policy_rejects_unknown_model_before_any_run(self, capsys):
        # same fail-fast as objective=: the fluid backend never reads
        # the model, so without the parse-time check this sweep would
        # run and report numbers for a model that does not exist
        assert main([
            "scenarios", "sweep", "line-baseline", "--backend", "fluid",
            "--policy", "model=bogus", "--no-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'bogus'" in err
        for name in ("linear", "rfr", "R13 (RFR)", "X1 (MLP)"):
            assert name in err

    def test_policy_accepts_roster_ids_and_labels(self):
        from repro.cli import _parse_policy

        assert _parse_policy("model=GBR") == {"model": "GBR"}
        assert _parse_policy("model=R6,k_paths=2") == {
            "model": "R6", "k_paths": 2,
        }

    def test_policy_rejects_unknown_objective_before_any_run(self, capsys):
        # must fail fast at parse time (like --objective's choices=),
        # not run a sweep whose every placement silently fails
        assert main([
            "scenarios", "sweep", "qoe-mixed-steady",
            "--policy", "objective=bogus", "--no-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown objective 'bogus'" in err
        assert "repro objectives list" in err and "max_qoe" in err
