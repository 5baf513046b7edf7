"""Tests for the qfe-experiments command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main


class TestCLI:
    def test_list_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "user-study" in output
        assert "scenarios" in output

    def test_parser_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["not-an-experiment"])

    def test_workers_flag_parses(self):
        args = build_parser().parse_args(["table1", "--workers", "4"])
        assert args.workers == 4
        # Omitted flag defers to each session's config instead of forcing
        # serial — QFEConfig(workers=...) must stay effective.
        assert build_parser().parse_args(["table1"]).workers is None

    def test_negative_workers_is_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--workers", "-2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_backend_flag_parses_and_validates(self, capsys):
        assert build_parser().parse_args(["table1", "--backend", "warm"]).backend == "warm"
        # Omitted flag defers to each session's config (backend="auto").
        assert build_parser().parse_args(["table1"]).backend is None
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--backend", "mysql"])
        assert excinfo.value.code == 2
        assert "serial" in capsys.readouterr().err

    @pytest.mark.parametrize("removed", ["sql", "process"])
    def test_removed_backends_are_usage_errors(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--backend", removed])
        assert excinfo.value.code == 2
        assert "choose from auto, serial, warm" in capsys.readouterr().err

    def test_backend_default_is_installed_for_the_run_and_restored(self, monkeypatch, capsys):
        from repro.experiments import cli as experiments_cli
        from repro.experiments import runner

        observed = {}

        def stub(scale):
            observed["backend"] = runner._DEFAULT_BACKEND
            return []

        monkeypatch.setitem(experiments_cli._EXPERIMENTS, "table1", stub)
        previous = runner.set_default_backend(None)
        try:
            assert main(["table1", "--backend", "warm"]) == 0
            capsys.readouterr()
            assert observed["backend"] == "warm"
            assert runner._DEFAULT_BACKEND is None
        finally:
            runner.set_default_backend(previous)

    def test_workers_default_is_installed_for_the_run_and_restored(self, monkeypatch, capsys):
        from repro.experiments import cli as experiments_cli
        from repro.experiments import runner

        observed = {}

        def stub(scale):
            observed["workers"] = runner._DEFAULT_WORKERS
            return []

        monkeypatch.setitem(experiments_cli._EXPERIMENTS, "table1", stub)
        previous = runner.set_default_workers(None)
        try:
            assert main(["table1", "--workers", "3"]) == 0
            capsys.readouterr()
            assert observed["workers"] == 3
            # main() must restore the previous process-wide default.
            assert runner._DEFAULT_WORKERS is None
        finally:
            runner.set_default_workers(previous)

    def test_transcript_out_collects_every_session(self, monkeypatch, tmp_path, capsys):
        import json

        from repro.experiments import cli as experiments_cli
        from repro.experiments import runner
        from repro.workloads import build_pair

        def stub(scale):
            # A real (tiny) session so the sink records a genuine transcript.
            database, result, target = build_pair("Q2", 0.03)
            runner.run_session(
                database, result, target, candidate_count=6, feedback="worst",
                workload_name="Q2", scale=0.03,
            )
            return []

        monkeypatch.setitem(experiments_cli._EXPERIMENTS, "table1", stub)
        out = tmp_path / "transcripts.json"
        assert main(["table1", "--transcript-out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert len(payload) == 1
        entry = payload[0]
        assert entry["workload"] == "Q2"
        assert entry["transcript"]["iterations"]
        assert "execution_seconds" in entry["transcript"]["iterations"][0]
        # The sink is restored after the run: later sessions are not recorded.
        assert runner._TRANSCRIPT_SINK is None

    def test_scenarios_flags_parse(self):
        args = build_parser().parse_args(
            ["scenarios", "--seed", "7", "--scales", "0.1,0.5,1.0",
             "--scenarios", "mixed,chain", "--bench-out", "none"]
        )
        assert args.seed == 7
        assert args.scales == "0.1,0.5,1.0"
        assert args.scenarios == "mixed,chain"

    def test_scenarios_rejects_bad_scales(self, capsys):
        for bad in ("abc", "-0.5", "0", "nan", "inf", ""):
            with pytest.raises(SystemExit):
                main(["scenarios", "--scales", bad])

    def test_scenarios_rejects_unknown_preset_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "--scenarios", "mxied", "--scales", "0.05",
                  "--workers", "0", "--bench-out", "none"])
        assert "unknown scenario" in str(excinfo.value)

    def test_scenarios_runs_a_tiny_sweep(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_scenarios.json"
        assert main(
            ["scenarios", "--seed", "3", "--scales", "0.05",
             "--scenarios", "chain", "--workers", "0",
             "--candidates", "5", "--bench-out", str(bench)]
        ) == 0
        out = capsys.readouterr().out
        assert "Scenario scale sweep" in out
        assert "chain" in out
        import json

        payload = json.loads(bench.read_text())
        assert payload["scenarios"]["chain"]["trajectory"][0]["scale"] == 0.05

    @pytest.mark.slow
    def test_run_single_table_to_stdout(self, capsys):
        assert main(["table5", "--scale", "0.03"]) == 0
        output = capsys.readouterr().out
        assert "Table 5" in output

    @pytest.mark.slow
    def test_run_table_to_file(self, tmp_path, capsys):
        output_file = tmp_path / "out.txt"
        assert main(["table7", "--scale", "0.03", "--output", str(output_file)]) == 0
        assert "Table 7" in output_file.read_text()
        assert capsys.readouterr().out == ""
