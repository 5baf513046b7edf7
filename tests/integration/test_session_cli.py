"""Integration tests for the qfe-session interactive CLI."""

import pytest

from repro.cli import build_parser, main
from repro.relational.csv_io import database_to_csv_directory, relation_to_csv_file
from repro.relational.evaluator import evaluate
from repro.sql.parser import parse_query


class TestParser:
    def test_requires_a_data_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_and_data_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "employee", "--data", "x"])

    def test_workers_flag_defaults_to_serial(self):
        args = build_parser().parse_args(["--dataset", "employee"])
        assert args.workers == 0
        args = build_parser().parse_args(["--dataset", "employee", "--workers", "4"])
        assert args.workers == 4

    def test_backend_flag_defaults_to_auto(self, capsys):
        args = build_parser().parse_args(["--dataset", "employee"])
        assert args.backend == "auto"
        args = build_parser().parse_args(["--dataset", "employee", "--backend", "warm"])
        assert args.backend == "warm"
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--dataset", "employee", "--backend", "mysql"])
        assert excinfo.value.code == 2
        assert "serial" in capsys.readouterr().err

    @pytest.mark.parametrize("removed", ["sql", "process"])
    def test_removed_backends_are_usage_errors(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--dataset", "employee",
                "--target-sql", "SELECT name FROM Employee WHERE salary > 4000",
                "--backend", removed,
            ])
        assert excinfo.value.code == 2
        assert "choose from auto, serial, warm" in capsys.readouterr().err

    def test_negative_workers_is_rejected_at_parse_time(self, capsys):
        # Validated by the shared argparse type before any dataset loads:
        # argparse exits with status 2 and a usage error on stderr.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--dataset", "employee",
                "--target-sql", "SELECT name FROM Employee WHERE salary > 4000",
                "--workers", "-1",
            ])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestBuiltinDatasetRuns:
    def test_employee_with_target_sql_oracle(self, capsys):
        exit_code = main([
            "--dataset", "employee",
            "--target-sql", "SELECT name FROM Employee WHERE salary > 4000",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Identified query" in output
        assert "SELECT" in output

    def test_employee_parallel_workers_match_serial(self, capsys):
        target = "SELECT name FROM Employee WHERE salary > 4000"
        assert main(["--dataset", "employee", "--target-sql", target]) == 0
        serial_output = capsys.readouterr().out
        assert main(["--dataset", "employee", "--target-sql", target, "--workers", "2"]) == 0
        parallel_output = capsys.readouterr().out
        assert "Identified query" in parallel_output
        assert parallel_output.splitlines()[-1] == serial_output.splitlines()[-1]

    def test_employee_warm_backend_matches_serial(self, capsys):
        # An explicit --backend warm without --workers runs the pool at its
        # minimum of two workers and must identify the serial query.
        target = "SELECT name FROM Employee WHERE salary > 4000"
        assert main(["--dataset", "employee", "--target-sql", target]) == 0
        serial_output = capsys.readouterr().out
        assert main([
            "--dataset", "employee", "--target-sql", target, "--backend", "warm",
        ]) == 0
        warm_output = capsys.readouterr().out
        assert "Identified query" in warm_output
        assert warm_output.splitlines()[-1] == serial_output.splitlines()[-1]

    def test_transcript_out_writes_machine_readable_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "transcript.json"
        exit_code = main([
            "--dataset", "employee",
            "--target-sql", "SELECT name FROM Employee WHERE salary > 4000",
            "--transcript-out", str(out),
        ])
        assert exit_code == 0
        assert f"Transcript written to {out}" in capsys.readouterr().out
        transcript = json.loads(out.read_text())
        assert transcript["status"] == "converged"
        assert transcript["identified_sql"].startswith("SELECT")
        assert transcript["iterations"]
        assert "execution_seconds" in transcript["iterations"][0]
        assert len(transcript["rounds"]) == transcript["iteration_count"]

    def test_employee_with_scripted_answers(self, capsys):
        # Answer "1" (the largest subset) a few times; the session either
        # converges or reports the remaining candidates — both are valid exits.
        exit_code = main([
            "--dataset", "employee",
            "--target-sql", "SELECT name FROM Employee WHERE salary > 4000",
            "--answers", ",".join(["1"] * 10),
        ])
        assert exit_code in (0, 1)
        assert "feedback rounds" in capsys.readouterr().out

    def test_missing_result_and_target(self, capsys):
        exit_code = main(["--dataset", "employee"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().out


class TestCsvWorkflow:
    def test_csv_directory_and_result_file(self, tmp_path, two_table_db, capsys):
        data_dir = tmp_path / "data"
        database_to_csv_directory(two_table_db, data_dir)
        target = parse_query(
            "SELECT ename FROM Emp WHERE salary > 60", two_table_db.schema
        )
        result = evaluate(target, two_table_db, name="R")
        result_file = tmp_path / "expected.csv"
        relation_to_csv_file(result, result_file)

        exit_code = main([
            "--data", str(data_dir),
            "--result", str(result_file),
            "--target-sql", "SELECT ename FROM Emp WHERE salary > 60",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Identified query" in output

    def test_missing_data_directory(self, tmp_path, capsys):
        exit_code = main([
            "--data", str(tmp_path / "nope"),
            "--target-sql", "SELECT 1",
        ])
        assert exit_code == 2
