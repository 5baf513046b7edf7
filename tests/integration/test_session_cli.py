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

    @pytest.mark.parametrize(
        "removed",
        [
            pytest.param(["--backend", "sql"], id="sql"),
            pytest.param(["--backend", "process"], id="process"),
            pytest.param(["--backend", "warm"], id="warm"),
            pytest.param(["--backend", "serial"], id="serial"),
            pytest.param(["--workers", "2"], id="workers-2"),
            pytest.param(["--workers", "0"], id="workers-0"),
        ],
    )
    def test_removed_backends_are_usage_errors(self, removed, capsys):
        # Rounds always run in process, so the session CLI has neither flag.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--dataset", "employee",
                "--target-sql", "SELECT name FROM Employee WHERE salary > 4000",
                *removed,
            ])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--beta", "nan"], id="beta-nan"),
            pytest.param(["--beta", "inf"], id="beta-inf"),
            pytest.param(["--delta", "nan"], id="delta-nan"),
            pytest.param(["--delta", "inf"], id="delta-inf"),
        ],
    )
    def test_non_finite_config_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--dataset", "employee", *argv])
        assert excinfo.value.code == 2
        assert "finite" in capsys.readouterr().err


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
