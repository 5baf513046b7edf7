"""Tests of the benchmark itself: metric coverage at tiny scale and the correctness checks.

Run from the repository root (not part of the tier-1 suite; about a minute)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import cold  # noqa: E402
import common  # noqa: E402
import manifest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [workload["name"] for workload in manifest.WORKLOADS]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ manifest
def test_benchmark_json_is_the_rendered_manifest():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest.manifest()


def test_manifest_respects_the_format_limits():
    document = manifest.manifest()
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in document["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert 2 <= len(document["workloads"]) <= 8 and 1 <= document["run_seconds"] <= 60


# -------------------------------------------------------------------- smoke
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_emits_every_named_metric(workload, trace):
    result = result_of(
        run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = manifest.PER_LAYER if trace else manifest.END_TO_END
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


# ------------------------------------------------------------ refusals
def test_a_degenerate_seed_is_refused_by_name():
    completed = run_bench("--workload", "service-2users", "--scenario-seed", "4", "--tiny",
                          "--seconds", "1")
    assert completed.returncode != 0
    assert "scenario:mixed@4" in completed.stderr
    assert '"metrics"' not in completed.stdout


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", "q2-prologue", "--seed", "0", "--seconds", "1",
                          "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


# ------------------------------------------------------- correctness checks
def _tiny_spec() -> common.ColdSpec:
    return common.ColdSpec("scenario:mixed@1", 1.0, None, common.SERVICE_QBO)


def test_a_time_truncated_skyline_fails_the_session(monkeypatch):
    import session_worker

    common.ensure_program()
    from repro.core import round_planner

    original = round_planner.skyline_stc_dtc_pairs

    def truncated(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), truncated_by_time=True)

    monkeypatch.setattr(round_planner, "skyline_stc_dtc_pairs", truncated)
    record = session_worker.run_session(dataclasses.asdict(_tiny_spec()))
    assert record["truncated_by_time"] == record["rounds"] >= 1
    failed, problems = cold.judge([record])
    assert failed == 1
    assert any("truncated by wall-clock time" in problem for problem in problems)


def test_a_mismatched_transcript_fails_the_session():
    import session_worker

    record = session_worker.run_session(dataclasses.asdict(_tiny_spec()))
    assert cold.judge([record, dict(record)]) == (0, [])
    tampered = dict(record, transcript_sha256="0" * 64)
    failed, problems = cold.judge([record, tampered])
    assert failed == 1
    assert any("transcript differs" in problem for problem in problems)


def test_a_served_transcript_that_differs_from_the_reference_fails(tmp_path):
    common.ensure_program()
    import service

    server = service.Server(tmp_path / "server").start()
    conn = service.Connection(server.port)
    try:
        good, bad = service.UserStats(), service.UserStats()
        reference = service.reference_transcript("scenario:mixed@2", 1.0)
        service.drive_session(conn, good, "scenario:mixed@2", 1.0, reference, server.store_dir)
        service.drive_session(conn, bad, "scenario:mixed@2", 1.0, reference + " ",
                              server.store_dir)
    finally:
        conn.close()
        server.stop()
    assert good.failed == 0 and good.requests == 8
    assert bad.failed == 1
    assert "differs from the reference" in bad.errors[0]


def test_coverage_check_tolerates_rounding_but_not_a_gap():
    assert checks.coverage_problem(9.99, 0.01, 10.0) is None
    assert "do not account" in checks.coverage_problem(9.0, 0.01, 10.0)
    assert "not wrapped" in checks.coverage_problem(9.0, 1.0, 10.0)


def _traced_q2_record() -> dict:
    import session_worker

    spec = common.ColdSpec("Q2", 0.05, 8, None)
    return session_worker.run_session(dict(dataclasses.asdict(spec), trace=True))


def test_the_coverage_check_passes_with_every_layer_wrapped():
    record = _traced_q2_record()
    _, problem = cold.traced_layers(record, record)
    assert problem is None


def test_the_coverage_check_fails_when_a_layer_loses_its_wrapper(monkeypatch):
    import layers

    common.ensure_program()
    from repro.core import round_planner

    install = layers.install

    def install_all_but_subset(tracer):
        patches = install(tracer)
        # Undoing the patches later restores the original all the same.
        round_planner.pick_stc_dtc_subset = round_planner.pick_stc_dtc_subset.__wrapped__
        return patches

    monkeypatch.setattr(layers, "install", install_all_but_subset)
    record = _traced_q2_record()
    _, problem = cold.traced_layers(record, record)
    assert problem is not None and "not wrapped" in problem
