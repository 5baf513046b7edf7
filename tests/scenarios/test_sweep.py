"""Tests for the scenario sweep (serial legs; pooled legs live in the
integration differential suite)."""

import json
import platform

import pytest

from repro.obs import machine
from repro.scenarios.sweep import DEFAULT_BENCH_PATH, run_sweep, sweep_table


class TestRunSweep:
    def test_serial_sweep_writes_a_populated_trajectory(self, tmp_path):
        out = tmp_path / "BENCH_scenarios.json"
        payload = run_sweep(
            ["chain"], [0.05, 0.1], seed=9, workers=0, candidate_count=6, out_path=out
        )
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        entry = payload["scenarios"]["chain"]
        assert entry["spec"]["name"] == "chain"
        trajectory = entry["trajectory"]
        assert [point["scale"] for point in trajectory] == [0.05, 0.1]
        for point in trajectory:
            assert point["oracle_checked_queries"] == entry["spec"]["query_count"]
            assert point["result_rows"] > 0
            assert point["candidates"] >= 2
            assert point["iterations"] >= 1
            assert point["serial_seconds"] > 0
            assert point["cold_eval_seconds"] > 0
            assert point["delta_eval_seconds"] > 0
            assert len(point["transcript_sha256"]) == 64
            # workers=0 skips the pooled leg entirely
            assert "pooled_seconds" not in point
            assert point["transcripts_identical"] is True
            assert set(point["backend_seconds"]) == {"serial"}
            assert point["fastest_backend"] == "serial"
        # the trajectory actually sweeps: row counts grow with scale
        assert trajectory[1]["total_rows"] > trajectory[0]["total_rows"]

    def test_sweep_is_deterministic_per_seed(self, tmp_path):
        kwargs = dict(seed=4, workers=0, candidate_count=5, out_path=None)
        a = run_sweep(["star"], [0.05], **kwargs)
        b = run_sweep(["star"], [0.05], **kwargs)
        pa = a["scenarios"]["star"]["trajectory"][0]
        pb = b["scenarios"]["star"]["trajectory"][0]
        assert pa["transcript_sha256"] == pb["transcript_sha256"]
        assert pa["rows_by_table"] == pb["rows_by_table"]

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_sweep(["no-such-scenario"], [0.05], workers=0, out_path=None)

    def test_payload_is_stamped_with_the_machine(self):
        payload = run_sweep(
            ["chain"], [0.05], seed=3, workers=0, candidate_count=4, verify_oracle=False,
            measure_eval_paths=False, measure_storage=False, out_path=None,
        )
        stamp = payload["machine"]
        assert stamp["nproc"] >= 1
        assert stamp["python"] == platform.python_version()
        assert stamp["platform"] == platform.platform()
        # The source revision: a git commit inside a checkout, else a hash
        # of the sources — exactly one of the two.
        assert len({"git_sha", "src_sha256"} & set(stamp)) == 1
        revision = stamp.get("git_sha") or stamp["src_sha256"]
        assert len(revision) in (40, 64) and int(revision, 16) >= 0

    def test_outside_a_checkout_the_sources_are_hashed(self, monkeypatch):
        monkeypatch.setattr(machine, "_git_sha", lambda: None)
        stamp = machine.machine_stamp()
        assert "git_sha" not in stamp
        assert len(stamp["src_sha256"]) == 64
        assert stamp["src_sha256"] == machine.machine_stamp()["src_sha256"]

    def test_default_bench_path_points_into_benchmarks(self):
        assert DEFAULT_BENCH_PATH.parts[-2:] == ("benchmarks", "BENCH_scenarios.json")


class TestSweepTable:
    def test_renders_one_row_per_point(self):
        payload = run_sweep(["chain"], [0.05], seed=2, workers=0, out_path=None)
        table = sweep_table(payload)
        assert len(table.rows) == 1
        text = table.render()
        assert "chain" in text and "serial s" in text
