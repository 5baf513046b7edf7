"""Tests for the qfe-serve command-line parser (the server loop itself is
exercised as a real subprocess by scripts/service_smoke.py)."""

import json
import os
import signal
import subprocess
import sys
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.service.cli import build_parser, main
from repro.service.client import ServiceClient, ServiceClientError


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.workers == 0
        assert args.backend == "serial"
        assert args.store_dir is None
        assert args.max_live_sessions == 64
        assert args.max_stored_sessions is None
        assert args.session_ttl is None

    def test_full_flag_set(self):
        args = build_parser().parse_args([
            "--host", "0.0.0.0", "--port", "9000", "--workers", "1",
            "--backend", "serial",
            "--store-dir", "/tmp/ckpt", "--max-live-sessions", "8",
            "--max-stored-sessions", "100", "--session-ttl", "3600",
            "--verbose",
        ])
        assert (args.host, args.port, args.workers) == ("0.0.0.0", 9000, 1)
        assert args.backend == "serial"
        assert args.store_dir == "/tmp/ckpt"
        assert (args.max_live_sessions, args.max_stored_sessions) == (8, 100)
        assert args.session_ttl == 3600.0
        assert args.verbose

    @pytest.mark.parametrize("argv", [
        ["--workers", "-1"],
        ["--backend", "mysql"],
        ["--max-live-sessions", "0"],
        ["--max-stored-sessions", "0"],
        ["--session-ttl", "0"],
    ])
    def test_invalid_values_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--no-checkpoint"], ["--store-dir", "/tmp/ckpt", "--no-checkpoint"]]
    )
    def test_no_checkpoint_is_a_usage_error(self, argv, capsys):
        # Every step writes its checkpoint; there is no mode without writes.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param(["--backend", "serial"], ("serial", 0), id="serial"),
            pytest.param(["--backend", " SERIAL "], ("serial", 0), id="serial-case"),
            pytest.param(["--workers", "0"], ("serial", 0), id="workers-0"),
            pytest.param(["--workers", "1"], ("serial", 1), id="workers-1"),
        ],
    )
    def test_in_process_values_stay_accepted(self, argv, expected):
        args = build_parser().parse_args(argv)
        assert (args.backend, args.workers) == expected

    @pytest.mark.parametrize(
        "removed",
        [
            pytest.param(["--backend", "sql"], id="sql"),
            pytest.param(["--backend", "process"], id="process"),
            pytest.param(["--backend", "warm"], id="warm"),
            pytest.param(["--backend", "auto"], id="auto"),
            pytest.param(["--workers", "2"], id="workers-2"),
        ],
    )
    def test_removed_backends_are_usage_errors(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(removed)
        assert excinfo.value.code == 2
        assert "rounds always run in process" in capsys.readouterr().err


@contextmanager
def _serving(tmp_path, *flags):
    """A ``qfe-serve`` subprocess on a free port; yields its base URL."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(part for part in (src, env.get("PYTHONPATH")) if part)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        cwd=tmp_path,
    )
    try:
        line = server.stdout.readline()
        marker = "listening on http://127.0.0.1:"
        assert marker in line, line
        port = int(line.split(marker, 1)[1].split()[0])
        yield f"http://127.0.0.1:{port}"
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            server.kill()
            server.wait()
        server.stdout.close()


def test_serial_backend_and_zero_workers_still_serve(tmp_path):
    with _serving(tmp_path, "--backend", "serial", "--workers", "0") as url:
        with urllib.request.urlopen(f"{url}/healthz", timeout=30) as reply:
            assert json.loads(reply.read())["status"] == "ok"


def test_store_bounds_apply_to_the_in_memory_store(tmp_path):
    # No --store-dir: the bounds apply to the in-memory store, and a session
    # whose checkpoint it evicted is gone once it passivates.
    with _serving(tmp_path, "--max-stored-sessions", "1", "--max-live-sessions", "1") as url:
        client = ServiceClient(url, timeout=60.0)
        first, second = (
            client.create_session("Q2", scale=0.03, candidate_count=4)["session_id"]
            for _ in range(2)
        )
        metrics = client.metrics()
        assert (metrics["stored_checkpoints"], metrics["sessions_passivated"]) == (1, 1)
        assert client.get_round(second)["session_id"] == second
        with pytest.raises(ServiceClientError) as excinfo:
            client.get_round(first)
        assert excinfo.value.status == 404
