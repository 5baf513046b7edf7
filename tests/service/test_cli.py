"""Tests for the qfe-serve command-line parser (the server loop itself is
exercised as a real subprocess by scripts/service_smoke.py)."""

import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.service.cli import build_parser


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
        assert not args.no_checkpoint

    def test_full_flag_set(self):
        args = build_parser().parse_args([
            "--host", "0.0.0.0", "--port", "9000", "--workers", "1",
            "--backend", "serial",
            "--store-dir", "/tmp/ckpt", "--max-live-sessions", "8",
            "--max-stored-sessions", "100", "--session-ttl", "3600",
            "--no-checkpoint", "--verbose",
        ])
        assert (args.host, args.port, args.workers) == ("0.0.0.0", 9000, 1)
        assert args.backend == "serial"
        assert args.store_dir == "/tmp/ckpt"
        assert (args.max_live_sessions, args.max_stored_sessions) == (8, 100)
        assert args.session_ttl == 3600.0
        assert args.no_checkpoint and args.verbose

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


def test_serial_backend_and_zero_workers_still_serve(tmp_path):
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(part for part in (src, env.get("PYTHONPATH")) if part)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0",
         "--backend", "serial", "--workers", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        cwd=tmp_path,
    )
    try:
        line = server.stdout.readline()
        marker = "listening on http://127.0.0.1:"
        assert marker in line, line
        port = int(line.split(marker, 1)[1].split()[0])
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=30) as reply:
            assert json.loads(reply.read())["status"] == "ok"
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            server.kill()
            server.wait()
        server.stdout.close()
