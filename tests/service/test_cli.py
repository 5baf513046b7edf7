"""Tests for the qfe-serve command-line parser (the server loop itself is
exercised as a real subprocess by scripts/service_smoke.py)."""

import pytest

from repro.service.cli import build_parser


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.workers == 0
        assert args.backend == "auto"
        assert args.store_dir is None
        assert args.max_live_sessions == 64
        assert args.max_stored_sessions is None
        assert args.session_ttl is None
        assert not args.no_checkpoint

    def test_full_flag_set(self):
        args = build_parser().parse_args([
            "--host", "0.0.0.0", "--port", "9000", "--workers", "4",
            "--backend", "warm",
            "--store-dir", "/tmp/ckpt", "--max-live-sessions", "8",
            "--max-stored-sessions", "100", "--session-ttl", "3600",
            "--no-checkpoint", "--verbose",
        ])
        assert (args.host, args.port, args.workers) == ("0.0.0.0", 9000, 4)
        assert args.backend == "warm"
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

    @pytest.mark.parametrize("removed", ["sql", "process"])
    def test_removed_backends_are_usage_errors(self, removed, capsys):
        from repro.service.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", removed])
        assert excinfo.value.code == 2
        assert "choose from auto, serial, warm" in capsys.readouterr().err
