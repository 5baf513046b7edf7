"""Command-line entry point for the QFE session service.

Installed as the ``qfe-serve`` console script (also ``python -m repro.service``)::

    qfe-serve                                   # in-memory store
    qfe-serve --port 8642                       # another port
    qfe-serve --store-dir ./checkpoints         # durable: kill/restart resumes

With ``--store-dir`` every session is checkpointed after each step, so a
killed or restarted server picks sessions up exactly where they were (the
client just keeps using the same session id). ``--session-ttl`` and
``--max-stored-sessions`` bound the checkpoint store; ``--max-live-sessions``
bounds resident sessions (least-recently-used ones passivate to the store).

Every round scores its attempts in process. ``--backend serial`` and
``--workers 0``/``1`` are accepted for compatibility and mean exactly that;
any other value is a usage error (exit status 2).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]

_IN_PROCESS = "rounds always run in process"


def _serial_backend(text: str) -> str:
    if text.strip().lower() != "serial":
        raise argparse.ArgumentTypeError(
            f"unknown backend {text!r}: {_IN_PROCESS}, so 'serial' is the only backend"
        )
    return "serial"


def _in_process_workers(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        workers = None
    if workers not in (0, 1):
        raise argparse.ArgumentTypeError(
            f"{text!r} worker processes: {_IN_PROCESS}, so only 0 or 1 is accepted"
        )
    return workers


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the service CLI."""
    parser = argparse.ArgumentParser(
        prog="qfe-serve",
        description="Serve QFE sessions over HTTP: many concurrent interactive users "
                    "sharing per-workload base state, checkpointed resumable sessions.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8642, help="bind port (default 8642)")
    parser.add_argument(
        "--workers", type=_in_process_workers, default=0,
        help=f"accepted for compatibility: only 0 or 1 ({_IN_PROCESS})",
    )
    parser.add_argument(
        "--backend", type=_serial_backend, default="serial", metavar="NAME",
        help=f"accepted for compatibility: only 'serial' ({_IN_PROCESS})",
    )
    parser.add_argument(
        "--store-dir", default=None,
        help="directory for on-disk session checkpoints (enables kill/restart resume)",
    )
    parser.add_argument(
        "--max-live-sessions", type=_positive_int, default=64,
        help="resident session cap; least-recently-used sessions passivate to the store",
    )
    parser.add_argument(
        "--max-stored-sessions", type=_positive_int, default=None,
        help="checkpoint store cap (least-recently-used checkpoints evict first)",
    )
    parser.add_argument(
        "--session-ttl", type=_positive_float, default=None,
        help="seconds of inactivity after which stored checkpoints expire",
    )
    parser.add_argument(
        "--no-checkpoint", action="store_true",
        help="with --store-dir: do not checkpoint after every step (only on shutdown)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write round-lifecycle spans for every request the server "
             "handles as JSON lines to this file (inspect with "
             "`qfe-trace summary PATH`)",
    )
    parser.add_argument("--verbose", action="store_true", help="log every HTTP request")
    return parser


def main(argv: Sequence[str] | None = None, *, output=None) -> int:
    """CLI entry point; returns a process exit code."""
    output = output or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    from repro.service.manager import SessionManager
    from repro.service.server import make_server
    from repro.service.store import FileSessionStore

    store = None
    if args.store_dir:
        store = FileSessionStore(
            args.store_dir,
            max_sessions=args.max_stored_sessions,
            ttl_seconds=args.session_ttl,
        )
    manager = SessionManager(
        store=store,
        checkpoint_each_step=not args.no_checkpoint,
        max_live_sessions=args.max_live_sessions,
    )
    server = make_server(manager, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(
        f"qfe-serve listening on http://{host}:{port} "
        f"(store={'disk:' + str(args.store_dir) if store is not None else 'memory'})",
        file=output,
        flush=True,
    )
    if args.trace_out:
        from repro.obs.trace import start_tracing

        start_tracing(args.trace_out)
        print(f"tracing spans to {args.trace_out}", file=output, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (checkpointing live sessions)", file=output, flush=True)
    finally:
        try:
            server.shutdown()
        except Exception:
            pass
        server.server_close()
        manager.close()
        if args.trace_out:
            from repro.obs.trace import stop_tracing

            stop_tracing()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
