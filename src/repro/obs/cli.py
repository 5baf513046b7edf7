"""``qfe-trace`` — inspect span traces written by ``--trace-out``.

Currently one subcommand::

    qfe-trace summary trace.jsonl

prints the per-round phase breakdown table (prepare/evaluate/materialize/
present seconds per round, plus the dominant phase) so a slow
run can be attributed without opening the raw JSON lines.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.summary import render_summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfe-trace", description="Inspect span traces from --trace-out."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    summary = sub.add_parser(
        "summary", help="Per-round phase breakdown from a trace file."
    )
    summary.add_argument("trace", help="Path to a JSON-lines span trace.")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "summary":
        try:
            sys.stdout.write(render_summary(args.trace))
        except OSError as exc:
            print(f"qfe-trace: cannot read {args.trace}: {exc}", file=sys.stderr)
            return 2
        return 0
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
