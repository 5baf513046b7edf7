"""Interactive command-line front end: run a QFE session on your own data.

Installed as the ``qfe-session`` console script::

    qfe-session --data ./my_csvs --result ./expected_rows.csv
    qfe-session --dataset employee            # demo on the paper's Example 1.1

``--data`` points at a directory of CSV files (one relation per file);
``--result`` is a CSV file whose header names the projected columns (either
``table.column`` or plain column names that exist in exactly one table) and
whose rows are the expected query output. The tool then walks through QFE's
feedback rounds on the terminal: each round prints the database changes and
the candidate results as diffs, and asks which result is correct (or ``0`` for
"none of these").

For scripted use (tests, demos) ``--answers 2,1,1`` supplies the choices up
front, and ``--target-sql "SELECT ..."`` lets an oracle answer automatically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.core import (
    NONE_OF_THE_ABOVE,
    CallbackSelector,
    OracleSelector,
    QFEConfig,
    QFESession,
    ScriptedSelector,
)
from repro.datasets import adult, baseball, employee, scientific
from repro.exceptions import ReproError
from repro.obs.trace import start_tracing, stop_tracing
from repro.qbo import QBOConfig
from repro.relational.csv_io import database_from_csv_directory, relation_from_csv_file
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.sql.parser import parse_query
from repro.sql.render import render_query

__all__ = ["main", "build_parser"]

_BUILTIN_DATASETS: dict[str, Callable[[float], Database]] = {
    "employee": lambda scale: employee.build_database(),
    "scientific": scientific.build_database,
    "baseball": baseball.build_database,
    "adult": adult.build_database,
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the interactive session CLI."""
    parser = argparse.ArgumentParser(
        prog="qfe-session",
        description="Construct an SQL query from an example database/result pair (QFE, VLDB 2015).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", type=str, help="directory of CSV files, one relation per file")
    source.add_argument(
        "--dataset", choices=sorted(_BUILTIN_DATASETS), help="use a built-in demo dataset"
    )
    parser.add_argument("--result", type=str, help="CSV file with the expected query result")
    parser.add_argument(
        "--target-sql", type=str, default=None,
        help="the intended query; when given, an oracle answers the feedback automatically "
             "(and the result CSV becomes optional)",
    )
    parser.add_argument(
        "--answers", type=str, default=None,
        help="comma-separated 1-based option choices to replay instead of prompting (0 = none)",
    )
    parser.add_argument("--scale", type=float, default=0.1, help="scale for built-in datasets")
    parser.add_argument("--max-candidates", type=int, default=40, help="candidate-set size cap")
    parser.add_argument("--delta", type=float, default=1.0, help="Algorithm 3 time threshold (s)")
    parser.add_argument("--beta", type=float, default=1.0, help="relation-count scale factor β")
    parser.add_argument(
        "--transcript-out", type=str, default=None, metavar="PATH",
        help="write the machine-readable session transcript (rounds, deltas, "
             "choices, timings) as JSON to this file",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write round-lifecycle spans as JSON lines to this file "
             "(inspect with `qfe-trace summary PATH`; tracing never changes "
             "the session's transcript)",
    )
    return parser


def _load_database(args: argparse.Namespace) -> Database:
    if args.dataset:
        return _BUILTIN_DATASETS[args.dataset](args.scale)
    directory = Path(args.data)
    if not directory.is_dir():
        raise ReproError(f"--data directory {directory} does not exist")
    return database_from_csv_directory(directory)


def _qualify_result_columns(result: Relation, database: Database) -> Relation:
    """Map plain result column names onto qualified ``table.column`` names."""
    qualified = []
    for name in result.schema.attribute_names:
        if "." in name:
            database.schema.resolve_attribute(name)
            qualified.append(name)
        else:
            table, column = database.schema.resolve_attribute(name)
            qualified.append(f"{table}.{column}")
    return Relation.from_rows(result.schema.name, qualified, [list(r) for r in result.rows()])


def _load_result(args: argparse.Namespace, database: Database) -> Relation:
    if args.result:
        raw = relation_from_csv_file(args.result, name="R")
        return _qualify_result_columns(raw, database)
    if args.target_sql:
        from repro.relational.evaluator import evaluate

        target = parse_query(args.target_sql, database.schema)
        return evaluate(target, database, name="R")
    raise ReproError("either --result or --target-sql must be provided")


def _interactive_selector(output) -> CallbackSelector:
    def ask(round_, partition) -> int:
        print(round_.pretty(), file=output)
        print(
            f"\nWhich result is the output of YOUR intended query on the modified database? "
            f"[1-{round_.option_count}, 0 = none of these] ",
            file=output,
        )
        while True:
            line = input("> ").strip()
            if line.isdigit() and 0 <= int(line) <= round_.option_count:
                choice = int(line)
                return NONE_OF_THE_ABOVE if choice == 0 else choice - 1
            print(f"please enter a number between 0 and {round_.option_count}", file=output)

    return CallbackSelector(ask)


def _write_transcript(session, path: str, output) -> None:
    """Emit the session's machine-readable transcript JSON (checkpoint serializers)."""
    import json

    from repro.service.checkpoint import session_transcript

    transcript = session_transcript(session, include_timings=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(transcript, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"Transcript written to {path}", file=output)


def main(argv: Sequence[str] | None = None, *, output=None) -> int:
    """CLI entry point; returns a process exit code."""
    output = output or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = QFEConfig(beta=args.beta, delta_seconds=args.delta)
    except ValueError as error:  # e.g. a non-finite --beta or --delta
        parser.error(str(error))

    try:
        database = _load_database(args)
        result = _load_result(args, database)
    except ReproError as error:
        print(f"error: {error}", file=output)
        return 2

    print(f"Loaded database with tables {list(database.table_names)} "
          f"({database.total_tuples()} tuples); the example result has {len(result)} rows.",
          file=output)

    if args.answers:
        choices = [int(part) - 1 if int(part) > 0 else NONE_OF_THE_ABOVE
                   for part in args.answers.split(",")]
        selector = ScriptedSelector(choices)
    elif args.target_sql:
        selector = OracleSelector(parse_query(args.target_sql, database.schema))
    else:
        selector = _interactive_selector(output)

    session = QFESession(
        database,
        result,
        config=config,
        qbo_config=QBOConfig(threshold_variants=2, max_candidates=args.max_candidates),
    )
    if args.trace_out:
        start_tracing(args.trace_out)
    try:
        outcome = session.run(selector)
    except ReproError as error:
        print(f"error: {error}", file=output)
        return 1
    finally:
        if args.trace_out:
            stop_tracing()
            print(f"Trace written to {args.trace_out}", file=output)

    if args.transcript_out:
        _write_transcript(session, args.transcript_out, output)

    print(f"\nCandidate queries considered: {outcome.initial_candidate_count}; "
          f"feedback rounds: {outcome.iteration_count}.", file=output)
    if outcome.converged and outcome.identified_query is not None:
        print("Identified query:\n", file=output)
        print(render_query(outcome.identified_query, database.schema), file=output)
        return 0
    print("QFE could not narrow the candidates to a single query. Remaining candidates:",
          file=output)
    for query in outcome.remaining_queries:
        print("  " + render_query(query, database.schema).replace("\n", " "), file=output)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
