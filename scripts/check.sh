#!/usr/bin/env bash
# Repo verification: tier-1 suite, the differential checks and the
# benchmark's own tests; ends by printing the src/ Python line count,
# tracked next to wall-clock.
#
#   scripts/check.sh          fast tier-1 (slow-marked tests excluded)
#   scripts/check.sh --slow   also run the slow tier (examples, tables, studies)
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== differential oracles: columnar + update-only delta maintenance vs row-at-a-time reference and SQLite, presented delta vs min-edit diff, NULL and numeric semantics vs interpreter and SQLite, QBO generation vs per-row reference, columnar join (columns and id columns) vs dict-row reference, minEdit assignment vs scipy, minEdit identical-row matching on stored rows vs canonical keys, foreign-key graph vs networkx =="
python -m pytest -q tests/relational/test_columnar.py tests/relational/test_delta_maintenance.py tests/core/test_presentation_differential.py tests/sql/test_sqlite_backend.py tests/relational/test_null_semantics.py tests/relational/test_numeric_semantics.py tests/qbo/test_qbo_differential.py tests/relational/test_assignment_differential.py tests/relational/test_fk_graph_differential.py tests/relational/test_edit_matching_differential.py -m ""

echo
echo "== differential: round prologue (masks, reactions, Algorithms 3 and 4) vs the per-pair reference; domain partitions vs interpreter signatures =="
python -m pytest -q tests/core/test_prologue_differential.py -m ""

echo
echo "== regression guard: evaluating a modified database as its base join plus TupleDelta performs no full join rebuild =="
python -m pytest -q benchmarks/test_bench_components.py -k delta_derive_path --benchmark-disable

echo
echo "== differential: tracing on vs off is bit-identical (Q1-Q6) =="
python -m pytest -q tests/integration/test_trace_differential.py -m ""

echo
echo "== differential: resume by verified replay at every round is bit-identical to uninterrupted runs (Q1-Q6); a budget-cut round replays exactly; a fast clock changes no transcript =="
python -m pytest -q tests/integration/test_service_differential.py -m ""

echo
echo "== differential: scenario engine — cold vs steady repeats, resume, hash seed, transcript bit-identity =="
python -m pytest -q tests/integration/test_scenario_differential.py -k "fast_guard or checkpoint_resumes or hash_seed"

echo
echo "== service smoke: kill -9 -> resume by replay -> finish; two sessions under --max-live-sessions 1 passivated and replayed every step, from an on-disk and from the in-memory store; two sessions on one pair read one candidate generation and one memo hit; bit-identical transcripts =="
python scripts/service_smoke.py

echo
echo "== benchmark entry points: perfbench metric coverage and correctness checks =="
python3 -m pytest perfbench/tests -q

if [[ "${1:-}" == "--slow" ]]; then
    echo
    echo "== slow tier: examples, tables, studies =="
    python -m pytest -q -m slow
fi

echo
echo "All checks passed."
echo "src/ Python lines: $(find src -name '*.py' -print0 | xargs -0 cat | wc -l)"
