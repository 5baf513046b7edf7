"""Micro-benchmarks of the core components (repeatable, statistics-friendly).

These complement the one-shot table regenerations: they measure the steady
per-call cost of the pieces that dominate QFE's runtime — the foreign-key
join, candidate evaluation over a joined relation, ``minEdit``, Algorithm 3's
pair enumeration and Algorithm 4's subset selection — so regressions in the
substrate show up even without rerunning the full experiments.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import QFEConfig
from repro.core.modification import PairSetSimulator
from repro.core.skyline import skyline_stc_dtc_pairs
from repro.core.subset_selection import pick_stc_dtc_subset
from repro.core.tuple_class import TupleClassSpace
from repro.experiments.runner import prepare_candidates
from repro.qbo.config import QBOConfig
from repro.qbo.generator import QueryGenerator
from repro.relational.columnar import ColumnarView
from repro.relational.delta import TupleDelta
from repro.relational.edit import min_edit_relation
from repro.relational.evaluator import (
    JoinCache,
    evaluate,
    evaluate_batch,
    evaluate_on_join,
    result_fingerprint,
)
from repro.relational.join import JOIN_STATS, full_join
from repro.workloads import build_pair
from tests.columns import joined_rows
from tests.oracles.evaluator_reference import evaluate_on_join_reference

_QBO = QBOConfig(threshold_variants=2, max_terms_per_conjunct=3, max_candidates=25)


@pytest.fixture(scope="module")
def scientific_setup(bench_scale):
    database, result, target = build_pair("Q2", min(bench_scale, 0.12))
    candidates, _ = prepare_candidates(database, result, target, qbo_config=_QBO)
    joined = full_join(database)
    space = TupleClassSpace(joined, candidates)
    return database, result, target, candidates, joined, space


@pytest.mark.benchmark(group="components")
def test_bench_full_join(benchmark, scientific_setup):
    database = scientific_setup[0]
    joined = benchmark(full_join, database)
    assert len(joined) > 0


@pytest.mark.benchmark(group="components")
def test_bench_candidate_evaluation_on_join(benchmark, scientific_setup):
    database, result, _, candidates, joined, _ = scientific_setup
    query = candidates[0]
    evaluated = benchmark(evaluate_on_join, query, joined, database)
    assert evaluated.bag_equal(result)


# The pair below is the tentpole comparison: one full partitioning pass over
# all surviving candidates (results + fingerprints), row-at-a-time versus the
# columnar batch engine. ``batch_cold`` rebuilds the columnar view and every
# term mask per round — the cost paid once per freshly generated modified
# database — and is the number the ≥3× speedup target refers to.
@pytest.mark.benchmark(group="candidate-batch")
def test_bench_all_candidates_rowwise_reference(benchmark, scientific_setup):
    database, _, _, candidates, joined, _ = scientific_setup

    def run():
        return [
            result_fingerprint(evaluate_on_join_reference(q, joined, database))
            for q in candidates
        ]

    fingerprints = benchmark(run)
    assert len(fingerprints) == len(candidates)


@pytest.mark.benchmark(group="candidate-batch")
def test_bench_all_candidates_batch_cold(benchmark, scientific_setup):
    database, _, _, candidates, joined, _ = scientific_setup
    rows = joined_rows(joined)

    def run():
        # The same join over a fresh view: no cached masks.
        cold = dataclasses.replace(joined, view=ColumnarView(joined.attribute_names, rows))
        return evaluate_batch(candidates, cold, database)

    batch = benchmark(run)
    assert len(batch) == len(candidates)


@pytest.mark.benchmark(group="candidate-batch")
def test_bench_all_candidates_batch_warm(benchmark, scientific_setup):
    database, _, _, candidates, joined, _ = scientific_setup

    def run():
        return evaluate_batch(candidates, joined, database)

    batch = benchmark(run)
    assert len(batch) == len(candidates)


# The ``delta-derive`` group is the PR-2 tentpole comparison: the
# per-candidate evaluation step of the database-generation loop. Each QFE
# round materializes a D' differing from D by a handful of tuple updates and
# evaluates every surviving candidate on it. ``rebuild`` pays the cold path
# (full FK join + fresh columnar view + every term mask); ``incremental``
# patches the warm base join through the recorded TupleDelta
# (JoinedRelation.apply_delta) and shares untouched columns and masks
# copy-on-write. The ≥5x speedup target refers to rebuild/incremental.
@pytest.fixture(scope="module")
def delta_setup(scientific_setup):
    database, _, _, candidates, joined, _ = scientific_setup
    evaluate_batch(candidates, joined, database)  # warm base masks, as a session would
    derived_db = database.copy()
    table = derived_db.table_names[0]
    relation = derived_db.relation(table)
    column = next(
        a.name
        for a in relation.schema.attributes
        if a.type.name in ("FLOAT", "INTEGER") and a.name.startswith("logFC")
    )
    index = relation.schema.index_of(column)
    delta = TupleDelta()
    for target in relation.tuples[:2]:
        values = list(target.values)
        values[index] = (values[index] or 0) + 5.0
        relation.replace_tuple(target.tuple_id, values)
        delta.record_update(table, target.tuple_id, relation.tuple_by_id(target.tuple_id).values)
    return database, derived_db, delta, candidates, joined


@pytest.mark.benchmark(group="delta-derive")
def test_bench_candidate_evaluation_rebuild(benchmark, delta_setup):
    _, derived_db, _, candidates, _ = delta_setup

    def run():
        # A fresh join builds a fresh view: no shared masks.
        return evaluate_batch(candidates, full_join(derived_db), derived_db)

    batch = benchmark(run)
    assert len(batch) == len(candidates)


@pytest.mark.benchmark(group="delta-derive")
def test_bench_candidate_evaluation_incremental(benchmark, delta_setup):
    database, derived_db, delta, candidates, joined = delta_setup

    def run():
        derived = joined.apply_delta(delta, database)
        return evaluate_batch(candidates, derived, derived_db)

    batch = benchmark(run)
    assert len(batch) == len(candidates)


def test_delta_derive_path_never_rebuilds_the_join(delta_setup):
    """Fast regression guard (not a benchmark): the derive path must perform
    zero full ``foreign_key_join`` materializations — a silent fallback to
    cold behaviour would erase the speedup without failing any equality test.
    """
    database, derived_db, delta, candidates, joined = delta_setup

    JOIN_STATS.reset()
    derived = joined.apply_delta(delta, database)
    incremental = evaluate_batch(candidates, derived, derived_db)
    assert JOIN_STATS.full_joins == 0, "apply_delta fell back to a full join rebuild"
    assert JOIN_STATS.delta_applies == 1

    # Same guarantee through the cache front door used by the QFE loop: once
    # the base signatures are warm, evaluating on D' (the base plus its
    # delta) performs no full join at all.
    cache = JoinCache()
    for signature in {query.join_signature for query in candidates}:
        cache.join_for(database, signature)
    JOIN_STATS.reset()
    through_cache = cache.evaluate_batch(candidates, database, delta=delta)
    assert JOIN_STATS.full_joins == 0, "evaluate_batch(delta=) fell back to a full join rebuild"

    # And the derived state is exactly the cold rebuild, fingerprint for
    # fingerprint (the guard must not pass by skipping work).
    cold = evaluate_batch(candidates, full_join(derived_db), derived_db)
    assert incremental.fingerprints == cold.fingerprints
    assert through_cache.fingerprints == cold.fingerprints


# The ``service-round`` group is the session-service comparison: full
# interactive sessions driven through the SessionManager — propose, choose
# (simulated worst-case user), submit — with 1 versus 8 concurrent users
# sharing one pair's join cache and prologue memo. Per-round compute is
# serialized per pair while all cross-user concurrency rides in the
# think-time the simulated users here don't have, so the 8-user run costs
# about 8x the 1-user run. BENCH_components.json records both medians with
# the 1-user run as the reference.
_SERVICE_USERS = 8


@pytest.fixture(scope="module")
def service_round_setup(scientific_setup, bench_scale):
    from repro.service.manager import SessionManager

    candidates = scientific_setup[3]
    # ONE manager (and thus one per-pair join cache) across every measured
    # run: the base join is built once per service lifetime, never inside
    # the timed region. Finished sessions are kept (not deleted) so the
    # shared pair — and with it the warm join — always stays referenced.
    # Sessions run over the manager's Q2 pair at the scale of
    # ``scientific_setup``, with its candidates.
    manager = SessionManager(max_live_sessions=1024)
    inputs = ("Q2", min(bench_scale, 0.12), tuple(candidates))
    _drive_service_users(manager, inputs, 1)  # warm: base join + memo
    yield manager, inputs
    manager.close()


def _drive_service_users(manager, inputs, users: int) -> int:
    """Run *users* concurrent worst-case sessions; returns rounds served."""
    import threading

    from repro.core.feedback import WorstCaseSelector

    workload, scale, candidates = inputs
    rounds_before = manager.metrics()["rounds_served"]
    ids = [
        manager.create_session(
            workload=workload,
            scale=scale,
            candidates=list(candidates),
            config=QFEConfig(delta_seconds=0.25),
        ).session_id
        for _ in range(users)
    ]
    errors: list[BaseException] = []

    def drive(session_id: str) -> None:
        try:
            selector = WorstCaseSelector()
            while True:
                _, pending = manager.get_round(session_id)
                if pending is None:
                    return
                manager.submit_choice(
                    session_id, selector.select(pending.round, pending.partition)
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(sid,)) for sid in ids]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"service session failed: {errors[:1]}"
    rounds = manager.metrics()["rounds_served"] - rounds_before
    assert rounds >= users  # every session went through at least one round
    return rounds


@pytest.mark.benchmark(group="service-round")
def test_bench_service_round_1_user(benchmark, service_round_setup):
    manager, inputs = service_round_setup
    rounds = benchmark.pedantic(
        _drive_service_users, args=(manager, inputs, 1), rounds=1, iterations=1
    )
    benchmark.extra_info["rounds"] = rounds
    benchmark.extra_info["users"] = 1


@pytest.mark.benchmark(group="service-round")
def test_bench_service_round_8_users(benchmark, service_round_setup):
    manager, inputs = service_round_setup
    rounds = benchmark.pedantic(
        _drive_service_users, args=(manager, inputs, _SERVICE_USERS), rounds=1, iterations=1
    )
    benchmark.extra_info["rounds"] = rounds
    benchmark.extra_info["users"] = _SERVICE_USERS


@pytest.mark.benchmark(group="components")
def test_bench_query_generation(benchmark, scientific_setup):
    database, result = scientific_setup[0], scientific_setup[1]
    generator = QueryGenerator(_QBO)
    candidates = benchmark(generator.generate, database, result)
    assert candidates


@pytest.mark.benchmark(group="components")
def test_bench_min_edit_on_modified_relation(benchmark, scientific_setup):
    database = scientific_setup[0]
    relation = database.relation(database.table_names[0])
    modified = relation.copy()
    first = modified.tuples[0]
    modified.update_value(first.tuple_id, modified.schema.attribute_names[-1], "changed")
    cost = benchmark(min_edit_relation, relation, modified)
    assert cost == 1


# δ is off in both prologue benchmarks (a budget of 10^12 pairs), so they
# time the whole enumeration: a budget-cut skyline would stop at a fixed
# pair count however the rest of the round grew.
_DELTA_OFF = QFEConfig(delta_seconds=1e6)


@pytest.mark.benchmark(group="components")
def test_bench_skyline_enumeration(benchmark, scientific_setup):
    _, result, _, _, _, space = scientific_setup

    def run():
        return skyline_stc_dtc_pairs(space, _DELTA_OFF, result_arity=result.schema.arity)

    skyline = benchmark(run)
    assert skyline.pair_count >= 1
    assert not skyline.truncated_by_time


@pytest.mark.benchmark(group="components")
def test_bench_subset_selection(benchmark, scientific_setup):
    _, result, _, _, _, space = scientific_setup
    arity = result.schema.arity
    skyline = skyline_stc_dtc_pairs(space, _DELTA_OFF, result_arity=arity)

    def run():
        # A fresh simulator per round: a shared one would time a warm
        # grouping memo instead of Algorithm 4.
        return pick_stc_dtc_subset(
            space, skyline.pairs, _DELTA_OFF,
            result_arity=arity,
            most_balanced_binary_x=skyline.most_balanced_binary_x,
            simulator=PairSetSimulator(space, result_arity=arity),
        )

    selection = benchmark(run)
    assert selection.found


@pytest.mark.benchmark(group="components")
def test_bench_end_to_end_evaluation(benchmark, scientific_setup):
    database, result, target = scientific_setup[0], scientific_setup[1], scientific_setup[2]
    evaluated = benchmark(evaluate, target, database)
    assert evaluated.bag_equal(result)
