"""Per-layer timing from outside the program: wrap public functions, keep spans in memory.

:func:`install` replaces module-level names (and a few public methods) of
the program with thin wrappers that open a span around each call. Spans are
folded into per-layer totals as they close: inclusive time (outermost call
of a layer only), self time (duration minus the part covered by child
spans) and call counts. Nothing is written until the run ends, and the
program's own code is untouched — uninstalling restores every original.

Only calls made inside a session's root calls (``session.candidates``,
``session.propose``, ``session.submit``) are recorded. Self times of every
layer plus the self time of the root calls then add up to the wall time
spent inside the root calls, which is what the coverage check of the traced
run relies on.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter

#: Root calls of a session; their self time is ``session.unattributed_s``.
ROOT_LAYERS = ("session.candidates", "session.propose", "session.submit")


class LayerTracer:
    """Thread-safe per-layer aggregates built from nested spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Free-form counts recorded by ``after`` hooks (pairs, classes, ...).
        self.counts: dict[str, float] = defaultdict(float)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(int))
        return state

    def call(self, layer: str, function, *args, **kwargs):
        stack, depth = self._state()
        if not stack and layer not in ROOT_LAYERS:
            # Outside a session's root calls (the simulated user's own
            # evaluation, request handling around a round): not session time.
            return function(*args, **kwargs)
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        depth[layer] += 1
        started = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            depth[layer] -= 1
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.calls[layer] += 1
                self.self_time[layer] += elapsed - frame[0]
                if depth[layer] == 0:
                    self.inclusive[layer] += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "inclusive": dict(self.inclusive),
                "self": dict(self.self_time),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


class _Patches:
    """Installed wrappers, kept so they can be undone."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, replacement) -> None:
        self._originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def undo(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


def _wrap(tracer: LayerTracer, layer: str, function, after=None):
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, function, *args, **kwargs)
        if after is not None:
            after(tracer, result, args)
        return result

    wrapper.__wrapped__ = function
    return wrapper


# ------------------------------------------------------------ count recorders
def _after_generate(tracer, _result, args) -> None:
    report = args[0].last_report
    if report is not None:
        tracer.count("qbo.join_schemas", report.join_schemas_tried)
        tracer.count("qbo.predicates_verified", report.predicates_verified)
        tracer.count("qbo.candidates", report.candidate_count)


def _after_space(tracer, space, _args) -> None:
    tracer.count("tuple_class.source_classes", len(space.source_tuple_classes()))
    tracer.count("tuple_class.attributes", space.attribute_count)


def record_skyline(tracer, skyline, _args) -> None:
    tracer.count("skyline.rounds")
    tracer.count("skyline.enumerated_pairs", skyline.enumerated_pairs)
    tracer.count("skyline.pairs", skyline.pair_count)
    tracer.count("skyline.truncated_by_time", int(skyline.truncated_by_time))
    tracer.count("skyline.truncated_by_cap", int(skyline.truncated_by_cap))


def _after_attempts(tracer, outcomes, _args) -> None:
    tracer.count("backend.attempts", len(outcomes))
    tracer.count("backend.rounds")


def install(tracer: LayerTracer) -> _Patches:
    """Wrap every layer boundary the benchmark reports; returns an undo handle."""
    from repro.core import execution_backend, feedback, round_planner, session
    from repro.core.modification import PairSetSimulator
    from repro.experiments import runner
    from repro.qbo import generator
    from repro.relational.evaluator import JoinCache

    patches = _Patches()

    def function(module, name: str, layer: str, after=None) -> None:
        patches.replace(module, name, _wrap(tracer, layer, getattr(module, name), after))

    # Root calls of a session.
    function(runner, "prepare_candidates", "session.candidates")
    function(session.QFESession, "propose", "session.propose")
    function(session.QFESession, "submit", "session.submit")
    # QBO candidate generation and its steps (the names repro.qbo.generator uses).
    function(generator.QueryGenerator, "generate", "qbo.generate", _after_generate)
    function(generator, "foreign_key_join", "qbo.join")
    function(generator, "candidate_projections", "qbo.projections")
    function(generator, "label_rows", "qbo.label")
    function(generator, "build_atom_pool", "qbo.atoms")
    function(generator, "search_conjunctions", "qbo.search")
    function(generator, "search_dnf_covers", "qbo.search")
    function(generator, "evaluate_batch", "qbo.verify")
    # Constant-mutation expansion of the candidate set.
    function(runner, "expand_candidate_set", "qbo.expand")
    function(session, "expand_candidate_set", "qbo.expand")
    # Relational engine: cached joins and batch evaluation.
    function(JoinCache, "join_for", "relational.join_for")
    function(JoinCache, "evaluate_batch", "relational.evaluate_batch")
    # Round prologue: tuple-class space, Algorithm 3, Algorithm 4, effects.
    function(round_planner, "TupleClassSpace", "tuple_class.space", _after_space)
    function(round_planner, "skyline_stc_dtc_pairs", "skyline", record_skyline)
    function(round_planner, "pick_stc_dtc_subset", "subset")
    function(PairSetSimulator, "effect", "modification.effect")
    # Attempt search, materialization and partitioning.
    function(execution_backend.SerialBackend, "run_attempts", "backend.run_attempts", _after_attempts)
    function(execution_backend, "materialize_pairs", "materialize")
    function(round_planner, "materialize_pairs", "materialize")
    function(execution_backend, "partition_signature", "partition")
    function(round_planner, "partition_from_batch", "partition")
    function(round_planner, "partition_queries", "partition")
    # Presentation of the round.
    function(session, "build_feedback_round", "present")
    function(feedback, "database_delta", "present.database_delta")
    return patches


def install_skyline_probe(tracer: LayerTracer) -> _Patches:
    """Record only each round's skyline outcome (for the untimed correctness check)."""
    from repro.core import round_planner

    patches = _Patches()
    original = round_planner.skyline_stc_dtc_pairs

    def probe(*args, **kwargs):
        result = original(*args, **kwargs)
        record_skyline(tracer, result, args)
        return result

    patches.replace(round_planner, "skyline_stc_dtc_pairs", probe)
    return patches


def stats_counters() -> dict:
    """The program's own engine counters (registry-backed stats objects)."""
    from repro.relational.columnar import COLUMNAR_STATS
    from repro.relational.join import JOIN_STATS

    return {
        "join.full_joins": JOIN_STATS.full_joins,
        "join.delta_applies": JOIN_STATS.delta_applies,
        "columnar.typed_term_masks": COLUMNAR_STATS.typed_term_masks,
        "columnar.zone_block_skips": COLUMNAR_STATS.zone_block_skips,
    }


def layer_metrics(trace: dict, counters: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name → (value, unit)) from a tracer snapshot and counter deltas."""
    inclusive, self_time = trace["inclusive"], trace["self"]
    calls, counts = trace["calls"], trace["counts"]

    def inc(layer: str) -> float:
        return inclusive.get(layer, 0.0)

    effect_calls = calls.get("modification.effect", 0)
    attempts = counts.get("backend.attempts", 0)
    metrics = {
        "qbo.generate_s": (inc("qbo.generate"), "s"),
        "qbo.join_s": (inc("qbo.join"), "s"),
        "qbo.projections_s": (inc("qbo.projections"), "s"),
        "qbo.label_s": (inc("qbo.label"), "s"),
        "qbo.atoms_s": (inc("qbo.atoms"), "s"),
        "qbo.search_s": (inc("qbo.search"), "s"),
        "qbo.verify_s": (inc("qbo.verify"), "s"),
        "qbo.join_schemas": (counts.get("qbo.join_schemas", 0), "count"),
        "qbo.predicates_verified": (counts.get("qbo.predicates_verified", 0), "count"),
        "qbo.candidates": (counts.get("qbo.candidates", 0), "count"),
        "qbo.expand_s": (inc("qbo.expand"), "s"),
        "qbo.expand_calls": (calls.get("qbo.expand", 0), "count"),
        "relational.join_for_s": (inc("relational.join_for"), "s"),
        "relational.join_for_calls": (calls.get("relational.join_for", 0), "count"),
        "relational.evaluate_batch_s": (inc("relational.evaluate_batch"), "s"),
        "relational.evaluate_batch_calls": (calls.get("relational.evaluate_batch", 0), "count"),
        "tuple_class.space_s": (inc("tuple_class.space"), "s"),
        "tuple_class.source_classes": (counts.get("tuple_class.source_classes", 0), "count"),
        "tuple_class.attributes": (counts.get("tuple_class.attributes", 0), "count"),
        "skyline.self_s": (self_time.get("skyline", 0.0), "s"),
        "skyline.enumerated_pairs": (counts.get("skyline.enumerated_pairs", 0), "count"),
        "skyline.pairs": (counts.get("skyline.pairs", 0), "count"),
        "skyline.truncated_by_time": (counts.get("skyline.truncated_by_time", 0), "count"),
        "skyline.truncated_by_cap": (counts.get("skyline.truncated_by_cap", 0), "count"),
        "modification.effect_s": (inc("modification.effect"), "s"),
        "modification.effect_calls": (effect_calls, "count"),
        "modification.effect_us_per_call": (
            inc("modification.effect") / effect_calls * 1e6 if effect_calls else 0.0, "us"
        ),
        "subset.self_s": (self_time.get("subset", 0.0), "s"),
        "backend.run_attempts_s": (inc("backend.run_attempts"), "s"),
        "backend.attempts": (attempts, "count"),
        "backend.useful_ratio": (
            counts.get("backend.rounds", 0) / attempts if attempts else 0.0, "ratio"
        ),
        "materialize.s": (inc("materialize"), "s"),
        "partition.s": (inc("partition"), "s"),
        "present.s": (inc("present"), "s"),
        "present.database_delta_s": (inc("present.database_delta"), "s"),
        "session.propose_s": (inc("session.propose"), "s"),
        "session.submit_s": (inc("session.submit"), "s"),
        "session.unattributed_s": (sum(self_time.get(root, 0.0) for root in ROOT_LAYERS), "s"),
        "trace.layer_self_s": (
            sum(value for layer, value in self_time.items() if layer not in ROOT_LAYERS), "s"
        ),
    }
    for name, value in counters.items():
        metrics[name] = (value, "count")
    return metrics
