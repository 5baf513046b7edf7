"""Algorithm 2: the Database Generator module.

Each QFE iteration calls :class:`DatabaseGenerator` with the original pair
``(D, R)`` and the surviving candidate queries ``QC'``. The generator:

1. materializes the full foreign-key join ``T`` of ``D`` and builds the
   tuple-class space of ``T`` relative to ``QC'`` (Section 5.1);
2. enumerates skyline (STC, DTC) pairs with Algorithm 3, bounded by the time
   threshold ``δ``;
3. selects a low-cost subset of pairs with Algorithm 4 under the Section 3
   cost model (or an alternative objective for the user-study baseline);
4. scores candidate materializations — the selected subset first, then the
   skyline singles in balance order — until one concretely distinguishes the
   candidates, retrying past heuristic/concrete disagreements;
5. materializes the winning attempt into ``D'`` and computes the exact
   candidate partition presented to the user.

The generator is a thin shell over
:class:`~repro.core.round_planner.RoundPlanner`, which runs steps 1–3 on the
driver for every backend (replaying a repeated round from its prologue
memo). Step 4 runs on a pluggable
:class:`~repro.core.execution_backend.ExecutionBackend`: serially in process
(the differential oracle) or sharded across a warm pool of persistent worker
processes holding an installed snapshot of the base state. Results are
bit-identical for every backend and worker count.

The result carries everything the experiment harness reports per iteration
(skyline pair count, timings of the three steps, modification costs).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import QFEConfig
from repro.core.execution_backend import ExecutionBackend, create_backend
from repro.core.round_planner import DatabaseGenerationResult, RoundPlanner
from repro.core.subset_selection import ScoreFunction
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache, SharedSnapshotCache
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation

__all__ = ["DatabaseGenerationResult", "DatabaseGenerator"]


class DatabaseGenerator:
    """Generate a distinguishing modified database for the surviving candidates."""

    def __init__(
        self,
        config: QFEConfig | None = None,
        *,
        score: ScoreFunction | None = None,
        join_cache: JoinCache | None = None,
        backend: ExecutionBackend | None = None,
        workers: int | None = None,
        snapshot_cache: SharedSnapshotCache | None = None,
    ) -> None:
        self.config = config or QFEConfig()
        self.score = score
        if backend is None:
            backend = create_backend(
                workers if workers is not None else self.config.workers,
                self.config.backend,
            )
        # The planner owns the join cache: the original database's joins (and
        # their columnar views / term masks) stay warm across iterations —
        # the session calls generate() with the same ``original`` every
        # round. Entries evict automatically when a database is
        # garbage-collected; only in-place modification of a live cached
        # database requires ``join_cache.invalidate``.
        self.planner = RoundPlanner(
            self.config,
            score=score,
            join_cache=join_cache,
            backend=backend,
            snapshot_cache=snapshot_cache,
        )

    @property
    def join_cache(self) -> JoinCache:
        """The session-wide join cache (shared with the planner)."""
        return self.planner.join_cache

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend the candidate-modification search runs on."""
        return self.planner.backend

    def generate(
        self,
        original: Database,
        result: Relation,
        queries: Sequence[SPJQuery],
    ) -> DatabaseGenerationResult:
        """Produce ``D'`` distinguishing *queries*; raises if no modification helps."""
        return self.planner.plan_round(original, result, queries)

    def close(self) -> None:
        """Release backend resources (worker pools); the generator stays usable."""
        self.planner.close()
