"""Scenario engine: parameterized synthetic QFE scenarios at any scale.

The paper evaluates QFE on six fixed workloads (Q1–Q6). The scenario engine
turns the repo into a system that can *fabricate* arbitrarily many QFE
scenarios — a schema shape (foreign-key tree depth/fanout), an
attribute-domain mix (ints, precision-heavy floats, ≥ 2^53 integers,
categorical strings, booleans), a selectivity profile and a scale factor —
deterministically from a seed, and measure them end to end:

* :mod:`repro.scenarios.spec` — the :class:`ScenarioSpec` knobs;
* :mod:`repro.scenarios.generator` — ``(spec, scale, seed)`` →
  ``(Database, workload queries)``, bit-reproducible, with scale-invariant
  queries and planted rows so every query has a non-empty result at every
  scale;
* :mod:`repro.scenarios.catalog` — named presets (``chain``, ``star``,
  ``mixed``) and the ``scenario:<preset>[@seed]`` workload-name bridge that
  lets the experiments runner and the session service treat a generated
  scenario exactly like a paper workload (including checkpoint/resume by
  reference);
* :mod:`repro.scenarios.sweep` — the scale sweep: per (scenario, scale) it
  cross-checks every generated query against the SQLite oracle, runs a
  full QFE session cold and twice more over the same join cache, asserts
  the canonical transcripts are bit-identical, times the cold vs delta-derived
  candidate-evaluation paths, and records the whole per-scale trajectory
  into ``benchmarks/BENCH_scenarios.json``.
"""

from repro.scenarios.catalog import (
    SCENARIOS,
    get_scenario,
    parse_scenario_name,
    scenario_names,
    scenario_workload,
)
from repro.scenarios.generator import GeneratedScenario, generate_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import DEFAULT_BENCH_PATH, run_sweep, sweep_table

__all__ = [
    "ScenarioSpec",
    "GeneratedScenario",
    "generate_scenario",
    "SCENARIOS",
    "scenario_names",
    "get_scenario",
    "parse_scenario_name",
    "scenario_workload",
    "run_sweep",
    "sweep_table",
    "DEFAULT_BENCH_PATH",
]
