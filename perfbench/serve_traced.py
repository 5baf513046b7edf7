"""``qfe-serve`` with the benchmark's layer wrappers installed; dumps the aggregates on exit.

Usage::

    python3 perfbench/serve_traced.py DUMP.json [qfe-serve arguments ...]

SIGTERM stops the server the way Ctrl-C does (live sessions are
checkpointed, the manager closes), then the per-layer aggregates and the
engine counter deltas are written to ``DUMP.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ensure_program  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    ensure_program()
    import layers
    from repro.service.cli import main as serve

    dump = Path(argv[1])
    tracer = layers.LayerTracer()
    patches = layers.install(tracer)
    before = layers.stats_counters()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        code = serve(argv[2:])
    finally:
        patches.undo()
        counters = {
            name: value - before[name] for name, value in layers.stats_counters().items()
        }
        dump.write_text(json.dumps({"trace": tracer.snapshot(), "counters": counters}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
