"""Importing the package and its command-line entry points loads only the stdlib.

``src/`` has no third-party runtime dependency: a fresh interpreter that
imports ``repro`` and every CLI module must add nothing to ``sys.modules``
outside ``repro.*`` and the standard library. Tests may use scipy and
networkx as references; the program never loads them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_ENTRY_POINTS = ("repro", "repro.cli", "repro.service.cli", "repro.experiments.cli", "repro.obs.cli")

_SCRIPT = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_entry_points_import_only_the_standard_library():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(part for part in (src, env.get("PYTHONPATH")) if part)
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *_ENTRY_POINTS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    added = json.loads(completed.stdout)
    assert "repro.cli" in added
    foreign = [
        name
        for name in added
        if name.partition(".")[0] != "repro"
        and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
