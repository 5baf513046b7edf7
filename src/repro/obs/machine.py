"""The machine stamp recorded in every ``BENCH_*.json`` artifact.

A timing means little without the machine and the code that produced it.
:func:`machine_stamp` returns the CPU count available to the process, the
Python version, the platform string, and the source revision: the git commit
when ``src/`` sits in a git checkout, otherwise a sha256 over the source
files themselves.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

__all__ = ["machine_stamp"]

#: The ``src/`` directory this package was imported from.
_SRC = Path(__file__).resolve().parents[2]


def _git_sha() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_SRC,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(_SRC.rglob("*.py")):
        digest.update(path.relative_to(_SRC).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_stamp() -> dict:
    """``nproc``, ``python``, ``platform`` and ``git_sha`` (or ``src_sha256``)."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        nproc = os.cpu_count()
    stamp = {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    sha = _git_sha()
    if sha is not None:
        stamp["git_sha"] = sha
    else:
        stamp["src_sha256"] = _src_sha256()
    return stamp
