#!/usr/bin/env python
"""Service smoke test: every resume over HTTP is a replay, bit-identical, and a
warm pair generates its candidates once.

Four legs, each against ``qfe-serve`` booted as a real subprocess:

1. **kill -9.** Drives a Q2 session through the HTTP client, hard-kills the
   server (SIGKILL — no graceful shutdown, the on-disk checkpoints are all
   that survives) after the first submitted choice, reboots it on the same
   ``--store-dir`` and finishes the session.
2. **Passivation, on disk.** With ``--max-live-sessions 1`` and a
   ``--store-dir``, drives two sessions in turn, one step each: after the
   first request every step passivates one session and resumes the other by
   replaying its checkpoint.
3. **Passivation, in memory.** The same two sessions with
   ``--max-live-sessions 1`` and no ``--store-dir``: every step's checkpoint
   goes to the in-memory store, and every resume replays it from there.
4. **A warm pair.** Two sessions of one spec on one pair: ``/metrics`` must
   read one candidate generation and one candidate-memo hit.

Each session's canonical transcript must be **byte-identical** to an
uninterrupted in-process run of the same session spec.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import QFEConfig, QFESession, WorstCaseSelector  # noqa: E402
from repro.service.checkpoint import session_transcript, transcript_json  # noqa: E402
from repro.service.client import ServiceClient, ServiceClientError  # noqa: E402
from repro.service.manager import workload_session_inputs  # noqa: E402

WORKLOAD = "Q2"
SCALE = 0.03
CANDIDATES = 8
# The δ a client sends: a 30,000,000-pair Algorithm 3 budget, which no
# round of these sessions reaches.
DELTA_SECONDS = 30.0
PORT = int(os.environ.get("QFE_SMOKE_PORT", "8655"))


def reference_transcript(candidate_count: int = CANDIDATES, config: dict | None = None) -> str:
    """The uninterrupted in-process run of the same session spec."""
    database, result, _, candidates = workload_session_inputs(
        WORKLOAD, SCALE, candidate_count=candidate_count
    )
    session = QFESession(
        database, result, candidates=candidates, config=QFEConfig(**(config or {}))
    )
    session.run(WorstCaseSelector())
    return transcript_json(session_transcript(session, workload=WORKLOAD))


def boot_server(*flags: str) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", str(PORT), *flags],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=REPO_ROOT,
    )
    client = ServiceClient(f"http://127.0.0.1:{PORT}", timeout=120.0)
    deadline = time.monotonic() + 30.0
    while True:
        try:
            client.healthz()
            return process
        except ServiceClientError:
            if process.poll() is not None:
                output = process.stdout.read().decode("utf-8", "replace")
                raise RuntimeError(f"qfe-serve exited at startup:\n{output}")
            if time.monotonic() > deadline:
                process.kill()
                raise RuntimeError("qfe-serve did not come up within 30s")
            time.sleep(0.1)


def drive_round(client: ServiceClient, session_id: str) -> bool:
    """One round: fetch, choose worst-case, submit. False when finished."""
    payload = client.get_round(session_id)
    if payload["round"] is None:
        return False
    client.submit_choice(session_id, ServiceClient.worst_case_choice(payload))
    return True


def stop(server: subprocess.Popen) -> None:
    if server.poll() is None:
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover
            server.kill()


def passivation_leg(*store_flags: str) -> int:
    """Two sessions under ``--max-live-sessions 1``, one step each in turn."""
    # The second session keeps the default config (δ = 1 s, a 1,000,000-pair
    # budget), so a sent config and the default one both resume by replay.
    specs = {
        "a": (CANDIDATES, {"delta_seconds": DELTA_SECONDS}),
        "b": (CANDIDATES - 2, None),
    }
    references = {name: reference_transcript(*spec) for name, spec in specs.items()}
    flags = ("--max-live-sessions", "1", *store_flags)
    print(f"[smoke] booting qfe-serve {' '.join(flags)} ...", flush=True)
    server = boot_server(*flags)
    client = ServiceClient(f"http://127.0.0.1:{PORT}", timeout=120.0)
    try:
        ids = {
            name: client.create_session(
                WORKLOAD, scale=SCALE, candidate_count=count,
                **({"config": config} if config else {}),
            )["session_id"]
            for name, (count, config) in specs.items()
        }
        running = dict(ids)
        while running:
            for name in list(running):
                if not drive_round(client, running[name]):
                    del running[name]
        metrics = client.metrics()
        for name, session_id in ids.items():
            transcript = transcript_json(client.transcript(session_id))
            if transcript != references[name]:
                print(f"[smoke] FAIL: session {name} differs from its reference")
                return 1
        if metrics["sessions_resumed"] < metrics["rounds_served"]:
            print(f"[smoke] FAIL: too few resumes: {metrics}")
            return 1
        print(
            f"[smoke] OK: both transcripts bit-identical after "
            f"{metrics['sessions_resumed']} resumes by replay",
            flush=True,
        )
        return 0
    finally:
        stop(server)


def warm_pair_leg(reference: str) -> int:
    """Two sessions of one spec on one pair: one generation, one memo hit."""
    print("[smoke] booting qfe-serve for two sessions on one pair ...", flush=True)
    server = boot_server()
    client = ServiceClient(f"http://127.0.0.1:{PORT}", timeout=120.0)
    try:
        ids = [
            client.create_session(
                WORKLOAD, scale=SCALE, candidate_count=CANDIDATES,
                config={"delta_seconds": DELTA_SECONDS},
            )["session_id"]
            for _ in range(2)
        ]
        for session_id in ids:
            while drive_round(client, session_id):
                pass
        metrics = client.metrics()
        memo = (metrics["candidate_memo_misses"], metrics["candidate_memo_hits"])
        if memo != (1, 1):
            print(f"[smoke] FAIL: expected 1 generation and 1 memo hit, got {memo}")
            return 1
        for session_id in ids:
            if transcript_json(client.transcript(session_id)) != reference:
                print(f"[smoke] FAIL: session {session_id} differs from its reference")
                return 1
        print(
            "[smoke] OK: one candidate generation, one memo hit, "
            "both transcripts bit-identical",
            flush=True,
        )
        return 0
    finally:
        stop(server)


def main() -> int:
    print(f"[smoke] reference: uninterrupted in-process {WORKLOAD} run ...", flush=True)
    reference = reference_transcript(config={"delta_seconds": DELTA_SECONDS})

    with tempfile.TemporaryDirectory(prefix="qfe-smoke-") as store_dir:
        print(f"[smoke] booting qfe-serve (store={store_dir}) ...", flush=True)
        server = boot_server("--store-dir", store_dir)
        client = ServiceClient(f"http://127.0.0.1:{PORT}", timeout=120.0)
        try:
            created = client.create_session(
                WORKLOAD,
                scale=SCALE,
                candidate_count=CANDIDATES,
                config={"delta_seconds": DELTA_SECONDS},
            )
            session_id = created["session_id"]
            print(f"[smoke] session {session_id}: first round over HTTP ...", flush=True)
            assert drive_round(client, session_id), "session finished before any round"

            print("[smoke] SIGKILL the server mid-session ...", flush=True)
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)

            print("[smoke] rebooting on the same checkpoint store ...", flush=True)
            server = boot_server("--store-dir", store_dir)
            rounds = 1
            while drive_round(client, session_id):
                rounds += 1
            print(f"[smoke] resumed session finished after {rounds} rounds", flush=True)

            resumed = transcript_json(client.transcript(session_id))
            if resumed != reference:
                print("[smoke] FAIL: resumed transcript differs from the reference")
                print(f"  reference: {reference[:400]} ...")
                print(f"  resumed:   {resumed[:400]} ...")
                return 1
            metrics = client.metrics()
            print(
                f"[smoke] OK: transcript bit-identical "
                f"({len(resumed)} bytes, {metrics['rounds_served']} rounds served "
                "by the resumed server)",
                flush=True,
            )
        finally:
            stop(server)
    with tempfile.TemporaryDirectory(prefix="qfe-smoke-") as store_dir:
        if passivation_leg("--store-dir", store_dir):
            return 1
    if passivation_leg():
        return 1
    return warm_pair_leg(reference)


if __name__ == "__main__":
    sys.exit(main())
