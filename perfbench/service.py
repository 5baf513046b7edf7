"""The service-2users workload: closed-loop HTTP users against a ``qfe-serve`` subprocess.

Each user is one thread with one keep-alive HTTP connection and zero think
time. It runs worst-case sessions back to back (create, then round / choice
until the session finishes, then transcript and delete), alternating between
the run's scenario workloads, until the run's duration is over. Every
transcript is compared byte for byte with an in-process reference session
built once at set-up, and every response must be 2xx. Set-up is server
start-up plus one warm-up session per workload, repeated on fresh servers;
the last server is the one measured.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import transcript_problem
from common import (
    BENCH_DIR,
    DELTA_OFF_SECONDS,
    TMP_ROOT,
    BenchmarkError,
    median,
    percentile,
    program_env,
)

SERVER_START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


def reference_transcript(workload: str, scale: float) -> str:
    """The canonical transcript of the in-process worst-case session the service must match."""
    from repro.core import QFEConfig, QFESession, WorstCaseSelector
    from repro.service.checkpoint import session_transcript, transcript_json
    from repro.service.manager import workload_session_inputs

    database, result, _, candidates = workload_session_inputs(workload, scale)
    if len(candidates) < 2:
        raise BenchmarkError(
            f"{workload} yields {len(candidates)} candidate(s) at scale {scale}; "
            "a degenerate seed makes a trivial session"
        )
    session = QFESession(
        database, result, candidates=candidates,
        config=QFEConfig(delta_seconds=DELTA_OFF_SECONDS, backend="serial"),
    )
    outcome = session.run(WorstCaseSelector())
    if outcome.iteration_count == 0:
        raise BenchmarkError(f"{workload} converges with zero rounds (degenerate seed)")
    return transcript_json(session_transcript(session, workload=workload))


class Server:
    """One ``qfe-serve`` process on a free port with an on-disk checkpoint store."""

    def __init__(self, workdir: Path, *, layer_dump: Path | None = None) -> None:
        self.workdir = workdir
        self.store_dir = workdir / "store"
        self.layer_dump = layer_dump
        self.process: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> "Server":
        self.workdir.mkdir(parents=True, exist_ok=True)
        serve_args = [
            "--host", "127.0.0.1", "--port", "0",
            "--backend", "serial", "--workers", "0",
            "--store-dir", str(self.store_dir),
        ]
        if self.layer_dump is None:
            command = [sys.executable, "-m", "repro.service", *serve_args]
        else:
            command = [
                sys.executable, str(BENCH_DIR / "serve_traced.py"),
                str(self.layer_dump), *serve_args,
            ]
        log_path = self.workdir / "server.log"
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=program_env(),
                cwd=self.workdir,
            )
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while self.port is None:
            text = log_path.read_text(errors="replace")
            marker = "listening on http://127.0.0.1:"
            if marker in text:
                self.port = int(text.split(marker, 1)[1].split()[0])
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchmarkError(f"qfe-serve did not start:\n{text[-2000:]}")
            time.sleep(0.005)
        return self

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (VmHWM)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM is not reported for the server process")

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process = None


class Connection:
    """One keep-alive HTTP connection that times every request."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, payload: dict | None = None):
        """``(status, body, seconds)``; status ``None`` when the connection failed."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
            return None, str(exc).encode("utf-8"), perf_counter() - started
        return response.status, data, perf_counter() - started

    def close(self) -> None:
        self._conn.close()


@dataclass
class UserStats:
    """What one closed-loop user observed."""

    requests: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    create_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    finish_s: list[float] = field(default_factory=list)
    choice_s: list[float] = field(default_factory=list)
    transcript_s: list[float] = field(default_factory=list)
    delete_s: list[float] = field(default_factory=list)
    session_s: list[float] = field(default_factory=list)
    first_round_s: list[float] = field(default_factory=list)
    rounds: list[int] = field(default_factory=list)
    modification_cost: list[float] = field(default_factory=list)
    checkpoint_bytes: list[int] = field(default_factory=list)

    def merge(self, other: "UserStats") -> None:
        for name, value in vars(other).items():
            mine = getattr(self, name)
            setattr(self, name, mine + value)


class _SessionFailed(Exception):
    pass


def _worst_case_choice(round_payload: dict) -> int:
    """The option backed by the most candidates, first index on ties."""
    best_index, best_count = 0, -1
    for option in round_payload["round"]["options"]:
        if option["query_count"] > best_count:
            best_index, best_count = option["index"], option["query_count"]
    return best_index


def drive_session(conn: Connection, stats: UserStats, workload: str, scale: float,
                  reference: str, store_dir: Path) -> None:
    """One whole worst-case session over HTTP, recording every latency."""
    from repro.service.checkpoint import transcript_json
    from repro.service.store import CHECKPOINT_SUFFIX

    def call(method: str, path: str, payload: dict | None = None):
        status, body, seconds = conn.request(method, path, payload)
        stats.requests += 1
        try:
            if status is None or not 200 <= status < 300:
                raise ValueError(f"status {status}")
            return json.loads(body), seconds
        except ValueError as exc:
            stats.failed += 1
            stats.errors.append(f"{method} {path} -> {exc}: {body[:200]!r}")
            raise _SessionFailed from exc

    started = perf_counter()
    created, seconds = call(
        "POST", "/sessions",
        {"workload": workload, "scale": scale, "config": {"delta_seconds": DELTA_OFF_SECONDS}},
    )
    stats.create_s.append(seconds)
    session_id = created["session_id"]
    rounds = 0
    while True:
        payload, seconds = call("GET", f"/sessions/{session_id}/round")
        if payload["round"] is None:
            stats.finish_s.append(seconds)
            break
        stats.round_s.append(seconds)
        if rounds == 0:
            stats.first_round_s.append(perf_counter() - started)
        rounds += 1
        _, seconds = call(
            "POST", f"/sessions/{session_id}/choice", {"choice": _worst_case_choice(payload)}
        )
        stats.choice_s.append(seconds)
    stats.session_s.append(perf_counter() - started)
    stats.rounds.append(rounds)
    transcript, seconds = call("GET", f"/sessions/{session_id}/transcript")
    stats.transcript_s.append(seconds)
    problem = transcript_problem(transcript_json(transcript), reference)
    if problem is not None:
        stats.failed += 1
        stats.errors.append(f"session {session_id}: {problem}")
    stats.modification_cost.append(
        sum(it["db_cost"] + it["result_cost"] for it in transcript["iterations"])
    )
    checkpoint = store_dir / f"{session_id}{CHECKPOINT_SUFFIX}"
    if checkpoint.exists():
        stats.checkpoint_bytes.append(checkpoint.stat().st_size)
    _, seconds = call("DELETE", f"/sessions/{session_id}")
    stats.delete_s.append(seconds)


def _user_loop(port: int, deadline: float, stats: UserStats, workloads: list[str],
               scale: float, references: dict[str, str], store_dir: Path) -> None:
    conn = Connection(port)
    try:
        turn = 0
        while perf_counter() < deadline:
            workload = workloads[turn % len(workloads)]
            turn += 1
            try:
                drive_session(conn, stats, workload, scale, references[workload], store_dir)
            except _SessionFailed:
                continue
    finally:
        conn.close()


def _server_metrics(port: int) -> dict:
    conn = Connection(port)
    try:
        status, body, _ = conn.request("GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise BenchmarkError(f"GET /metrics -> {status}")
    return json.loads(body)


@dataclass
class Phase:
    """One measured phase: set-up samples, the users' observations, server figures."""

    setup_s: list[float]
    stats: UserStats
    wall_s: float
    sessions: int
    peak_rss_mb: float
    checkpoints: int
    server_round_p50_ms: float
    layer_dump: dict | None


def run_phase(workdir: Path, workloads: list[str], scale: float, references: dict[str, str],
              *, seconds: float, users: int, setup_reps: int, traced: bool) -> Phase:
    """Set up ``setup_reps`` fresh servers, then load the last one for ``seconds``.

    User ``k`` starts at workload ``k`` of the list, so both pairs are busy
    from the first request on.
    """
    setup_s: list[float] = []
    server = None
    dump_path = workdir / "layers.json" if traced else None
    try:
        for rep in range(setup_reps):
            started = perf_counter()
            server = Server(workdir / f"server-{rep}", layer_dump=dump_path).start()
            warmup = UserStats()
            conn = Connection(server.port)
            try:
                for workload in workloads:
                    drive_session(
                        conn, warmup, workload, scale, references[workload], server.store_dir
                    )
            except _SessionFailed:
                pass
            finally:
                conn.close()
            setup_s.append(perf_counter() - started)
            if warmup.failed:
                raise BenchmarkError("warm-up session failed: " + "; ".join(warmup.errors[:3]))
            if rep < setup_reps - 1:
                server.stop()

        before = _server_metrics(server.port)
        per_user = [UserStats() for _ in range(users)]
        started = perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(
                target=_user_loop,
                args=(
                    server.port, deadline, stats,
                    workloads[user % len(workloads):] + workloads[:user % len(workloads)],
                    scale, references, server.store_dir,
                ),
            )
            for user, stats in enumerate(per_user)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = perf_counter() - started
        after = _server_metrics(server.port)
        peak_rss_mb = server.peak_rss_mb()
        server.stop()
        layer_dump = json.loads(dump_path.read_text()) if traced else None
    finally:
        if server is not None:
            server.stop()
    stats = UserStats()
    for user in per_user:
        stats.merge(user)
    return Phase(
        setup_s=setup_s,
        stats=stats,
        wall_s=wall_s,
        sessions=len(stats.session_s),
        peak_rss_mb=peak_rss_mb,
        checkpoints=after["checkpoints_written"] - before["checkpoints_written"],
        server_round_p50_ms=(after["round_latency_seconds"]["p50"] or 0.0) * 1000.0,
        layer_dump=layer_dump,
    )


def end_to_end(phase: Phase) -> dict[str, tuple[float, str]]:
    stats = phase.stats
    return {
        "setup_s": (median(phase.setup_s), "s"),
        "session_s": (median(stats.session_s), "s"),
        "first_round_s": (median(stats.first_round_s), "s"),
        "rounds": (median(stats.rounds), "count"),
        "modification_cost": (median(stats.modification_cost), "cost"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
        "sessions_per_s": (phase.sessions / phase.wall_s, "1/s"),
    }


def service_layer_metrics(phase: Phase) -> dict[str, tuple[float, str]]:
    stats = phase.stats
    round_p50_ms = percentile(stats.round_s, 0.50) * 1000.0
    return {
        "round_p50_ms": (round_p50_ms, "ms"),
        "round_p90_ms": (percentile(stats.round_s, 0.90) * 1000.0, "ms"),
        "create_p50_ms": (percentile(stats.create_s, 0.50) * 1000.0, "ms"),
        "choice_p50_ms": (percentile(stats.choice_s, 0.50) * 1000.0, "ms"),
        "service.finish_p50_ms": (percentile(stats.finish_s, 0.50) * 1000.0, "ms"),
        "service.transcript_p50_ms": (percentile(stats.transcript_s, 0.50) * 1000.0, "ms"),
        "service.delete_p50_ms": (percentile(stats.delete_s, 0.50) * 1000.0, "ms"),
        "service.server_round_p50_ms": (phase.server_round_p50_ms, "ms"),
        "service.transport_ms": (round_p50_ms - phase.server_round_p50_ms, "ms"),
        "service.checkpoints": (phase.checkpoints, "count"),
        "service.checkpoint_bytes_per_write": (
            sum(stats.checkpoint_bytes) / len(stats.checkpoint_bytes)
            if stats.checkpoint_bytes else 0.0,
            "bytes",
        ),
    }


def run_service(workloads: list[str], scale: float, *, seconds: float, trace: bool,
                users: int = 2, setup_reps: int = 3):
    """Run the workload; returns ``(phases by name, reference transcript by workload)``."""
    references = {workload: reference_transcript(workload, scale) for workload in workloads}
    workdir = TMP_ROOT / f"service-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if trace:
            # Untraced then traced, half the duration each: the difference
            # between the two is the tracing overhead.
            plain = run_phase(workdir / "plain", workloads, scale, references,
                              seconds=seconds / 2, users=users, setup_reps=1, traced=False)
            traced = run_phase(workdir / "traced", workloads, scale, references,
                               seconds=seconds / 2, users=users, setup_reps=1, traced=True)
            return {"plain": plain, "traced": traced}, references
        plain = run_phase(workdir / "plain", workloads, scale, references,
                          seconds=seconds, users=users, setup_reps=setup_reps, traced=False)
        return {"plain": plain}, references
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
