"""The HTTP JSON API over a :class:`~repro.service.manager.SessionManager`.

Stdlib only (:mod:`http.server`), threaded: each request runs on its own
thread and the manager's per-session and per-pair locks provide the actual
serialization, so one slow round search never blocks health checks or other
sessions' requests.

Endpoints (all request/response bodies are JSON):

========  ==============================  ========================================
method    path                            meaning
========  ==============================  ========================================
POST      ``/sessions``                   create a session (workload + options)
GET       ``/sessions``                   list live session ids
GET       ``/sessions/{id}/round``        the pending round's deltas and options
POST      ``/sessions/{id}/choice``       submit a choice (``-1`` = none of these)
GET       ``/sessions/{id}/transcript``   canonical transcript (``?timings=1`` adds wall clock)
DELETE    ``/sessions/{id}``              drop the session and its checkpoint
GET       ``/healthz``                    liveness
GET       ``/metrics``                    service metrics (JSON)
========  ==============================  ========================================

Errors map onto conventional statuses: unknown session → 404, malformed
request (an unknown workload or a non-finite number included) or invalid
choice → 400, a body over :data:`MAX_BODY_BYTES` → 413
(refused unread), stepping a finished session → 409, anything unexpected →
500; every error body is ``{"error": message}``. A connection that stalls
mid-request for :data:`REQUEST_TIMEOUT_SECONDS` is closed, so a client that
sends fewer body bytes than it declared cannot pin a handler thread.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.config import QFEConfig
from repro.core.session import PendingRound, StepResult
from repro.exceptions import (
    CheckpointError,
    FeedbackError,
    QFESessionError,
    ReproError,
    ServiceError,
    SessionNotFound,
)
from repro.obs.exposition import PROMETHEUS_CONTENT_TYPE
from repro.service.checkpoint import feedback_round_dict, iteration_record_dict
from repro.service.manager import ManagedSession, SessionManager

__all__ = [
    "MAX_BODY_BYTES",
    "REQUEST_TIMEOUT_SECONDS",
    "QFEServiceServer",
    "make_server",
    "serve",
]

#: Largest request body accepted. Every endpoint takes a small JSON object,
#: so a larger declared ``Content-Length`` is refused (413) without reading.
MAX_BODY_BYTES = 1 << 20

#: Socket timeout of a request connection, in seconds.
REQUEST_TIMEOUT_SECONDS = 60

#: QFEConfig fields a client may set per session; everything else is fixed
#: server-side.
_CLIENT_CONFIG_FIELDS = {
    "beta",
    "delta_seconds",
    "max_iterations",
    "max_skyline_pairs",
    "max_subset_size",
    "set_semantics",
}


def _positive_finite(value) -> float | None:
    """*value* as a float if it is a positive finite JSON number, else ``None``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return number if 0 < number < math.inf else None


def _session_payload(managed: ManagedSession) -> dict:
    session = managed.session
    return {
        "session_id": managed.session_id,
        "workload": managed.workload,
        "status": session.status,
        "iteration_count": session.outcome.iteration_count,
        "remaining_candidates": session.remaining_candidates,
    }


def _round_payload(managed: ManagedSession, pending: PendingRound | None) -> dict:
    payload = _session_payload(managed)
    if pending is None:
        outcome = managed.session.outcome
        identified_sql = None
        if outcome.identified_query is not None:
            from repro.sql.render import render_query

            identified_sql = render_query(
                outcome.identified_query, managed.session.database.schema
            )
        payload["round"] = None
        payload["identified_sql"] = identified_sql
        payload["remaining_candidates"] = len(outcome.remaining_queries)
        return payload
    round_payload = feedback_round_dict(pending.round)
    round_payload["candidate_count"] = pending.candidate_count
    round_payload["option_count"] = pending.option_count
    payload["round"] = round_payload
    return payload


def _step_payload(managed: ManagedSession, step: StepResult) -> dict:
    payload = _session_payload(managed)
    payload["step"] = {
        "status": step.status,
        "done": step.done,
        "remaining_candidates": step.remaining_candidates,
        "record": (
            iteration_record_dict(step.record, include_timings=True)
            if step.record is not None
            else None
        ),
    }
    return payload


class _BadRequestBody(Exception):
    """A request body the handler refuses before reading it."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _RequestHandler(BaseHTTPRequestHandler):
    server_version = "qfe-serve/1"
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_SECONDS
    # Headers and body go out in two writes; with Nagle's algorithm on, the
    # body waits for the ACK of the headers, which a keep-alive client delays
    # (~40 ms on Linux). TCP_NODELAY sends both at once.
    disable_nagle_algorithm = True

    @property
    def manager(self) -> SessionManager:
        return self.server.manager  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if getattr(self.server, "verbose", False):  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise _BadRequestBody(400, f"invalid Content-Length {declared!r}")
        if length > MAX_BODY_BYTES:
            raise _BadRequestBody(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES} bytes"
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        try:
            parsed = urlparse(self.path)
            parts = [part for part in parsed.path.split("/") if part]
            query = parse_qs(parsed.query)
            self._route(method, parts, query)
        except _BadRequestBody as exc:
            # The body was never read, so the stream cannot carry another
            # request: answer, then drop the connection.
            self.close_connection = True
            self._send_json(exc.status, {"error": str(exc)})
        except TimeoutError:
            # The client declared more body bytes than it sent.
            self.close_connection = True
        except SessionNotFound as exc:
            self._send_json(404, {"error": str(exc)})
        except (FeedbackError, CheckpointError, ServiceError, ValueError, TypeError) as exc:
            # ValueError/TypeError: client-supplied config values that fail
            # QFEConfig validation (out of range or wrongly typed).
            self._send_json(400, {"error": str(exc)})
        except QFESessionError as exc:
            self._send_json(409, {"error": str(exc)})
        except ReproError as exc:
            self._send_json(500, {"error": str(exc)})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self._send_json(500, {"error": f"internal error: {exc}"})

    # -------------------------------------------------------------------- routes
    def _route(self, method: str, parts: list[str], query: dict) -> None:
        if method == "GET" and parts == ["healthz"]:
            self._send_json(200, self.manager.healthz())
            return
        if method == "GET" and parts == ["metrics"]:
            # Content negotiation: JSON stays the default contract; Prometheus
            # exposition on explicit request via query or Accept header.
            wants_prometheus = query.get("format", [""])[-1] == "prometheus" or (
                "prometheus" in (self.headers.get("Accept") or "").lower()
            )
            if wants_prometheus:
                self._send_text(
                    200, self.manager.prometheus_metrics(), PROMETHEUS_CONTENT_TYPE
                )
            else:
                self._send_json(200, self.manager.metrics())
            return
        if parts[:1] == ["sessions"]:
            if method == "POST" and len(parts) == 1:
                self._create_session()
                return
            if method == "GET" and len(parts) == 1:
                self._send_json(200, {"sessions": self.manager.session_ids()})
                return
            if len(parts) == 2 and method == "DELETE":
                existed = self.manager.delete_session(parts[1])
                if not existed:
                    raise SessionNotFound(f"unknown session {parts[1]!r}")
                self._send_json(200, {"deleted": parts[1]})
                return
            if len(parts) == 3 and method == "GET" and parts[2] == "round":
                managed, pending = self.manager.get_round(parts[1])
                self._send_json(200, _round_payload(managed, pending))
                return
            if len(parts) == 3 and method == "POST" and parts[2] == "choice":
                body = self._read_json()
                if "choice" not in body:
                    raise ServiceError('request body must carry a "choice" field')
                choice = body["choice"]
                if not isinstance(choice, int) or isinstance(choice, bool):
                    raise ServiceError("choice must be an integer option index")
                managed, step = self.manager.submit_choice(parts[1], choice)
                self._send_json(200, _step_payload(managed, step))
                return
            if len(parts) == 3 and method == "GET" and parts[2] == "transcript":
                include_timings = query.get("timings", ["0"])[-1] in ("1", "true", "yes")
                transcript = self.manager.transcript(
                    parts[1], include_timings=include_timings
                )
                self._send_json(200, transcript)
                return
        self._send_json(404, {"error": f"no route for {method} {self.path}"})

    def _create_session(self) -> None:
        body = self._read_json()
        workload = body.get("workload")
        if not isinstance(workload, str) or not workload:
            raise ServiceError('session creation requires a "workload" name')
        scale = _positive_finite(body.get("scale", 1.0))
        if scale is None:
            raise ServiceError("scale must be a positive finite number")
        candidate_count = body.get("candidate_count")
        if candidate_count is not None and (
            not isinstance(candidate_count, int)
            or isinstance(candidate_count, bool)
            or candidate_count < 2
        ):
            raise ServiceError("candidate_count must be an integer >= 2")
        config = QFEConfig()
        overrides = body.get("config") or {}
        if not isinstance(overrides, dict):
            raise ServiceError('"config" must be a JSON object')
        unknown = set(overrides) - _CLIENT_CONFIG_FIELDS
        if unknown:
            raise ServiceError(
                f"unsupported config fields {sorted(unknown)}; "
                f"clients may set {sorted(_CLIENT_CONFIG_FIELDS)}"
            )
        if overrides:
            config = config.with_overrides(**overrides)
        managed = self.manager.create_session(
            workload=workload,
            scale=scale,
            candidate_count=candidate_count,
            config=config,
        )
        self._send_json(201, _session_payload(managed))

    # ------------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")


class QFEServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one session manager."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], manager: SessionManager,
                 *, verbose: bool = False) -> None:
        super().__init__(address, _RequestHandler)
        self.manager = manager
        self.verbose = verbose

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and examples); returns the thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        """Stop serving and close the manager (checkpointing live sessions)."""
        self.shutdown()
        self.server_close()
        self.manager.close()


def make_server(
    manager: SessionManager, host: str = "127.0.0.1", port: int = 0,
    *, verbose: bool = False,
) -> QFEServiceServer:
    """Bind a service server; ``port=0`` picks a free port (see ``server_address``)."""
    return QFEServiceServer((host, port), manager, verbose=verbose)


def serve(manager: SessionManager, host: str = "127.0.0.1", port: int = 8642,
          *, verbose: bool = False) -> None:
    """Serve until interrupted (the ``qfe-serve`` entry point's main loop)."""
    server = make_server(manager, host, port, verbose=verbose)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.close()
