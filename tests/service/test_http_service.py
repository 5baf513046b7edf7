"""Integration tests for the HTTP JSON API and its client."""

import http.client
import socket
import statistics
import threading
import time

import pytest

from repro.core import QFEConfig, QFESession, WorstCaseSelector
from repro.service.checkpoint import session_transcript, transcript_json
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import SessionManager, workload_session_inputs
from repro.service.server import (
    MAX_BODY_BYTES,
    REQUEST_TIMEOUT_SECONDS,
    _RequestHandler,
    make_server,
)
from repro.service.store import InMemorySessionStore

_SPEC = dict(scale=0.03, candidate_count=8, config={"delta_seconds": 30.0})


@pytest.fixture(scope="module")
def service():
    manager = SessionManager(store=InMemorySessionStore())
    server = make_server(manager)
    server.serve_background()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield client
    server.close()


def _drive_http(client, session_id):
    rounds = 0
    while True:
        payload = client.get_round(session_id)
        if payload["round"] is None:
            return payload, rounds
        client.submit_choice(session_id, ServiceClient.worst_case_choice(payload))
        rounds += 1


class TestPlumbing:
    def test_healthz_and_metrics(self, service):
        health = service.healthz()
        assert health["status"] == "ok"
        metrics = service.metrics()
        assert "rounds_served" in metrics
        assert "round_latency_seconds" in metrics

    def test_unknown_routes_and_sessions(self, service):
        with pytest.raises(ServiceClientError) as excinfo:
            service.get_round("s-missing")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceClientError) as excinfo:
            service._request("GET", "/nonsense")
        assert excinfo.value.status == 404

    def test_create_session_validation(self, service):
        for payload in (
            {},  # no workload
            {"workload": "Q2", "scale": -1},
            {"workload": "Q2", "candidate_count": 1},
            {"workload": "Q2", "config": {"workers": 4}},  # not a config field
            {"workload": "Q2", "config": {"nonsense": True}},
            {"workload": "Q2", "config": {"beta": "high"}},  # wrong type -> 400
            {"workload": "Q2", "config": {"delta_seconds": -1}},
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                service._request("POST", "/sessions", payload)
            assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param({"workload": "Q2", "scale": float("inf")}, id="scale-inf"),
            pytest.param({"workload": "Q2", "scale": float("nan")}, id="scale-nan"),
            pytest.param({"workload": "Q2", "scale": 10**400}, id="scale-beyond-float"),
            pytest.param({"workload": "Q2", "scale": "1"}, id="scale-string"),
            pytest.param({"workload": "Q2", "scale": True}, id="scale-bool"),
            pytest.param({"workload": "Q2", "config": {"beta": float("nan")}}, id="beta-nan"),
            pytest.param({"workload": "Q2", "config": {"beta": float("inf")}}, id="beta-inf"),
            pytest.param(
                {"workload": "Q2", "config": {"delta_seconds": float("nan")}}, id="delta-nan"
            ),
            pytest.param(
                {"workload": "Q2", "config": {"delta_seconds": float("inf")}}, id="delta-inf"
            ),
            pytest.param(
                {"workload": "Q2", "config": {"delta_seconds": 10**400}},
                id="delta-beyond-float",
            ),
            pytest.param(
                {"workload": "Q2", "config": {"beta": 10**400}}, id="beta-beyond-float"
            ),
        ],
    )
    def test_non_finite_numbers_are_a_400(self, service, payload):
        # json.dumps writes NaN/Infinity literals, which the server's parser
        # accepts; a session built from them would put the same literals
        # back into its round and transcript JSON.
        with pytest.raises(ServiceClientError) as excinfo:
            service._request("POST", "/sessions", payload)
        assert excinfo.value.status == 400
        assert "finite" in str(excinfo.value)

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param({"max_subset_size": 2.5}, id="subset-size-float"),
            pytest.param({"max_skyline_pairs": 7.5}, id="skyline-pairs-float"),
            pytest.param({"set_semantics": "false"}, id="set-semantics-string"),
            pytest.param({"max_iterations": True}, id="iterations-bool"),
            pytest.param({"beta": True}, id="beta-bool"),
        ],
    )
    def test_mistyped_config_values_are_a_400(self, service, config):
        # Accepted, a float count made every later GET round a 400 (the
        # session never ran a round), and the string "false" switched set
        # semantics on.
        with pytest.raises(ServiceClientError) as excinfo:
            service._request(
                "POST", "/sessions", {"workload": "scenario:mixed@2", "config": config}
            )
        assert excinfo.value.status == 400
        assert next(iter(config)) in str(excinfo.value)

    @pytest.mark.parametrize("workload", ["Q9", "scenario:nope"])
    def test_unknown_workload_is_a_400_naming_the_known_ones(self, service, workload):
        with pytest.raises(ServiceClientError) as excinfo:
            service._request("POST", "/sessions", {"workload": workload})
        assert excinfo.value.status == 400
        assert "known:" in str(excinfo.value)

    def test_malformed_scenario_seed_is_a_400(self, service):
        with pytest.raises(ServiceClientError) as excinfo:
            service._request("POST", "/sessions", {"workload": "scenario:mixed@x"})
        assert excinfo.value.status == 400
        assert "seed must be an integer" in str(excinfo.value)

    def test_choice_validation(self, service):
        sid = service.create_session("Q2", **_SPEC)["session_id"]
        try:
            service.get_round(sid)
            with pytest.raises(ServiceClientError) as excinfo:
                service._request("POST", f"/sessions/{sid}/choice", {})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceClientError) as excinfo:
                service.submit_choice(sid, 99)
            assert excinfo.value.status == 400
            # The bad choice left the round pending: a valid one still works.
            payload = service.get_round(sid)
            assert payload["round"] is not None
        finally:
            service.delete_session(sid)

    def test_delete_404_on_second_delete(self, service):
        sid = service.create_session("Q2", **_SPEC)["session_id"]
        assert service.delete_session(sid) == {"deleted": sid}
        with pytest.raises(ServiceClientError) as excinfo:
            service.delete_session(sid)
        assert excinfo.value.status == 404

    def test_a_delete_waits_for_the_round_in_flight(self, service, monkeypatch):
        sid = service.create_session("Q2", **_SPEC)["session_id"]
        entered = threading.Event()
        propose = QFESession.propose

        def slow_propose(session):
            entered.set()
            time.sleep(0.3)
            return propose(session)

        monkeypatch.setattr(QFESession, "propose", slow_propose)
        proposing = threading.Thread(target=service.get_round, args=(sid,))
        proposing.start()
        assert entered.wait(timeout=30)
        assert service.delete_session(sid) == {"deleted": sid}
        proposing.join(timeout=30)
        assert not proposing.is_alive()
        # The round's checkpoint landed before the delete: nothing resumes it.
        with pytest.raises(ServiceClientError) as excinfo:
            service.get_round(sid)
        assert excinfo.value.status == 404


class TestFullSession:
    def test_http_session_is_bit_identical_to_in_process_run(self, service):
        # In-process reference: same deterministic inputs, same worst-case user.
        database, result, _, candidates = workload_session_inputs(
            "Q2", 0.03, candidate_count=8
        )
        reference = QFESession(
            database, result, candidates=candidates,
            config=QFEConfig(delta_seconds=30.0),
        )
        reference.run(WorstCaseSelector())
        expected = transcript_json(session_transcript(reference, workload="Q2"))

        created = service.create_session("Q2", **_SPEC)
        sid = created["session_id"]
        assert created["status"] == "new"
        final, rounds = _drive_http(service, sid)
        assert final["status"] == "converged"
        assert final["identified_sql"].startswith("SELECT")
        assert rounds == reference.outcome.iteration_count

        assert transcript_json(service.transcript(sid)) == expected
        timed = service.transcript(sid, include_timings=True)
        assert "total_seconds" in timed
        assert sid in service.list_sessions()
        service.delete_session(sid)

    def test_round_payload_shape(self, service):
        sid = service.create_session("Q2", **_SPEC)["session_id"]
        try:
            payload = service.get_round(sid)
            round_ = payload["round"]
            assert round_["iteration"] == 1
            assert round_["option_count"] == len(round_["options"]) >= 2
            assert round_["candidate_count"] >= 2
            assert round_["database_delta"]["lines"]
            for option in round_["options"]:
                assert {"index", "query_count", "delta_cost", "delta_lines", "rows"} <= set(option)
            # Replaying the GET returns the same round (no recompute).
            replay = service.get_round(sid)
            assert replay["round"] == round_
        finally:
            service.delete_session(sid)

    def test_finished_session_choice_conflicts(self, service):
        sid = service.create_session("Q2", **_SPEC)["session_id"]
        try:
            _drive_http(service, sid)
            with pytest.raises(ServiceClientError) as excinfo:
                service.submit_choice(sid, 0)
            assert excinfo.value.status == 409
        finally:
            service.delete_session(sid)


# ----------------------------------------------------------- hostile bodies
@pytest.fixture(scope="module")
def raw_service():
    """A server plus its address and store, for raw-socket requests."""
    store = InMemorySessionStore()
    server = make_server(SessionManager(store=store))
    server.serve_background()
    yield server.server_address[:2], store
    server.close()


def _raw_exchange(address, request: bytes, *, wait: float = 5.0) -> bytes:
    """Send *request* and read until the server closes the connection.

    Raises ``socket.timeout`` when the server neither answers nor closes
    within *wait* seconds — the hang these tests guard against.
    """
    with socket.create_connection(address, timeout=wait) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _post_head(content_length: str, *, extra_headers: str = "") -> bytes:
    return (
        "POST /sessions HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        f"{extra_headers}"
        "\r\n"
    ).encode("ascii")


def _assert_healthy(address) -> None:
    host, port = address
    assert ServiceClient(f"http://{host}:{port}", timeout=5).healthz()["status"] == "ok"


class TestHostileBodies:
    @pytest.mark.parametrize("declared", ["-1", "-5000", "abc", "1.5"])
    def test_bad_content_length_is_a_400(self, raw_service, declared):
        address, _ = raw_service
        response = _raw_exchange(address, _post_head(declared) + b'{"workload": "Q2"}')
        assert response.startswith(b"HTTP/1.1 400 "), response[:80]
        assert b"Content-Length" in response
        _assert_healthy(address)

    def test_oversized_body_is_refused_unread(self, raw_service):
        address, _ = raw_service
        # Only the headers are sent: answering needs no byte of the body.
        response = _raw_exchange(address, _post_head(str(MAX_BODY_BYTES + 1)))
        assert response.startswith(b"HTTP/1.1 413 "), response[:80]
        _assert_healthy(address)

    def test_a_refused_body_is_never_parsed_as_a_request(self, raw_service):
        address, _ = raw_service
        # The unread "body" holds a second request. Answering it would let a
        # client smuggle requests past the size check; the server must drop
        # the connection after the 413 instead.
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
        response = _raw_exchange(address, _post_head(str(MAX_BODY_BYTES + 1)) + smuggled)
        assert response.startswith(b"HTTP/1.1 413 "), response[:80]
        assert response.count(b"HTTP/1.1 ") == 1
        _assert_healthy(address)

    def test_a_body_at_the_limit_is_read(self, raw_service):
        address, _ = raw_service
        body = b'{"workload": "Q2", "scale": -1}'
        body += b" " * (MAX_BODY_BYTES - len(body))
        request = _post_head(str(len(body)), extra_headers="Connection: close\r\n") + body
        response = _raw_exchange(address, request)
        # Parsed and validated (400 about the scale), not refused as too large.
        assert response.startswith(b"HTTP/1.1 400 "), response[:80]
        assert b"scale" in response
        _assert_healthy(address)

    def test_a_read_body_keeps_the_connection_alive(self, raw_service):
        (host, port), _ = raw_service
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.request(
                "POST", "/sessions", body=b'{"workload": "Q2", "scale": -1}',
                headers={"Content-Type": "application/json"},
            )
            rejected = connection.getresponse()
            rejected.read()
            assert rejected.status == 400
            socket_before = connection.sock
            assert socket_before is not None
            # The rejected body was consumed, so the stream is still in sync:
            # the next request rides the same keep-alive connection.
            connection.request("GET", "/healthz")
            health = connection.getresponse()
            health.read()
            assert health.status == 200
            assert connection.sock is socket_before
        finally:
            connection.close()

    def test_a_short_body_releases_its_thread(self, raw_service, monkeypatch):
        assert _RequestHandler.timeout == REQUEST_TIMEOUT_SECONDS == 60
        monkeypatch.setattr(_RequestHandler, "timeout", 1)
        address, _ = raw_service
        # Declares 100 bytes, sends 10, then waits: the handler must give
        # up and close the connection instead of blocking forever.
        response = _raw_exchange(address, _post_head("100") + b'{"worklo')
        assert response == b""
        _assert_healthy(address)


class TestKeepAlive:
    def test_keep_alive_round_trips_do_not_wait_for_delayed_acks(self, raw_service):
        # The handler writes headers and body separately. With Nagle's
        # algorithm on, each body waits for the ACK of its headers, which a
        # keep-alive client delays (about 40 ms on Linux).
        (host, port), _ = raw_service
        connection = http.client.HTTPConnection(host, port, timeout=5)
        samples = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                samples.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(samples) < 0.020, samples


class TestClientDisconnect:
    def test_a_client_gone_mid_round_gets_its_round_served_once(
        self, raw_service, monkeypatch
    ):
        address, _ = raw_service
        host, port = address
        client = ServiceClient(f"http://{host}:{port}", timeout=60)
        failed_writes: list = []
        send_json = _RequestHandler._send_json

        def recording(handler, status, payload):
            try:
                send_json(handler, status, payload)
            except OSError as exc:
                failed_writes.append(exc)
                raise

        monkeypatch.setattr(_RequestHandler, "_send_json", recording)
        spec = dict(_SPEC, candidate_count=6)
        sid = client.create_session("Q2", **spec)["session_id"]
        served = client.metrics()["rounds_served"]
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(
                f"GET /sessions/{sid}/round HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()
            )
        # Closed without reading: the server computes the round, then finds
        # the client gone when it writes the response.
        deadline = time.monotonic() + 60
        while not failed_writes:
            assert time.monotonic() < deadline, "the server never answered the round"
            time.sleep(0.01)
        time.sleep(0.1)
        # The disconnect is swallowed: no second write (an error response).
        assert len(failed_writes) == 1
        assert isinstance(failed_writes[0], (BrokenPipeError, ConnectionResetError))
        _assert_healthy(address)

        # The round was proposed and checkpointed once; the retry replays it.
        payload = client.get_round(sid)
        assert payload["round"]["iteration"] == 1
        assert client.metrics()["rounds_served"] == served + 1
        final, _ = _drive_http(client, sid)
        assert final["status"] == "converged"

        database, result, _, candidates = workload_session_inputs(
            "Q2", 0.03, candidate_count=6
        )
        reference = QFESession(
            database, result, candidates=candidates, config=QFEConfig(delta_seconds=30.0)
        )
        reference.run(WorstCaseSelector())
        assert transcript_json(client.transcript(sid)) == transcript_json(
            session_transcript(reference, workload="Q2")
        )
        client.delete_session(sid)


class TestCorruptCheckpointOverHttp:
    def test_resuming_a_bit_flipped_checkpoint_is_a_400(self, raw_service):
        # Without the payload checksum this flip resumes a silently
        # different session (200).
        self._assert_resume_refused(raw_service, "bit-flipped")

    def test_resuming_a_truncated_checkpoint_is_a_400(self, raw_service):
        self._assert_resume_refused(raw_service, "truncated")

    def test_resuming_a_checkpoint_of_an_unknown_workload_is_a_400(self, raw_service):
        import json

        from repro.service.checkpoint import DatabaseRef, capture_checkpoint

        address, store = raw_service
        database, result, _, candidates = workload_session_inputs(
            "Q2", 0.03, candidate_count=6
        )
        session = QFESession(database, result, candidates=candidates)
        blob = capture_checkpoint(
            session, session_id="gone", database_ref=DatabaseRef.workload("Q2", 0.03)
        )
        # The reference lives in the header, outside the payload checksum: a
        # checkpoint written by a build that knew a workload this one lacks.
        header_line, _, payload = blob.partition(b"\n")
        header = json.loads(header_line)
        header["database_ref"]["name"] = "Q9"
        store.put("gone", json.dumps(header).encode() + b"\n" + payload)
        host, port = address
        client = ServiceClient(f"http://{host}:{port}", timeout=30)
        with pytest.raises(ServiceClientError) as excinfo:
            client.get_round("gone")
        assert excinfo.value.status == 400
        assert "unknown workload 'Q9'" in str(excinfo.value)
        _assert_healthy(address)

    @staticmethod
    def _assert_resume_refused(raw_service, sid):
        from repro.service.checkpoint import DatabaseRef, capture_checkpoint

        address, store = raw_service
        database, result, _, candidates = workload_session_inputs(
            "Q2", 0.03, candidate_count=6
        )
        session = QFESession(database, result, candidates=candidates)
        session.propose()
        blob = bytearray(
            capture_checkpoint(
                session, session_id=sid, database_ref=DatabaseRef.workload("Q2", 0.03)
            )
        )
        if sid == "bit-flipped":
            blob[-len(blob) // 4] ^= 0x01
        else:
            del blob[-1]
        store.put(sid, bytes(blob))
        host, port = address
        client = ServiceClient(f"http://{host}:{port}", timeout=30)
        with pytest.raises(ServiceClientError) as excinfo:
            client.get_round(sid)
        assert excinfo.value.status == 400
        assert "corrupt" in str(excinfo.value)
        _assert_healthy(address)


# ------------------------------------------------------------- warm serving
@pytest.fixture()
def fresh_service():
    """A server of its own, so its memo and counters start empty."""
    server = make_server(SessionManager(store=InMemorySessionStore()))
    server.serve_background()
    host, port = server.server_address[:2]
    yield ServiceClient(f"http://{host}:{port}"), (host, port)
    server.close()


def _raw_get(address, path: str) -> bytes:
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        connection.close()


class TestWarmServing:
    def test_a_warm_create_generates_nothing(self, fresh_service):
        client, address = fresh_service
        database, result, _, candidates = workload_session_inputs("Q2", 0.03, candidate_count=8)
        reference = QFESession(
            database, result, candidates=candidates, config=QFEConfig(delta_seconds=30.0)
        )
        reference.run(WorstCaseSelector())
        expected = transcript_json(session_transcript(reference, workload="Q2"))
        ids = [client.create_session("Q2", **_SPEC)["session_id"] for _ in range(2)]
        metrics = client.metrics()
        assert (metrics["candidate_memo_misses"], metrics["candidate_memo_hits"]) == (1, 1)
        exposition = _raw_get(address, "/metrics?format=prometheus").decode()
        assert "qfe_service_candidate_memo_misses 1" in exposition
        assert "qfe_service_candidate_memo_hits 1" in exposition
        for sid in ids:
            _drive_http(client, sid)
            assert transcript_json(client.transcript(sid)) == expected

    def test_a_scale_beyond_the_bound_is_a_400_unbuilt(self, fresh_service, monkeypatch):
        from repro.workloads.paper_queries import Workload

        client, address = fresh_service
        built = []
        monkeypatch.setattr(Workload, "build_pair", lambda self, s=1.0: built.append(s))
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/sessions", {"workload": "Q2", "scale": 1e6})
        assert excinfo.value.status == 400
        assert "scale" in str(excinfo.value)
        assert built == []
        _assert_healthy(address)

    def test_each_round_is_presented_once(self, fresh_service, monkeypatch):
        import json

        from repro.core import feedback

        client, address = fresh_service
        built = []
        present = feedback._presentation
        monkeypatch.setattr(
            feedback, "_presentation", lambda r: built.append(r.iteration) or present(r)
        )
        sid = client.create_session("Q2", **_SPEC)["session_id"]
        rounds = 0
        while True:
            body = _raw_get(address, f"/sessions/{sid}/round")
            payload = json.loads(body)
            if payload["round"] is None:
                break
            rounds += 1
            # A second GET while the round is pending: the same bytes, no build.
            assert _raw_get(address, f"/sessions/{sid}/round") == body
            client.submit_choice(sid, ServiceClient.worst_case_choice(payload))
        client.transcript(sid)
        assert rounds >= 2
        assert built == list(range(1, rounds + 1))

    def test_a_changed_round_payload_reaches_no_later_response(self):
        import json

        from repro.service.server import _round_payload

        with SessionManager() as manager:
            managed = manager.create_session(workload="Q2", scale=0.03, candidate_count=8)
            managed, pending = manager.get_round(managed.session_id)
            payload = _round_payload(managed, pending)
            body = json.dumps(payload)
            payload["round"]["options"][0]["rows"].clear()
            payload["round"]["database_delta"]["lines"][0] = "forged"
            payload["round"]["iteration"] = 99
            managed, again = manager.get_round(managed.session_id)
            assert json.dumps(_round_payload(managed, again)) == body
