"""Serving QFE: many sessions, shared base state, kill-proof checkpoints.

This example boots the session service in-process, drives two concurrent
users' sessions through the HTTP JSON API exactly as a web front end would,
then simulates a server crash — the manager is torn down mid-session — and
resumes the surviving session from its on-disk checkpoint with a fresh
server, finishing with an identical outcome.

Run with::

    python examples/interactive_service.py
"""

from __future__ import annotations

import tempfile

from repro.service.client import ServiceClient
from repro.service.manager import SessionManager
from repro.service.server import make_server
from repro.service.store import FileSessionStore

WORKLOAD = "Q2"
SCALE = 0.03
SPEC = dict(scale=SCALE, candidate_count=8, config={"delta_seconds": 30.0})


def boot(store_dir: str) -> tuple:
    manager = SessionManager(store=FileSessionStore(store_dir))
    server = make_server(manager)
    server.serve_background()
    host, port = server.server_address[:2]
    return server, ServiceClient(f"http://{host}:{port}")


def drive_one_round(client: ServiceClient, session_id: str) -> bool:
    """Fetch the round, print its gist, answer like the worst-case user."""
    payload = client.get_round(session_id)
    if payload["round"] is None:
        print(f"  [{session_id}] finished: {payload['status']}")
        if payload.get("identified_sql"):
            print("    " + payload["identified_sql"].replace("\n", " "))
        return False
    round_ = payload["round"]
    print(
        f"  [{session_id}] iteration {round_['iteration']}: "
        f"{len(round_['database_delta']['lines'])} database change(s), "
        f"{round_['option_count']} result option(s)"
    )
    choice = ServiceClient.worst_case_choice(payload)
    client.submit_choice(session_id, choice)
    return True


def main() -> None:
    with tempfile.TemporaryDirectory() as store_dir:
        server, client = boot(store_dir)
        print(f"service up: {client.healthz()}")

        # Two users, two sessions, one shared base database and join cache.
        alice = client.create_session(WORKLOAD, **SPEC)["session_id"]
        bob = client.create_session(WORKLOAD, **SPEC)["session_id"]
        print(f"\ncreated sessions {alice} (alice) and {bob} (bob)")

        # Interleave the two sessions round by round, as real users would.
        print("\nfirst rounds, interleaved:")
        drive_one_round(client, alice)
        drive_one_round(client, bob)
        drive_one_round(client, alice)

        # The server dies mid-session. Checkpoints survive on disk.
        print("\nsimulating a server crash ...")
        server.close()

        server, client = boot(store_dir)
        print(f"restarted with the same store: {client.healthz()}")

        # Both sessions resume transparently and run to completion.
        print("\nresumed sessions, driven to completion:")
        for session_id in (alice, bob):
            while drive_one_round(client, session_id):
                pass

        metrics = client.metrics()
        print(
            f"\nserved {metrics['rounds_served']} rounds across "
            f"{metrics['sessions_created'] + metrics['sessions_resumed']} session "
            f"activations; p50 round latency "
            f"{metrics['round_latency_seconds']['p50']:.3f}s"
        )
        server.close()


if __name__ == "__main__":
    main()
