#!/usr/bin/env python3
"""Multi-user cooperation and optimistic control on one object server.

Requirement R9 wants *cooperation*: two users updating different nodes
of the same structure, with private work becoming shareable on demand.
R8 wants concurrency control, and section 7 reports the authors'
multi-user experiments and the difficulty optimistic schemes create.
Everything here runs on the stack ``repro bench-multiuser`` measures:
``ClientServerDatabase`` workstations sharing one ``ObjectServer``,
validated first-committer-wins by the server.

1. disjoint updates (R9, section 7): three users edit different text
   nodes and commit — no conflicts, every edit visible everywhere;
2. a check-out conflict (R9 workspaces): two users want the same node,
   and one is told immediately rather than discovering it at commit;
3. first-committer-wins (R8): both users read one node, the first
   commit validates, the second raises ``CommitConflictError`` —
   exactly the behaviour that made the paper's authors call
   conflicting update workloads "an area for future work" — and a
   retry on fresh state succeeds;
4. the conflict grid in small: the abort rate as more of each user's
   writes aim at a hot set everyone shares.

Run:  python examples/multiuser_collaboration.py
"""

from repro import DatabaseGenerator, HyperModelConfig
from repro.backends.clientserver import ClientServerDatabase
from repro.concurrency import MultiUserHarness, SharedStore
from repro.errors import CheckOutConflictError, CommitConflictError
from repro.netsim.config import NetworkConfig
from repro.netsim.server import ObjectServer

OPTIMISTIC = NetworkConfig(concurrency="optimistic")


def shared_server(seed: int = 5):
    """A fresh server holding one level-3 structure."""
    server = ObjectServer()
    loader = ClientServerDatabase(server=server)
    loader.open()
    gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=seed)).generate(loader)
    loader.close()  # commits
    return server, gen


def workstation(server: ObjectServer, name: str) -> ClientServerDatabase:
    db = ClientServerDatabase(network=OPTIMISTIC, server=server, client_id=name)
    db.open()
    return db


def disjoint_updates() -> None:
    print("=== 1. disjoint updates on one server (R9, section 7) ===")
    server, gen = shared_server()
    harness = MultiUserHarness(server, gen, users=3, seed=1990, network=OPTIMISTIC)
    result = harness.run_disjoint_updates(edits_per_user=2)
    print("3 users each edited 2 different text nodes of one structure")
    print(f"validated commits: {server.stats.commits}, "
          f"conflicts: {server.stats.commit_conflicts}")
    for user, uids in result.published.items():
        print(f"  w{user:02d} made nodes {uids} shareable")
    print(f"every edit visible from every workstation: "
          f"{result.all_edits_visible_everywhere}")


def check_out_conflict() -> None:
    print("\n=== 2. a check-out conflict, step by step (R9) ===")
    server, gen = shared_server(seed=6)
    db = workstation(server, "desk")
    shared = SharedStore(db)
    alice, bob = shared.workspace("alice"), shared.workspace("bob")

    uid = gen.text_uids[0]
    alice.check_out(uid)
    print(f"alice checked out node {uid}")
    try:
        bob.check_out(uid)
    except CheckOutConflictError as error:
        print(f"bob is refused: {error}")
    alice.set_text(uid, "version1 alices private draft version1 end version1")
    print(f"alice edits privately; shared text unchanged: "
          f"{db.get_text(db.lookup(uid))[:30]}...")
    alice.check_in()
    print(f"alice checks in; shared text now: "
          f"{db.get_text(db.lookup(uid))[:30]}...")
    bob.check_out(uid)
    print("bob's retry succeeds after alice's check-in")
    bob.abandon()


def first_committer_wins() -> None:
    print("\n=== 3. optimistic validation at the server (R8) ===")
    server, gen = shared_server(seed=7)
    alice, bob = workstation(server, "alice"), workstation(server, "bob")
    uid = gen.text_uids[0]
    alice.get_text(alice.lookup(uid))
    bob.get_text(bob.lookup(uid))
    print(f"alice and bob both read node {uid}")

    alice.set_text(uid, "alice's revision")
    alice.commit()
    print("alice commits first: validation passes")

    bob.set_text(uid, "bob's revision")
    try:
        bob.commit()
    except CommitConflictError as error:
        print(f"bob's validation fails: {error}")
    bob.set_text(uid, "bob's revision, on alice's")
    bob.commit()
    stats = server.stats
    print(f"bob retries on fresh state and commits; final text: "
          f"{alice.get_text(alice.lookup(uid))!r}")
    print(f"{stats.commit_conflicts} of "
          f"{stats.commits + stats.commit_conflicts} validations failed")


def conflict_grid() -> None:
    print("\n=== 4. abort rate vs writes to 2 shared hot nodes "
          "(4 users x 8 txns) ===")
    print("share  committed  aborted  abort rate")
    for share in (0.0, 0.2, 0.5, 1.0):
        server, gen = shared_server()
        harness = MultiUserHarness(server, gen, users=4, seed=1989, network=OPTIMISTIC)
        result = harness.run_transactions(
            transactions_per_user=8, conflict_rate=share, hot_set_size=2
        )
        print(f"{share:5.1f}  {result.committed:9d}  {result.aborted:7d}"
              f"  {result.abort_rate:10.0%}")


def main() -> None:
    disjoint_updates()
    check_out_conflict()
    first_committer_wins()
    conflict_grid()


if __name__ == "__main__":
    main()
