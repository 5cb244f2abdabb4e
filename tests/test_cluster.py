"""The cluster layer: ring, membership, handoff, migration, failover.

The load-bearing test is the **cluster agreement property**: a trace
streamed through a ring of serve nodes — across joins, live session
migrations, and a node hard-killed mid-stream — yields a report whose
analyses and verdict are identical to the offline ``Session.run()``.
That is the multi-node extension of the restart-equivalence property
in ``tests/test_service.py``: node loss is just a restart whose spool
lives on the replica successor.
"""

import json
import random
import time

import pytest

from repro.api import Session
from repro.cluster import (
    DEFAULT_VNODES,
    ClusterClient,
    ClusterError,
    HashRing,
    Membership,
    MembershipError,
    NodeInfo,
    RingError,
    parse_address,
    parse_membership,
)
from repro.service import ServiceServer, SessionRedirect
from repro.service.client import submit_trace as node_submit
from repro.service.protocol import (
    PayloadError,
    decode_handoff,
    encode_handoff,
)
from repro.sim import trace_zoo

ANALYSES = ["aerodrome", "races", "lockset"]

#: Zoo specimens the live-cluster drills stream (small but diverse:
#: both paper counterexamples, a lock cycle, a three-party cycle).
DRILL_SPECIMENS = [
    "paper-rho1",
    "paper-rho2",
    "lock-cycle",
    "three-party-cycle",
]


def offline_doc(trace, analyses=ANALYSES, name=None):
    return Session(trace, analyses, name=name or trace.name).run().to_json()


def wait_until(predicate, timeout=15.0, interval=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


# -- HashRing ---------------------------------------------------------------


class TestHashRing:
    def test_owner_is_deterministic_across_instances(self):
        a = HashRing(["n1", "n2", "n3"])
        b = HashRing(["n3", "n1", "n2"])  # order-insensitive
        for i in range(200):
            key = f"session-{i}"
            assert a.owner(key) == b.owner(key)

    def test_spread_is_roughly_fair(self):
        ring = HashRing(["a", "b", "c"])
        counts = ring.spread(f"key-{i}" for i in range(3000))
        assert sum(counts.values()) == 3000
        # vnodes smooth the arcs: nobody starves, nobody hogs.
        for node, owned in counts.items():
            assert owned > 300, (node, counts)
            assert owned < 2000, (node, counts)

    def test_preference_lists_distinct_nodes_owner_first(self):
        ring = HashRing(["a", "b", "c"])
        for i in range(100):
            key = f"k{i}"
            pref = ring.preference(key, n=3)
            assert pref[0] == ring.owner(key)
            assert len(pref) == len(set(pref)) == 3
            assert ring.successor(key) == pref[1]

    def test_single_node_ring_owns_everything(self):
        ring = HashRing(["only"])
        assert ring.owner("whatever") == "only"
        # Nowhere else to replicate: the successor is the owner.
        assert ring.successor("whatever") == "only"

    def test_removal_only_moves_the_lost_arcs(self):
        """The consistency property: dropping one node reassigns only
        the keys it owned — survivors keep every key they had."""
        before = HashRing(["a", "b", "c"])
        after = HashRing(["a", "b"])
        moved = 0
        for i in range(1000):
            key = f"key-{i}"
            old = before.owner(key)
            if old == "c":
                moved += 1
                assert after.owner(key) in ("a", "b")
            else:
                assert after.owner(key) == old
        assert moved > 0  # c owned something

    def test_empty_ring_and_bad_args_rejected(self):
        with pytest.raises(RingError):
            HashRing([])
        with pytest.raises(RingError):
            HashRing(["a"], vnodes=0)
        with pytest.raises(RingError):
            HashRing(["a"]).preference("k", n=0)

    def test_len_and_contains(self):
        ring = HashRing(["a", "b", "a"])  # duplicates collapse
        assert len(ring) == 2
        assert "a" in ring and "c" not in ring


# -- Membership -------------------------------------------------------------


def _node(node_id, port=9000, status="alive"):
    return NodeInfo(node_id=node_id, host="127.0.0.1", port=port,
                    status=status)


class TestMembership:
    def test_mutations_bump_the_epoch(self):
        m = Membership()
        assert m.add(_node("a"))
        assert m.epoch == 1
        assert m.add(_node("b"))
        assert m.epoch == 2
        assert not m.add(_node("b"))  # idempotent re-add: no bump
        assert m.epoch == 2
        assert m.mark_dead("b")
        assert m.epoch == 3
        assert not m.mark_dead("b")  # death is absorbing
        assert not m.mark_dead("ghost")
        assert m.alive_ids() == ["a"]

    def test_merge_higher_epoch_replaces_wholesale(self):
        mine = Membership()
        mine.add(_node("a"))
        theirs = Membership()
        theirs.add(_node("a"))
        theirs.add(_node("b"))
        theirs.mark_dead("a")  # epoch 3 > 1
        assert mine.merge(theirs.to_json())
        assert mine.epoch == 3
        assert mine.alive_ids() == ["b"]

    def test_merge_equal_epoch_unions_and_dead_absorbs(self):
        mine = Membership(epoch=5)
        mine.nodes = {"a": _node("a"), "b": _node("b")}
        doc = {
            "epoch": 5,
            "nodes": [
                _node("b", status="dead").to_json(),
                _node("c").to_json(),
            ],
        }
        assert mine.merge(doc)
        assert mine.epoch == 5
        assert mine.alive_ids() == ["a", "c"]
        assert mine.get("b").status == "dead"

    def test_merge_lower_epoch_ignored(self):
        mine = Membership()
        mine.add(_node("a"))
        mine.add(_node("b"))  # epoch 2
        stale = {"epoch": 1, "nodes": [_node("a", status="dead").to_json()]}
        assert not mine.merge(stale)
        assert mine.get("a").alive

    def test_self_resurrection_outbids_the_death_notice(self):
        """A node that finds itself marked dead re-asserts with a
        bumped epoch — the revival wins the next gossip round."""
        me = Membership()
        me.add(_node("a"))
        verdict = Membership()
        verdict.add(_node("a"))
        verdict.add(_node("b"))
        verdict.mark_dead("a")  # epoch 3
        me.merge(verdict.to_json())
        assert not me.get("a").alive
        me.add(_node("a"))  # re-assert: epoch 4
        assert me.epoch == 4
        assert me.get("a").alive
        # ...and now *our* document dominates theirs.
        assert not verdict.merge(me.to_json()) or verdict.get("a").alive
        verdict.merge(me.to_json())
        assert verdict.get("a").alive

    @pytest.mark.parametrize("doc", [
        "nope",
        {"epoch": -1, "nodes": []},
        {"epoch": "x", "nodes": []},
        {"epoch": 1, "nodes": "x"},
        {"epoch": 1, "nodes": [{"node": "a"}]},
        {"epoch": 1, "nodes": [{"node": "a", "host": "h", "port": "80"}]},
        {"epoch": 1, "nodes": [
            {"node": "a", "host": "h", "port": 80, "status": "zombie"}
        ]},
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(MembershipError):
            parse_membership(doc)

    def test_document_round_trip(self):
        m = Membership()
        m.add(_node("a", port=9001))
        m.add(_node("b", port=9002))
        m.mark_dead("b")
        epoch, nodes = parse_membership(
            json.loads(json.dumps(m.to_json()))
        )
        assert epoch == 3
        assert nodes["a"].address == "127.0.0.1:9001"
        assert not nodes["b"].alive

    def test_parse_address(self):
        assert parse_address("10.0.0.1:8765") == ("10.0.0.1", 8765)
        with pytest.raises(ValueError):
            parse_address("no-port")


# -- HANDOFF codec ----------------------------------------------------------


class TestHandoffCodec:
    def test_round_trip(self):
        meta = {"session": "s1", "name": "t", "analyses": ANALYSES,
                "position": 42, "live": True}
        blob = bytes(range(256)) * 17
        out_meta, out_blob = decode_handoff(encode_handoff(meta, blob))
        assert out_meta == meta
        assert out_blob == blob

    def test_empty_blob_round_trips(self):
        meta, blob = decode_handoff(encode_handoff({"session": "x"}, b""))
        assert meta == {"session": "x"} and blob == b""

    def test_corruption_detected(self):
        payload = bytearray(encode_handoff({"session": "s"}, b"A" * 100))
        payload[-1] ^= 0xFF  # flip a blob byte: CRC must catch it
        with pytest.raises(PayloadError):
            decode_handoff(bytes(payload))

    @pytest.mark.parametrize("cut", [0, 2, 5, 20])
    def test_truncation_detected(self, cut):
        payload = encode_handoff({"session": "s"}, b"B" * 64)
        with pytest.raises(PayloadError):
            decode_handoff(payload[:cut])

    def test_bad_header_json_rejected(self):
        import struct
        junk = b"not json"
        payload = struct.pack("<I", len(junk)) + junk
        with pytest.raises(PayloadError):
            decode_handoff(payload)


# -- live clusters ----------------------------------------------------------


def start_cluster(base, node_ids=("a", "b", "c"), shards=2):
    """Spin up a ring: the first node stands alone, the rest join it.
    Fast gossip so the drills converge in test time; suspicion stays at
    20 gossip ticks so a starved scheduler (full-suite runs share one
    CPU) cannot falsely declare a live peer dead."""
    nodes = []
    try:
        for node_id in node_ids:
            kwargs = dict(
                shards=shards,
                spool=base / node_id,
                node_id=node_id,
                gossip_interval=0.1,
                suspect_after=2.0,
            )
            if nodes:
                kwargs["join"] = [nodes[0].address]
            else:
                kwargs["cluster"] = True
            nodes.append(ServiceServer(**kwargs).start())
        wait_for_members(nodes, len(node_ids))
    except Exception:
        for node in nodes:
            node.stop()
        raise
    return nodes


def wait_for_members(nodes, count):
    def converged():
        for node in nodes:
            stats = node.cluster.stats()
            alive = 1 + sum(
                1 for p in stats["peers"] if p["status"] == "alive"
            )
            if alive != count:
                return False
        return True

    wait_until(converged, what=f"all nodes seeing {count} members")


def hard_kill(node):
    """``kill -9`` in process form: stop gossip, drop the listener,
    and tear down the router *without* checkpointing — live state and
    the node's own spool die with it. Survivors must recover from the
    replicas shipped to the ring successors."""
    node.cluster.stop()
    node._impl.shutdown()
    if node._thread is not None:
        node._thread.join(timeout=5.0)
        node._thread = None
    node._impl.server_close()
    node.router.shutdown()


def stream_halfway(client, specs, prefix):
    """Open one session per specimen and stream the first half with a
    checkpoint, leaving it open. Returns {session_id: spec}."""
    sessions = {}
    for spec in specs:
        events = list(spec.trace())
        sid = f"{prefix}-{spec.name}"
        part = client.submit_trace(
            events,
            ANALYSES,
            name=spec.name,
            batch=3,
            session_id=sid,
            stop_after=max(1, len(events) // 2),
            checkpoint=True,
        )
        assert part["open"], sid
        sessions[sid] = spec
    return sessions


def replicas_held(client):
    return sum(
        s["cluster"]["replicas_held"] for s in client.stats().values()
    )


@pytest.fixture(scope="module")
def ring3(tmp_path_factory):
    """One three-node cluster, shared by the non-destructive tests
    below."""
    nodes = start_cluster(tmp_path_factory.mktemp("ring3"))
    yield nodes
    for node in nodes:
        node.stop()


def test_cluster_stats_block_shape(ring3):
    """Satellite: ``service-stats`` grows a ``cluster`` block — pin
    its JSON shape (it is the operator's failover dashboard)."""
    client = ClusterClient([n.address for n in ring3], jitter_seed=0)
    client.refresh()
    assert sorted(client.members) == ["a", "b", "c"]
    stats = {}

    def settled():
        # A node that just joined learns its peers from the JOIN reply,
        # before its first gossip tick; wait for that tick too.
        stats.clear()
        stats.update(client.stats())
        return sorted(stats) == ["a", "b", "c"] and all(
            len(doc["cluster"]["peers"]) == 2
            and all(
                p["status"] == "alive" for p in doc["cluster"]["peers"]
            )
            and doc["cluster"]["gossip_ticks"] > 0
            for doc in stats.values()
        )

    wait_until(
        settled, what="every node reporting two live peers after a tick"
    )
    for node_id, doc in stats.items():
        json.dumps(doc)  # the whole document is JSON-serializable
        block = doc["cluster"]
        assert block["node"] == node_id
        assert isinstance(block["epoch"], int) and block["epoch"] >= 3
        assert sorted(block["ring"]["nodes"]) == ["a", "b", "c"]
        assert block["ring"]["vnodes"] == DEFAULT_VNODES
        assert len(block["peers"]) == 2
        for peer in block["peers"]:
            assert peer["status"] == "alive"
            assert ":" in peer["address"]
            assert isinstance(peer["silent_seconds"], float)
        for counter in (
            "sessions_owned",
            "replicas_held",
            "migrations_total",
            "handoffs_in",
            "handoffs_out",
            "handoff_bytes",
            "redirects",
            "gossip_ticks",
        ):
            assert isinstance(block[counter], int), counter
        assert block["gossip_ticks"] > 0


def test_zoo_agreement_over_cluster(ring3):
    """The agreement property, ring edition: every drill specimen,
    routed by session id to its owning node, matches offline."""
    client = ClusterClient([n.address for n in ring3], jitter_seed=1)
    owners = set()
    for i, name in enumerate(DRILL_SPECIMENS):
        spec = trace_zoo.get(name)
        base = offline_doc(spec.trace(), name=spec.name)
        sid = f"agree-{name}"
        doc = client.submit_trace(
            list(spec.trace()),
            ANALYSES,
            name=spec.name,
            batch=random.Random(i).randint(1, 5),
            session_id=sid,
        )
        assert doc["analyses"] == base["analyses"], name
        assert doc["verdict"] == base["verdict"], name
        owners.add(client.ring.owner(sid))
    assert len(owners) > 1  # the drill actually exercised routing


def test_wrong_node_redirects(ring3):
    """A pinned HELLO at a non-owner comes back as REDIRECT carrying
    the owner's address — the raw client surfaces it, the cluster
    client follows it."""
    client = ClusterClient([n.address for n in ring3], jitter_seed=2)
    client.refresh()
    sid = "redirect-probe"
    owner_id = client.ring.owner(sid)
    wrong = next(n for n in ring3 if n.cluster.node_id != owner_id)
    spec = trace_zoo.get("paper-rho1")
    with pytest.raises(SessionRedirect) as excinfo:
        node_submit(
            wrong.host, wrong.port, list(spec.trace()), ANALYSES,
            session_id=sid, attempts=1,
        )
    redirect = excinfo.value
    assert redirect.node == owner_id
    assert (redirect.host, redirect.port) == client.owner_of(sid)
    # The ring-aware client heals the same seam transparently.
    base = offline_doc(spec.trace(), name=spec.name)
    doc = client.submit_trace(
        list(spec.trace()), ANALYSES, name=spec.name, session_id=sid,
    )
    assert doc["analyses"] == base["analyses"]


def test_unpinned_hello_gets_a_session_the_node_owns(ring3):
    """A HELLO without a session id must not mint an id the node would
    immediately redirect: the server draws ids until it owns one."""
    from repro.service import ServiceClient

    client = ClusterClient([n.address for n in ring3], jitter_seed=3)
    client.refresh()
    for node in ring3:
        with ServiceClient(node.host, node.port) as raw:
            handle = raw.open_session(["aerodrome"])
            assert client.ring.owner(handle.session_id) == \
                node.cluster.node_id
            handle.result()


def test_join_migrates_open_sessions(tmp_path):
    """Rebalancing: sessions opened on a cluster of one migrate live —
    checkpoint shipped, session resumable at the new owner — when a
    second node joins and takes over their arcs."""
    first = ServiceServer(
        shards=2, spool=tmp_path / "a",
        cluster=True, node_id="a",
        gossip_interval=0.1, suspect_after=2.0,
    ).start()
    second = None
    try:
        client = ClusterClient([first.address], jitter_seed=4)
        specs = [trace_zoo.get(n) for n in DRILL_SPECIMENS]
        # Pick ids that *will* change owner once "b" joins.
        two = HashRing(["a", "b"])
        sids, baselines = {}, {}
        for spec in specs:
            n = 0
            while True:
                sid = f"join-{spec.name}-{n}"
                if two.owner(sid) == "b":
                    break
                n += 1
            events = list(spec.trace())
            part = client.submit_trace(
                events, ANALYSES, name=spec.name, batch=3,
                session_id=sid,
                stop_after=max(1, len(events) // 2), checkpoint=True,
            )
            assert part["open"]
            sids[sid] = spec
            baselines[sid] = offline_doc(spec.trace(), name=spec.name)

        second = ServiceServer(
            shards=2, spool=tmp_path / "b",
            node_id="b", join=[first.address],
            gossip_interval=0.1, suspect_after=2.0,
        ).start()
        wait_for_members([first, second], 2)
        wait_until(
            lambda: second.cluster.stats()["sessions_owned"] >= len(sids),
            what="sessions migrating to the joiner",
        )
        assert first.cluster.stats()["migrations_total"] >= len(sids)

        client = ClusterClient(
            [first.address, second.address], jitter_seed=5
        )
        for sid, spec in sids.items():
            doc = client.submit_trace(
                list(spec.trace()), ANALYSES, name=spec.name, batch=4,
                session_id=sid, resume=True, deadline=30.0,
            )
            assert doc["analyses"] == baselines[sid]["analyses"], sid
            assert doc["verdict"] == baselines[sid]["verdict"], sid
            assert doc["service"]["resumed"], sid
    finally:
        if second is not None:
            second.stop()
        first.stop()


def test_failover_kill_drill(tmp_path):
    """The tentpole drill: three nodes, four sessions streamed halfway,
    one owner hard-killed mid-stream. The ring must heal (epoch bump,
    dead peer), the survivors adopt the victim's replicas, and every
    resumed report must equal the offline run."""
    nodes = start_cluster(tmp_path)
    try:
        client = ClusterClient([n.address for n in nodes], jitter_seed=6)
        specs = [trace_zoo.get(n) for n in DRILL_SPECIMENS]
        sessions = stream_halfway(client, specs, prefix="drill")
        baselines = {
            sid: offline_doc(spec.trace(), name=spec.name)
            for sid, spec in sessions.items()
        }
        # Every open session's checkpoint must reach its successor
        # before the kill — that replica IS the failover story.
        wait_until(
            lambda: replicas_held(client) >= len(sessions),
            what="replicas covering every open session",
        )

        client.refresh()
        victim_id = client.ring.owner(next(iter(sessions)))
        victim = next(
            n for n in nodes if n.cluster.node_id == victim_id
        )
        survivors = [n for n in nodes if n is not victim]
        hard_kill(victim)

        def declared_dead():
            for node in survivors:
                peers = {
                    p["node"]: p["status"]
                    for p in node.cluster.stats()["peers"]
                }
                if peers.get(victim_id) != "dead":
                    return False
            return True

        wait_until(declared_dead, what="survivors declaring the victim dead")

        healed = ClusterClient(
            [n.address for n in survivors], jitter_seed=7
        )
        assert healed.refresh() > 3  # the death bumped the epoch
        assert victim_id not in healed.ring.nodes
        for sid, spec in sessions.items():
            doc = healed.submit_trace(
                list(spec.trace()), ANALYSES, name=spec.name, batch=3,
                session_id=sid, resume=True, deadline=60.0,
            )
            assert doc["analyses"] == baselines[sid]["analyses"], sid
            assert doc["verdict"] == baselines[sid]["verdict"], sid
        # At least one resumed session was owned by the victim.
        assert any(
            client.ring.owner(sid) == victim_id for sid in sessions
        )
    finally:
        for node in nodes:
            try:
                node.stop()
            except Exception:
                pass


def test_closed_sessions_do_not_resurrect(tmp_path):
    """A session closed normally must not come back from a replica
    when its old owner dies: the CLOSE notice drops the copy."""
    nodes = start_cluster(tmp_path, node_ids=("a", "b"))
    try:
        client = ClusterClient([n.address for n in nodes], jitter_seed=8)
        spec = trace_zoo.get("paper-rho1")
        events = list(spec.trace())
        sid = "closer-probe"
        # Stream halfway (forces a replica), then finish and close.
        client.submit_trace(
            events, ANALYSES, name=spec.name, session_id=sid,
            stop_after=max(1, len(events) // 2), checkpoint=True,
        )
        wait_until(
            lambda: replicas_held(client) >= 1,
            what="the replica landing",
        )
        client.submit_trace(
            events, ANALYSES, name=spec.name, session_id=sid,
            resume=True,
        )
        wait_until(
            lambda: replicas_held(client) == 0,
            what="the closed session's replica being dropped",
        )
        open_ids = {
            s["session"]
            for node in nodes
            for s in node.router.list_sessions()
        }
        assert sid not in open_ids
    finally:
        for node in nodes:
            node.stop()
