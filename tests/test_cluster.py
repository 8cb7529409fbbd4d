"""The cluster subsystem: shard map, RPC protocol, WAL-tailing read
replicas, coordinator routing/scatter-gather, and the multi-process
end-to-end path.

In-process tests run :class:`~repro.cluster.ShardServer` on background
threads (same code path the spawned worker runs, minus the process
boundary).  The multi-process tests at the bottom go through
:func:`~repro.cluster.start_cluster` with real ``spawn`` workers; their
worker count honours ``CLUSTER_WORKERS`` (CI runs them at 4, the local
default is 2).

The replica tests pin the PR's central correctness contract: a replica
whose generation stamp lags the primary **forwards** the read (or
refuses) — it never serves stale data — and catches up by tailing the
primary's WAL, so a read after sync is byte-identical to the primary's.
"""

from __future__ import annotations

import os
import socket
import tempfile

import pytest

import repro
from repro.cluster import (ClusterCoordinator, ClusterOptions, HashRing,
                           ProtocolError, ReadReplica, ReplicaGapError,
                           ReplicaStaleError, ShardServer,
                           ShardUnavailableError, recv_message,
                           send_message, start_cluster, unix_address)
from repro.cluster.testing import (build_platform_shard, build_shard,
                                   seed_readings)
from repro.durability import (DurabilityManager, DurabilityOptions,
                              encode_frame)
from repro.rdf.terms import IRI, Literal
from repro.relational import Database

CLUSTER_WORKERS = int(os.environ.get("CLUSTER_WORKERS", "2"))


# -- the shard map -------------------------------------------------------------


def test_hashring_is_deterministic_across_instances():
    first = HashRing(4)
    second = HashRing(4)
    users = [f"user-{index}" for index in range(200)]
    assert [first.shard_for(user) for user in users] \
        == [second.shard_for(user) for user in users]


def test_hashring_balances_reasonably():
    ring = HashRing(4)
    spread = ring.distribution(f"user-{index}" for index in range(2000))
    assert set(spread) == {0, 1, 2, 3}
    # Virtual nodes keep the skew modest; exact balance is not the goal.
    assert min(spread.values()) > 2000 / 4 * 0.5
    assert max(spread.values()) < 2000 / 4 * 1.6


def test_hashring_growth_moves_a_minority_of_keys():
    users = [f"user-{index}" for index in range(1000)]
    before = HashRing(4)
    after = HashRing(5)
    moved = sum(1 for user in users
                if before.shard_for(user) != after.shard_for(user))
    # Consistent hashing: ~1/5 of keys relocate, modulo noise — a
    # modulo map would move ~4/5 of them.
    assert moved < 1000 * 0.45


def test_hashring_rejects_empty():
    with pytest.raises(ValueError):
        HashRing(0)
    with pytest.raises(ValueError):
        HashRing(shard_ids=[])


# -- the wire protocol ---------------------------------------------------------


def _socketpair():
    return socket.socketpair()


def test_protocol_round_trips_rdf_terms():
    payload = {
        "op": "test",
        "iri": IRI("http://example.org/thing"),
        "literal": Literal("hello", lang="en"),
        "typed": Literal(42),
        "nested": [{"deep": IRI("http://example.org/deep")}],
    }
    left, right = _socketpair()
    try:
        send_message(left, payload)
        received = recv_message(right)
    finally:
        left.close()
        right.close()
    assert received["iri"] == IRI("http://example.org/thing")
    assert received["literal"] == Literal("hello", lang="en")
    assert received["typed"] == Literal(42)
    assert received["nested"][0]["deep"] == IRI("http://example.org/deep")


def test_protocol_rejects_oversized_length_prefix():
    left, right = _socketpair()
    try:
        left.sendall((1 << 29).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_message(right)
    finally:
        left.close()
        right.close()


def test_protocol_peer_disconnect_is_unavailable():
    left, right = _socketpair()
    left.close()
    try:
        with pytest.raises(ShardUnavailableError):
            recv_message(right)
    finally:
        right.close()


# -- WAL-tailing replicas ------------------------------------------------------


def _durable_primary(directory, **overrides):
    primary = Database(name="main")
    manager = DurabilityManager(DurabilityOptions(
        directory=directory, fsync="never", **overrides))
    manager.attach_database(primary)
    manager.recover()
    return primary, manager


def test_replica_bootstraps_and_tails_the_wal(tmp_path):
    primary, manager = _durable_primary(str(tmp_path))
    seed_readings(primary, 20)
    manager.sync()

    replica = ReadReplica(str(tmp_path))
    applied = replica.refresh()
    assert applied > 0
    assert replica.generations()["db"] == primary.generation
    assert replica.database.query("SELECT COUNT(*) FROM readings").rows \
        == primary.query("SELECT COUNT(*) FROM readings").rows

    # Incremental catch-up: new primary writes become visible after a
    # sync + poll, and the generation stamp is pinned to the primary's.
    primary.execute("INSERT INTO readings VALUES (900, 'x', 5)")
    manager.sync()
    assert replica.refresh() > 0
    assert replica.generations()["db"] == primary.generation
    assert replica.database.query(
        "SELECT value FROM readings WHERE id = 900").rows == [(5,)]
    manager.close()


def test_replica_follows_snapshot_rotation(tmp_path):
    # A tiny snapshot interval forces several epochs; the tailer must
    # walk segment successions without losing or double-applying rows.
    primary, manager = _durable_primary(str(tmp_path), snapshot_every=10)
    seed_readings(primary, 35)
    manager.sync()
    manager.snapshot()

    replica = ReadReplica(str(tmp_path))
    replica.refresh()
    assert replica.database.query("SELECT COUNT(*) FROM readings").rows \
        == [(35,)]
    primary.execute("INSERT INTO readings VALUES (901, 'y', 6)")
    manager.sync()
    replica.refresh()
    assert replica.database.query("SELECT COUNT(*) FROM readings").rows \
        == [(36,)]
    assert replica.generations()["db"] == primary.generation
    manager.close()


def test_fresh_replica_serves_bytes_identical_to_primary(tmp_path):
    primary, manager = _durable_primary(str(tmp_path))
    seed_readings(primary, 25)
    manager.sync()
    replica = ReadReplica(str(tmp_path))
    sql = "SELECT id, sensor, value FROM readings ORDER BY id"
    local = replica.query(sql, expected_generation=primary.generation)
    reference = primary.query(sql)
    assert local.columns == reference.columns
    assert local.rows == reference.rows
    assert replica.local_reads == 1 and replica.forwarded_reads == 0
    manager.close()


def test_stale_replica_forwards_to_primary_never_serves_stale(tmp_path):
    """Satellite 3: the generation-stamp freshness contract.

    The primary's WAL group-commits — a write without ``sync()`` is
    invisible to tailers, so the replica *cannot* catch up to the
    generation the caller observed.  The replica must forward the read
    to the primary (answer byte-identical to the primary's) rather than
    serve its own stale rows.
    """
    primary, manager = _durable_primary(
        str(tmp_path), group_commit_records=10_000,
        group_commit_bytes=1 << 30)
    seed_readings(primary, 10)
    manager.sync()
    replica = ReadReplica(str(tmp_path), forward=primary.query)
    replica.refresh()
    synced_generation = primary.generation

    # A buffered (unsynced) write: the primary's generation advances,
    # the WAL bytes don't.
    primary.execute("INSERT INTO readings VALUES (902, 'z', 7)")
    assert primary.generation > synced_generation

    sql = "SELECT COUNT(*) FROM readings"
    forwarded = replica.query(sql, expected_generation=primary.generation)
    assert replica.forwarded_reads == 1
    assert forwarded.rows == primary.query(sql).rows == [(11,)]
    # The replica's own copy is genuinely behind — the forward was the
    # only honest answer.
    assert replica.database.query(sql).rows == [(10,)]

    # Without a forward target the stale read must refuse, not lie.
    strict = ReadReplica(str(tmp_path))
    strict.refresh()
    with pytest.raises(ReplicaStaleError):
        strict.query(sql, expected_generation=primary.generation)

    # After a sync the replica catches up and serves locally again,
    # byte-identical to the primary.
    manager.sync()
    local = replica.query(sql, expected_generation=primary.generation)
    assert replica.local_reads == 1
    assert local.rows == primary.query(sql).rows
    manager.close()


def _two_epochs(directory):
    """A closed primary with snapshots at epochs 1 and 2 and records
    in wal-000001 and wal-000002; returns its final row count."""
    primary, manager = _durable_primary(directory)
    seed_readings(primary, 10)
    manager.snapshot()
    primary.execute("INSERT INTO readings VALUES (100, 'a', 1)")
    primary.execute("INSERT INTO readings VALUES (101, 'b', 2)")
    manager.snapshot()
    primary.execute("INSERT INTO readings VALUES (102, 'c', 3)")
    manager.close()
    return primary


def test_tailer_falls_back_past_a_corrupt_latest_snapshot(tmp_path):
    primary = _two_epochs(str(tmp_path))
    with open(tmp_path / "snap-000002.snap", "r+b") as handle:
        handle.seek(40)
        handle.write(b"\xff\xff\xff\xff")
    replica = ReadReplica(str(tmp_path))
    assert replica.refresh() == 3        # epoch 1 plus both tails
    assert any("snap-000002" in warning
               for warning in replica.tailer.warnings)
    sql = "SELECT id, sensor, value FROM readings ORDER BY id"
    assert replica.database.query(sql).rows == primary.query(sql).rows
    assert replica.generations()["db"] == primary.generation


def test_tailer_raises_on_a_sequence_hole(tmp_path):
    _two_epochs(str(tmp_path))
    # Lose epoch 2's snapshot and the segment between the two cuts:
    # epoch 1 loads, and the next record it can see is past a hole.
    os.remove(tmp_path / "snap-000002.snap")
    os.remove(tmp_path / "wal-000001.log")
    replica = ReadReplica(str(tmp_path))
    with pytest.raises(ReplicaGapError, match="expected record"):
        replica.refresh()
    # Nothing past the hole was applied, and the replica stays refused.
    assert replica.database.query(
        "SELECT COUNT(*) FROM readings").rows == [(10,)]
    with pytest.raises(ReplicaGapError):
        replica.refresh()


def test_tailer_applies_a_half_written_frame_once_it_lands(tmp_path):
    primary, manager = _durable_primary(str(tmp_path))
    seed_readings(primary, 5)
    manager.close()
    replica = ReadReplica(str(tmp_path))
    replica.refresh()
    applied = replica.tailer.frames_applied
    frame = encode_frame({
        "c": "db:main", "q": primary.durability_journal.seq + 1,
        "g": primary.generation + 1, "t": "sql",
        "d": {"sql": "INSERT INTO readings VALUES (900, 'x', 5)"}})
    segment = tmp_path / "wal-000000.log"
    with open(segment, "ab") as handle:
        handle.write(frame[:len(frame) // 2])
    assert replica.refresh() == 0
    with open(segment, "ab") as handle:
        handle.write(frame[len(frame) // 2:])
    assert replica.refresh() == 1
    assert replica.refresh() == 0
    assert replica.tailer.frames_applied == applied + 1
    assert replica.database.query(
        "SELECT COUNT(*) FROM readings").rows == [(6,)]
    assert replica.generations()["db"] == primary.generation + 1


# -- in-process shard servers + coordinator ------------------------------------


class _ThreadCluster:
    """N ShardServers on daemon threads + a coordinator over them."""

    def __init__(self, n_shards: int, *, telemetry=None,
                 options: ClusterOptions | None = None,
                 seed_rows: int = 20, shard_telemetry: bool = False):
        self.dir = tempfile.mkdtemp(prefix="repro-tc-")
        self.servers = []
        addresses = []
        for shard_id in range(n_shards):
            runtime = build_platform_shard(
                shard_id, n_shards, telemetry=shard_telemetry,
                seed_rows=seed_rows)
            address = unix_address(f"{self.dir}/s{shard_id}.sock")
            server = ShardServer(shard_id, address, runtime,
                                 pool_capacity=4)
            server.start_background()
            self.servers.append(server)
            addresses.append(address)
        self.coordinator = ClusterCoordinator(
            addresses, options=options, telemetry=telemetry)

    def close(self):
        self.coordinator.shutdown_shards()
        self.coordinator.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


def test_coordinator_routes_users_to_owning_shards():
    with _ThreadCluster(2) as tc:
        users = [f"user-{index}" for index in range(12)]
        for user in users:
            response = tc.coordinator.request(
                "POST", "/api/v1/users", {"username": user})
            assert response.status == 200
        ring = tc.coordinator.ring
        for shard_id, server in enumerate(tc.servers):
            expected = sorted(user for user in users
                              if ring.shard_for(user) == shard_id)
            assert server.runtime.platform.users.usernames() == expected


def test_scatter_user_listing_merges_sorted_and_paginates():
    with _ThreadCluster(2) as tc:
        users = [f"user-{index:02d}" for index in range(15)]
        for user in users:
            tc.coordinator.request("POST", "/api/v1/users",
                                   {"username": user})
        response = tc.coordinator.request(
            "GET", "/api/v1/users?limit=10")
        assert response.status == 200
        assert response.payload["users"] == users[:10]
        token = response.payload["next_token"]
        assert token
        rest = tc.coordinator.request(
            "GET", f"/api/v1/users?limit=10&next_token={token}")
        assert rest.payload["users"] == users[10:]
        assert rest.payload["next_token"] is None


def test_routed_query_matches_single_process_platform():
    """Byte-identical contract: a query through the cluster returns
    exactly what the same user sees on a single-process platform."""
    from repro.crosse.platform import CrossePlatform
    reference_db = Database()
    seed_readings(reference_db, 20)
    reference = CrossePlatform(reference_db)
    reference.register_user("alice")
    expected = reference.connect().as_user("alice").query(
        "SELECT sensor, SUM(value) AS total FROM readings "
        "GROUP BY sensor ORDER BY sensor")

    with _ThreadCluster(3) as tc:
        tc.coordinator.request("POST", "/api/v1/users",
                               {"username": "alice"})
        response = tc.coordinator.request(
            "POST", "/api/v1/query",
            {"username": "alice",
             "query": "SELECT sensor, SUM(value) AS total FROM readings "
                      "GROUP BY sensor ORDER BY sensor"})
        assert response.status == 200
        assert response.payload["columns"] == expected.columns
        assert [tuple(row) for row in response.payload["rows"]] \
            == expected.rows


def test_cluster_session_drains_pagination():
    with _ThreadCluster(2, seed_rows=30) as tc:
        session = repro.connect(tc.coordinator)
        session.register_user("alice")
        result = session.execute(
            "alice", "SELECT id FROM readings ORDER BY id")
        assert result.columns == ["id"]
        assert [row[0] for row in result.rows] == list(range(30))
        assert session.users() == ["alice"]


def test_cluster_session_never_binds_a_mapping_as_its_keys():
    from repro.core import ParameterError
    with _ThreadCluster(1, seed_rows=5) as tc:
        session = repro.connect(tc.coordinator)
        session.register_user("alice")
        text = "SELECT id FROM readings WHERE id = ?"
        assert session.execute("alice", text, (3,)).rows == [(3,)]
        with pytest.raises(ParameterError, match="sequence of values"):
            session.execute("alice", text, {"3": 3})


def test_scatter_query_groups_users_by_owner():
    with _ThreadCluster(2) as tc:
        users = [f"user-{index}" for index in range(8)]
        for user in users:
            tc.coordinator.request("POST", "/api/v1/users",
                                   {"username": user})
        response = tc.coordinator.request(
            "POST", "/api/v1/cluster/query",
            {"query": "SELECT COUNT(*) FROM readings"})
        assert response.status == 200
        results = response.payload["results"]
        assert sorted(results) == sorted(users)
        assert all(entry["rows"] == [[20]]
                   for entry in results.values())


def test_scatter_query_never_serves_a_stale_replica(tmp_path):
    primary, manager = _durable_primary(
        str(tmp_path), group_commit_records=10_000,
        group_commit_bytes=1 << 30)
    seed_readings(primary, 10)
    manager.sync()
    runtime = build_shard(0, 1, directory=str(tmp_path))
    address = unix_address(f"{tempfile.mkdtemp(prefix='repro-st-')}/s.sock")
    ShardServer(0, address, runtime,
                freshness_timeout_s=0.2).start_background()
    coordinator = ClusterCoordinator([address], primary=primary)
    try:
        coordinator.request("POST", "/api/v1/users", {"username": "alice"})
        # An unsynced write: the primary moves, the replica cannot.
        primary.execute("INSERT INTO readings VALUES (902, 'z', 7)")
        count = {"query": "SELECT COUNT(*) FROM readings"}
        routed = coordinator.request("POST", "/api/v1/query",
                                     {"username": "alice", **count})
        assert routed.status == 503
        assert routed.payload["error"]["code"] == "replica_stale"
        scattered = coordinator.request("POST", "/api/v1/cluster/query",
                                        count)
        assert scattered.status == 200
        entry = scattered.payload["results"]["alice"]
        assert entry["code"] == "replica_stale" and "rows" not in entry

        manager.sync()
        scattered = coordinator.request("POST", "/api/v1/cluster/query",
                                        count)
        assert scattered.payload["results"]["alice"]["rows"] == [[11]]
    finally:
        coordinator.shutdown_shards()
        coordinator.close()
        manager.close()


def test_skip_policy_absorbs_a_dead_shard():
    with _ThreadCluster(
            2, options=ClusterOptions(failure_policy="skip",
                                      max_retries=0)) as tc:
        for user in ("alice", "bob", "carol", "dave"):
            tc.coordinator.request("POST", "/api/v1/users",
                                   {"username": user})
        # Kill shard 0 out from under the coordinator.
        tc.servers[0].shutdown()
        response = tc.coordinator.request("GET", "/api/v1/users")
        assert response.status == 200
        survivors = response.payload["users"]
        ring = tc.coordinator.ring
        assert survivors == sorted(
            user for user in ("alice", "bob", "carol", "dave")
            if ring.shard_for(user) == 1)
        assert response.payload["warnings"]
        # A routed request to the dead shard surfaces a 503, not a hang.
        victim = next(user for user in ("alice", "bob", "carol", "dave")
                      if ring.shard_for(user) == 0)
        routed = tc.coordinator.request(
            "POST", "/api/v1/query",
            {"username": victim, "query": "SELECT 1"})
        assert routed.status == 503
        assert routed.payload["error"]["code"] == "shard_unavailable"


def test_fail_policy_raises_through_as_503():
    options = ClusterOptions(max_retries=0, connect_timeout_s=1.0)
    coordinator = ClusterCoordinator(
        [unix_address("/tmp/repro-nonexistent-shard.sock")],
        options=options)
    response = coordinator.request("GET", "/api/v1/users")
    assert response.status == 503
    assert response.payload["error"]["code"] == "shard_unavailable"
    coordinator.close()


def test_cluster_stats_and_per_shard_metrics():
    with _ThreadCluster(2, telemetry=True, shard_telemetry=True) as tc:
        tc.coordinator.request("POST", "/api/v1/users",
                               {"username": "alice"})
        tc.coordinator.request(
            "POST", "/api/v1/query",
            {"username": "alice", "query": "SELECT 1"})
        stats = tc.coordinator.request("GET", "/api/v1/cluster/stats")
        assert stats.status == 200
        assert [entry["shard"] for entry in stats.payload["shards"]] \
            == [0, 1]
        assert all("pool" in entry for entry in stats.payload["shards"])

        metrics = tc.coordinator.request("GET",
                                         "/api/v1/cluster/metrics")
        assert metrics.status == 200
        assert set(metrics.payload["shards"]) == {"0", "1"}
        coordinator_metrics = metrics.payload["coordinator"]
        assert "repro_cluster_rpcs_total" in coordinator_metrics
        # The owning shard's own registry metered the pooled query.
        owner = str(tc.coordinator.shard_for("alice"))
        assert "repro_queries_total" in metrics.payload["shards"][owner]


def test_trace_grafting_produces_one_span_tree():
    with _ThreadCluster(1, telemetry=True, shard_telemetry=True) as tc:
        tc.coordinator.request("POST", "/api/v1/users",
                               {"username": "alice"})
        response = tc.coordinator.request(
            "POST", "/api/v1/query",
            {"username": "alice", "query": "SELECT 1"})
        assert response.status == 200
        tracer = tc.coordinator.telemetry.tracer
        root = next(span for span in tracer.traces()
                    if span.name == "cluster.request"
                    and span.attrs.get("path") == "/api/v1/query")
        tree = root.to_dict()

        def walk(node):
            yield node
            for child in node.get("children", []):
                yield from walk(child)

        names = [node["name"] for node in walk(tree)]
        # Coordinator-side spans AND the worker's remote spans hang off
        # the same root: one query, one tree, across the RPC boundary.
        assert "cluster.rpc" in names
        remote = [node for node in walk(tree)
                  if node.get("attrs", {}).get("remote_query_id")]
        assert remote, f"no grafted remote spans in {names}"


# -- multi-process end-to-end --------------------------------------------------


@pytest.mark.stress
def test_multiprocess_cluster_end_to_end(tmp_path):
    primary, manager = _durable_primary(str(tmp_path))
    seed_readings(primary, 40)
    manager.sync()

    users = [f"user-{index}" for index in range(10)]
    sql = ("SELECT sensor, COUNT(*) AS n, SUM(value) AS total "
           "FROM readings GROUP BY sensor ORDER BY sensor")

    # The serial reference: one platform over the primary itself.
    from repro.crosse.platform import CrossePlatform
    reference = CrossePlatform(primary)
    for user in users:
        reference.register_user(user)
    reference_rows = reference.connect().as_user(users[0]).query(sql)

    cluster = start_cluster(
        CLUSTER_WORKERS, "repro.cluster.testing:build_shard",
        builder_args={"directory": str(tmp_path)},
        primary=primary, durability=manager, telemetry=True)
    try:
        for user in users:
            response = cluster.request("POST", "/api/v1/users",
                                       {"username": user})
            assert response.status == 200

        # Routed queries: byte-identical to the serial reference.
        for user in users[:4]:
            response = cluster.request(
                "POST", "/api/v1/query",
                {"username": user, "query": sql})
            assert response.status == 200
            assert response.payload["columns"] == reference_rows.columns
            assert [tuple(row) for row in response.payload["rows"]] \
                == reference_rows.rows

        # Scatter-gather: every user's slice equals the serial answer.
        scattered = cluster.request(
            "POST", "/api/v1/cluster/query", {"query": sql})
        assert scattered.status == 200
        assert sorted(scattered.payload["results"]) == sorted(users)
        for entry in scattered.payload["results"].values():
            assert entry["columns"] == reference_rows.columns
            assert [tuple(row) for row in entry["rows"]] \
                == reference_rows.rows

        # A write through the primary becomes visible to replica reads
        # on every worker (freshness gate + WAL tailing).
        before = primary.query("SELECT COUNT(*) FROM readings").rows
        write = cluster.request(
            "POST", "/api/v1/cluster/execute",
            {"sql": "INSERT INTO readings VALUES (999, 'new', 3)"})
        assert write.status == 200
        for _ in range(CLUSTER_WORKERS * 2):
            response = cluster.request(
                "POST", "/api/v1/cluster/sql",
                {"sql": "SELECT COUNT(*) FROM readings"})
            assert response.status == 200
            assert response.payload["rows"] == [[before[0][0] + 1]]

        stats = cluster.request("GET", "/api/v1/cluster/stats")
        assert stats.status == 200
        assert len(stats.payload["shards"]) == CLUSTER_WORKERS
        replicas = [entry["replica"]
                    for entry in stats.payload["shards"]]
        assert all(entry["generations"]["db"] == primary.generation
                   for entry in replicas)
    finally:
        cluster.close()
        manager.close()


@pytest.mark.stress
def test_multiprocess_user_listing_is_deterministic(tmp_path):
    primary, manager = _durable_primary(str(tmp_path))
    seed_readings(primary, 5)
    manager.sync()
    users = sorted(f"user-{index:02d}" for index in range(12))
    cluster = start_cluster(
        CLUSTER_WORKERS, "repro.cluster.testing:build_shard",
        builder_args={"directory": str(tmp_path)},
        primary=primary, durability=manager)
    try:
        for user in users:
            cluster.request("POST", "/api/v1/users", {"username": user})
        first = cluster.request("GET", "/api/v1/users",
                                {"limit": 100}).payload
        second = cluster.request("GET", "/api/v1/users",
                                 {"limit": 100}).payload
        assert first == second
        assert first["users"] == users
    finally:
        cluster.close()
        manager.close()
