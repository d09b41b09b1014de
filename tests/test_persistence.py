"""Tests for the persistent multi-tenant storage subsystem.

Covers the SQLite store backend (semantics parity with the in-memory
store, eviction at identical budget boundaries), the multi-tenant
scope machinery (strict isolation, per-scope TTL defaults,
generation-stamp invalidation observed across tiers and processes),
cold-restart reuse (~0 model calls on a warm workload, byte-identical),
concurrent multi-process sharing of one store file, and graceful
``error:``-free degradation to memory on a corrupt or unopenable file.
"""

import ast
import multiprocessing
import pickle
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig, parse_storage_scope
from repro.core.engine import LLMStorageEngine
from repro.errors import ConfigError, QueryCancelled, TransportError
from repro.eval.worlds import all_worlds
from repro.llm.interface import CompletionOptions
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM
from repro.runtime.scheduler import CancellationToken
from repro.stats import StatisticsCatalog
from repro.storage.backend import StorageScope, build_backends
from repro.storage.persistent import SqliteBackend, StorageBackendError
from repro.storage.store import LRUByteStore
from repro.storage.tier import StorageSnapshot, StorageTier
from tests.conftest import make_engine


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


WORKLOAD = [
    "SELECT name, population FROM countries WHERE continent = 'Europe'",
    "SELECT name, population FROM countries WHERE continent = 'Europe' "
    "ORDER BY population DESC LIMIT 3",
    "SELECT population FROM countries WHERE name = 'France'",
    "SELECT COUNT(*) FROM cities",
]


def sqlite_config(path, scope: str = "application", **extra) -> EngineConfig:
    return EngineConfig(
        storage_mode="materialize",
        storage_backend="sqlite",
        storage_path=str(path),
        storage_scope=scope,
        **extra,
    )


def run_workload(engine: LLMStorageEngine):
    return [tuple(map(tuple, engine.execute(sql).rows)) for sql in WORKLOAD]


# ---------------------------------------------------------------------------
# Config surface
# ---------------------------------------------------------------------------


def test_sqlite_backend_requires_path():
    with pytest.raises(ConfigError):
        EngineConfig(storage_backend="sqlite")


def test_unknown_backend_and_scope_rejected():
    with pytest.raises(ConfigError):
        EngineConfig(storage_backend="redis")
    with pytest.raises(ConfigError):
        EngineConfig(storage_scope="galaxy")
    with pytest.raises(ConfigError):
        EngineConfig(scope_ttl_s={"galaxy": 10.0})
    with pytest.raises(ConfigError):
        EngineConfig(scope_ttl_s={"user": -1.0})


def test_scope_parsing_and_defaults():
    assert parse_storage_scope("user:alice") == ("user", "alice")
    assert parse_storage_scope("APPLICATION") == ("application", None)
    assert StorageScope.parse("user").tenant == "default"
    assert StorageScope.parse("application").tenant == "shared"
    # A session without an explicit tenant must never collide with
    # another session's.
    assert StorageScope.parse("session").tenant != StorageScope.parse(
        "session"
    ).tenant
    assert StorageScope.parse("session:pinned").tenant == "pinned"


def test_scope_ttl_normalized_to_sorted_tuple():
    config = EngineConfig(scope_ttl_s={"user": 60, "session": 5})
    assert config.scope_ttl_s == (("session", 5.0), ("user", 60.0))


# ---------------------------------------------------------------------------
# SqliteBackend semantics parity with LRUByteStore
# ---------------------------------------------------------------------------


def make_backend(tmp_path, **kwargs) -> SqliteBackend:
    return SqliteBackend(str(tmp_path / "store.db"), **kwargs)


def test_sqlite_put_get_peek_roundtrip(tmp_path):
    backend = make_backend(tmp_path, budget_bytes=10_000)
    key = ("user", "alice", 0, "scan", "t", "")
    backend.put(key, {"rows": [1, 2, 3]}, size=100)
    assert backend.get(key) == {"rows": [1, 2, 3]}
    assert backend.peek(key) == {"rows": [1, 2, 3]}
    assert backend.get(("other",)) is None
    assert backend.stats.hits == 1 and backend.stats.misses == 1
    assert backend.bytes_used == 100
    backend.remove(key)
    assert backend.peek(key) is None


def test_sqlite_ttl_expiry_and_per_entry_override(tmp_path):
    clock = FakeClock()
    backend = make_backend(tmp_path, budget_bytes=10_000, ttl_s=10.0, clock=clock)
    backend.put(("a",), "x")
    backend.put(("b",), "y", ttl_s=100.0)  # per-entry override outlives
    clock.advance(11.0)
    assert backend.get(("a",)) is None
    assert backend.stats.expirations == 1
    assert backend.get(("b",)) == "y"
    clock.advance(95.0)
    assert backend.get(("b",)) is None


def test_sqlite_peek_is_strictly_read_only(tmp_path):
    clock = FakeClock()
    backend = make_backend(tmp_path, budget_bytes=10_000, ttl_s=10.0, clock=clock)
    backend.put(("a",), "x")
    clock.advance(11.0)
    assert backend.peek(("a",)) is None
    # Expired entry neither deleted nor counted by the probe.
    assert backend.stats.expirations == 0
    assert len(backend) == 1


def test_sqlite_and_memory_evict_at_identical_boundaries(tmp_path):
    """The satellite bar: deterministic sizing ⇒ identical LRU decisions."""
    memory = LRUByteStore(budget_bytes=300)
    sqlite = make_backend(tmp_path, budget_bytes=300)
    ops = [
        ("put", ("k", 1), "v1", 100),
        ("put", ("k", 2), "v2", 100),
        ("put", ("k", 3), "v3", 100),
        ("get", ("k", 1)),  # bump recency of k1
        ("put", ("k", 4), "v4", 100),  # must evict k2 in both
        ("put", ("k", 5), "oversized", 500),  # admitted alone in both
    ]
    for op in ops:
        for store in (memory, sqlite):
            if op[0] == "put":
                store.put(op[1], op[2], size=op[3])
            else:
                store.get(op[1])
    for key in [("k", i) for i in range(1, 6)]:
        assert memory.peek(key) == sqlite.peek(key), key
    assert memory.bytes_used == sqlite.bytes_used
    assert memory.stats.evictions == sqlite.stats.evictions
    assert memory.stats.oversized == sqlite.stats.oversized == 1


def test_sqlite_scope_prefix_removal_is_isolated(tmp_path):
    backend = make_backend(tmp_path, budget_bytes=10_000)
    backend.put(("user", "alice", 0, "scan", "t"), "a")
    backend.put(("user", "alice", 0, "row", "t"), "b")
    backend.put(("user", "alicia", 0, "scan", "t"), "c")  # prefix-similar
    backend.put(("application", "shared", 0, "scan", "t"), "d")
    assert backend.remove_scope(("user", "alice")) == 2
    assert backend.peek(("user", "alice", 0, "scan", "t")) is None
    assert backend.peek(("user", "alicia", 0, "scan", "t")) == "c"
    assert backend.peek(("application", "shared", 0, "scan", "t")) == "d"


def test_sqlite_generations_shared_through_file(tmp_path):
    path = tmp_path / "store.db"
    a = SqliteBackend(str(path), budget_bytes=1000)
    b = SqliteBackend(str(path), budget_bytes=1000)
    assert a.generation("user:alice") == 0
    assert a.bump_generation("user:alice") == 1
    # Observed by an independent connection to the same file.
    assert b.generation("user:alice") == 1
    assert b.generation("user:bob") == 0


def test_sqlite_open_failure_raises_backend_error(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "store.db"
    with pytest.raises(StorageBackendError):
        SqliteBackend(str(missing_dir), budget_bytes=1000)
    corrupt = tmp_path / "corrupt.db"
    corrupt.write_bytes(b"definitely not a sqlite database" * 64)
    with pytest.raises(StorageBackendError):
        SqliteBackend(str(corrupt), budget_bytes=1000)


def test_build_backends_degrades_to_memory_with_note(tmp_path):
    corrupt = tmp_path / "corrupt.db"
    corrupt.write_bytes(b"garbage" * 100)
    fragments, results, note = build_backends(
        "sqlite", 1000, 0.0, path=str(corrupt)
    )
    assert fragments.name == results.name == "memory"
    assert note is not None and "using memory" in note


# ---------------------------------------------------------------------------
# Tier-level multi-tenancy
# ---------------------------------------------------------------------------


def make_tier(path, scope: str, **kwargs) -> StorageTier:
    return StorageTier(
        mode="materialize",
        budget_bytes=100_000,
        backend="sqlite",
        path=str(path),
        scope=scope,
        **kwargs,
    )


def store_result(tier: StorageTier, key, country_table, calls: int = 3):
    tier.put_result(
        key,
        schema=country_table.schema,
        rows=country_table.rows[:2],
        explain_text="plan",
        warnings=(),
        calls=calls,
    )


def test_scopes_never_serve_each_other(tmp_path, country_table):
    path = tmp_path / "store.db"
    alice = make_tier(path, "user:alice")
    bob = make_tier(path, "user:bob")
    app = make_tier(path, "application")
    key = ("result", "m", (), "", "q")
    store_result(alice, key, country_table)
    assert alice.get_result(key) is not None
    assert bob.get_result(key) is None
    assert app.get_result(key) is None
    # Same level + same tenant shares; session scopes never do.
    alice2 = make_tier(path, "user:alice")
    assert alice2.get_result(key) is not None
    s1 = make_tier(path, "session")
    s2 = make_tier(path, "session")
    store_result(s1, key, country_table)
    assert s1.get_result(key) is not None
    assert s2.get_result(key) is None


def test_per_scope_ttl_defaults(tmp_path, country_table):
    clock = FakeClock()
    path = tmp_path / "store.db"
    user = make_tier(
        path, "user", clock=clock, scope_ttl_s={"user": 30.0}
    )
    app = make_tier(path, "application", clock=clock, scope_ttl_s={"user": 30.0})
    key = ("result", "m", (), "", "q")
    store_result(user, key, country_table)
    store_result(app, key, country_table)
    clock.advance(29.0)
    assert user.get_result(key) is not None
    clock.advance(2.0)
    # The user scope's 30s default expired its entry; the application
    # scope has no per-scope TTL and inherits the store default (none).
    assert user.get_result(key) is None
    assert app.get_result(key) is not None


def test_entries_carry_writer_ttl_across_tiers(tmp_path, country_table):
    """A reader honors the TTL the writing scope stored, not its own."""
    clock = FakeClock()
    path = tmp_path / "store.db"
    writer = make_tier(path, "user:x", clock=clock, scope_ttl_s={"user": 10.0})
    reader = make_tier(path, "user:x", clock=clock)  # no TTL of its own
    key = ("result", "m", (), "", "q")
    store_result(writer, key, country_table)
    clock.advance(5.0)
    assert reader.get_result(key) is not None
    clock.advance(6.0)
    assert reader.get_result(key) is None


def test_clear_invalidates_other_tier_on_same_file(tmp_path, country_table):
    """Cross-tier (stand-in for cross-process) generation invalidation."""
    path = tmp_path / "store.db"
    a = make_tier(path, "user:alice")
    b = make_tier(path, "user:alice")
    key = ("result", "m", (), "", "q")
    store_result(a, key, country_table)
    assert b.get_result(key) is not None
    before = b.snapshot().invalidations
    a.clear()
    # b's next access reads the bumped stamp: the old entry is
    # unreachable and the invalidation is observed exactly once.
    assert b.get_result(key) is None
    assert b.snapshot().invalidations == before + 1
    assert a.snapshot().invalidations == 1
    # Other scopes are untouched by the bump.
    c = make_tier(path, "user:carol")
    store_result(c, key, country_table)
    a.clear()
    assert c.get_result(key) is not None


def test_storage_snapshot_minus_includes_backend_counters():
    later = StorageSnapshot(
        result_hits=5,
        persistent_hits=7,
        persistent_misses=4,
        invalidations=3,
        backend="sqlite",
    )
    earlier = StorageSnapshot(
        result_hits=2,
        persistent_hits=3,
        persistent_misses=1,
        invalidations=1,
        backend="sqlite",
    )
    diff = later.minus(earlier)
    assert diff.result_hits == 3
    assert diff.persistent_hits == 4
    assert diff.persistent_misses == 3
    assert diff.invalidations == 2
    assert diff.backend == "sqlite"


# ---------------------------------------------------------------------------
# Engine-level: cold restart, isolation, degradation
# ---------------------------------------------------------------------------


def build_sqlite_engine(world, path, scope="application", seed=5):
    model = SimulatedLLM(world, NoiseConfig.perfect(), seed=seed)
    return make_engine(model, world, sqlite_config(path, scope))


def test_cold_restart_serves_with_zero_calls(tmp_path, mini_world):
    """The acceptance demo: a fresh process pays ~0 calls, byte-identical."""
    path = tmp_path / "tier.db"
    reference = run_workload(
        make_engine(
            SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5),
            mini_world,
            EngineConfig(storage_mode="off"),
        )
    )
    first = build_sqlite_engine(mini_world, path)
    assert run_workload(first) == reference
    assert first.usage.calls > 0

    # "Restart": a brand-new engine + model over the same store file.
    second = build_sqlite_engine(mini_world, path)
    assert run_workload(second) == reference
    assert second.usage.calls == 0
    assert second.usage.calls_saved > 0
    assert second.usage.persistent_hits > 0
    assert "persistent" in second.storage.describe()


def test_restarted_session_scope_never_reuses(tmp_path, mini_world):
    path = tmp_path / "tier.db"
    first = build_sqlite_engine(mini_world, path, scope="session")
    run_workload(first)
    second = build_sqlite_engine(mini_world, path, scope="session")
    run_workload(second)
    # Anonymous session tenants are unique per tier: no sharing.
    assert second.usage.calls == first.usage.calls > 0


def test_engine_scopes_are_isolated(tmp_path, mini_world):
    path = tmp_path / "tier.db"
    alice = build_sqlite_engine(mini_world, path, scope="user:alice")
    reference = run_workload(alice)
    assert alice.usage.calls > 0
    bob = build_sqlite_engine(mini_world, path, scope="user:bob")
    assert run_workload(bob) == reference
    # Strict isolation: bob re-pays the full workload.
    assert bob.usage.calls == alice.usage.calls


def test_catalog_change_invalidates_without_wiping_store(tmp_path, mini_world):
    from repro.relational.schema import Column, TableSchema
    from repro.relational.types import DataType

    path = tmp_path / "tier.db"
    warm = build_sqlite_engine(mini_world, path)
    run_workload(warm)

    changed = build_sqlite_engine(mini_world, path)
    changed.register_virtual_table(
        TableSchema(
            name="rivers",
            columns=(Column("name", DataType.TEXT, nullable=False),),
            primary_key=("name",),
        ),
        row_estimate=10,
    )
    # A different catalog fingerprint must not serve the old entries...
    assert changed.usage.calls == 0
    changed.execute(WORKLOAD[0])
    assert changed.usage.calls > 0
    # ...but the old catalog's entries survive for a same-catalog restart.
    again = build_sqlite_engine(mini_world, path)
    run_workload(again)
    assert again.usage.calls == 0


def test_corrupt_file_degrades_to_memory_without_error(tmp_path, mini_world):
    path = tmp_path / "tier.db"
    path.write_bytes(b"this is not a database" * 32)
    engine = build_sqlite_engine(mini_world, path)
    reference = run_workload(
        make_engine(
            SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5),
            mini_world,
            EngineConfig(storage_mode="off"),
        )
    )
    assert run_workload(engine) == reference  # still answers, no raise
    assert engine.storage.backend_name == "memory"
    described = engine.storage.describe()
    assert "using memory" in described
    assert "error:" not in described


def test_clear_cache_only_clears_own_scope(tmp_path, mini_world):
    path = tmp_path / "tier.db"
    alice = build_sqlite_engine(mini_world, path, scope="user:alice")
    bob = build_sqlite_engine(mini_world, path, scope="user:bob")
    run_workload(alice)
    run_workload(bob)
    alice.clear_cache()
    bob2 = build_sqlite_engine(mini_world, path, scope="user:bob")
    run_workload(bob2)
    assert bob2.usage.calls == 0  # bob's entries survived alice's clear
    alice2 = build_sqlite_engine(mini_world, path, scope="user:alice")
    run_workload(alice2)
    assert alice2.usage.calls > 0  # alice's own entries are gone


# ---------------------------------------------------------------------------
# Cross-process sharing (real subprocesses over one store file)
# ---------------------------------------------------------------------------

CHILD_SCRIPT = """
import sys

from repro.config import EngineConfig
from repro.core.engine import LLMStorageEngine
from repro.eval.worlds import all_worlds
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM

path, scope = sys.argv[1], sys.argv[2]
world = all_worlds()["geography"]
model = SimulatedLLM(world, noise=NoiseConfig.perfect(), seed=7)
engine = LLMStorageEngine(
    model,
    config=EngineConfig(
        storage_mode="materialize",
        storage_backend="sqlite",
        storage_path=path,
        storage_scope=scope,
    ),
)
for schema in world.schemas():
    engine.register_virtual_table(
        schema, row_estimate=world.row_count(schema.name)
    )
queries = [
    "SELECT name, population FROM countries WHERE continent = 'Europe'",
    "SELECT name FROM countries WHERE continent = 'Europe' "
    "ORDER BY population DESC LIMIT 3",
    "SELECT COUNT(*) FROM cities",
]
rows = [tuple(map(tuple, engine.execute(sql).rows)) for sql in queries]
print(repr({"rows": rows, "calls": engine.usage.calls}))
"""


def spawn_child(script_path, db_path, scope):
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.Popen(
        [sys.executable, str(script_path), str(db_path), scope],
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def child_output(process):
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    return ast.literal_eval(stdout.strip())


def _open_after_barrier(path, barrier, results):
    barrier.wait()
    try:
        results.put(SqliteBackend(path, budget_bytes=1000).failure_note)
    except StorageBackendError as exc:
        results.put(f"open failed: {exc}")


def test_concurrent_first_open_of_one_fresh_file_keeps_persistence(tmp_path):
    # Processes released together onto a file nobody has created yet:
    # the WAL switch races the creator and must wait it out, not fall
    # back to memory.
    processes = 6
    path = str(tmp_path / "fresh.db")
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(processes)
    results = context.Queue()
    workers = [
        context.Process(target=_open_after_barrier, args=(path, barrier, results))
        for _ in range(processes)
    ]
    for worker in workers:
        worker.start()
    notes = [results.get(timeout=60) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert not worker.is_alive()
    assert notes == [None] * processes


def test_wal_switch_waits_for_a_creator_mid_schema(tmp_path):
    # The state a concurrent first open races into: another connection
    # still holds the write lock on the rollback-journal file it is
    # creating.  SQLite refuses the WAL switch at once (no busy
    # timeout), so the open must retry until the creator commits.
    path = str(tmp_path / "fresh.db")
    creator = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
    creator.execute("CREATE TABLE early (x)")
    creator.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.2, creator.execute, args=("COMMIT",))
    release.start()
    try:
        backend = SqliteBackend(path, budget_bytes=1000)
    finally:
        release.join()
        creator.close()
    assert backend.failure_note is None
    backend.put(("k",), "v")
    assert SqliteBackend(path, budget_bytes=1000).peek(("k",)) == "v"


def test_concurrent_processes_share_one_store_byte_identically(tmp_path):
    script = tmp_path / "child.py"
    script.write_text(CHILD_SCRIPT, encoding="utf-8")
    db_path = tmp_path / "shared.db"

    # Two concurrent processes, one scope, one WAL file.
    first = spawn_child(script, db_path, "application")
    second = spawn_child(script, db_path, "application")
    out_first = child_output(first)
    out_second = child_output(second)
    assert out_first["rows"] == out_second["rows"]

    # A third (cold-restart) process serves entirely from the file.
    warm = child_output(spawn_child(script, db_path, "application"))
    assert warm["rows"] == out_first["rows"]
    assert warm["calls"] == 0

    # A different scope over the same file never sees those entries.
    other = child_output(spawn_child(script, db_path, "user:outsider"))
    assert other["rows"] == out_first["rows"]
    assert other["calls"] > 0


# ---------------------------------------------------------------------------
# Statement-scoped group commit
# ---------------------------------------------------------------------------

TEN_STATEMENTS = WORKLOAD + [
    "SELECT city, city_pop FROM cities WHERE country = 'France'",
    "SELECT c.city, k.population FROM cities c "
    "JOIN countries k ON k.name = c.country WHERE c.city_pop > 3000",
    "SELECT continent, COUNT(*) FROM countries GROUP BY continent",
    "SELECT name FROM countries ORDER BY gdp DESC LIMIT 2",
    WORKLOAD[0],  # a result-cache hit: its recency bump is the write
    "SELECT COUNT(*) FROM countries WHERE continent = 'Asia'",
]

#: SQL statements (BEGIN and COMMIT included) the ten statements above
#: execute against the store file, as counted by sqlite3's trace
#: callback.  Counts, not times: they repeat exactly on every host.  The
#: write-through tier needed 267 for the same run (85 for the join), in
#: 25 write transactions.
SQL_CEILING_TOTAL = 141
SQL_CEILING_ONE_STATEMENT = 27


def rows_in_file(path):
    """Every row of the store file, through an independent connection
    (WAL isolation is per connection: this sees what another process
    would)."""
    conn = sqlite3.connect(str(path))
    try:
        return {
            (store, key): pickle.loads(blob)
            for store, key, blob in conn.execute(
                "SELECT store, key, payload FROM entries"
            )
        }
    finally:
        conn.close()


class ScriptedModel:
    """Delegates to a real model; ``on_call(n)`` runs before the n-th
    call and may raise, cancel, or look at the store file."""

    def __init__(self, inner, on_call):
        self.inner = inner
        self.model_name = inner.model_name
        self.on_call = on_call
        self.calls = 0

    def complete(self, prompt, options=CompletionOptions()):
        self.calls += 1
        self.on_call(self.calls)
        return self.inner.complete(prompt, options)


def test_one_write_transaction_per_statement_and_sql_ceiling(
    tmp_path, mini_world, monkeypatch
):
    executed = []
    real_connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        conn = real_connect(*args, **kwargs)
        conn.set_trace_callback(executed.append)
        return conn

    monkeypatch.setattr(sqlite3, "connect", traced_connect)
    engine = build_sqlite_engine(mini_world, tmp_path / "tier.db")
    per_statement = []
    for sql in TEN_STATEMENTS:
        del executed[:]
        engine.execute(sql)
        commits = sum(1 for text in executed if text.strip() == "COMMIT")
        # Exactly one: every statement writes something back (its
        # result, or the recency bump of the result it was served).
        assert commits == 1, (sql, executed)
        per_statement.append(len(executed))
    assert engine.usage.result_cache_hits == 1
    assert max(per_statement) <= SQL_CEILING_ONE_STATEMENT, per_statement
    assert sum(per_statement) <= SQL_CEILING_TOTAL, per_statement


def test_window_reads_its_own_writes_across_stores(tmp_path, country_table):
    path = tmp_path / "store.db"
    tier = make_tier(path, "application")
    result_key = ("result", "m", (), "", "q")
    scope = ("m", (), "")
    with tier.window():
        store_result(tier, result_key, country_table)
        tier.store_lookup_row(scope, "countries", ("france",), ["gdp"], [1.0])
        # peek -> merge -> put on the pending cells, not on the file's.
        tier.store_lookup_row(
            scope, "countries", ("france",), ["population"], [68000]
        )
        assert tier.get_result(result_key) is not None
        assert tier.lookup_cells(
            scope, "countries", ("france",), ["gdp", "population"]
        ) == (True, [1.0, 68000])
        assert rows_in_file(path) == {}  # nothing is committed yet
    committed = rows_in_file(path)
    assert sorted(store for store, _ in committed) == ["fragments", "results"]
    # A tier of another process (its own connection) now sees both.
    other = make_tier(path, "application")
    assert other.get_result(result_key) is not None
    assert other.lookup_cells(
        scope, "countries", ("france",), ["gdp", "population"]
    ) == (True, [1.0, 68000])


def test_pending_merge_is_redone_against_the_row_in_the_file(tmp_path):
    """The satellite: a merge computed before a (long) model call is
    re-applied at flush time to whatever another process wrote since."""
    path = tmp_path / "store.db"
    ours = make_tier(path, "application")
    theirs = make_tier(path, "application")
    scope = ("m", (), "")
    with ours.window():
        ours.store_lookup_row(scope, "countries", ("france",), ["gdp"], [1.0])
        # ... a model call later, another process has stored the entity.
        theirs.store_lookup_row(
            scope, "countries", ("france",), ["population"], [68000]
        )
    assert theirs.lookup_cells(
        scope, "countries", ("france",), ["gdp", "population"]
    ) == (True, [1.0, 68000])


JOIN_SQL = (
    "SELECT m.title, d.born FROM movies m "
    "JOIN directors d ON d.name = m.director WHERE m.year >= 2010"
)


@pytest.mark.parametrize(
    "sql, shards, fail_at, kept",
    [
        # The sharded movies scan finished (its union fragment is kept);
        # a chain of the sharded directors scan dies: nothing of it.
        (JOIN_SQL, 4, 7, "complete"),
        # Single chains: the first scan's fragment, nothing of the
        # scan whose second page never came.
        (JOIN_SQL, 1, 4, "complete"),
        # EXISTS closes its subquery's stream after one page: that
        # prefix (complete=False) is kept when the outer scan dies.
        (
            "SELECT title FROM movies WHERE EXISTS "
            "(SELECT 1 FROM directors WHERE born > 1900)",
            1,
            4,
            "prefix",
        ),
    ],
)
@pytest.mark.parametrize("cancelled", [False, True])
def test_failed_statement_persists_what_write_through_would(
    tmp_path, sql, shards, fail_at, kept, cancelled
):
    world = all_worlds()["movies"]

    def run(backend, path):
        token = CancellationToken() if cancelled else None

        def on_call(n):
            if n >= fail_at:
                if token is None:
                    raise TransportError("wire melted")
                token.cancel("cancelled by the test")

        config = EngineConfig(
            storage_mode="materialize",
            storage_backend=backend,
            storage_path=path,
            storage_scope="application",
            scan_shards=shards,
            shard_min_rows=1,
            max_in_flight=1,
            scan_prefetch_pages=0,
        )
        model = ScriptedModel(
            SimulatedLLM(world, NoiseConfig.perfect(), seed=5), on_call
        )
        engine = make_engine(model, world, config)
        with pytest.raises((TransportError, QueryCancelled)):
            engine._execute_statement(
                sql, engine._session.query_meter(), cancel=token
            )
        return engine

    # The memory tier writes through: its content is exactly what the
    # statement had completed when it failed.
    memory = run("memory", None)
    expected = {
        ("fragments", repr(key)): entry.payload
        for key, entry in memory.storage._fragments._entries.items()
    }
    assert not memory.storage._results._entries
    assert [fragment.complete for fragment in expected.values()] == [
        kept == "complete"
    ]
    path = tmp_path / "tier.db"
    run("sqlite", str(path))
    assert rows_in_file(path) == expected


SHARED_READER = """
import pickle, sqlite3, sys
conn = sqlite3.connect(sys.argv[1])
print(sorted(
    (store, key) for store, key in
    conn.execute("SELECT store, key FROM entries")
))
"""


def test_other_process_sees_whole_statement_after_it_returns(
    tmp_path, mini_world
):
    path = tmp_path / "tier.db"
    seen_during = []
    model = ScriptedModel(
        SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5),
        lambda n: seen_during.append(len(rows_in_file(path))),
    )
    engine = make_engine(model, mini_world, sqlite_config(path))
    before = 0
    for sql in TEN_STATEMENTS[:6]:
        del seen_during[:]
        engine.execute(sql)
        # While the statement ran, nobody else saw any part of it ...
        assert all(count == before for count in seen_during), sql
        after = len(rows_in_file(path))
        assert after > before or not seen_during
        before = after
    assert model.calls > 0
    # ... and once it has returned, a real second process sees all of
    # it: the engine has not been closed, and nothing is left pending.
    script = tmp_path / "reader.py"
    script.write_text(SHARED_READER, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(script), str(path)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert ast.literal_eval(out.stdout.strip()) == sorted(rows_in_file(path))
    assert len(rows_in_file(path)) == before


def test_close_flushes_storage_and_stays_readable(tmp_path, mini_world):
    path = tmp_path / "tier.db"
    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    engine = make_engine(
        model, mini_world, sqlite_config(path, enable_adaptive=True)
    )
    engine.execute("SELECT name FROM countries")
    engine.stats_catalog.record_table_rows("cities", 11)  # not flushed yet
    engine.close()
    engine.close()  # idempotent
    stores = {store for store, _ in rows_in_file(path)}
    assert stores == {"fragments", "results", "stats"}
    (payload,) = [
        value for (store, _), value in rows_in_file(path).items()
        if store == "stats"
    ]
    assert payload["tables"]["cities"] == 11
    # Readers keep working after close(): the connection is not torn down.
    assert engine.storage.bytes_used > 0
    assert engine.storage_stats.backend == "sqlite"
    assert engine.usage.calls > 0
    assert engine.storage.backend_note is None


def test_close_is_safe_after_the_backend_degraded(tmp_path, mini_world):
    engine = build_sqlite_engine(mini_world, tmp_path / "tier.db")
    reference = run_workload(engine)
    engine.storage._fragments._file.conn.close()  # the file goes away
    assert run_workload(engine) == reference  # still answers, from memory
    assert "degraded" in engine.storage._fragments.failure_note
    engine.close()
    engine.close()
    assert engine.usage.calls > 0 and engine.storage.bytes_used > 0


def test_degrade_inside_a_window_keeps_read_your_writes(tmp_path):
    backend = make_backend(tmp_path, budget_bytes=10_000)
    with backend.window():
        backend.put(("k", 1), "v1", size=10)
        backend._file.conn.close()  # the file goes away mid-statement
        assert backend.get(("k", 2)) is None  # first failing access
        assert backend.failure_note is not None
        assert backend.peek(("k", 1)) == "v1"  # moved into the fallback
        backend.put(("k", 3), "v3", size=10)
    assert backend.get(("k", 3)) == "v3"
    assert backend.bytes_used == 20


def test_window_flushes_early_past_the_store_budget(tmp_path):
    path = tmp_path / "store.db"
    backend = SqliteBackend(str(path), budget_bytes=1000)
    with backend.window():
        for i in range(30):
            backend.put(("k", i), "x" * 10, size=100)
            # Bounded memory without a knob: pending bytes never pass
            # the store's own budget by more than the entry that tipped it.
            assert backend._pending_bytes <= 1000 + 200
        assert rows_in_file(path)  # flushed before the window closed
    assert backend.bytes_used <= 1000


KEYS = [("k", i) for i in range(6)]
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(1, 4)),
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(st.just("peek"), st.sampled_from(KEYS)),
        st.tuples(st.just("remove"), st.sampled_from(KEYS)),
        st.tuples(st.just("advance"), st.integers(1, 6)),
        st.tuples(st.just("window")),  # close the window, open the next
    ),
    max_size=40,
)


def apply_op(store, op, serial):
    """One store access (``advance`` and ``window`` are the caller's)."""
    if op[0] == "put":
        store.put(op[1], f"v{serial}", size=op[2] * 100)
    elif op[0] == "get":
        return store.get(op[1])
    elif op[0] == "peek":
        return store.peek(op[1])
    elif op[0] == "remove":
        store.remove(op[1])
    return None


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_windowed_equals_unwindowed_within_budget(tmp_path_factory, ops):
    """Same sequence, write-through vs buffered: same answers, same
    visible contents, same counters, while the budget is never hit."""
    directory = tmp_path_factory.mktemp("prop")
    clock = FakeClock()
    plain = SqliteBackend(
        str(directory / "plain.db"), 1_000_000, ttl_s=10.0, clock=clock
    )
    windowed = SqliteBackend(
        str(directory / "windowed.db"), 1_000_000, ttl_s=10.0, clock=clock
    )
    window = windowed.window()
    window.__enter__()
    for serial, op in enumerate(ops):
        if op[0] == "window":
            window.__exit__(None, None, None)
            window = windowed.window()
            window.__enter__()
            continue
        if op[0] == "advance":
            clock.advance(op[1])
            continue
        assert apply_op(plain, op, serial) == apply_op(
            windowed, op, serial
        ), op
    for key in KEYS:
        assert plain.peek(key) == windowed.peek(key), key
    window.__exit__(None, None, None)
    for key in KEYS:
        assert plain.peek(key) == windowed.peek(key), key
    assert plain.bytes_used == windowed.bytes_used
    for counter in ("hits", "misses", "expirations", "stored", "oversized"):
        assert getattr(plain.stats, counter) == getattr(
            windowed.stats, counter
        ), counter


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_windowed_store_is_within_budget_after_every_flush(
    tmp_path_factory, ops
):
    """Over budget, eviction moves to the flush: afterwards the store is
    within budget and the victims are exactly the least recently used."""
    directory = tmp_path_factory.mktemp("prop")
    path = directory / "store.db"
    budget = 700
    store = SqliteBackend(str(path), budget)
    recency = {}  # key -> size, least recently used first

    def check_flush():
        expected = dict(recency)
        while sum(expected.values()) > budget and len(expected) > 1:
            del expected[next(iter(expected))]  # strict last_used order
        recency.clear()
        recency.update(expected)
        conn = sqlite3.connect(str(path))
        try:
            kept = [
                key for (key,) in conn.execute(
                    "SELECT key FROM entries ORDER BY last_used"
                )
            ]
        finally:
            conn.close()
        assert kept == [repr(key) for key in expected]
        assert sum(expected.values()) <= budget or len(expected) == 1

    window = store.window()
    window.__enter__()
    for serial, op in enumerate(ops):
        if op[0] == "window":
            window.__exit__(None, None, None)
            check_flush()
            window = store.window()
            window.__enter__()
        elif op[0] == "put":
            apply_op(store, op, serial)
            recency.pop(op[1], None)
            recency[op[1]] = op[2] * 100
            if store._pending_bytes == 0:  # flushed early: over budget
                check_flush()
        elif op[0] == "get":
            if apply_op(store, op, serial) is not None:
                recency[op[1]] = recency.pop(op[1])
        elif op[0] == "remove":
            apply_op(store, op, serial)
            recency.pop(op[1], None)
    window.__exit__(None, None, None)
    check_flush()


def test_concurrent_windows_never_lose_a_merge(tmp_path):
    """Stress: more threads than cores, over two connections to one
    file, each merging its own attributes into the same few entities
    inside overlapping windows.  A lost read-merge-write — in the shared
    pending map or across the connections — would drop an attribute."""
    path = tmp_path / "store.db"
    tiers = [make_tier(path, "application"), make_tier(path, "application")]
    scope = ("m", (), "")
    entities = [("e", i) for i in range(3)]
    workers, rounds = 8, 12
    errors = []

    def work(worker: int) -> None:
        tier = tiers[worker % 2]
        try:
            for round_ in range(rounds):
                with tier.window():
                    for entity in entities:
                        tier.store_lookup_row(
                            scope, "t", entity, [f"a{worker}_{round_}"], [worker]
                        )
        except Exception as exc:  # surfaced below, with the traceback
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(worker,), daemon=True)
            for worker in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    wanted = [
        f"a{worker}_{round_}"
        for worker in range(workers)
        for round_ in range(rounds)
    ]
    reader = make_tier(path, "application")
    for entity in entities:
        outcome = reader.lookup_cells(scope, "t", entity, wanted)
        assert outcome is not None and outcome[0], entity
    assert tiers[0].backend_note is None
    assert all(tier._fragments.failure_note is None for tier in tiers)


def test_catalog_flushes_interleaved_across_connections_lose_nothing(tmp_path):
    path = str(tmp_path / "store.db")
    key = ("stats", "application", "shared", "m", "c")
    backends = [
        SqliteBackend(path, 1_000_000, store="stats") for _ in range(2)
    ]
    ours, theirs = (StatisticsCatalog(backend) for backend in backends)
    for catalog in (ours, theirs):
        catalog.set_scope(key)
    ours.record_selectivity("t", "p", 10, 5)
    theirs.record_selectivity("t", "p", 10, 1)
    with backends[0].window():
        ours.flush()    # merged with a blob that the next line outdates
        theirs.flush()  # written through on its own connection
    fresh = StatisticsCatalog(SqliteBackend(path, 1_000_000, store="stats"))
    fresh.set_scope(key)
    assert fresh.observed_selectivity("t", "p") == 6 / 20
