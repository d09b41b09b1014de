"""Tests for the online statistics catalog and adaptive re-optimization.

Covers the catalog itself (recording, planner queries, delta-merge
without double-counting), persistence round-trips across two *real*
processes over one SQLite file, the mid-query re-plan's byte-identity
against the static plan across storage modes / shard counts /
``max_in_flight`` / injected noise, the learned-cardinality plan flip
(scan -> lookup-join), the ``stats[default-guess]`` warning, and the
``--adaptive`` / ``.stats`` CLI surface.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import EngineConfig
from repro.core.engine import LLMStorageEngine
from repro.errors import ConfigError
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM
from repro.llm.world import World
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.stats.catalog import StatisticsCatalog, _empty_payload, _merge_payload
from repro.storage.normalize import predicate_fingerprint
from tests.conftest import make_engine


# ---------------------------------------------------------------------------
# Catalog unit behavior
# ---------------------------------------------------------------------------


def test_catalog_records_and_serves_planner_queries():
    catalog = StatisticsCatalog()
    assert catalog.observed_rows("movies") is None
    catalog.record_table_rows("Movies", 240)
    assert catalog.observed_rows("movies") == 240
    assert catalog.observed_rows("MOVIES") == 240

    assert catalog.observed_selectivity("movies", "t1.x = 1") is None
    catalog.record_selectivity("movies", "t1.x = 1", rows_in=200, rows_out=9)
    sel = catalog.observed_selectivity("movies", "t1.x = 1")
    assert sel == pytest.approx(9 / 200)
    # Additive accumulation across observations.
    catalog.record_selectivity("movies", "t1.x = 1", rows_in=100, rows_out=6)
    assert catalog.observed_selectivity("movies", "t1.x = 1") == pytest.approx(
        15 / 300
    )
    # Zero matches stays clamped away from exactly 0.
    catalog.record_selectivity("movies", "t1.y = 2", rows_in=50, rows_out=0)
    assert catalog.observed_selectivity("movies", "t1.y = 2") == pytest.approx(
        0.5 / 50
    )
    # Degenerate inputs are ignored, never recorded.
    catalog.record_selectivity("movies", "t1.z = 3", rows_in=0, rows_out=0)
    assert catalog.observed_selectivity("movies", "t1.z = 3") is None

    catalog.record_call("scan-page", latency_ms=400.0, tokens=128)
    report = catalog.describe()
    assert "movies: rows=240" in report
    assert "scan-page: count=1" in report


def test_merge_payload_is_additive_without_double_count():
    base = _empty_payload()
    a = _empty_payload()
    a["tables"]["t"] = 100
    a["predicates"][("t", "t1.x = 1")] = [40.0, 4.0]
    b = _empty_payload()
    b["tables"]["t"] = 240  # newer observation wins last-value
    b["predicates"][("t", "t1.x = 1")] = [60.0, 6.0]
    _merge_payload(base, a)
    _merge_payload(base, b)
    assert base["tables"]["t"] == 240
    assert base["predicates"][("t", "t1.x = 1")] == [100.0, 10.0]
    # Merging the same delta again would double-count -- the catalog
    # resets its delta after each flush precisely to prevent that.
    _merge_payload(base, b)
    assert base["predicates"][("t", "t1.x = 1")] == [160.0, 16.0]


def test_predicate_fingerprint_normalizes_aliases():
    import repro.sql.parser as parser

    def conjuncts_of(sql):
        statement = parser.parse(sql)
        from repro.plan import rules

        return rules.split_conjuncts(statement.where)

    a = conjuncts_of("SELECT * FROM movies m WHERE m.rating > 9 AND m.year = 2000")
    b = conjuncts_of(
        "SELECT * FROM movies x WHERE x.year = 2000 AND x.rating > 9"
    )
    assert predicate_fingerprint("m", a) == predicate_fingerprint("x", b)


def test_replan_threshold_validated():
    with pytest.raises(ConfigError):
        EngineConfig(replan_threshold=1.0)
    with pytest.raises(ConfigError):
        EngineConfig(replan_threshold=0.5)
    assert EngineConfig(replan_threshold=2.5).replan_threshold == 2.5


# ---------------------------------------------------------------------------
# Worlds with deliberately wrong estimates
# ---------------------------------------------------------------------------

_KINDS = ["bolt", "nut", "gear", "washer", "bracket", "spring"]

PARTS_SCHEMA = TableSchema(
    name="parts",
    columns=(
        Column("part_id", DataType.TEXT, nullable=False),
        Column("kind", DataType.TEXT),
        Column("weight", DataType.REAL),
    ),
    primary_key=("part_id",),
    description="parts catalog",
)
ORDERS_SCHEMA = TableSchema(
    name="orders",
    columns=(
        Column("order_id", DataType.TEXT, nullable=False),
        Column("part_id", DataType.TEXT),
        Column("qty", DataType.INTEGER),
    ),
    primary_key=("order_id",),
    description="orders",
)


def shop_world(n_parts: int = 240, n_orders: int = 40) -> World:
    parts = [
        (f"P{i:04d}", _KINDS[i % len(_KINDS)], round(0.1 * (i % 50) + 0.5, 1))
        for i in range(n_parts)
    ]
    orders = [
        (f"O{i:03d}", f"P{(i * 7) % n_parts:04d}", (i % 9) + 1)
        for i in range(n_orders)
    ]
    return World(
        "shop", [Table(PARTS_SCHEMA, parts), Table(ORDERS_SCHEMA, orders)]
    )


JOIN_QUERIES = [
    "SELECT o.order_id, p.kind FROM orders o "
    "JOIN parts p ON p.part_id = o.part_id WHERE o.qty > %d" % q
    for q in (7, 6, 8, 5)
]

#: CASE never ships to the model, so this predicate runs locally over a
#: streamed scan -- the shape whose misestimate triggers a re-plan.
REPLAN_QUERY = (
    "SELECT title FROM movies "
    "WHERE CASE WHEN rating > 9.0 THEN 1 ELSE 0 END = 1 LIMIT 5"
)


def shop_engine(adaptive: bool, noise=None, seed: int = 3, **extra):
    world = shop_world()
    model = SimulatedLLM(world, noise or NoiseConfig.perfect(), seed=seed)
    config = EngineConfig().with_(
        enable_adaptive=adaptive, enable_cache=False, **extra
    )
    engine = LLMStorageEngine(model, config=config)
    engine.register_virtual_table(PARTS_SCHEMA, row_estimate=8)  # truth: 240
    engine.register_virtual_table(ORDERS_SCHEMA, row_estimate=40)
    return engine


def movies_engine(adaptive: bool, noise=None, seed: int = 7, **extra):
    from repro.eval.worlds import movies_world

    world = movies_world()
    model = SimulatedLLM(world, noise or NoiseConfig.perfect(), seed=seed)
    config = EngineConfig().with_(enable_adaptive=adaptive, **extra)
    engine = LLMStorageEngine(model, config=config)
    for schema in world.schemas():
        engine.register_virtual_table(
            schema, row_estimate=world.row_count(schema.name)
        )
    return engine


def run_rows(engine, queries):
    return [tuple(map(tuple, engine.execute(sql).rows)) for sql in queries]


# ---------------------------------------------------------------------------
# Learned cardinality: plan flip + fewer calls, byte-identical rows
# ---------------------------------------------------------------------------


def test_learned_cardinality_flips_scan_to_lookup_join():
    static = shop_engine(adaptive=False)
    rows_static = run_rows(static, JOIN_QUERIES)
    adaptive = shop_engine(adaptive=True)
    rows_adaptive = run_rows(adaptive, JOIN_QUERIES)
    assert rows_adaptive == rows_static
    assert adaptive.usage.calls * 2 <= static.usage.calls
    # The catalog learned the real cardinality from query 1's full scan.
    assert adaptive.stats_catalog.observed_rows("parts") == 240
    # The flip is visible in the plan itself.
    plan_text = adaptive.explain(JOIN_QUERIES[0])
    assert "lookup" in plan_text
    assert "stats[observed]: parts rows=240" in plan_text
    static.close()
    adaptive.close()


def test_static_plans_unchanged_without_adaptive():
    """enable_adaptive=False must be byte-identical to today: same rows,
    same calls, same tokens -- recording alone changes nothing."""
    default = shop_engine(adaptive=False)
    rows_default = run_rows(default, JOIN_QUERIES)
    off = shop_engine(adaptive=False)
    rows_off = run_rows(off, JOIN_QUERIES)
    assert rows_default == rows_off
    assert default.usage.calls == off.usage.calls
    assert default.usage.prompt_tokens == off.usage.prompt_tokens
    assert default.usage.completion_tokens == off.usage.completion_tokens
    # The catalog still *recorded* (always-on observation)...
    assert off.stats_catalog.observed_rows("parts") == 240
    # ...but the planner never consulted it.
    assert "stats[" not in off.explain(JOIN_QUERIES[0])
    default.close()
    off.close()


# ---------------------------------------------------------------------------
# Mid-query re-plan: byte identity across the acceptance grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("storage_mode", ["off", "materialize"])
@pytest.mark.parametrize("scan_shards", [1, 4])
@pytest.mark.parametrize("max_in_flight", [1, 8])
def test_replan_byte_identity_grid(storage_mode, scan_shards, max_in_flight):
    queries = [REPLAN_QUERY, REPLAN_QUERY.replace("LIMIT 5", "LIMIT 9")]
    static = movies_engine(
        adaptive=False,
        storage_mode=storage_mode,
        scan_shards=scan_shards,
        max_in_flight=max_in_flight,
    )
    rows_static = run_rows(static, queries)
    static.close()
    adaptive = movies_engine(
        adaptive=True,
        storage_mode=storage_mode,
        scan_shards=scan_shards,
        max_in_flight=max_in_flight,
    )
    rows_adaptive = run_rows(adaptive, queries)
    adaptive.close()
    assert rows_adaptive == rows_static


def test_replan_byte_identity_under_injected_noise():
    """Noise is deterministic per (prompt, sample); replan shard prompts
    are byte-identical to the serial continuation's pages, so even noisy
    answers land identically in both modes."""
    noise = NoiseConfig()  # the default imperfect substrate
    static = movies_engine(adaptive=False, noise=noise)
    rows_static = run_rows(static, [REPLAN_QUERY])
    static.close()
    adaptive = movies_engine(adaptive=True, noise=noise, max_in_flight=8)
    rows_adaptive = run_rows(adaptive, [REPLAN_QUERY])
    adaptive.close()
    assert rows_adaptive == rows_static


def test_replan_fires_and_annotates_explain():
    engine = movies_engine(adaptive=True, max_in_flight=8)
    text = engine.explain(REPLAN_QUERY, analyze=True)
    assert "replanned[" in text
    assert "sel: est=" in text
    assert engine.stats_catalog.replans >= 1
    assert engine.stats_catalog.replan_shards >= 1
    # The observation feeds back: a second run plans off the observed
    # residual selectivity and no longer needs to re-plan.
    text2 = engine.explain(REPLAN_QUERY, analyze=True)
    assert "stats[selectivity]" in text2
    assert "replanned[" not in text2
    engine.close()


def test_replan_under_materialize_probes_only_the_stream_fragment():
    # Re-plan shards continue the closed stream's cursor and only the
    # combined prefix is stored, so the stream's own probe is the one
    # fragment hit-or-miss; shard fragments are never consulted.
    engine = movies_engine(
        adaptive=True, max_in_flight=8, storage_mode="materialize"
    )
    engine.execute(REPLAN_QUERY)
    assert engine.stats_catalog.replan_shards > 1
    snapshot = engine.storage.snapshot()
    assert snapshot.fragment_hits + snapshot.fragment_misses == 1
    engine.close()


def test_adaptive_off_never_replans():
    engine = movies_engine(adaptive=False, max_in_flight=8)
    text = engine.explain(REPLAN_QUERY, analyze=True)
    assert "replanned[" not in text
    assert engine.stats_catalog.replans == 0
    engine.close()


# ---------------------------------------------------------------------------
# stats[default-guess] warning (satellite: no more silent fallback)
# ---------------------------------------------------------------------------


def test_default_guess_warns_once_per_table(mini_world, perfect_model):
    engine = LLMStorageEngine(perfect_model, config=EngineConfig())
    for schema in mini_world.schemas():
        engine.register_virtual_table(schema)  # no row_estimate
    first = engine.execute("SELECT name FROM countries WHERE continent = 'Europe'")
    assert any("stats[default-guess]" in w for w in first.warnings)
    # One-time: the same table never warns twice.
    second = engine.execute("SELECT name FROM countries WHERE continent = 'Asia'")
    assert not any("stats[default-guess]" in w for w in second.warnings)
    # A different defaulted table gets its own warning.
    third = engine.execute("SELECT city FROM cities")
    assert any("stats[default-guess]" in w for w in third.warnings)
    # And EXPLAIN carries the note.
    assert "stats[default-guess]" in engine.explain(
        "SELECT name FROM countries WHERE continent = 'Europe'"
    )
    engine.close()


def test_registered_estimate_never_warns(perfect_engine):
    result = perfect_engine.execute(
        "SELECT name FROM countries WHERE continent = 'Europe'"
    )
    assert not any("stats[default-guess]" in w for w in result.warnings)


# ---------------------------------------------------------------------------
# Persistence: real processes over one SQLite file
# ---------------------------------------------------------------------------

CHILD_SCRIPT = """
import sys

from repro.config import EngineConfig
from repro.core.engine import LLMStorageEngine
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM
from repro.llm.world import World
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType

path, mode = sys.argv[1], sys.argv[2]

KINDS = ["bolt", "nut", "gear", "washer", "bracket", "spring"]
parts_schema = TableSchema(
    name="parts",
    columns=(
        Column("part_id", DataType.TEXT, nullable=False),
        Column("kind", DataType.TEXT),
        Column("weight", DataType.REAL),
    ),
    primary_key=("part_id",),
    description="parts catalog",
)
orders_schema = TableSchema(
    name="orders",
    columns=(
        Column("order_id", DataType.TEXT, nullable=False),
        Column("part_id", DataType.TEXT),
        Column("qty", DataType.INTEGER),
    ),
    primary_key=("order_id",),
    description="orders",
)
parts = [
    ("P%04d" % i, KINDS[i % len(KINDS)], round(0.1 * (i % 50) + 0.5, 1))
    for i in range(240)
]
orders = [("O%03d" % i, "P%04d" % ((i * 7) % 240), (i % 9) + 1) for i in range(40)]
world = World("shop", [Table(parts_schema, parts), Table(orders_schema, orders)])

model = SimulatedLLM(world, noise=NoiseConfig.perfect(), seed=3)
engine = LLMStorageEngine(
    model,
    config=EngineConfig(
        enable_adaptive=True,
        enable_cache=False,
        storage_backend="sqlite",
        storage_path=path,
        storage_scope="application",
    ),
)
engine.register_virtual_table(parts_schema, row_estimate=8)
engine.register_virtual_table(orders_schema, row_estimate=40)

if mode == "teach":
    # A full enumeration teaches the real cardinality.
    rows = tuple(map(tuple, engine.execute("SELECT part_id FROM parts").rows))
    observed = len(rows)
else:
    # A fresh process: plans must already consult the persisted stats.
    result = engine.execute(
        "SELECT o.order_id, p.kind FROM orders o "
        "JOIN parts p ON p.part_id = o.part_id WHERE o.qty > 7"
    )
    observed = engine.stats_catalog.observed_rows("parts")
engine.close()
print(repr({
    "observed": observed,
    "calls": engine.usage.calls,
    "known": engine.stats_catalog.observed_rows("parts"),
    "key": engine.stats_catalog._key,
}))
"""


def spawn_child(script_path, db_path, mode):
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.Popen(
        [sys.executable, str(script_path), str(db_path), mode],
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def child_output(process):
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    return ast.literal_eval(stdout.strip())


def test_stats_persist_across_real_processes(tmp_path):
    script = tmp_path / "child.py"
    script.write_text(CHILD_SCRIPT, encoding="utf-8")
    db_path = tmp_path / "stats.db"

    taught = child_output(spawn_child(script, db_path, "teach"))
    assert taught["known"] == 240

    # A brand-new process reads the learned cardinality from the file
    # at startup -- before running anything itself.
    fresh = child_output(spawn_child(script, db_path, "join"))
    assert fresh["observed"] == 240
    # ...and plans with it: the join costs far fewer calls than the
    # 12-page parts scan a cold static plan would pay.
    assert fresh["calls"] <= 6


def test_cross_process_merge_never_double_counts(tmp_path):
    script = tmp_path / "child.py"
    script.write_text(CHILD_SCRIPT, encoding="utf-8")
    db_path = tmp_path / "stats.db"

    # Two concurrent processes observe the same full enumeration.
    first = spawn_child(script, db_path, "teach")
    second = spawn_child(script, db_path, "teach")
    out_first = child_output(first)
    out_second = child_output(second)
    assert out_first["known"] == out_second["known"] == 240

    from repro.storage.persistent import SqliteBackend

    backend = SqliteBackend(str(db_path), budget_bytes=1_000_000, store="stats")
    catalog = StatisticsCatalog(backend)
    # Both processes persisted under the same scope key (same catalog
    # fingerprint, model, and scope).
    key = tuple(out_first["key"])
    assert key == tuple(out_second["key"])
    assert key[0] == "stats"
    payload = backend.peek(key)
    # Last-value table cardinality: merged, not summed, across both
    # processes' flushes.
    assert payload["tables"]["parts"] == 240
    # Call histograms merged additively: each process's scan pages are
    # counted exactly once (12 pages each, 2 processes).
    counts, _total = payload["latency"]["scan-page"]
    assert sum(counts) == 24
    catalog.set_scope(key)
    assert catalog.observed_rows("parts") == 240


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_adaptive_flags_and_stats_command(capsys):
    from repro.cli import main

    assert (
        main(
            [
                "--world",
                "geography",
                "--adaptive",
                "--replan-threshold",
                "3.5",
                "-c",
                "SELECT name FROM countries WHERE continent = 'Europe'",
            ]
        )
        == 0
    )
    capsys.readouterr()

    import io

    from repro.cli import build_engine, repl

    engine = build_engine(
        "geography", 0, False, 0.0, 0.0, 1, adaptive=True
    )
    assert engine.config.enable_adaptive is True
    out = io.StringIO()
    repl(
        engine,
        stdin=io.StringIO(
            "SELECT name FROM countries WHERE continent = 'Europe';\n"
            ".stats\n.quit\n"
        ),
        out=out,
    )
    engine.close()
    text = out.getvalue()
    assert "tables:" in text
    assert "calls:" in text


def test_cli_no_adaptive_is_default():
    from repro.cli import build_engine

    engine = build_engine("geography", 0, False, 0.0, 0.0, 1)
    assert engine.config.enable_adaptive is False
    assert engine.config.replan_threshold == 4.0
    engine.close()
