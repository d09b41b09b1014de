"""Observability: tracing, metrics, EXPLAIN ANALYZE, exporters.

The invariants under test mirror the engine's determinism bar:

* the span-tree *shape* of a statement is identical at any
  ``max_in_flight`` (timings may differ, logical work may not);
* histogram percentiles are bucket-exact and independent of
  observation order (no float-summation nondeterminism);
* a disabled tracer changes nothing — rows, usage totals, and wall
  accounting are byte-identical to a traced run;
* the JSONL trace export round-trips.
"""

import random

import pytest

from tests.conftest import make_engine
from repro.config import EngineConfig
from repro.llm.accounting import UsageSnapshot
from repro.obs import metrics as obs_metrics
from repro.obs.export import (
    batch_summary,
    exact_percentile,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.hub import Observability
from repro.obs.metrics import Histogram
from repro.obs.trace import NOOP_TRACER, QueryTrace, QueryTracer, Span


JOIN_SQL = (
    "SELECT c.name, ci.city FROM countries c "
    "JOIN cities ci ON c.name = ci.country WHERE c.continent = 'Europe'"
)


def traced_engine(perfect_model, mini_world, **overrides):
    config = EngineConfig(enable_tracing=True, **overrides)
    return make_engine(perfect_model, mini_world, config)


# ---------------------------------------------------------------------------
# Span-tree shape stability
# ---------------------------------------------------------------------------


class TestShapeStability:
    def test_join_shape_identical_across_concurrency(
        self, mini_world, perfect_model
    ):
        shapes = {}
        for mif in (1, 4, 8):
            engine = traced_engine(
                perfect_model, mini_world, max_in_flight=mif
            )
            result = engine.execute(JOIN_SQL)
            shapes[mif] = result.trace.shape()
        assert shapes[1] == shapes[4]
        assert shapes[4] == shapes[8]

    def test_sharded_scan_shape_identical_across_concurrency(
        self, mini_world, perfect_model
    ):
        shapes = {}
        for mif in (1, 4):
            engine = traced_engine(
                perfect_model,
                mini_world,
                max_in_flight=mif,
                scan_shards=3,
                shard_min_rows=2,
                page_size=4,
            )
            result = engine.execute("SELECT name FROM countries")
            shapes[mif] = result.trace.shape()
        assert shapes[1] == shapes[4]

    def test_trace_contains_expected_phases(self, mini_world, perfect_model):
        engine = traced_engine(perfect_model, mini_world)
        result = engine.execute(JOIN_SQL)
        names = {span.name for span in result.trace.spans}
        assert {"query", "parse", "bind", "optimize", "execute"} <= names
        assert "step" in names and "flight" in names
        # Exactly one root: the query span.
        roots = result.trace.roots()
        assert len(roots) == 1 and roots[0].name == "query"

    def test_step_spans_carry_identity_tags(self, mini_world, perfect_model):
        engine = traced_engine(perfect_model, mini_world)
        result = engine.execute(JOIN_SQL)
        steps = [s for s in result.trace.spans if s.name == "step"]
        assert len(steps) == 2
        assert {s.tags["step"] for s in steps} == {0, 1}
        for span in steps:
            assert span.tags["step_kind"] == "scan"
            assert "rows" in span.tags
            assert span.tags["table"] in ("countries", "cities")

    def test_flight_spans_nest_under_their_step(
        self, mini_world, perfect_model
    ):
        engine = traced_engine(perfect_model, mini_world, max_in_flight=4)
        result = engine.execute(JOIN_SQL)
        index = result.trace.children_index()
        by_id = {s.span_id: s for s in result.trace.spans}
        flights = [s for s in result.trace.spans if s.name == "flight"]
        assert flights
        for flight in flights:
            assert by_id[flight.parent_id].name == "step"
            assert flight.tags["kind"] == "scan-page"
        # every step span has at least one flight beneath it
        for step in (s for s in result.trace.spans if s.name == "step"):
            kids = index.get(step.span_id, [])
            assert any(k.name == "flight" for k in kids)


# ---------------------------------------------------------------------------
# Deterministic simulated timings
# ---------------------------------------------------------------------------


class TestDeterministicTimings:
    def test_same_run_same_timings(self, mini_world, perfect_model):
        def run():
            engine = traced_engine(perfect_model, mini_world)
            trace = engine.execute(JOIN_SQL).trace
            return [
                (s.name, round(s.start_ms, 4), round(s.end_ms, 4))
                for s in sorted(trace.spans, key=lambda s: s.span_id)
            ]

        assert run() == run()

    def test_wall_matches_query_span(self, mini_world, perfect_model):
        engine = traced_engine(perfect_model, mini_world, max_in_flight=4)
        result = engine.execute(JOIN_SQL)
        root = result.trace.roots()[0]
        assert root.duration_ms == pytest.approx(result.usage.wall_ms)


# ---------------------------------------------------------------------------
# No-op tracer byte-identity
# ---------------------------------------------------------------------------


class TestNoopIdentity:
    @pytest.mark.parametrize("mif", [1, 8])
    def test_rows_and_usage_identical(self, mini_world, perfect_model, mif):
        off = make_engine(
            perfect_model, mini_world, EngineConfig(max_in_flight=mif)
        ).execute(JOIN_SQL)
        on = make_engine(
            perfect_model,
            mini_world,
            EngineConfig(max_in_flight=mif, enable_tracing=True),
        ).execute(JOIN_SQL)
        assert off.rows == on.rows
        assert off.column_names == on.column_names
        for field in (
            "calls",
            "prompt_tokens",
            "completion_tokens",
            "latency_ms",
            "wall_ms",
            "pages_fetched",
            "pages_skipped",
        ):
            assert getattr(off.usage, field) == getattr(on.usage, field)
        assert off.trace is None
        assert on.trace is not None

    def test_disabled_engine_has_noop_hub(self, perfect_engine):
        result = perfect_engine.execute("SELECT name FROM countries")
        assert result.trace is None
        assert not perfect_engine.observability.enabled
        assert perfect_engine.observability.registry.names() == []
        assert NOOP_TRACER.enabled is False


# ---------------------------------------------------------------------------
# Histogram / metrics determinism
# ---------------------------------------------------------------------------


class TestHistograms:
    def test_percentiles_order_independent(self):
        values = [1, 3, 7, 12, 40, 90, 150, 600, 1800, 9999]
        percentiles = {}
        for seed in (0, 1, 2):
            shuffled = list(values)
            random.Random(seed).shuffle(shuffled)
            histogram = Histogram("h")
            for value in shuffled:
                histogram.observe(value)
            percentiles[seed] = (
                histogram.percentile(50),
                histogram.percentile(90),
                histogram.percentile(99),
            )
        assert percentiles[0] == percentiles[1] == percentiles[2]

    def test_percentile_is_bucket_upper_bound(self):
        histogram = Histogram("h", buckets=(10, 100, 1000))
        for value in (5, 7, 80, 90, 95):
            histogram.observe(value)
        assert histogram.percentile(50) == 100
        assert histogram.percentile(1) == 10
        assert histogram.percentile(100) == 100

    def test_overflow_bucket_reports_inf(self):
        histogram = Histogram("h", buckets=(10,))
        histogram.observe(99)
        assert histogram.percentile(50) == float("inf")

    def test_empty_percentile_is_none(self):
        assert Histogram("h").percentile(50) is None

    def test_inactive_registry_is_never_fed(self, perfect_engine):
        # ``active`` gates the instrumentation sites: with observability
        # off, nothing in the engine touches the registry at all.
        registry = perfect_engine.observability.registry
        assert registry.active is False
        perfect_engine.execute("SELECT name FROM countries")
        assert registry.names() == []

    def test_prometheus_exposition(self, mini_world, perfect_model):
        engine = traced_engine(perfect_model, mini_world)
        engine.execute("SELECT name FROM countries WHERE continent = 'Asia'")
        text = engine.prometheus_metrics()
        assert "# TYPE repro_model_calls_total counter" in text
        assert "repro_queries_total 1" in text
        assert 'le="+Inf"' in text
        assert "repro_call_latency_ms_count" in text

    def test_query_metrics_flow(self, mini_world, perfect_model):
        engine = traced_engine(perfect_model, mini_world)
        engine.execute(JOIN_SQL)
        registry = engine.observability.registry
        calls = registry.counter(obs_metrics.MODEL_CALLS_TOTAL).value
        assert calls == engine.usage.calls > 0
        assert registry.counter(obs_metrics.QUERIES_TOTAL).value == 1
        assert (
            registry.histogram(obs_metrics.CALL_LATENCY_MS).count == calls
        )
        assert registry.histogram(obs_metrics.PAGES_PER_SCAN).count == 2

    def test_sharded_scan_observes_pages_once(self, mini_world, perfect_model):
        # One sharded scan is one scan: its chains' pages are summed
        # into a single observation, not one per shard.
        engine = traced_engine(
            perfect_model, mini_world,
            page_size=2, scan_shards=4, shard_min_rows=2,
        )
        result = engine.execute("SELECT name FROM countries")
        assert "sharded-scan[countries]: 4 shard(s)" in result.explain_text
        pages = engine.observability.registry.histogram(
            obs_metrics.PAGES_PER_SCAN
        )
        assert pages.count == 1
        assert pages.sum == engine.usage.pages_fetched > 4

    def test_storage_hit_counters(self, mini_world, perfect_model):
        engine = traced_engine(
            perfect_model, mini_world, storage_mode="materialize"
        )
        engine.execute("SELECT name FROM countries")
        engine.execute("SELECT name FROM countries")
        registry = engine.observability.registry
        assert registry.counter(obs_metrics.RESULT_HITS_TOTAL).value == 1
        assert registry.counter(obs_metrics.RESULT_MISSES_TOTAL).value == 1


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    def test_estimate_and_actual_per_step(self, mini_world, perfect_model):
        engine = make_engine(perfect_model, mini_world)
        text = engine.explain(JOIN_SQL, analyze=True)
        assert "LLMScan countries" in text and "LLMScan cities" in text
        # one actual line per step, carrying all four actual fields
        actual_lines = [
            line for line in text.splitlines() if "actual: rows=" in line
        ]
        assert len(actual_lines) == 2
        for line in actual_lines:
            assert "calls=" in line
            assert "pages=" in line
            assert "wall=" in line
        assert "est_rows=" in text
        assert text.splitlines()[-1].startswith("-- actual: ")

    def test_analyze_executes_even_with_result_cache(
        self, mini_world, perfect_model
    ):
        engine = make_engine(
            perfect_model,
            mini_world,
            EngineConfig(storage_mode="result_cache"),
        )
        sql = "SELECT name FROM countries WHERE continent = 'Africa'"
        engine.execute(sql)  # populates the result cache
        text = engine.explain(sql, analyze=True)
        # bypassed the cached result: real flights were flown
        assert "calls=1" in text
        baseline = engine.explain(sql)
        assert baseline.splitlines()[0] in text

    def test_analyze_works_without_session_tracing(self, perfect_engine):
        text = perfect_engine.explain(
            "SELECT COUNT(*) FROM cities", analyze=True
        )
        assert "actual:" in text
        # the forced tracer is query-local: the session hub stays off
        assert not perfect_engine.observability.enabled

    def test_analyze_union_branches(self, mini_world, perfect_model):
        engine = make_engine(perfect_model, mini_world)
        text = engine.explain(
            "SELECT name FROM countries WHERE continent = 'Africa' "
            "UNION SELECT name FROM countries WHERE continent = 'Asia'",
            analyze=True,
        )
        assert text.splitlines()[0].startswith("SetOp UNION")
        assert text.count("LocalCompute:") == 2
        assert "not executed" not in text


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExport:
    def test_jsonl_round_trip(self, mini_world, perfect_model, tmp_path):
        engine = traced_engine(perfect_model, mini_world)
        engine.execute(JOIN_SQL)
        engine.execute("SELECT COUNT(*) FROM cities")
        path = tmp_path / "trace.jsonl"
        written = engine.export_trace(str(path))
        traces = engine.observability.traces
        assert written == sum(len(t.spans) for t in traces)
        loaded = read_trace_jsonl(str(path))
        assert len(loaded) == len(traces)
        for original, round_tripped in zip(traces, loaded):
            assert round_tripped.statement == original.statement
            assert round_tripped.shape() == original.shape()
            originals = sorted(original.spans, key=lambda s: s.span_id)
            loaded_spans = sorted(
                round_tripped.spans, key=lambda s: s.span_id
            )
            for a, b in zip(originals, loaded_spans):
                assert (a.span_id, a.parent_id, a.name) == (
                    b.span_id,
                    b.parent_id,
                    b.name,
                )
                assert b.start_ms == pytest.approx(a.start_ms, abs=1e-3)

    def test_export_empty_when_disabled(self, perfect_engine, tmp_path):
        perfect_engine.execute("SELECT name FROM countries")
        path = tmp_path / "trace.jsonl"
        assert perfect_engine.export_trace(str(path)) == 0

    def test_write_read_synthetic(self, tmp_path):
        trace = QueryTrace(statement="SELECT 1")
        tracer = QueryTracer(trace)
        with tracer.span("query"):
            with tracer.span("step", step=0):
                tracer.emit("flight", 0.0, 5.0, {"kind": "scan-page"})
        path = tmp_path / "t.jsonl"
        assert write_trace_jsonl(str(path), [trace]) == 3
        (loaded,) = read_trace_jsonl(str(path))
        assert loaded.shape() == trace.shape()


# ---------------------------------------------------------------------------
# Fleet aggregation
# ---------------------------------------------------------------------------


class TestFleet:
    def test_batch_summary_lines(self, mini_world, perfect_model):
        engine = traced_engine(
            perfect_model, mini_world, serve_jobs=2, max_in_flight=4
        )
        outcomes = engine.execute_many(
            [
                "SELECT name FROM countries WHERE continent = 'Europe'",
                "SELECT city FROM cities WHERE country = 'Japan'",
            ],
            collect_outcomes=True,
        )
        line = batch_summary(outcomes)
        assert line.startswith("-- fleet: 2 queries")
        assert "wall p50/p99" in line
        assert "call(s)" in line

    def test_batch_summary_empty(self):
        assert batch_summary([]) == "-- fleet: no usage attributed"

    def test_queue_wait_recorded(self, mini_world, perfect_model):
        engine = traced_engine(perfect_model, mini_world, serve_jobs=2)
        engine.execute_many(
            ["SELECT COUNT(*) FROM cities", "SELECT COUNT(*) FROM countries"]
        )
        registry = engine.observability.registry
        assert registry.histogram(obs_metrics.QUEUE_WAIT_MS).count == 2

    def test_exact_percentile(self):
        assert exact_percentile([], 50) == 0.0
        assert exact_percentile([5.0], 99) == 5.0
        assert exact_percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert exact_percentile([1.0, 2.0, 3.0, 4.0], 99) == 4.0


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_records_entry(self, mini_world, perfect_model):
        engine = make_engine(
            perfect_model, mini_world, EngineConfig(slow_query_ms=1.0)
        )
        engine.execute(JOIN_SQL)
        log = engine.observability.slow_log
        assert len(log) == 1
        (entry,) = log.entries
        assert entry.statement == JOIN_SQL
        assert entry.wall_ms > 0
        assert 1 <= len(entry.top_spans) <= 3
        durations = [d for _, d, _ in entry.top_spans]
        assert durations == sorted(durations, reverse=True)
        report = engine.metrics_report()
        assert "slow queries" in report
        assert JOIN_SQL in report

    def test_threshold_implies_tracing(self, mini_world, perfect_model):
        engine = make_engine(
            perfect_model, mini_world, EngineConfig(slow_query_ms=5.0)
        )
        assert engine.observability.enabled
        result = engine.execute("SELECT name FROM countries")
        assert result.trace is not None

    def test_fast_queries_stay_out(self, mini_world, perfect_model):
        engine = make_engine(
            perfect_model, mini_world, EngineConfig(slow_query_ms=10_000_000)
        )
        engine.execute("SELECT name FROM countries")
        assert len(engine.observability.slow_log) == 0
        assert "(no slow queries)" in engine.metrics_report()


# ---------------------------------------------------------------------------
# UsageSnapshot edges
# ---------------------------------------------------------------------------


class TestUsageSnapshot:
    def test_speedup_zero_wall_with_latency(self):
        snapshot = UsageSnapshot(calls=1, latency_ms=500.0, wall_ms=0.0)
        assert snapshot.speedup == 1.0

    def test_speedup_zero_latency(self):
        assert UsageSnapshot(wall_ms=100.0).speedup == 1.0

    def test_speedup_real_ratio(self):
        snapshot = UsageSnapshot(latency_ms=1000.0, wall_ms=250.0)
        assert snapshot.speedup == pytest.approx(4.0)

    def test_render_hides_speedup_when_serial(self):
        serial = UsageSnapshot(calls=2, latency_ms=800.0, wall_ms=800.0)
        assert "wall" not in serial.render()
        degenerate = UsageSnapshot(calls=1, latency_ms=500.0, wall_ms=0.0)
        assert "wall" not in degenerate.render()

    def test_render_shows_speedup_when_overlapped(self):
        snapshot = UsageSnapshot(calls=4, latency_ms=2000.0, wall_ms=500.0)
        text = snapshot.render()
        assert "500 ms wall" in text
        assert "(4.00x)" in text

    def test_render_appends_latency_summary(self):
        snapshot = UsageSnapshot(
            calls=1, latency_summary="call latency p50/p99 <= 5/10 ms"
        )
        assert snapshot.render().endswith("call latency p50/p99 <= 5/10 ms")
        assert "latency p50" not in UsageSnapshot(calls=1).render()

    def test_session_usage_carries_summary(self, mini_world, perfect_model):
        engine = traced_engine(perfect_model, mini_world)
        engine.execute("SELECT name FROM countries")
        assert "call latency p50/p99" in engine.usage.render()

    def test_untraced_usage_render_unchanged(self, perfect_engine):
        perfect_engine.execute("SELECT name FROM countries")
        assert "call latency" not in perfect_engine.usage.render()


# ---------------------------------------------------------------------------
# Observability hub plumbing
# ---------------------------------------------------------------------------


class TestHub:
    def test_from_config(self):
        assert not Observability.from_config(EngineConfig()).enabled
        assert Observability.from_config(
            EngineConfig(enable_tracing=True)
        ).enabled
        assert Observability.from_config(
            EngineConfig(slow_query_ms=3.0)
        ).enabled

    def test_disabled_hub_hands_out_noop(self):
        hub = Observability.from_config(EngineConfig())
        assert hub.query_tracer("SELECT 1") is NOOP_TRACER

    def test_trace_buffer_bounded(self):
        hub = Observability(enabled=True, trace_capacity=2)
        for index in range(4):
            trace = QueryTrace(statement=f"q{index}")
            trace.append(Span(1, None, "query"))
            hub.record_query(f"q{index}", UsageSnapshot(), trace)
        statements = [t.statement for t in hub.traces]
        assert statements == ["q2", "q3"]

    def test_negative_slow_query_ms_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            EngineConfig(slow_query_ms=-1.0)
