"""Metric names, units and definitions; the estimators behind them.

The names below are the benchmark's contract: ``BENCHMARK.json`` lists
the same ones and ``test_host_bench.py`` checks that the two agree.
"""

from __future__ import annotations

import math
import resource
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from spans import OP, Span, SpanTotals, totals_by_name


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the earlier value by which the metric may worsen before
    #: ``--repeat`` (and, for a gated metric, the driver) flags it.
    bound: float = 0.0
    #: False for a metric that reads 0 on some workload.  A share of 0
    #: means nothing, so the driver cannot gate those: BENCHMARK.json
    #: lists them with the per-layer metrics and ``--repeat`` alone
    #: compares them.
    never_zero: bool = True


#: Every workload reports all eleven, from the untraced run.
END_TO_END: Tuple[Metric, ...] = (
    Metric("stmt_per_s", "statements/s", "higher", 0.10),
    Metric("op_ms_p50", "ms", "lower", 0.10),
    Metric("op_ms_p90", "ms", "lower", 0.10),
    Metric("cpu_ms_per_stmt", "ms", "lower", 0.10),
    Metric("model_calls_per_stmt", "calls", "lower", 0.0, never_zero=False),
    Metric("tokens_per_stmt", "tokens", "lower", 0.0, never_zero=False),
    # Not exact: under execute_many the batch makespan depends on which
    # calls happened to be joined in flight (1.1% between two runs).
    Metric("sim_wall_ms_per_stmt", "sim_ms", "lower", 0.02, never_zero=False),
    Metric("answer_f1", "share", "higher", 0.005),
    Metric("failed_share", "share", "lower", 0.0, never_zero=False),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.20),
)

#: From the traced run; layer = ``src/repro/<module>``.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("sql.parse_us_per_stmt", "us", "lower"),
    Metric("sql.bind_us_per_stmt", "us", "lower"),
    Metric("plan.optimize_us_per_stmt", "us", "lower"),
    Metric("plan.explain_us_per_stmt", "us", "lower"),
    Metric("core.engine_self_us_per_stmt", "us", "lower"),
    Metric("core.executor_self_us_per_stmt", "us", "lower"),
    Metric("core.operators_self_us_per_call", "us", "lower"),
    Metric("core.validate_us_per_row", "us", "lower"),
    Metric("core.rows_fetched_per_row_returned", "ratio", "lower"),
    Metric("core.overhead_vs_reference", "ratio", "lower"),
    Metric("prompts.build_us_per_call", "us", "lower"),
    Metric("prompts.parse_us_per_call", "us", "lower"),
    Metric("relational.local_us_per_stmt", "us", "lower"),
    Metric("relational.reference_us_per_stmt", "us", "lower"),
    Metric("storage.normalize_us_per_stmt", "us", "lower"),
    Metric("storage.tier_self_us_per_stmt", "us", "lower"),
    Metric("storage.backend_get_us_per_op", "us", "lower"),
    Metric("storage.backend_gets_per_stmt", "count", "lower"),
    Metric("storage.backend_put_us_per_op", "us", "lower"),
    Metric("storage.backend_puts_per_stmt", "count", "lower"),
    Metric("storage.result_hit_ratio", "share", "higher"),
    Metric("storage.fragment_hit_ratio", "share", "higher"),
    Metric("storage.file_bytes_per_payload_byte", "ratio", "lower"),
    Metric("storage.open_close_ms_per_engine", "ms", "lower"),
    Metric("runtime.dispatch_self_us_per_call", "us", "lower"),
    Metric("runtime.scheduler_self_us_per_stmt", "us", "lower"),
    Metric("runtime.in_flight_mean", "calls", "higher"),
    Metric("runtime.peak_in_flight", "calls", "higher"),
    Metric("runtime.raw_calls_per_metered_call", "ratio", "lower"),
    Metric("runtime.real_speedup_vs_serial", "ratio", "higher"),
    Metric("runtime.sim_speedup_vs_serial", "ratio", "higher"),
    Metric("runtime.dedup_hits_per_batch", "count", "higher"),
    Metric("llm.model_busy_share", "share", "lower"),
    Metric("llm.simulated_us_per_call", "us", "lower"),
    Metric("llm.cache_hit_ratio", "share", "higher"),
    Metric("llm.accounting_self_us_per_call", "us", "lower"),
    Metric("llm.replay_misses", "count", "lower"),
    Metric("stats.flush_us_per_stmt", "us", "lower"),
    Metric("stats.record_us_per_call", "us", "lower"),
    Metric("eval.oracle_us_per_stmt", "us", "lower"),
    Metric("eval.score_us_per_stmt", "us", "lower"),
    Metric("baselines.direct_us_per_stmt", "us", "lower"),
    Metric("baselines.direct_f1", "share", "higher"),
    Metric("obs.trace_overhead_ratio", "ratio", "lower"),
    Metric("obs.span_coverage", "share", "higher"),
)

GATED = tuple(m for m in END_TO_END if m.never_zero)
UNGATED = tuple(m for m in END_TO_END if not m.never_zero)


def percentile(samples: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percent`` % of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def op_percentile(run, percent: float) -> float:
    """Nearest-rank percentile, over the ops of one iteration, of each
    op's *median* latency across the iterations.

    Every iteration makes the same calls in the same order, so the k-th
    op of each is the same statement.  Taking its median first removes
    the machine's slow spells before statements are compared; the pooled
    percentile sat between two clusters of statements and moved by 9%
    between runs whose throughput agreed within 3%.  With one op per
    iteration (``serve_concurrent``) every percentile is that op's median.
    """
    per_iteration = len(run.op_ms) // len(run.iter_s)
    return percentile(
        [
            statistics.median(run.op_ms[k::per_iteration])
            for k in range(per_iteration)
        ],
        percent,
    )


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def stmt_per_s(run) -> float:
    """Statements per iteration over the *median* iteration time: the
    median repeated within 2% in sizing where the mean moved 15% under
    neighbour noise."""
    per_iteration = run.statements / len(run.iter_s)
    return per_iteration / statistics.median(run.iter_s)


def cpu_ms_per_stmt(run) -> float:
    per_iteration = run.statements / len(run.iter_s)
    return statistics.median(run.iter_cpu_s) * 1e3 / per_iteration


def end_to_end(run, setup_s: float) -> Dict[str, float]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "stmt_per_s": stmt_per_s(run),
        "op_ms_p50": op_percentile(run, 50),
        "op_ms_p90": op_percentile(run, 90),
        "cpu_ms_per_stmt": cpu_ms_per_stmt(run),
        "model_calls_per_stmt": run.calls / run.statements,
        "tokens_per_stmt": run.tokens / run.statements,
        "sim_wall_ms_per_stmt": run.sim_wall_ms / run.statements,
        "answer_f1": statistics.fmean(run.f1),
        "failed_share": run.failed / run.ops,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": setup_s,
    }


def _split_reference_executor(spans: Iterable[Span]) -> List[Span]:
    """``ReferenceExecutor.execute`` is the engine's local compute, the
    oracle, and the simulator's way of answering a whole query; keep the
    name for the engine's calls only (those made by ``PlanExecutor``)."""
    spans = list(spans)
    names = {span.id: span.name for span in spans}
    return [
        span._replace(name="ReferenceExecutor.execute[not engine]")
        if span.name == "ReferenceExecutor.execute"
        and names.get(span.parent) != "PlanExecutor.execute"
        else span
        for span in spans
    ]


def per_layer(workload, plain, traced, spans: Iterable[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``plain`` is the short untraced run made just before in the same
    process; it gives the tracing overhead and the numbers that need no
    span.  The three zeros are filled in by ``Workload.side_metrics``
    on the workload that measures them.
    """
    totals: Dict[str, SpanTotals] = defaultdict(
        lambda: SpanTotals(0, 0.0, 0.0), totals_by_name(_split_reference_executor(spans))
    )

    def pick(pattern: str) -> List[SpanTotals]:
        """Totals of one span name, or of a ``prefix*``."""
        if not pattern.endswith("*"):
            return [totals[pattern]]
        return [t for name, t in totals.items() if name.startswith(pattern[:-1])]

    def count(pattern: str) -> int:
        return sum(t.count for t in pick(pattern))

    def total_us(pattern: str) -> float:
        return sum(t.total_s for t in pick(pattern)) * 1e6

    def self_us(pattern: str) -> float:
        return sum(t.self_s for t in pick(pattern)) * 1e6

    statements = traced.statements
    op_s = sum(traced.op_ms) / 1e3
    models = list(workload.models.values())
    busy_s = sum(m.busy_s for m in models)
    raw_calls = sum(m.raw_calls for m in models)
    slept_s = sum(m.raw_calls * m.latency_s for m in models)
    simulated_s = totals["SimulatedLLM.complete"].total_s
    reference_us = ratio(sum(workload.reference_s), len(workload.reference_s)) * 1e6
    scoring_us = total_us("tuple_metrics") + total_us("exact_match")
    return {
        "sql.parse_us_per_stmt": ratio(total_us("parse"), statements),
        "sql.bind_us_per_stmt": ratio(total_us("Binder.bind"), statements),
        "plan.optimize_us_per_stmt": ratio(total_us("Optimizer.plan"), statements),
        "plan.explain_us_per_stmt": ratio(total_us("explain_plan"), statements),
        "core.engine_self_us_per_stmt": ratio(
            self_us("LLMStorageEngine.*"), statements
        ),
        "core.executor_self_us_per_stmt": ratio(
            self_us("PlanExecutor.execute"), statements
        ),
        "core.operators_self_us_per_call": ratio(
            self_us("ModelClient.*"), count("ModelClient.*")
        ),
        "core.validate_us_per_row": ratio(
            total_us("Validator.validate_row"), count("Validator.validate_row")
        ),
        "core.rows_fetched_per_row_returned": ratio(
            count("Validator.validate_row"), traced.rows_returned
        ),
        "core.overhead_vs_reference": ratio(
            cpu_ms_per_stmt(plain) * 1e3, reference_us
        ),
        "prompts.build_us_per_call": ratio(total_us("build_*"), count("build_*")),
        "prompts.parse_us_per_call": ratio(
            total_us("parse_*"), count("parse_*")
        ),
        "relational.local_us_per_stmt": ratio(
            total_us("ReferenceExecutor.execute"), statements
        ),
        "relational.reference_us_per_stmt": reference_us,
        "storage.normalize_us_per_stmt": ratio(
            total_us("canonical_sql_key"), statements
        ),
        "storage.tier_self_us_per_stmt": ratio(self_us("StorageTier.*"), statements),
        "storage.backend_get_us_per_op": ratio(
            total_us("SqliteBackend.get") + total_us("SqliteBackend.peek"),
            count("SqliteBackend.get") + count("SqliteBackend.peek"),
        ),
        "storage.backend_gets_per_stmt": ratio(
            count("SqliteBackend.get") + count("SqliteBackend.peek"), statements
        ),
        "storage.backend_put_us_per_op": ratio(
            total_us("SqliteBackend.put"), count("SqliteBackend.put")
        ),
        "storage.backend_puts_per_stmt": ratio(
            count("SqliteBackend.put"), statements
        ),
        "storage.result_hit_ratio": ratio(
            traced.result_hits, traced.result_hits + traced.result_misses
        ),
        "storage.fragment_hit_ratio": ratio(
            traced.fragment_hits, traced.fragment_hits + traced.fragment_misses
        ),
        "storage.file_bytes_per_payload_byte": ratio(
            traced.file_bytes, traced.payload_bytes
        ),
        "storage.open_close_ms_per_engine": ratio(
            (sum(plain.iter_s) - sum(plain.op_ms) / 1e3) * 1e3, plain.engines
        ),
        "runtime.dispatch_self_us_per_call": ratio(
            self_us("Dispatcher.*"), count("Dispatcher.submit")
        ),
        "runtime.scheduler_self_us_per_stmt": ratio(
            self_us("QueryScheduler.execute"), statements
        ),
        "runtime.in_flight_mean": ratio(busy_s, op_s),
        "runtime.peak_in_flight": max([m.peak_in_flight for m in models] + [0]),
        "runtime.raw_calls_per_metered_call": ratio(raw_calls, traced.calls),
        "runtime.real_speedup_vs_serial": 0.0,
        "runtime.sim_speedup_vs_serial": 0.0,
        "runtime.dedup_hits_per_batch": ratio(traced.dedup_hits, len(traced.iter_s)),
        # Host time inside the model that is not the configured latency:
        # ~0 on replay (else the tape is broken), ~all of it when live.
        "llm.model_busy_share": ratio(busy_s - slept_s + simulated_s, op_s),
        "llm.simulated_us_per_call": ratio(
            simulated_s * 1e6, totals["SimulatedLLM.complete"].count
        ),
        "llm.cache_hit_ratio": ratio(traced.cache_hits, traced.cache_requests),
        "llm.accounting_self_us_per_call": ratio(
            self_us("MeteredModel.complete") + self_us("CachingModel.complete"),
            count("MeteredModel.complete"),
        ),
        "llm.replay_misses": sum(m.misses for m in models),
        "stats.flush_us_per_stmt": ratio(
            total_us("StatisticsCatalog.flush"), statements
        ),
        "stats.record_us_per_call": ratio(
            total_us("StatisticsCatalog.record_call"),
            count("StatisticsCatalog.record_call"),
        ),
        "eval.oracle_us_per_stmt": ratio(
            total_us("MaterializedEngine.execute"), statements
        ),
        "eval.score_us_per_stmt": ratio(scoring_us, statements),
        "baselines.direct_us_per_stmt": ratio(
            total_us("DirectPromptEngine.execute"),
            count("DirectPromptEngine.execute"),
        ),
        "baselines.direct_f1": 0.0,
        "obs.trace_overhead_ratio": ratio(stmt_per_s(plain), stmt_per_s(traced)),
        "obs.span_coverage": 1.0 - ratio(totals[OP].self_s, totals[OP].total_s),
    }
