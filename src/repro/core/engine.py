"""The public engine API.

Typical use::

    from repro import LLMStorageEngine, EngineConfig
    from repro.llm import SimulatedLLM, World

    engine = LLMStorageEngine(model)
    engine.register_virtual_table(countries_schema, row_estimate=195)
    result = engine.execute(
        "SELECT name, population FROM countries "
        "WHERE continent = 'Europe' ORDER BY population DESC LIMIT 5"
    )
    print(result.render())
    print(engine.explain("SELECT COUNT(*) FROM countries"))

No rows are ever stored: every query is compiled into retrieval prompts
answered by the model plus local relational compute over the answers.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.relational.table import Table

from repro.config import EngineConfig
from repro.core.executor import PlanExecutor
from repro.core.operators import ModelClient
from repro.core.results import QueryResult
from repro.core.session import EngineSession
from repro.core.validation import Validator
from repro.core.virtual import ColumnConstraint, VirtualTable
from repro.llm.accounting import Budget, PriceModel, UsageMeter, UsageSnapshot
from repro.llm.cache import resolve_model_name
from repro.llm.interface import LanguageModel
from repro.plan.cost import TableStats
from repro.plan.explain import explain_plan
from repro.plan.optimizer import Optimizer
from repro.relational.catalog import Catalog
from repro.relational.schema import TableSchema
from repro.runtime.scheduler import (
    CancellationToken,
    QueryOutcome,
    QueryScheduler,
)
from repro.sql import ast
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.sql.printer import print_statement
from repro.storage.normalize import canonical_sql_key
from repro.storage.tier import StorageTier


class LLMStorageEngine:
    """SQL over virtual tables stored in a language model."""

    name = "decomposed"

    def __init__(
        self,
        model: LanguageModel,
        config: EngineConfig = EngineConfig(),
        price_model: PriceModel = PriceModel(),
        budget: Optional[Budget] = None,
        storage: Optional[StorageTier] = None,
    ):
        self._session = EngineSession(
            model=model,
            config=config,
            price_model=price_model,
            budget=budget,
            storage=storage,
        )
        self._config = config
        self._catalog = Catalog()
        self._virtuals: Dict[str, VirtualTable] = {}
        self._materialized: Dict[str, "Table"] = {}
        self._catalog_scope = ""
        # Tables already warned about for DEFAULT_ROW_COUNT pricing —
        # the warning fires once per table per engine, not per query.
        self._warned_default_guess: set = set()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_virtual_table(
        self,
        schema: TableSchema,
        row_estimate: Optional[int] = None,
        constraints: Optional[Dict[str, ColumnConstraint]] = None,
    ) -> None:
        """Declare a virtual table: schema + optional stats/constraints."""
        virtual = VirtualTable.build(
            schema, row_estimate=row_estimate, constraints=constraints
        )
        self._catalog.register_virtual(schema)
        self._virtuals[schema.name.lower()] = virtual
        # A registration changes what queries can mean: the catalog
        # fingerprint moves, invalidating every stored fragment/result
        # of the old catalog — without wiping a shared persistent store
        # (a restarted process re-registering the same catalog lands on
        # the same fingerprint and reuses it).
        self._refresh_catalog_scope()

    def register_materialized_table(self, table) -> None:
        """Register a locally-stored table for hybrid queries.

        Materialized tables cost zero model calls and can drive
        lookup-joins into virtual tables (e.g. join your CSV of customer
        countries against the model-stored ``countries``).
        """
        self._catalog.register_table(table)
        self._materialized[table.schema.name.lower()] = table
        self._refresh_catalog_scope()

    def register_world_schemas(self, world, use_true_counts: bool = True) -> None:
        """Register every table of a world as virtual.

        A convenience for experiments: the engine receives the schemas
        (and, as a practitioner would, rough row-count estimates) but no
        data — all rows still come from the model.
        """
        for schema in world.schemas():
            estimate = world.row_count(schema.name) if use_true_counts else None
            self.register_virtual_table(schema, row_estimate=estimate)

    def _refresh_catalog_scope(self) -> None:
        """Recompute the catalog fingerprint keying stored entries.

        A stable digest of everything registered — virtual schemas
        (columns, keys, descriptions, constraints, row estimates) and
        materialized tables including their rows.  Storage keys carry
        it, so entries materialized under one catalog are invisible
        under any other, while two processes (or a restart) registering
        identical catalogs share entries byte-for-byte.  Deliberately
        built from sorted primitives, never ``repr`` of sets, so the
        digest is identical across processes regardless of hash
        randomization.
        """

        def describe_schema(schema: TableSchema) -> tuple:
            return (
                schema.name.lower(),
                tuple(
                    (c.name, c.dtype.value, c.nullable, c.description)
                    for c in schema.columns
                ),
                schema.primary_key,
                schema.description,
            )

        parts: list = []
        for name in sorted(self._virtuals):
            virtual = self._virtuals[name]
            constraints = []
            for column in sorted(virtual.constraints):
                constraint = virtual.constraints[column]
                allowed = (
                    tuple(sorted(map(repr, constraint.allowed_values)))
                    if constraint.allowed_values is not None
                    else None
                )
                constraints.append(
                    (
                        column.lower(),
                        constraint.min_value,
                        constraint.max_value,
                        allowed,
                        constraint.max_length,
                    )
                )
            parts.append(
                (
                    "virtual",
                    describe_schema(virtual.schema),
                    virtual.stats.row_count,
                    tuple(constraints),
                )
            )
        for name in sorted(self._materialized):
            table = self._materialized[name]
            parts.append(
                (
                    "table",
                    describe_schema(table.schema),
                    tuple(tuple(row) for row in table.rows),
                )
            )
        digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
        self._catalog_scope = digest[:16]
        # Re-anchor the statistics catalog: stats are keyed by catalog
        # fingerprint (a changed registration means different tables /
        # estimates, so old observations must not leak in), under a
        # leading "stats" component that keeps them outside the
        # generation-stamped cache namespace — cache invalidation drops
        # answers, not what was learned about the data.
        scope = self._session.storage.scope
        self._session.stats_catalog.set_scope(
            (
                "stats",
                scope.level,
                scope.tenant,
                resolve_model_name(self._session.model),
                self._catalog_scope,
            )
        )

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def catalog_scope(self) -> str:
        """Fingerprint of the registered catalog, as used in storage keys."""
        return self._catalog_scope

    @property
    def config(self) -> EngineConfig:
        return self._config

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, sql: Union[str, ast.Statement]) -> QueryResult:
        """Execute a query; returns rows plus per-query usage."""
        return self._execute_statement(sql, self._session.query_meter())

    def execute_many(
        self,
        statements: Sequence[Union[str, ast.Statement]],
        jobs: Optional[int] = None,
        priorities: Optional[Sequence[int]] = None,
        timeout_s: Optional[Union[float, Sequence[Optional[float]]]] = None,
        collect_outcomes: bool = False,
    ) -> Union[List[QueryResult], List[QueryOutcome]]:
        """Serve many statements concurrently against this one session.

        Up to ``jobs`` statements (default
        :attr:`~repro.config.EngineConfig.serve_jobs`) run at once,
        admitted FIFO (``priorities`` reorders admission, higher first).
        All queries share the session's single ``max_in_flight``
        dispatcher budget, prompt cache, storage tier, and cross-query
        single-flight registry — overlapping queries pay for each
        identical scan page / lookup batch once.  Results are
        byte-identical to executing the statements serially, in input
        order; each :class:`QueryResult` carries *its own* attributed
        usage (the per-query meters sum to the session meter exactly,
        except wall-clock: the session clock advances by the batch's
        elapsed critical path, not the sum of overlapped per-query
        walls).

        ``timeout_s`` (scalar or per-statement) cancels a query at its
        next model call once exceeded; the rest of the batch is
        unaffected.  Failures raise the first error in input order
        after the batch settles, unless ``collect_outcomes=True``, in
        which case per-query :class:`~repro.runtime.scheduler.\
QueryOutcome` objects are returned instead.
        """
        statements = list(statements)
        if jobs is None:
            jobs = self._config.serve_jobs
        scheduler = QueryScheduler(
            run_query=self._execute_statement,
            session_meter=self._session.meter,
            jobs=jobs,
            # With continuous batching the shared slot pool, not the
            # per-query dispatcher budget, bounds simultaneous model
            # calls — the batch makespan prices against it.
            max_in_flight=self._session.serving_slots,
            registry=(
                self._session.obs.registry
                if self._session.obs.enabled
                else None
            ),
        )
        outcomes = scheduler.execute(
            statements, priorities=priorities, timeout_s=timeout_s
        )
        if collect_outcomes:
            return outcomes
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
        return [outcome.result for outcome in outcomes]

    def _execute_statement(
        self,
        sql: Union[str, ast.Statement],
        meter: UsageMeter,
        cancel: Optional[CancellationToken] = None,
        tracer=None,
        use_result_cache: bool = True,
        analyze_sink: Optional[dict] = None,
    ) -> QueryResult:
        """One statement through parse → bind → plan → execute.

        ``meter`` is the query's own child meter (usage rolls up into
        the session); ``cancel`` is checked before every model call.
        ``tracer`` overrides the session's tracer (EXPLAIN ANALYZE
        forces a real one even when tracing is off);
        ``use_result_cache=False`` bypasses the result-cache *read*
        only — the computed result is still written back;
        ``analyze_sink`` receives the physical plan under ``"plan"``.
        """
        sql_text = sql if isinstance(sql, str) else print_statement(sql)
        obs = self._session.obs
        if tracer is None:
            tracer = obs.query_tracer(sql_text)
        # The statement's write-back window: one commit when it closes,
        # on success, error, timeout and cancellation alike.
        with tracer.span("query"), self._session.storage.window():
            result = self._run_statement(
                sql, sql_text, meter, cancel, tracer,
                use_result_cache, analyze_sink,
            )
        if tracer.enabled and tracer.trace is not None:
            result.trace = tracer.trace
            if obs.enabled:
                obs.record_query(sql_text, result.usage, tracer.trace)
        return result

    def _run_statement(
        self,
        sql: Union[str, ast.Statement],
        sql_text: str,
        meter: UsageMeter,
        cancel: Optional[CancellationToken],
        tracer,
        use_result_cache: bool,
        analyze_sink: Optional[dict],
    ) -> QueryResult:
        with tracer.span("parse"):
            statement = parse(sql) if isinstance(sql, str) else sql

        with tracer.span("bind"):
            bound = Binder(self._catalog).bind(statement)

        storage = self._session.storage
        result_key = None
        if storage.result_cache_active(self._config):
            result_key = StorageTier.result_key(
                resolve_model_name(self._session.model),
                self._config,
                canonical_sql_key(bound.query),
                catalog=self._catalog_scope,
            )
        if result_key is not None and use_result_cache:
            with tracer.span("storage", kind="result") as probe:
                cached = storage.get_result(result_key)
                probe.set_tag(
                    "outcome", "hit" if cached is not None else "miss"
                )
            if cached is not None:
                from repro.relational.table import Table

                meter.record_result_cache_hit(calls_saved=cached.calls)
                return QueryResult(
                    # Rows were validated when stored; skip re-validation
                    # on the hot path whose purpose is cheap repeats.
                    table=Table.from_validated(cached.schema, cached.rows),
                    usage=UsageSnapshot(
                        result_cache_hits=1, calls_saved=cached.calls
                    ),
                    explain_text=cached.explain_text,
                    warnings=list(cached.warnings),
                    sql=sql_text,
                    engine_name=self.name,
                )

        with tracer.span("optimize"):
            optimizer = self._optimizer()
            plan = optimizer.plan(bound)
        if analyze_sink is not None:
            analyze_sink["plan"] = plan
        stats_warnings = []
        for table in sorted(
            optimizer.default_guess_tables - self._warned_default_guess
        ):
            self._warned_default_guess.add(table)
            stats_warnings.append(
                f"stats[default-guess]: table {table!r} priced off the "
                f"default row-count guess; register a row_estimate or "
                f"run with --adaptive to learn the real cardinality"
            )

        validator = Validator(enabled=self._config.enable_validation)
        # Under continuous batching the shared slot pool is the
        # admission control: the FlightBudget semaphore would cap
        # coalesced waves at max_in_flight, so it stays out of the
        # stack and the batcher's slots bound raw calls instead.
        batcher = self._session.batcher
        client = ModelClient(
            model=self._session.model,
            meter=meter,
            config=self._config,
            cache=self._session.cache,
            validator=validator,
            storage=storage,
            dedup=self._session.dedup,
            flight_budget=(
                None if batcher is not None else self._session.flight_budget
            ),
            batcher=batcher,
            cancel=cancel,
            catalog_scope=self._catalog_scope,
            tracer=tracer,
            registry=(
                self._session.obs.registry
                if self._session.obs.enabled
                else None
            ),
            stats_catalog=self._session.stats_catalog,
        )
        # Rebind the trace clock to the query's simulated wall: span
        # timestamps become model milliseconds, deterministic at any
        # max_in_flight (setup spans before this read as time 0).
        tracer.set_clock(client.ledger.now)
        executor = PlanExecutor(client, self._virtuals, self._materialized)

        try:
            with tracer.span("execute"):
                table = executor.execute(plan)
        finally:
            client.close()
            self._session.stats_catalog.flush()
        # The child meter *is* the attribution: no session-level
        # snapshot differencing, which misattributes when queries
        # interleave on one session.
        usage = meter.snapshot()

        warnings = stats_warnings + list(client.warnings)
        if validator.report.nulled_cells:
            warnings.append(
                f"validation nulled {validator.report.nulled_cells} cell(s)"
            )
            warnings.extend(validator.report.notes[:3])
        explain_text = explain_plan(plan)
        if result_key is not None:
            storage.put_result(
                result_key,
                schema=table.schema,
                rows=table.rows,
                explain_text=explain_text,
                warnings=warnings,
                calls=usage.calls,
            )
        return QueryResult(
            table=table,
            usage=usage,
            explain_text=explain_text,
            warnings=warnings,
            sql=sql_text,
            engine_name=self.name,
        )

    def explain(
        self, sql: Union[str, ast.Statement], analyze: bool = False
    ) -> str:
        """Plan a query; with ``analyze=True``, execute it and render
        estimated vs actual rows/pages/calls/wall per plan step.

        The analyze path always runs the plan (the result-cache read is
        bypassed so there are real spans to report; the computed result
        is still written back) under a query-local tracer, so it works
        whether or not session tracing is enabled.
        """
        if not analyze:
            statement = parse(sql) if isinstance(sql, str) else sql
            bound = Binder(self._catalog).bind(statement)
            return explain_plan(self._optimizer().plan(bound))

        from repro.obs.analyze import explain_analyze
        from repro.obs.trace import QueryTrace, QueryTracer

        sql_text = sql if isinstance(sql, str) else print_statement(sql)
        tracer = QueryTracer(QueryTrace(statement=sql_text))
        sink: dict = {}
        result = self._execute_statement(
            sql,
            self._session.query_meter(),
            tracer=tracer,
            use_result_cache=False,
            analyze_sink=sink,
        )
        return explain_analyze(sink["plan"], tracer.trace, result.usage)

    def plan(self, sql: Union[str, ast.Statement]):
        """The raw plan object (used by the cost-model experiments)."""
        statement = parse(sql) if isinstance(sql, str) else sql
        bound = Binder(self._catalog).bind(statement)
        return self._optimizer().plan(bound)

    def _optimizer(self) -> Optimizer:
        from repro.plan.cost import TableStats

        stats = {
            name: virtual.stats for name, virtual in self._virtuals.items()
        }
        for name, table in self._materialized.items():
            stats[name] = TableStats(row_count=len(table))
        storage = self._session.storage
        return Optimizer(
            self._catalog,
            stats,
            self._config,
            storage=storage if storage.materialize_active(self._config) else None,
            storage_scope=StorageTier.fragment_scope(
                resolve_model_name(self._session.model),
                self._config,
                self._catalog_scope,
            ),
            # Consultation is gated on enable_adaptive; recording is
            # not — a static session still learns (``.stats``) but its
            # plans never move.
            stats_catalog=(
                self._session.stats_catalog
                if self._config.enable_adaptive
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def usage(self) -> UsageSnapshot:
        """Cumulative usage across all queries of this engine."""
        return self._session.usage()

    @property
    def transport_description(self) -> str:
        """One line naming the active model transport and batching mode."""
        return self._session.describe_transport()

    def close(self) -> None:
        """Release the continuous-batching pool and flush storage.

        Idempotent.  A closed pool rejects further raw model calls;
        the storage tier stays readable (``usage``, ``storage_stats``,
        ``storage.bytes_used``).
        """
        self._session.close()

    @property
    def observability(self):
        """The session's tracing/metrics hub (inactive by default)."""
        return self._session.obs

    def metrics_report(self) -> str:
        """Human-readable metrics + slow-query report (``.metrics``)."""
        return self._session.obs.render_report()

    @property
    def stats_catalog(self):
        """The session's online statistics catalog (always recording)."""
        return self._session.stats_catalog

    def stats_report(self) -> str:
        """Human-readable observed statistics (``.stats`` REPL command)."""
        return self._session.stats_catalog.describe()

    def prometheus_metrics(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        return self._session.obs.registry.to_prometheus()

    def export_trace(self, path) -> int:
        """Write buffered query traces as JSON lines; returns the span
        count written (0 when tracing is disabled)."""
        from repro.obs.export import write_trace_jsonl

        return write_trace_jsonl(path, self._session.obs.traces)

    def reset_usage(self) -> None:
        self._session.reset_usage()

    def clear_cache(self) -> None:
        """Drop the prompt cache and every materialized fragment/result."""
        self._session.clear_cache()

    @property
    def cache_stats(self):
        return self._session.cache.stats

    @property
    def storage(self) -> StorageTier:
        """The session's materialization tier (mode ``off`` when unused)."""
        return self._session.storage

    @property
    def storage_stats(self):
        return self._session.storage.snapshot()
