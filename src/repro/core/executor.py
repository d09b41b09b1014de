"""Executes retrieval plans: model retrieval, then local compute.

For a :class:`~repro.plan.physical.RetrievalPlan` the executor

1. resolves uncorrelated subqueries by running their nested plans and
   splicing the results into the statement (IN-lists / scalars),
2. runs the retrieval steps in order, materializing one local table per
   FROM binding (lookup steps draw their keys from tables materialized
   earlier; judge steps filter them),
3. rewrites the statement's FROM clause to point at the local tables and
   hands the whole statement to the reference executor.

Step 3 is where the decomposition pays off: joins, grouping, arithmetic,
ordering — everything a model is bad at — run in exact local compute;
the model only ever answered small retrieval prompts.

When the engine's ``max_in_flight`` allows it, independent retrieval
steps (e.g. the two sides of a locally-joined pair of scans) run
concurrently: steps are grouped into dependency waves — a lookup waits
for its key source, a judge for its base fetch — and each wave executes
on orchestration threads whose model traffic shares the bounded
dispatcher pool.  Wave results are applied to the binding map in
original step order, so materialization, statement rewriting, and
therefore query results are byte-identical to sequential execution.

Single-step plans carrying a ``stop_after_rows`` quota skip the
materialize-everything path entirely: the step is consumed as a
:class:`~repro.core.streams.RowStream` and closed as soon as exact
local compute over the fetched prefix yields the quota of output rows
(LIMIT over a residual local filter, EXISTS probes).  Because eligible
statements are prefix-stable, the streamed result is byte-identical to
the materialized one — fewer pages are fetched, nothing else changes.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from repro.core.operators import ModelClient, build_local_table, normalize_key
from repro.core.streams import RowQuota, take_until
from repro.errors import ExecutionError, PlanError
from repro.plan.physical import (
    DerivedStep,
    JudgeStep,
    LocalStep,
    LookupStep,
    PlanNode,
    RetrievalPlan,
    ScanStep,
    SetOpPlan,
    ShardSpec,
    ShardedScanStep,
)
from repro.core.virtual import VirtualTable
from repro.relational.catalog import Catalog
from repro.relational.executor import ReferenceExecutor, _dedupe, _row_marker
from repro.relational.table import Table
from repro.runtime.parallel import run_parallel
from repro.sql import ast


class PlanExecutor:
    """Runs plans produced by :class:`~repro.plan.optimizer.Optimizer`."""

    def __init__(
        self,
        client: ModelClient,
        virtual_tables: Dict[str, VirtualTable],
        materialized_tables: Optional[Dict[str, Table]] = None,
    ):
        self._client = client
        self._virtuals = {name.lower(): vt for name, vt in virtual_tables.items()}
        self._materialized = {
            name.lower(): table
            for name, table in (materialized_tables or {}).items()
        }
        # itertools.count is atomic under the GIL; derived steps may
        # request temp names from concurrent orchestration threads.
        self._temp_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, plan: PlanNode) -> Table:
        if isinstance(plan, SetOpPlan):
            return self._execute_set_operation(plan)
        return self._execute_retrieval(plan)

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------

    def _execute_set_operation(self, plan: SetOpPlan) -> Table:
        tracer = self._client.tracer
        with tracer.span("branch", side="left"):
            left = self.execute(plan.left)
        with tracer.span("branch", side="right"):
            right = self.execute(plan.right)
        if len(left.schema.columns) != len(right.schema.columns):
            raise ExecutionError(
                f"{plan.op.upper()} sides returned different column counts"
            )
        if plan.op == "union":
            rows = list(left.rows) + list(right.rows)
            if not plan.all:
                rows = _dedupe(rows)
        elif plan.op == "intersect":
            markers = {_row_marker(row) for row in right.rows}
            rows = _dedupe([row for row in left.rows if _row_marker(row) in markers])
        elif plan.op == "except":
            markers = {_row_marker(row) for row in right.rows}
            rows = _dedupe(
                [row for row in left.rows if _row_marker(row) not in markers]
            )
        else:
            raise ExecutionError(f"unknown set operation {plan.op!r}")

        combined = Table(left.schema, rows)
        if not plan.order_by and plan.limit is None and plan.offset is None:
            return combined
        # Delegate ordering/limiting to the reference executor.
        catalog = Catalog()
        temp_name = self._fresh_name("setop")
        renamed = _rename_table(combined, temp_name)
        catalog.register_table(renamed)
        statement = ast.Query(
            select=[ast.SelectItem(expr=ast.Star())],
            from_clause=ast.NamedTable(name=temp_name),
            order_by=list(plan.order_by),
            limit=plan.limit,
            offset=plan.offset,
        )
        return ReferenceExecutor(catalog).execute(statement)

    # ------------------------------------------------------------------
    # Single queries
    # ------------------------------------------------------------------

    def _execute_retrieval(self, plan: RetrievalPlan) -> Table:
        tracer = self._client.tracer
        statement = plan.statement
        if plan.subplans:
            replacements: Dict[int, ast.Expr] = {}
            for subplan in plan.subplans:
                with tracer.span("subquery"):
                    replacements[id(subplan.node)] = self._resolve_subquery(
                        subplan
                    )
            statement = _rewrite_statement_exprs(statement, replacements)

        streamed = self._streamed_result(plan, statement)
        if streamed is not None:
            return streamed

        catalog = Catalog()
        temp_names: Dict[str, str] = {}
        local_tables: Dict[str, Table] = {}
        step_index = {id(step): i for i, step in enumerate(plan.steps)}

        if self._client.max_in_flight > 1 and len(plan.steps) > 1:
            # Orchestration threads have no ambient span stack; capture
            # the current parent and re-bind it per thunk so step spans
            # land under the right node regardless of thread timing.
            parent = tracer.current_parent()
            for wave in _step_waves(plan.steps):
                thunks = [
                    (lambda s=step: self._run_step_scoped(
                        s, local_tables, step_index[id(s)], parent
                    ))
                    for step in wave
                ]
                outcomes = run_parallel(self._client.ledger, thunks)
                for step, (table, warnings) in zip(wave, outcomes):
                    # Re-emit in step order so QueryResult.warnings never
                    # depends on thread timing.
                    self._client.emit_warnings(warnings)
                    local_tables[step.binding.lower()] = table
        else:
            for step in plan.steps:
                with tracer.span(
                    "step", **_step_tags(step, step_index[id(step)])
                ) as span:
                    table = self._table_for_step(step, local_tables)
                    span.set_tag("rows", len(table))
                    self._annotate_selectivity(span, step, table)
                local_tables[step.binding.lower()] = table

        # Register in first-write step order so temp numbering (and the
        # rewritten statement) is identical across concurrency levels.
        ordered: Dict[str, Table] = {}
        for step in plan.steps:
            binding = step.binding.lower()
            if binding not in ordered:
                ordered[binding] = local_tables[binding]
        for binding, table in ordered.items():
            temp_name = self._fresh_name(binding)
            temp_names[binding] = temp_name
            catalog.register_table(_rename_table(table, temp_name))

        rewritten = _rewrite_from_clause(statement, temp_names)
        return ReferenceExecutor(catalog).execute(rewritten)

    # ------------------------------------------------------------------
    # Streaming early exit
    # ------------------------------------------------------------------

    def _streamed_result(
        self, plan: RetrievalPlan, statement: ast.Query
    ) -> Optional[Table]:
        """Consume a quota-annotated single-step plan as a row stream.

        The optimizer marks eligible steps with ``stop_after_rows``
        (LIMIT whose filter must run locally, EXISTS probes).  Pages
        are pulled until exact local compute over the fetched prefix
        already yields the quota of output rows; the final statement
        then runs over that prefix exactly as the materialized path
        would run it over the full fetch.  Eligible statements are
        prefix-stable (no aggregation/grouping/ordering), so the
        result is byte-identical — only pages fetched changes.
        """
        if len(plan.steps) != 1:
            return None
        step = plan.steps[0]
        quota_rows = getattr(step, "stop_after_rows", None)
        if quota_rows is None:
            return None
        if not (
            isinstance(step, ScanStep)
            or (isinstance(step, LookupStep) and step.literal_keys is not None)
        ):
            return None
        # One step span covers open-through-drain, so the storage probe
        # and every fetched page land under it in the trace.
        with self._client.tracer.span(
            "step", streamed=True, **_step_tags(step, 0)
        ) as step_span:
            return self._consume_streamed(plan, statement, step, step_span)

    def _consume_streamed(
        self, plan: RetrievalPlan, statement: ast.Query, step, step_span
    ) -> Table:
        quota_rows = step.stop_after_rows
        if isinstance(step, ScanStep):
            columns = tuple(step.columns)
            stream = self._client.open_scan_stream(
                step, self._virtual_for(step.table_name)
            )
        else:
            columns = tuple(step.key_columns) + tuple(step.attributes)
            stream = self._client.open_lookup_stream(
                step,
                self._keys_from_source(step, {}),
                self._virtual_for(step.table_name),
            )

        binding = step.binding.lower()
        probe_statement = _rewrite_from_clause(
            ast.Query(
                select=statement.select,
                from_clause=statement.from_clause,
                where=statement.where,
                group_by=[],
                having=None,
                order_by=[],
                limit=None,
                offset=None,
                distinct=statement.distinct,
            ),
            {binding: "__stream_probe"},
        )

        def probe_count(rows: List[List]) -> int:
            table = build_local_table(binding, step.schema, columns, rows)
            catalog = Catalog()
            catalog.register_table(_rename_table(table, "__stream_probe"))
            return len(ReferenceExecutor(catalog).execute(probe_statement))

        if statement.distinct:
            # DISTINCT dedupes on raw output rows the probe cannot see
            # page-by-page (per-page type inference could miscount), so
            # it re-probes the whole prefix — exact, monotone, and
            # bounded by the quota's early exit in the common case.
            output_count = probe_count
        else:
            # Prefix-stability makes the count a per-row sum: evaluate
            # only each *new* page instead of the whole prefix, keeping
            # local probe work linear in rows fetched.
            state = {"count": 0, "consumed": 0}

            def output_count(rows: List[List]) -> int:
                new_rows = rows[state["consumed"] :]
                state["consumed"] = len(rows)
                if new_rows:
                    state["count"] += probe_count(new_rows)
                return state["count"]

        config = self._client.config
        if (
            isinstance(step, ScanStep)
            and config.enable_adaptive
            and step.order is None
            and not step.fragment_covered
        ):
            rows = self._take_adaptive(
                step, stream, quota_rows, output_count, step_span
            )
        else:
            rows = take_until(stream, RowQuota(quota_rows, output_count))
        step_span.set_tag("rows", len(rows))
        table = build_local_table(binding, step.schema, columns, rows)
        catalog = Catalog()
        temp_name = self._fresh_name(binding)
        catalog.register_table(_rename_table(table, temp_name))
        rewritten = _rewrite_from_clause(statement, {binding: temp_name})
        return ReferenceExecutor(catalog).execute(rewritten)

    def _take_adaptive(
        self,
        step: ScanStep,
        stream,
        quota_rows: int,
        output_count,
        step_span,
    ) -> List[List]:
        """Streamed consumption with mid-query re-planning.

        Phase 1 consumes the scan serially exactly like the static
        path, but watches the observed residual selectivity (output
        rows per fetched row).  If, after at least two pages, the
        estimate exceeds observation by ``replan_threshold``, the
        stream is closed (the prefix persists as a resumable fragment)
        and the *remaining* work is re-planned: phase 2 fans the
        continuation of the enumeration cursor out as page-aligned
        bounded shards sized from the selectivity actually observed.
        Shard prompts are byte-identical to the serial continuation's,
        and the already-fetched prefix is kept, so the final rows are
        byte-identical to the static plan — only wall-clock (and, when
        the estimate overshot the other way, page count) changes.
        """
        client = self._client
        config = client.config
        page_size = max(1, config.page_size)
        threshold = config.replan_threshold
        est_sel = max(step.est_residual_sel, 1e-6)

        rows: List[List] = []
        produced = 0
        # Snapshot before close(): closing marks the stream finished, so
        # ``stream.exhausted`` afterwards can no longer distinguish "the
        # enumeration ended" from "we stopped consuming".
        exhausted = False
        try:
            for page in stream:
                rows.extend(page)
                produced = output_count(rows)
                if produced >= quota_rows:
                    break
                consumed = len(rows)
                if (
                    stream.pages_yielded >= 2
                    and consumed % page_size == 0
                    and not stream.exhausted
                ):
                    actual = max(float(produced), 0.5) / consumed
                    if est_sel / actual >= threshold:
                        break  # diverged: re-plan the remaining work
            exhausted = stream.exhausted
        finally:
            stream.close()

        virtual = self._virtual_for(step.table_name)
        cursor = len(rows)
        rounds = 0
        total_shards = 0
        while produced < quota_rows and not exhausted and rounds < 16:
            need = quota_rows - produced
            act_sel = max(float(produced), 0.5) / max(cursor, 1)
            est_in = max(page_size, math.ceil(need / act_sel))
            pages_more = -(-est_in // page_size)
            shard_count = max(1, min(client.max_in_flight, pages_more))
            per_shard_rows = -(-pages_more // shard_count) * page_size
            shards = [
                ShardSpec(
                    index=i,
                    start=cursor + i * per_shard_rows,
                    row_target=per_shard_rows,
                )
                for i in range(shard_count)
            ]
            outcomes = client.run_replan_shards(step, shards, virtual)
            rounds += 1
            total_shards += shard_count
            new_rows = [row for outcome in outcomes for row in outcome.rows]
            rows.extend(new_rows)
            cursor += len(new_rows)
            produced = output_count(rows)
            if any(len(o.rows) < per_shard_rows for o in outcomes):
                exhausted = True  # the enumeration ended inside a shard
            if any(not o.storable for o in outcomes):
                break  # truncation/guard: degrade to what we have

        if rounds > 0:
            client.store_replan_fragment(
                step, rows, -(-len(rows) // page_size), complete=exhausted
            )
            step_span.set_tag(
                "replanned", f"{rounds} round(s), {total_shards} shard(s)"
            )
        step_span.set_tag("sel_est", round(step.est_residual_sel, 4))
        if rows:
            step_span.set_tag("sel_act", round(produced / len(rows), 4))
        catalog = client.stats_catalog
        if catalog is not None and step.residual_fingerprint is not None and rows:
            catalog.record_selectivity(
                step.table_name, step.residual_fingerprint, len(rows), produced
            )
        return rows

    # ------------------------------------------------------------------
    # Step helpers
    # ------------------------------------------------------------------

    def _run_step_scoped(
        self,
        step,
        local_tables: Dict[str, Table],
        step_index: int = 0,
        trace_parent: Optional[int] = None,
    ):
        """One step on an orchestration thread, with warnings captured."""
        tracer = self._client.tracer
        with tracer.bind(trace_parent):
            with tracer.span("step", **_step_tags(step, step_index)) as span:
                with self._client.warning_scope() as captured:
                    table = self._table_for_step(step, local_tables)
                span.set_tag("rows", len(table))
                self._annotate_selectivity(span, step, table)
        return table, captured

    def _annotate_selectivity(self, span, step, table: Table) -> None:
        """Tag a scan step span with estimated vs observed selectivity.

        The observed fraction is the step's output rows over the
        table's cardinality as the statistics catalog knows it — only
        available once a full enumeration has taught the catalog the
        denominator, so EXPLAIN ANALYZE shows ``act=?`` until then.
        """
        scan = step.scan if isinstance(step, ShardedScanStep) else step
        if not isinstance(scan, ScanStep):
            return
        span.set_tag("sel_est", round(scan.est_selectivity, 4))
        catalog = self._client.stats_catalog
        if catalog is not None:
            known = catalog.observed_rows(scan.table_name)
            if known:
                span.set_tag("sel_act", round(len(table) / known, 4))

    def _table_for_step(self, step, local_tables: Dict[str, Table]) -> Table:
        """Materialize one step against the current binding map.

        Pure with respect to ``local_tables`` (reads only): judge steps
        return the filtered replacement table instead of mutating, so
        steps of one dependency wave can run concurrently.
        """
        if isinstance(step, ScanStep):
            return self._client.run_scan(step, self._virtual_for(step.table_name))
        if isinstance(step, ShardedScanStep):
            return self._client.run_sharded_scan(
                step, self._virtual_for(step.table_name)
            )
        if isinstance(step, LookupStep):
            keys = self._keys_from_source(step, local_tables)
            return self._client.run_lookup(
                step, keys, self._virtual_for(step.table_name)
            )
        if isinstance(step, JudgeStep):
            return self._judged_table(step, local_tables)
        if isinstance(step, DerivedStep):
            return self.execute(step.plan)
        if isinstance(step, LocalStep):
            stored = self._materialized.get(step.table_name.lower())
            if stored is None:
                raise PlanError(
                    f"no materialized table registered as {step.table_name!r}"
                )
            return stored
        # pragma: no cover - exhaustive over step kinds
        raise PlanError(f"unknown step kind {type(step).__name__}")

    def _virtual_for(self, table_name: str) -> VirtualTable:
        virtual = self._virtuals.get(table_name.lower())
        if virtual is None:
            raise PlanError(f"no virtual table registered as {table_name!r}")
        return virtual

    def _keys_from_source(
        self, step: LookupStep, local_tables: Dict[str, Table]
    ) -> List[Tuple]:
        if step.literal_keys is not None:
            seen = set()
            keys = []
            for key in step.literal_keys:
                marker = normalize_key(tuple(key))
                if marker not in seen:
                    seen.add(marker)
                    keys.append(tuple(key))
            return keys
        source = local_tables.get(step.source_binding.lower())
        if source is None:
            raise PlanError(
                f"lookup step for {step.binding!r} runs before its source "
                f"{step.source_binding!r}"
            )
        indices = [source.schema.column_index(name) for name in step.source_columns]
        seen = set()
        keys: List[Tuple] = []
        for row in source.rows:
            key = tuple(row[i] for i in indices)
            if any(value is None for value in key):
                continue  # NULL never equi-joins
            marker = normalize_key(key)
            if marker in seen:
                continue
            seen.add(marker)
            keys.append(key)
        return keys

    def _judged_table(self, step: JudgeStep, local_tables: Dict[str, Table]) -> Table:
        table = local_tables.get(step.binding.lower())
        if table is None:
            raise PlanError(
                f"judge step for {step.binding!r} runs before its base fetch"
            )
        indices = [table.schema.column_index(name) for name in step.key_columns]
        keys: List[Tuple] = []
        seen = set()
        for row in table.rows:
            key = tuple(row[i] for i in indices)
            marker = normalize_key(key)
            if marker not in seen:
                seen.add(marker)
                keys.append(key)
        verdicts = self._client.run_judge(step, keys)
        kept = [
            row
            for row in table.rows
            if verdicts.get(normalize_key(tuple(row[i] for i in indices))) is True
        ]
        return Table(table.schema, kept)

    def _resolve_subquery(self, subplan) -> ast.Expr:
        result = self.execute(subplan.plan)
        node = subplan.node
        if isinstance(node, ast.InSubquery):
            if len(result.schema.columns) != 1:
                raise ExecutionError("IN subquery must return exactly one column")
            items = [ast.Literal(value=row[0]) for row in result.rows]
            return ast.InList(
                operand=node.operand, items=items, negated=node.negated
            )
        if isinstance(node, ast.Exists):
            found = len(result) > 0
            return ast.Literal(value=(not found) if node.negated else found)
        if isinstance(node, ast.ScalarSubquery):
            if len(result.schema.columns) != 1:
                raise ExecutionError("scalar subquery must return exactly one column")
            if len(result) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            value = result.rows[0][0] if len(result) == 1 else None
            return ast.Literal(value=value)
        raise PlanError(f"unexpected subquery node {type(node).__name__}")

    def _fresh_name(self, hint: str) -> str:
        number = next(self._temp_counter)
        safe_hint = "".join(ch if ch.isalnum() else "_" for ch in hint)
        return f"__v{number}_{safe_hint}"


# ---------------------------------------------------------------------------
# Step scheduling
# ---------------------------------------------------------------------------


def _step_tags(step, index: int) -> Dict[str, object]:
    """Stable trace tags identifying a plan step within its plan."""
    tags: Dict[str, object] = {
        "step": index,
        "step_kind": step.kind,
        "binding": step.binding,
    }
    table_name = getattr(step, "table_name", None)
    if table_name is not None:
        tags["table"] = table_name
    return tags


def _step_waves(steps) -> List[List]:
    """Group steps into dependency waves for concurrent execution.

    A step's wave is one past the latest wave that *writes* a binding it
    reads: a lookup reads its key source, a judge reads (and rewrites)
    its own binding.  Everything else is independent.  Within a wave the
    original step order is preserved, and a wave only starts after the
    previous wave's tables are applied, so a reader always sees exactly
    the tables the sequential executor would have shown it.
    """
    last_writer_wave: Dict[str, int] = {}
    waves: List[List] = []
    for step in steps:
        reads: List[str] = []
        if isinstance(step, LookupStep) and step.literal_keys is None:
            reads.append(step.source_binding.lower())
        if isinstance(step, JudgeStep):
            reads.append(step.binding.lower())
        wave_index = 0
        for binding in reads:
            if binding in last_writer_wave:
                wave_index = max(wave_index, last_writer_wave[binding] + 1)
        while len(waves) <= wave_index:
            waves.append([])
        waves[wave_index].append(step)
        last_writer_wave[step.binding.lower()] = wave_index
    return waves


# ---------------------------------------------------------------------------
# Statement rewriting
# ---------------------------------------------------------------------------


def _rename_table(table: Table, new_name: str) -> Table:
    from repro.relational.schema import TableSchema

    schema = TableSchema(
        name=new_name,
        columns=table.schema.columns,
        primary_key=table.schema.primary_key,
        description=table.schema.description,
    )
    # Same columns tuple, so the rows need no second validation pass.
    return Table.from_validated(schema, table.rows)


def _rewrite_from_clause(
    statement: ast.Query, temp_names: Dict[str, str]
) -> ast.Query:
    def rewrite(ref: Optional[ast.TableRef]) -> Optional[ast.TableRef]:
        if ref is None:
            return None
        if isinstance(ref, ast.NamedTable):
            temp = temp_names.get(ref.binding_name.lower())
            if temp is None:
                raise PlanError(
                    f"no retrieved table for binding {ref.binding_name!r}"
                )
            return ast.NamedTable(name=temp, alias=ref.binding_name)
        if isinstance(ref, ast.SubqueryTable):
            temp = temp_names.get(ref.alias.lower())
            if temp is None:
                raise PlanError(f"no retrieved table for derived {ref.alias!r}")
            return ast.NamedTable(name=temp, alias=ref.alias)
        if isinstance(ref, ast.Join):
            return ast.Join(
                left=rewrite(ref.left),
                right=rewrite(ref.right),
                kind=ref.kind,
                condition=ref.condition,
            )
        raise PlanError(f"cannot rewrite {type(ref).__name__}")

    return ast.Query(
        select=statement.select,
        from_clause=rewrite(statement.from_clause),
        where=statement.where,
        group_by=statement.group_by,
        having=statement.having,
        order_by=statement.order_by,
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )


def _rewrite_statement_exprs(
    statement: ast.Query, replacements: Dict[int, ast.Expr]
) -> ast.Query:
    """Replace subquery nodes (matched by identity) throughout a statement."""

    def rewrite(expr: Optional[ast.Expr]) -> Optional[ast.Expr]:
        if expr is None:
            return None
        if id(expr) in replacements:
            return replacements[id(expr)]
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(op=expr.op, left=rewrite(expr.left), right=rewrite(expr.right))
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(op=expr.op, operand=rewrite(expr.operand))
        if isinstance(expr, ast.FunctionCall):
            return ast.FunctionCall(
                name=expr.name,
                args=[rewrite(arg) for arg in expr.args],
                distinct=expr.distinct,
            )
        if isinstance(expr, ast.Cast):
            return ast.Cast(operand=rewrite(expr.operand), type_name=expr.type_name)
        if isinstance(expr, ast.Between):
            return ast.Between(
                operand=rewrite(expr.operand),
                low=rewrite(expr.low),
                high=rewrite(expr.high),
                negated=expr.negated,
            )
        if isinstance(expr, ast.InList):
            return ast.InList(
                operand=rewrite(expr.operand),
                items=[rewrite(item) for item in expr.items],
                negated=expr.negated,
            )
        if isinstance(expr, ast.InSubquery):
            return ast.InSubquery(
                operand=rewrite(expr.operand), query=expr.query, negated=expr.negated
            )
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(operand=rewrite(expr.operand), negated=expr.negated)
        if isinstance(expr, ast.Like):
            return ast.Like(
                operand=rewrite(expr.operand),
                pattern=rewrite(expr.pattern),
                negated=expr.negated,
            )
        if isinstance(expr, ast.CaseWhen):
            return ast.CaseWhen(
                operand=rewrite(expr.operand) if expr.operand is not None else None,
                branches=[
                    (rewrite(condition), rewrite(result))
                    for condition, result in expr.branches
                ],
                else_result=(
                    rewrite(expr.else_result) if expr.else_result is not None else None
                ),
            )
        return expr

    return ast.Query(
        select=[
            ast.SelectItem(expr=rewrite(item.expr), alias=item.alias)
            for item in statement.select
        ],
        from_clause=statement.from_clause,
        where=rewrite(statement.where),
        group_by=[rewrite(expr) for expr in statement.group_by],
        having=rewrite(statement.having),
        order_by=[
            ast.OrderItem(
                expr=rewrite(item.expr),
                descending=item.descending,
                nulls_last=item.nulls_last,
            )
            for item in statement.order_by
        ],
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )
