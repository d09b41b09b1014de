"""The simulated language model.

``SimulatedLLM`` answers the four prompt protocols (enumerate, lookup,
judge, direct_sql) from an explicit :class:`~repro.llm.world.World`
through the error model in :mod:`repro.llm.noise`.  Crucially, all
information flows as *text*: the model re-parses predicates that the
engine rendered with the SQL printer, renders data rows as cell lines,
and cuts its output when the token budget runs out — so the engine above
the interface exercises exactly the code paths it would with a networked
model.

Belief model
------------

The model's belief about cell ``(table, key, column)`` is derived
deterministically from the seed:

* with probability ``knowledge_gap_rate`` the belief is a confabulated
  value (stable across samples and prompts — voting cannot fix it);
* otherwise, a *sampling error* may corrupt the emission: at temperature
  0 the error is systematic per fact; at temperature > 0 it is i.i.d.
  per ``sample_index`` (voting averages it away);
* whole rows are forgotten with ``row_omission_rate`` and fabricated
  rows appear during enumeration with ``hallucinated_row_rate``.

Primary-key cells are always emitted faithfully for rows the model
knows; identity errors are modeled by omission/hallucination instead, so
that row-level metrics remain well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import LLMProtocolError
from repro.llm import noise as noise_mod
from repro.llm.interface import Completion, CompletionOptions
from repro.llm.noise import NoiseConfig
from repro.llm.tokenizer import count_tokens, truncate_to_tokens
from repro.llm.world import World
from repro.prompts import grammar
from repro.relational.catalog import Catalog
from repro.relational.executor import ReferenceExecutor
from repro.relational.expressions import Evaluator, RowLayout, is_true
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType, Value
from repro.sql import ast
from repro.sql.parser import parse, parse_expression


@dataclass(frozen=True)
class LatencyModel:
    """Synthetic latency: fixed overhead plus per-token streaming cost."""

    base_ms: float = 180.0
    ms_per_token: float = 1.8

    def latency(self, prompt_tokens: int, completion_tokens: int) -> float:
        return self.base_ms + self.ms_per_token * (prompt_tokens + completion_tokens)


class SimulatedLLM:
    """A deterministic, seedable model over an explicit world."""

    def __init__(
        self,
        world: World,
        noise: NoiseConfig = NoiseConfig(),
        seed: int = 0,
        latency_model: LatencyModel = LatencyModel(),
        model_name: str = "",
    ):
        self.world = world
        self.noise = noise
        self.seed = seed
        self.latency_model = latency_model
        # Model identity keys caches (prompt cache, storage tier):
        # different worlds/seeds/noise give different answers, so the
        # default name must distinguish them or a shared cache would
        # serve one configuration's rows as another's.
        self.model_name = model_name or (
            f"simulated-llm/{world.name}@seed{seed}/{noise!r}"
        )

    # ------------------------------------------------------------------
    # LanguageModel interface
    # ------------------------------------------------------------------

    def complete(
        self, prompt: str, options: CompletionOptions = CompletionOptions()
    ) -> Completion:
        prompt_tokens = count_tokens(prompt)
        if noise_mod.should_refuse(
            self.noise.refusal_rate, self.seed, "refusal", prompt, options.sample_index
        ):
            text = noise_mod.REFUSAL_TEXT
        else:
            try:
                fields = grammar.parse_prompt(prompt)
                task = fields.task
                if task == grammar.TASK_ENUMERATE:
                    text = self._answer_enumerate(fields, options)
                elif task == grammar.TASK_LOOKUP:
                    text = self._answer_lookup(fields, options)
                elif task == grammar.TASK_JUDGE:
                    text = self._answer_judge(fields, options)
                elif task == grammar.TASK_DIRECT:
                    text = self._answer_direct(fields, options)
                else:
                    text = f"I do not understand the task {task!r}."
            except LLMProtocolError as exc:
                # A real model would reply with *something*; surfacing the
                # problem as text keeps the channel honest.
                text = f"I could not follow the request: {exc}"
        full_tokens = count_tokens(text)
        truncated = full_tokens > options.max_tokens
        if truncated:
            text = truncate_to_tokens(text, options.max_tokens)
        completion_tokens = min(full_tokens, options.max_tokens)
        return Completion(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            truncated=truncated,
            latency_ms=self.latency_model.latency(prompt_tokens, completion_tokens),
            model_name=self.model_name,
        )

    def complete_many(
        self, requests: Sequence[Tuple[str, CompletionOptions]]
    ) -> List[Completion]:
        """Native batch interface.

        Each request is answered exactly as :meth:`complete` would —
        beliefs are addressed by ``(seed, prompt, sample_index)``, so
        batching can never change an answer or its accounting.  A
        networked backend would amortize per-request overhead here; the
        simulated latency model intentionally does not, so batch and
        sequential execution stay cost-identical for comparisons.
        """
        return [self.complete(prompt, options) for prompt, options in requests]

    # ------------------------------------------------------------------
    # Beliefs
    # ------------------------------------------------------------------

    def _knows_row(self, table: str, key: Tuple[Value, ...]) -> bool:
        return (
            noise_mod.uniform01(self.seed, "omit", table, *key)
            >= self.noise.row_omission_rate
        )

    def _believed_value(
        self,
        table: str,
        key: Tuple[Value, ...],
        column: str,
        options: CompletionOptions,
        *,
        is_key: bool,
        rate_multiplier: float = 1.0,
        mode: str = "",
    ) -> Value:
        true_value = self.world.fact(table, key, column)
        if is_key:
            return true_value
        domain = self.world.column_domain(table, column)
        gap_rate = min(1.0, self.noise.knowledge_gap_rate)
        if noise_mod.uniform01(self.seed, "gap", table, *key, column) < gap_rate:
            return noise_mod.confabulate(
                true_value,
                domain,
                self.noise.numeric_jitter,
                self.seed,
                "gapval",
                table,
                *key,
                column,
            )
        error_rate = min(1.0, self.noise.sampling_error_rate * rate_multiplier)
        if options.temperature <= 0.0:
            address = (self.seed, "syserr", mode, table, *key, column)
            value_address = (self.seed, "sysval", mode, table, *key, column)
        else:
            address = (
                self.seed, "samperr", mode, table, *key, column, options.sample_index,
            )
            value_address = (
                self.seed, "sampval", mode, table, *key, column, options.sample_index,
            )
        if noise_mod.uniform01(*address) < error_rate:
            return noise_mod.confabulate(
                true_value, domain, self.noise.numeric_jitter, *value_address
            )
        return true_value

    def _believed_row(
        self,
        table: str,
        key: Tuple[Value, ...],
        options: CompletionOptions,
        *,
        rate_multiplier: float = 1.0,
        mode: str = "",
    ) -> Dict[str, Value]:
        schema = self.world.schema(table)
        keys = {name.lower() for name in schema.primary_key}
        return {
            column.name: self._believed_value(
                table,
                key,
                column.name,
                options,
                is_key=column.name.lower() in keys,
                rate_multiplier=rate_multiplier,
                mode=mode,
            )
            for column in schema.columns
        }

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def _answer_enumerate(
        self, fields: grammar.PromptFields, options: CompletionOptions
    ) -> str:
        table_name = self._table_from_signature(fields.require(grammar.FIELD_TABLE))
        schema = self.world.schema(table_name)
        columns = grammar.parse_column_list(fields.require(grammar.FIELD_COLUMNS))
        for column in columns:
            if not schema.has_column(column):
                raise LLMProtocolError(
                    f"table {table_name!r} has no column {column!r}"
                )
        condition = self._parse_condition(fields.optional(grammar.FIELD_CONDITION))
        order = self._parse_order(fields.optional(grammar.FIELD_ORDER), schema)
        after_index = fields.int_field(grammar.FIELD_AFTER_INDEX, 0)
        max_rows = fields.int_field(grammar.FIELD_MAX_ROWS, 20)

        all_rows = self._enumerate_believed_rows(
            table_name, schema, condition, order, options
        )
        page = all_rows[after_index : after_index + max_rows]
        lines: List[str] = []
        for offset, row in enumerate(page):
            line = grammar.render_row([row[name] for name in columns])
            line = noise_mod.apply_format_noise(
                line,
                self.noise.format_noise_rate,
                self.seed,
                "chat-enum",
                table_name,
                after_index + offset,
                options.sample_index,
            )
            lines.append(line)
        sentinel = (
            grammar.MORE_SENTINEL
            if after_index + max_rows < len(all_rows)
            else grammar.DONE_SENTINEL
        )
        lines.append(sentinel)
        return "\n".join(lines)

    def _enumerate_believed_rows(
        self,
        table_name: str,
        schema: TableSchema,
        condition: Optional[ast.Expr],
        order: Optional[Tuple[str, bool]],
        options: CompletionOptions,
    ) -> List[Dict[str, Value]]:
        """The model's full (believed) answer list for an enumeration.

        Deterministic given (seed, table, condition-independent beliefs,
        sample_index at temperature > 0), so pagination is consistent
        across pages of the same scan.
        """
        passes = _condition_test(table_name, schema, condition)
        believed: List[Tuple[Tuple, Dict[str, Value]]] = []
        table = self.world.table(table_name)
        for row in table.rows:
            key = table.key_of(row)
            if not self._knows_row(table_name, key):
                continue
            beliefs = self._believed_row(table_name, key, options, mode="enum")
            if passes is not None:
                try:
                    if not passes(beliefs):
                        continue
                except Exception:
                    continue
            believed.append((_order_key(key), beliefs))

        # Hallucinated rows: expected hallucinated_row_rate per true row.
        slots = len(table)
        for slot in range(slots):
            if (
                noise_mod.uniform01(self.seed, "halluc?", table_name, slot)
                >= self.noise.hallucinated_row_rate
            ):
                continue
            fabricated = self._fabricate_row(table_name, schema, slot)
            if passes is not None:
                try:
                    if not passes(fabricated):
                        continue
                except Exception:
                    continue
            key_values = tuple(
                fabricated[name] for name in schema.primary_key
            )
            believed.append((_order_key(key_values), fabricated))

        believed.sort(key=lambda item: item[0])
        rows = [row for _, row in believed]
        if order is not None:
            column, descending = order
            rows.sort(
                key=lambda row: _value_rank(row.get(column)),
                reverse=descending,
            )
        return rows

    def _fabricate_row(
        self, table_name: str, schema: TableSchema, slot: int
    ) -> Dict[str, Value]:
        """A plausible fabricated row (hallucination)."""
        keys = {name.lower() for name in schema.primary_key}
        fabricated: Dict[str, Value] = {}
        for column in schema.columns:
            domain = self.world.column_domain(table_name, column.name)
            if column.name.lower() in keys:
                if column.dtype is DataType.TEXT:
                    fabricated[column.name] = noise_mod.fabricate_text(
                        table_name, self.seed, table_name, slot, column.name
                    )
                else:
                    fabricated[column.name] = 900000 + noise_mod.pick_index(
                        90000, self.seed, table_name, slot, column.name
                    )
                continue
            if domain:
                fabricated[column.name] = domain[
                    noise_mod.pick_index(
                        len(domain), self.seed, "hallucval", table_name, slot, column.name
                    )
                ]
            else:
                fabricated[column.name] = None
        return fabricated

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _answer_lookup(
        self, fields: grammar.PromptFields, options: CompletionOptions
    ) -> str:
        table_name = self._table_from_signature(fields.require(grammar.FIELD_TABLE))
        schema = self.world.schema(table_name)
        key_columns = grammar.parse_column_list(
            fields.require(grammar.FIELD_KEY_COLUMNS)
        )
        attributes = grammar.parse_column_list(
            fields.require(grammar.FIELD_ATTRIBUTES)
        )
        for column in key_columns + attributes:
            if not schema.has_column(column):
                raise LLMProtocolError(
                    f"table {table_name!r} has no column {column!r}"
                )
        key_dtypes = [schema.column(name).dtype for name in key_columns]
        entities = fields.section(grammar.SECTION_ENTITIES)
        if not entities:
            raise LLMProtocolError("lookup prompt has no ENTITIES section")

        key_index = self._lookup_index(table_name, key_columns)
        lines: List[str] = []
        for number, entity in enumerate(entities, start=1):
            try:
                key_values = tuple(grammar.parse_row(entity, key_dtypes))
            except LLMProtocolError:
                lines.append(f"{number}. {grammar.UNKNOWN_TEXT}")
                continue
            primary_key = key_index.get(_normalize_key(key_values))
            if primary_key is None or not self._knows_row(table_name, primary_key):
                lines.append(f"{number}. {grammar.UNKNOWN_TEXT}")
                continue
            beliefs = self._believed_row(table_name, primary_key, options, mode="lookup")
            rendered = grammar.render_row([beliefs[name] for name in attributes])
            line = noise_mod.apply_format_noise(
                f"{number}. {rendered}",
                self.noise.format_noise_rate,
                self.seed,
                "chat-lookup",
                table_name,
                entity,
                options.sample_index,
            )
            lines.append(line)
        return "\n".join(lines)

    def _lookup_index(
        self, table_name: str, key_columns: Sequence[str]
    ) -> Dict[Tuple, Tuple[Value, ...]]:
        """Map normalized ``key_columns`` tuples to primary keys.

        Lookups usually address rows by primary key, but the engine may
        probe any (unique enough) column combination; the last matching
        row wins, which mirrors a model answering for the most salient
        entity of that name.
        """
        table = self.world.table(table_name)
        indices = [table.schema.column_index(name) for name in key_columns]
        mapping: Dict[Tuple, Tuple[Value, ...]] = {}
        for row in table.rows:
            probe = tuple(row[i] for i in indices)
            mapping[_normalize_key(probe)] = table.key_of(row)
        return mapping

    # ------------------------------------------------------------------
    # Judge
    # ------------------------------------------------------------------

    def _answer_judge(
        self, fields: grammar.PromptFields, options: CompletionOptions
    ) -> str:
        table_name = self._table_from_signature(fields.require(grammar.FIELD_TABLE))
        schema = self.world.schema(table_name)
        key_columns = grammar.parse_column_list(
            fields.require(grammar.FIELD_KEY_COLUMNS)
        )
        condition = self._parse_condition(fields.require(grammar.FIELD_CONDITION))
        if condition is None:
            raise LLMProtocolError("judge prompt requires a CONDITION")
        key_dtypes = [schema.column(name).dtype for name in key_columns]
        entities = fields.section(grammar.SECTION_ENTITIES)
        if not entities:
            raise LLMProtocolError("judge prompt has no ENTITIES section")

        key_index = self._lookup_index(table_name, key_columns)
        passes = _condition_test(table_name, schema, condition)
        lines: List[str] = []
        for number, entity in enumerate(entities, start=1):
            try:
                key_values = tuple(grammar.parse_row(entity, key_dtypes))
            except LLMProtocolError:
                lines.append(f"{number}. {grammar.UNKNOWN_TEXT}")
                continue
            primary_key = key_index.get(_normalize_key(key_values))
            if primary_key is None or not self._knows_row(table_name, primary_key):
                lines.append(f"{number}. {grammar.UNKNOWN_TEXT}")
                continue
            beliefs = self._believed_row(table_name, primary_key, options, mode="judge")
            try:
                verdict = passes(beliefs)
            except Exception:
                lines.append(f"{number}. {grammar.UNKNOWN_TEXT}")
                continue
            lines.append(f"{number}. {'YES' if verdict else 'NO'}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Direct SQL
    # ------------------------------------------------------------------

    def _answer_direct(
        self, fields: grammar.PromptFields, options: CompletionOptions
    ) -> str:
        sql = fields.require(grammar.FIELD_SQL)
        try:
            statement = parse(sql)
        except Exception as exc:
            return f"I could not parse that SQL: {exc}"

        table_names = _referenced_tables(statement)
        complexity = _query_complexity(statement)
        multiplier = 1.0 + self.noise.direct_complexity_penalty * complexity

        catalog = Catalog()
        for name in table_names:
            if not self.world.has_table(name):
                return f"I do not know a table named {name!r}."
            catalog.register_table(
                self._noisy_instance(name, options, multiplier)
            )
        try:
            result = ReferenceExecutor(catalog).execute(statement)
        except Exception as exc:
            return f"I could not execute that query: {exc}"

        uses_aggregates = _statement_uses_aggregates(statement)
        lines = ["HEADER: " + grammar.CELL_SEPARATOR.join(result.schema.column_names)]
        agg_rate = min(
            1.0, self.noise.aggregate_error_rate * multiplier
        ) if uses_aggregates else 0.0
        for row_number, row in enumerate(result.rows):
            emitted: List[Value] = []
            for cell_number, value in enumerate(row):
                if (
                    agg_rate > 0.0
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and noise_mod.uniform01(
                        self.seed, "aggerr", sql, row_number, cell_number,
                        options.sample_index if options.temperature > 0 else -1,
                    )
                    < agg_rate
                ):
                    emitted.append(
                        noise_mod.confabulate(
                            value,
                            [],
                            self.noise.numeric_jitter,
                            self.seed,
                            "aggval",
                            sql,
                            row_number,
                            cell_number,
                            options.sample_index if options.temperature > 0 else -1,
                        )
                    )
                else:
                    emitted.append(value)
            lines.append(grammar.render_row(emitted))
        lines.append(grammar.END_SENTINEL)
        return "\n".join(lines)

    def _noisy_instance(
        self, table_name: str, options: CompletionOptions, multiplier: float
    ) -> Table:
        """The model's believed instance of a whole table (direct mode)."""
        table = self.world.table(table_name)
        schema = table.schema
        rows: List[Tuple[Value, ...]] = []
        for row in table.rows:
            key = table.key_of(row)
            if not self._knows_row(table_name, key):
                continue
            beliefs = self._believed_row(
                table_name, key, options, rate_multiplier=multiplier, mode="direct"
            )
            rows.append(tuple(beliefs[column.name] for column in schema.columns))
        for slot in range(len(table)):
            if (
                noise_mod.uniform01(self.seed, "halluc?", table_name, slot)
                < self.noise.hallucinated_row_rate
            ):
                fabricated = self._fabricate_row(table_name, schema, slot)
                rows.append(
                    tuple(fabricated[column.name] for column in schema.columns)
                )
        instance = Table(schema)
        for row in rows:
            try:
                instance.insert(row, coerce=True)
            except Exception:
                continue
        return instance

    # ------------------------------------------------------------------
    # Prompt-side parsing helpers
    # ------------------------------------------------------------------

    def _table_from_signature(self, signature: str) -> str:
        """Extract the table name from a ``name(col TYPE, ...)`` header."""
        name = signature.split("(", 1)[0].strip()
        if not name:
            raise LLMProtocolError(f"cannot read table name from {signature!r}")
        if not self.world.has_table(name):
            raise LLMProtocolError(f"I do not know a table named {name!r}")
        return name

    def _parse_condition(self, raw: Optional[str]) -> Optional[ast.Expr]:
        if raw is None or not raw.strip() or raw.strip().upper() == "NONE":
            return None
        try:
            return parse_expression(raw)
        except Exception as exc:
            raise LLMProtocolError(f"cannot parse condition {raw!r}: {exc}") from exc

    def _parse_order(
        self, raw: Optional[str], schema: TableSchema
    ) -> Optional[Tuple[str, bool]]:
        if raw is None or not raw.strip() or raw.strip().upper() == "NONE":
            return None
        pieces = raw.split()
        column = pieces[0]
        if not schema.has_column(column):
            raise LLMProtocolError(f"cannot order by unknown column {column!r}")
        descending = len(pieces) > 1 and pieces[1].upper() == "DESC"
        return schema.column(column).name, descending


# ---------------------------------------------------------------------------
# Module helpers
# ---------------------------------------------------------------------------


def _normalize_key(values: Tuple[Value, ...]) -> Tuple:
    """Case-insensitive for text, numeric-normalized for numbers."""
    normalized = []
    for value in values:
        if isinstance(value, str):
            normalized.append(("t", value.strip().lower()))
        elif isinstance(value, bool):
            normalized.append(("b", value))
        elif isinstance(value, (int, float)):
            normalized.append(("n", float(value)))
        else:
            normalized.append(("0", None))
    return tuple(normalized)


def _condition_test(
    table_name: str, schema: TableSchema, condition: Optional[ast.Expr]
) -> Optional[Callable[[Dict[str, Value]], bool]]:
    """``condition`` as an is-TRUE test over believed rows, resolved once.

    Believed and fabricated rows are dicts in schema column order, so
    their values are the flat row of the table's layout.
    """
    if condition is None:
        return None
    test = Evaluator().compile(
        condition, RowLayout([(table_name, schema.column_names)])
    )
    return lambda beliefs: is_true(test(tuple(beliefs.values())))


def _order_key(values: Tuple[Value, ...]) -> Tuple:
    return tuple(_value_rank(value) for value in values)


def _value_rank(value: Value):
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, bool):
        return (3, float(value), "")
    if isinstance(value, (int, float)):
        return (1, float(value), "")
    return (2, 0.0, str(value))


def _referenced_tables(statement: ast.Statement) -> List[str]:
    names: List[str] = []

    def visit_table_ref(ref: Optional[ast.TableRef]) -> None:
        if ref is None:
            return
        if isinstance(ref, ast.NamedTable):
            if ref.name.lower() not in {n.lower() for n in names}:
                names.append(ref.name)
        elif isinstance(ref, ast.SubqueryTable):
            visit_statement(ref.query)
        elif isinstance(ref, ast.Join):
            visit_table_ref(ref.left)
            visit_table_ref(ref.right)

    def visit_expr(expr: Optional[ast.Expr]) -> None:
        if expr is None:
            return
        for node in ast.walk_expression(expr):
            if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
                visit_statement(node.query)

    def visit_statement(node: ast.Statement) -> None:
        if isinstance(node, ast.SetOperation):
            visit_statement(node.left)
            visit_statement(node.right)
            return
        visit_table_ref(node.from_clause)
        visit_expr(node.where)
        visit_expr(node.having)
        for item in node.select:
            visit_expr(item.expr)
        for expr in node.group_by:
            visit_expr(expr)
        for order in node.order_by:
            visit_expr(order.expr)

    visit_statement(statement)
    return names


def _query_complexity(statement: ast.Statement) -> int:
    """Operator count used for the direct-mode complexity penalty."""
    if isinstance(statement, ast.SetOperation):
        left = statement.left
        complexity = 1 + _query_complexity(statement.right)
        complexity += _query_complexity(left)
        return complexity

    complexity = 0

    def count_joins(ref: Optional[ast.TableRef]) -> int:
        if ref is None or isinstance(ref, ast.NamedTable):
            return 0
        if isinstance(ref, ast.SubqueryTable):
            return 1 + _query_complexity(ref.query)
        if isinstance(ref, ast.Join):
            return 1 + count_joins(ref.left) + count_joins(ref.right)
        return 0

    complexity += count_joins(statement.from_clause)
    if statement.where is not None:
        complexity += _conjunct_count(statement.where)
        for node in ast.walk_expression(statement.where):
            if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
                complexity += 1 + _query_complexity(node.query)
    if statement.group_by:
        complexity += 1
    if statement.having is not None:
        complexity += 1
    if statement.order_by:
        complexity += 1
    for item in statement.select:
        for node in ast.walk_expression(item.expr):
            if ast.is_aggregate_call(node):
                complexity += 1
            if isinstance(node, ast.ScalarSubquery):
                complexity += 1 + _query_complexity(node.query)
    return complexity


def _conjunct_count(expr: ast.Expr) -> int:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _conjunct_count(expr.left) + _conjunct_count(expr.right)
    return 1


def _statement_uses_aggregates(statement: ast.Statement) -> bool:
    if isinstance(statement, ast.SetOperation):
        return _statement_uses_aggregates(statement.left) or _statement_uses_aggregates(
            statement.right
        )
    exprs = [item.expr for item in statement.select]
    if statement.having is not None:
        exprs.append(statement.having)
    return any(ast.contains_aggregate(expr) for expr in exprs) or bool(
        statement.group_by
    )
