"""Reference SQL executor over materialized tables.

This is the ground-truth engine: a direct, correctness-first interpreter
of the AST.  It supports the full parsed subset — joins, grouping,
HAVING, DISTINCT, ORDER BY (aliases, positions, expressions), LIMIT,
set operations, and correlated subqueries — and is used (a) as the oracle
that evaluation metrics compare against, and (b) inside the simulated
language model, which "knows" its world by running queries over it.

Semantics notes (shared with the hybrid engine, see DESIGN.md §5):

* SQL three-valued logic throughout; WHERE/HAVING keep rows only when the
  predicate is TRUE.
* GROUP BY groups compare int/float numerically (1 groups with 1.0).
* Non-grouped columns in a grouped select resolve from a representative
  row (SQLite-style permissiveness).
* ORDER BY sorts NULLs first ascending, last descending, unless
  ``NULLS FIRST/LAST`` overrides.
* INTERSECT/EXCEPT use set semantics; UNION honours ALL.
* A FROM-clause row is a flat tuple addressed through a
  :class:`~repro.relational.expressions.RowLayout` built once per clause
  (a join row is ``left_row + right_row``); every clause's expressions
  are compiled against that layout once and then called per row.
* Joins are left-major: output keeps left-input order and, within one
  left row, right-input order.  Both join algorithms produce exactly
  that order, so LIMIT without ORDER BY and sort ties never depend on
  which one ran.  When the condition's leftmost conjunct is
  ``column = column`` with one operand resolving to exactly one column of
  the left input and the other to exactly one of the right, the right
  rows are bucketed by key, each left row probes its bucket, and the
  *full* condition is evaluated on those candidates only.  The nested
  loop runs for every other condition (non-equi, constant, correlated or
  ambiguous references) and wherever it would raise or match where a
  probe would silently skip: keys of more than one comparison class
  (number / text / bool), NaN keys, or NULL keys when further conjuncts
  exist.  The choice follows from the condition's shape and the key
  values, never from a setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ExecutionError
from repro.relational.aggregates import create_accumulator
from repro.relational.catalog import Catalog
from repro.relational.expressions import (
    EMPTY_SCOPE,
    Evaluator,
    RowFn,
    RowLayout,
    Scope,
    is_true,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType, Value, infer_type
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.printer import print_expression

#: One FROM-clause row: every binding's columns, flat, in layout order.
Row = Tuple[Value, ...]


@dataclass
class FromResult:
    """Rows produced by a FROM clause plus the layout that addresses them."""

    layout: RowLayout
    rows: List[Row]


def hashable_value(value: Value):
    """Type-tagged, numerically-normalized form for grouping/dedup.

    Public contract: partial-aggregate grouping
    (:mod:`repro.core.partial_agg`) must key groups exactly as the
    reference executor does (1 groups with 1.0, not with True).
    """
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("num", float(value))
    return ("text", value)


#: Internal alias (historical name).
_hashable = hashable_value


def _row_marker(row: Sequence[Value]) -> Tuple:
    return tuple(_hashable(value) for value in row)


def _sort_rank(value: Value):
    """Total order over heterogeneous values for ORDER BY."""
    if value is None:
        return (0, 0.0)
    if isinstance(value, bool):
        return (1, float(value))
    if isinstance(value, (int, float)):
        return (1, float(value))
    return (2, str(value))


class ReferenceExecutor:
    """Executes statements against a catalog of materialized tables."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._evaluator = Evaluator(subquery_executor=self._execute_subquery)

    # -- public API ------------------------------------------------------------

    def execute(self, statement: Union[str, ast.Statement]) -> Table:
        """Execute SQL text or a parsed statement; returns a result Table."""
        if isinstance(statement, str):
            statement = parse(statement)
        return self._execute_statement(statement, EMPTY_SCOPE)

    # -- statement dispatch -------------------------------------------------------

    def _execute_statement(self, statement: ast.Statement, outer: Scope) -> Table:
        if isinstance(statement, ast.Query):
            return self._execute_query(statement, outer)
        if isinstance(statement, ast.SetOperation):
            return self._execute_set_operation(statement, outer)
        raise ExecutionError(f"cannot execute {type(statement).__name__}")

    def _execute_subquery(self, query: ast.Query, outer: Scope) -> Table:
        return self._execute_query(query, outer)

    # -- set operations --------------------------------------------------------------

    def _execute_set_operation(self, setop: ast.SetOperation, outer: Scope) -> Table:
        left = self._execute_statement(setop.left, outer)
        right = self._execute_query(setop.right, outer)
        if len(left.schema.columns) != len(right.schema.columns):
            raise ExecutionError(
                f"{setop.op.upper()} operands have different column counts "
                f"({len(left.schema.columns)} vs {len(right.schema.columns)})"
            )
        if setop.op == "union":
            rows = list(left.rows) + list(right.rows)
            if not setop.all:
                rows = _dedupe(rows)
        elif setop.op == "intersect":
            right_markers = {_row_marker(row) for row in right.rows}
            rows = _dedupe(
                [row for row in left.rows if _row_marker(row) in right_markers]
            )
        elif setop.op == "except":
            right_markers = {_row_marker(row) for row in right.rows}
            rows = _dedupe(
                [row for row in left.rows if _row_marker(row) not in right_markers]
            )
        else:
            raise ExecutionError(f"unknown set operation {setop.op!r}")

        names = left.schema.column_names
        if setop.order_by:
            rows = self._order_output_rows(rows, names, setop.order_by)
        rows = _apply_limit(rows, setop.limit, setop.offset)
        return _build_result_table(names, rows)

    # -- single query -------------------------------------------------------------------

    def _execute_query(self, query: ast.Query, outer: Scope) -> Table:
        source = self._execute_from(query.from_clause, outer)
        layout, rows = source.layout, source.rows
        compile_ = self._evaluator.compile

        if query.where is not None:
            where = compile_(query.where, layout)
            rows = [row for row in rows if is_true(where(row))]

        select_items = self._expand_stars(query.select, layout.bindings)
        names = self._output_names(select_items)

        needs_grouping = bool(query.group_by) or self._contains_any_aggregate(
            select_items, query
        )
        # ``order_rows[i]`` is the row ORDER BY expressions of output row
        # ``i`` run against, laid out by ``layout``.
        if needs_grouping:
            output_rows, order_rows, layout = self._execute_grouped(
                query, select_items, layout, rows
            )
        else:
            if query.having is not None:
                raise ExecutionError("HAVING requires GROUP BY or aggregates")
            select = [compile_(item.expr, layout) for item in select_items]
            output_rows = [tuple(fn(row) for fn in select) for row in rows]
            order_rows = rows

        if query.distinct:
            output_rows, order_rows = _dedupe_with(output_rows, order_rows)

        if query.order_by:
            output_rows = self._order_rows(
                output_rows, order_rows, layout, names, query.order_by
            )

        output_rows = _apply_limit(output_rows, query.limit, query.offset)
        return _build_result_table(names, output_rows)

    # -- FROM evaluation ------------------------------------------------------------------

    def _execute_from(
        self, clause: Optional[ast.TableRef], outer: Scope
    ) -> FromResult:
        if clause is None:
            return FromResult(RowLayout([], outer), [()])
        return self._eval_table_ref(clause, outer)

    def _eval_table_ref(self, ref: ast.TableRef, outer: Scope) -> FromResult:
        if isinstance(ref, ast.NamedTable):
            table = self._catalog.table(ref.name)
            layout = RowLayout([(ref.binding_name, table.schema.column_names)], outer)
            return FromResult(layout, table.rows)
        if isinstance(ref, ast.SubqueryTable):
            table = self._execute_query(ref.query, EMPTY_SCOPE)
            layout = RowLayout([(ref.alias, table.schema.column_names)], outer)
            return FromResult(layout, table.rows)
        if isinstance(ref, ast.Join):
            return self._eval_join(ref, outer)
        raise ExecutionError(f"cannot evaluate table reference {type(ref).__name__}")

    def _eval_join(self, join: ast.Join, outer: Scope) -> FromResult:
        left = self._eval_table_ref(join.left, outer)
        right = self._eval_table_ref(join.right, outer)
        layout = left.layout.joined(right.layout)

        if join.kind == "cross":
            rows = [lrow + rrow for lrow in left.rows for rrow in right.rows]
            return FromResult(layout, rows)

        condition = (
            self._evaluator.compile(join.condition, layout)
            if join.condition is not None
            else (lambda row: True)
        )
        candidates = _join_candidates(join.condition, layout, left, right)
        null_right = (None,) * right.layout.width if join.kind == "left" else None
        return FromResult(
            layout, _join_rows(left.rows, candidates, condition, null_right)
        )

    # -- select list ---------------------------------------------------------------------

    def _expand_stars(
        self,
        select: List[ast.SelectItem],
        bindings: List[Tuple[str, List[str]]],
    ) -> List[ast.SelectItem]:
        expanded: List[ast.SelectItem] = []
        for item in select:
            if isinstance(item.expr, ast.Star):
                targets = bindings
                if item.expr.table is not None:
                    wanted = item.expr.table.lower()
                    targets = [
                        (name, cols)
                        for name, cols in bindings
                        if name.lower() == wanted
                    ]
                    if not targets:
                        raise ExecutionError(
                            f"unknown table {item.expr.table!r} in select list"
                        )
                if not targets:
                    raise ExecutionError("SELECT * requires a FROM clause")
                for name, columns in targets:
                    for column in columns:
                        expanded.append(
                            ast.SelectItem(
                                expr=ast.ColumnRef(name=column, table=name)
                            )
                        )
            else:
                expanded.append(item)
        return expanded

    def _output_names(self, select_items: List[ast.SelectItem]) -> List[str]:
        names: List[str] = []
        used: Dict[str, int] = {}
        for item in select_items:
            if item.alias:
                base = item.alias
            elif isinstance(item.expr, ast.ColumnRef):
                base = item.expr.name
            else:
                base = print_expression(item.expr)
            lowered = base.lower()
            count = used.get(lowered, 0)
            used[lowered] = count + 1
            names.append(base if count == 0 else f"{base}_{count + 1}")
        return names

    # -- grouping ------------------------------------------------------------------------

    def _contains_any_aggregate(
        self, select_items: List[ast.SelectItem], query: ast.Query
    ) -> bool:
        exprs = [item.expr for item in select_items]
        if query.having is not None:
            exprs.append(query.having)
        exprs.extend(item.expr for item in query.order_by)
        return any(ast.contains_aggregate(expr) for expr in exprs)

    def _collect_aggregates(
        self, select_items: List[ast.SelectItem], query: ast.Query
    ) -> Dict[str, ast.FunctionCall]:
        exprs = [item.expr for item in select_items]
        if query.having is not None:
            exprs.append(query.having)
        exprs.extend(item.expr for item in query.order_by)
        found: Dict[str, ast.FunctionCall] = {}
        for expr in exprs:
            for node in ast.walk_expression(expr):
                if ast.is_aggregate_call(node):
                    found[print_expression(node)] = node
        return found

    def _execute_grouped(
        self,
        query: ast.Query,
        select_items: List[ast.SelectItem],
        layout: RowLayout,
        rows: List[Row],
    ) -> Tuple[List[Row], List[Row], RowLayout]:
        """Output rows, the group row behind each, and the group rows' layout.

        A group row is the group's representative source row followed by
        its aggregate results, so HAVING, the select list and ORDER BY
        read aggregates from slots like any other column.
        """
        compile_ = self._evaluator.compile
        aggregates = self._collect_aggregates(select_items, query)
        arguments = [
            (call, self._aggregate_argument(call, layout))
            for call in aggregates.values()
        ]
        grouped_layout = layout.with_aggregates(list(aggregates))
        having = None
        if query.having is not None:
            having = compile_(query.having, grouped_layout)
        select = [compile_(item.expr, grouped_layout) for item in select_items]

        # Group rows, preserving first-seen order.
        groups: Dict[Tuple, List[Row]] = {}
        if query.group_by:
            keys = [compile_(expr, layout) for expr in query.group_by]
            for row in rows:
                key = tuple(_hashable(fn(row)) for fn in keys)
                members = groups.get(key)
                if members is None:
                    groups[key] = members = []
                members.append(row)
        else:
            # Aggregates over an empty input still produce exactly one row.
            groups[()] = rows

        output_rows: List[Row] = []
        group_rows: List[Row] = []
        for members in groups.values():
            results = []
            for call, argument in arguments:
                accumulator = self._build_accumulator(call)
                for row in members:
                    accumulator.add(argument(row))
                results.append(accumulator.result())
            representative = members[0] if members else (None,) * layout.width
            group_row = representative + tuple(results)
            if having is not None and not is_true(having(group_row)):
                continue
            output_rows.append(tuple(fn(group_row) for fn in select))
            group_rows.append(group_row)
        return output_rows, group_rows, grouped_layout

    def _aggregate_argument(
        self, call: ast.FunctionCall, layout: RowLayout
    ) -> Optional[RowFn]:
        """What each member row feeds the accumulator (1 for ``COUNT(*)``)."""
        if len(call.args) != 1:
            return None  # _build_accumulator rejects the call before any row
        if isinstance(call.args[0], ast.Star):
            return lambda row: 1
        return self._evaluator.compile(call.args[0], layout)

    def _build_accumulator(self, call: ast.FunctionCall):
        if len(call.args) != 1:
            raise ExecutionError(f"aggregate {call.name} takes exactly one argument")
        star = isinstance(call.args[0], ast.Star)
        return create_accumulator(call.name, star=star, distinct=call.distinct)

    # -- ordering -------------------------------------------------------------------------

    def _order_rows(
        self,
        rows: List[Row],
        source_rows: List[Row],
        layout: RowLayout,
        names: List[str],
        order_by: List[ast.OrderItem],
    ) -> List[Row]:
        """Sort output ``rows``; ``source_rows[i]`` is what produced ``rows[i]``.

        An item naming an output column (by position or name) reads the
        output row; any other expression runs against the source row.
        """
        lowered_names = [name.lower() for name in names]
        keys: List[Tuple[bool, RowFn]] = []
        for item in order_by:
            output_column = _output_column(item.expr, lowered_names)
            if output_column is not None:
                keys.append((True, output_column))
            else:
                keys.append((False, self._evaluator.compile(item.expr, layout)))

        def key_values(index: int) -> List[Value]:
            return [
                fn(rows[index] if from_output else source_rows[index])
                for from_output, fn in keys
            ]

        return _sorted_by_keys(rows, key_values, order_by)

    def _order_output_rows(
        self,
        rows: List[Row],
        names: List[str],
        order_by: List[ast.OrderItem],
    ) -> List[Row]:
        """Order rows of a set operation: only names/positions available."""
        lowered_names = [name.lower() for name in names]
        keys = [
            _output_column(item.expr, lowered_names) or _not_an_output_column
            for item in order_by
        ]
        return _sorted_by_keys(
            rows, lambda index: [fn(rows[index]) for fn in keys], order_by
        )


def _output_column(expr: ast.Expr, lowered_names: List[str]) -> Optional[RowFn]:
    """Reader for an ORDER BY item naming an output column, else None."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        position = expr.value

        def by_position(row: Row) -> Value:
            if not 1 <= position <= len(row):
                raise ExecutionError(f"ORDER BY position {position} is out of range")
            return row[position - 1]

        return by_position
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        lowered = expr.name.lower()
        if lowered in lowered_names:
            return itemgetter(lowered_names.index(lowered))
    return None


def _not_an_output_column(row: Row) -> Value:
    raise ExecutionError(
        "ORDER BY on a set operation must use output column names or positions"
    )


# -- joins ---------------------------------------------------------------------


def _join_rows(
    left_rows: Sequence[Row],
    candidates: Callable[[Row], Iterable[Row]],
    condition: RowFn,
    null_right: Optional[Row],
) -> List[Row]:
    """The join loop: left-major, right-input order within a left row.

    ``candidates(lrow)`` lists the right rows worth testing, in right-input
    order; with every right row a candidate this is the nested loop.
    ``null_right`` (LEFT JOIN) extends a left row nothing matched.
    """
    combined: List[Row] = []
    for lrow in left_rows:
        matched = False
        for rrow in candidates(lrow):
            candidate = lrow + rrow
            if is_true(condition(candidate)):
                combined.append(candidate)
                matched = True
        if null_right is not None and not matched:
            combined.append(lrow + null_right)
    return combined


def _join_candidates(
    condition: Optional[ast.Expr],
    layout: RowLayout,
    left: FromResult,
    right: FromResult,
) -> Callable[[Row], Iterable[Row]]:
    """Hash probe where it is provably the nested loop's answer, else all rows."""
    equi = _equi_join_slots(condition, layout, left.layout.width)
    if equi is not None:
        left_slot, right_slot, residual = equi
        buckets = _equi_join_buckets(
            left.rows, right.rows, left_slot, right_slot, residual
        )
        if buckets is not None:
            return lambda lrow: buckets.get(lrow[left_slot], ())
    right_rows = right.rows
    return lambda lrow: right_rows


def _equi_join_slots(
    condition: Optional[ast.Expr], layout: RowLayout, left_width: int
) -> Optional[Tuple[int, int, bool]]:
    """``(left slot, right slot, further conjuncts?)`` of an equi-join.

    The condition's leftmost conjunct must be ``ColumnRef = ColumnRef``
    with one side resolving to exactly one column of the left input and
    the other to exactly one of the right: for a pair whose keys differ
    that conjunct is FALSE and ``AND`` evaluates nothing after it, so
    skipping the pair skips nothing observable.  The right slot is
    relative to the right row.
    """
    first = condition
    while isinstance(first, ast.BinaryOp) and first.op == "AND":
        first = first.left
    if not (
        isinstance(first, ast.BinaryOp)
        and first.op == "="
        and isinstance(first.left, ast.ColumnRef)
        and isinstance(first.right, ast.ColumnRef)
    ):
        return None
    low = layout.slot(first.left.table, first.left.name)
    high = layout.slot(first.right.table, first.right.name)
    if low is None or high is None:
        return None  # ambiguous, unknown or correlated: the loop decides
    if low > high:
        low, high = high, low
    if not low < left_width <= high:
        return None
    return low, high - left_width, first is not condition


#: ``compare_values`` compares within a class and raises across classes.
_KEY_CLASSES = {bool: "bool", int: "number", float: "number", str: "text"}


def _equi_join_buckets(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    left_slot: int,
    right_slot: int,
    residual: bool,
) -> Optional[Dict[Value, List[Row]]]:
    """Right rows by join key, or None where only the nested loop is faithful.

    A probe silently skips what the nested loop would not: keys of two
    comparison classes (it raises ``cannot compare str with int``), NaN
    (``compare_values`` orders it equal to every number), and a NULL key
    when further conjuncts exist (3VL ``AND`` still evaluates them, and
    they may raise).  NULL keys otherwise never match and are left out.
    """
    classes = set()
    buckets: Dict[Value, List[Row]] = {}
    for rows, slot, bucketed in (
        (right_rows, right_slot, True),
        (left_rows, left_slot, False),
    ):
        for row in rows:
            key = row[slot]
            if key is None:
                if residual:
                    return None
                continue
            if key != key:
                return None
            classes.add(_KEY_CLASSES.get(type(key)))
            if bucketed:
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                bucket.append(row)
    if len(classes) > 1 or None in classes:
        return None
    return buckets


def _sorted_by_keys(rows, key_values, order_by: List[ast.OrderItem]):
    import functools

    indexed = list(range(len(rows)))
    all_keys = [key_values(i) for i in indexed]

    def compare(a: int, b: int) -> int:
        for item, left, right in zip(order_by, all_keys[a], all_keys[b]):
            outcome = _compare_order_values(left, right, item)
            if outcome != 0:
                return outcome
        return a - b  # stable

    return [rows[i] for i in sorted(indexed, key=functools.cmp_to_key(compare))]


def _compare_order_values(left: Value, right: Value, item: ast.OrderItem) -> int:
    if left is None and right is None:
        return 0
    nulls_last = item.nulls_last
    if nulls_last is None:
        nulls_last = item.descending  # SQLite: NULL is smallest
    if left is None:
        return 1 if nulls_last else -1
    if right is None:
        return -1 if nulls_last else 1
    left_rank = _sort_rank(left)
    right_rank = _sort_rank(right)
    if left_rank < right_rank:
        outcome = -1
    elif left_rank > right_rank:
        outcome = 1
    else:
        outcome = 0
    return -outcome if item.descending else outcome


def _dedupe(rows: List[Tuple[Value, ...]]) -> List[Tuple[Value, ...]]:
    seen = set()
    output = []
    for row in rows:
        marker = _row_marker(row)
        if marker not in seen:
            seen.add(marker)
            output.append(row)
    return output


def _dedupe_with(rows, companions):
    seen = set()
    out_rows = []
    out_companions = []
    for row, companion in zip(rows, companions):
        marker = _row_marker(row)
        if marker not in seen:
            seen.add(marker)
            out_rows.append(row)
            out_companions.append(companion)
    return out_rows, out_companions


def _apply_limit(rows, limit: Optional[int], offset: Optional[int]):
    start = offset or 0
    if limit is None:
        return rows[start:]
    return rows[start : start + limit]


def _infer_column_type(values: List[Value]) -> DataType:
    present = [infer_type(v) for v in values if v is not None]
    if not present:
        return DataType.TEXT
    unique = set(present)
    if unique == {DataType.INTEGER}:
        return DataType.INTEGER
    if unique <= {DataType.INTEGER, DataType.REAL}:
        return DataType.REAL
    if len(unique) == 1:
        return unique.pop()
    return DataType.TEXT


def _build_result_table(names: List[str], rows: List[Tuple[Value, ...]]) -> Table:
    columns = []
    for index, name in enumerate(names):
        values = [row[index] for row in rows]
        columns.append(Column(name=name, dtype=_infer_column_type(values)))
    schema = TableSchema(name="result", columns=tuple(columns))
    normalized = []
    for row in rows:
        normalized.append(
            tuple(
                _normalize_for_type(value, column.dtype)
                for value, column in zip(row, columns)
            )
        )
    return Table(schema, normalized)


def _normalize_for_type(value: Value, dtype: DataType) -> Value:
    if value is None:
        return None
    if dtype is DataType.REAL and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if dtype is DataType.TEXT and not isinstance(value, str):
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)
    return value
