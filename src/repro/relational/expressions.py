"""Expression evaluation with SQL three-valued logic.

The evaluator is shared by every execution path in the repository, and
all of them enter through :meth:`Evaluator.compile`: lay a row out once
(:class:`RowLayout`), resolve an expression's columns against that
layout once per clause, then call the result per row.  The four callers:

* the ground-truth reference executor (every clause of a query),
* the local compute of the hybrid (LLM) plans, which is that executor,
* the residual filter of shard-local partial aggregation
  (:mod:`repro.core.partial_agg`),
* the simulated language model itself, which re-parses predicates shipped
  inside prompts and evaluates them against its world knowledge.

:meth:`Evaluator.evaluate` (one expression, one :class:`Scope`, one
time) is the same compile run once.  Having exactly one implementation
of NULL semantics is what makes the zero-noise equivalence property
(DESIGN.md §5) testable.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational import functions
from repro.relational.aggregates import is_aggregate_function
from repro.relational.types import DataType, Value, coerce_value
from repro.sql import ast
from repro.sql.printer import print_expression

#: Signature of the hook used to run subqueries: (query, outer_scope) -> Table
SubqueryExecutor = Callable[[ast.Query, "Scope"], "object"]

#: A compiled expression: flat row in, value out.
RowFn = Callable[[Sequence[Value]], Value]


class Scope:
    """Resolves column references to values. Scopes chain for correlation."""

    def resolve(self, table: Optional[str], name: str) -> Value:
        raise NotImplementedError

    def can_resolve(self, table: Optional[str], name: str) -> bool:
        raise NotImplementedError


class EmptyScope(Scope):
    """Scope with no columns (literal-only expressions)."""

    def resolve(self, table: Optional[str], name: str) -> Value:
        label = f"{table}.{name}" if table else name
        raise ExecutionError(f"unknown column {label!r} (empty scope)")

    def can_resolve(self, table: Optional[str], name: str) -> bool:
        return False


EMPTY_SCOPE = EmptyScope()


#: :meth:`RowLayout._find` result for a name two bindings both carry.
_AMBIGUOUS = -1


def _unresolved(table: Optional[str], name: str, found: Optional[int]) -> str:
    if found == _AMBIGUOUS:
        return f"ambiguous column name {name!r}"
    if table is not None:
        return f"unknown column {table}.{name}"
    return f"unknown column {name!r}"


class RowLayout:
    """Where each ``(binding, column)`` of a flat row tuple lives.

    The static half of a row scope, built once per clause: ``bindings``
    lists ``(binding name, column names)`` in row order, and both levels
    are case-folded here rather than per row.  Binding names are
    distinct (:meth:`joined` enforces it).  ``parent`` provides outer-query
    columns for correlated subqueries; ``aggregates`` maps the printed
    form of each aggregate call to the slot holding its result, for the
    rows of a grouped clause (representative row + aggregate results).
    """

    def __init__(
        self,
        bindings: Sequence[Tuple[str, Sequence[str]]],
        parent: Optional[Scope] = None,
        aggregates: Optional[Mapping[str, int]] = None,
    ):
        self.bindings = list(bindings)
        self.parent = parent
        self._aggregates = aggregates
        self._qualified: Dict[Tuple[str, str], int] = {}
        self._unqualified: Dict[str, int] = {}
        self._found: Dict[Tuple[Optional[str], str], Optional[int]] = {}
        slot = 0
        for binding, columns in self.bindings:
            folded = binding.lower()
            own: Dict[str, int] = {}
            for column in columns:
                own[column.lower()] = slot
                slot += 1
            for column, position in own.items():
                self._qualified[(folded, column)] = position
                self._unqualified[column] = (
                    _AMBIGUOUS if column in self._unqualified else position
                )
        self.width = slot

    def joined(self, right: "RowLayout") -> "RowLayout":
        """The layout of ``left_row + right_row``."""
        taken = {name.lower() for name, _ in self.bindings}
        for name, _ in right.bindings:
            if name.lower() in taken:
                raise ExecutionError(f"duplicate table name or alias {name!r}")
        return RowLayout(self.bindings + right.bindings, self.parent)

    def with_aggregates(self, keys: Sequence[str]) -> "RowLayout":
        """This layout with one trailing slot per aggregate call."""
        slots = {key: self.width + i for i, key in enumerate(keys)}
        return RowLayout(self.bindings, self.parent, slots)

    def slot(self, table: Optional[str], name: str) -> Optional[int]:
        """The one slot a reference resolves to in this layout itself.

        None when it is ambiguous, unknown, or only a parent's column.
        """
        found = self._find(table, name)
        return None if found == _AMBIGUOUS else found

    def _find(self, table: Optional[str], name: str) -> Optional[int]:
        """The slot of a column; ``_AMBIGUOUS``; or None when not here."""
        try:
            return self._found[(table, name)]
        except KeyError:
            pass
        if table is not None:
            found = self._qualified.get((table.lower(), name.lower()))
        else:
            found = self._unqualified.get(name.lower())
        self._found[(table, name)] = found
        return found

    # -- what compiled expressions resolve against ------------------------------

    def column(self, table: Optional[str], name: str) -> RowFn:
        found = self._find(table, name)
        if found is None and self.parent is not None:
            resolve = self.parent.resolve
            return lambda row: resolve(table, name)
        if found is None or found == _AMBIGUOUS:
            # Raised when a row is evaluated: a clause over zero rows
            # never fails on a name it never had to look up.
            return _raising(_unresolved(table, name, found))
        return itemgetter(found)

    def aggregate(self, key: str) -> Optional[RowFn]:
        if self._aggregates is None:
            return None
        if key not in self._aggregates:
            return _raising(f"aggregate {key} was not computed for this group")
        return itemgetter(self._aggregates[key])

    def scope(self, row: Sequence[Value]) -> Scope:
        return BoundRow(self, row)


class BoundRow(Scope):
    """One flat row under a :class:`RowLayout`.

    What a correlated subquery sees as its outer scope.
    """

    def __init__(self, layout: RowLayout, row: Sequence[Value]):
        self._layout = layout
        self._row = row

    def resolve(self, table: Optional[str], name: str) -> Value:
        found = self._layout._find(table, name)
        if found is None and self._layout.parent is not None:
            return self._layout.parent.resolve(table, name)
        if found is None or found == _AMBIGUOUS:
            raise ExecutionError(_unresolved(table, name, found))
        return self._row[found]

    def can_resolve(self, table: Optional[str], name: str) -> bool:
        if self._layout._find(table, name) is not None:
            return True  # ambiguous counts: resolvable-with-error downstream
        parent = self._layout.parent
        return parent is not None and parent.can_resolve(table, name)


class RowScope(BoundRow):
    """Scope over one row given as nested mappings.

    ``bindings`` maps binding name (table name or alias) to a mapping of
    column name to value.  Both levels are matched case-insensitively.
    An optional ``parent`` provides outer-query columns for correlated
    subqueries.  For one-off evaluation; anything that runs per row
    builds a :class:`RowLayout` once and uses :meth:`Evaluator.compile`.
    """

    def __init__(
        self,
        bindings: Mapping[str, Mapping[str, Value]],
        parent: Optional[Scope] = None,
    ):
        layout = RowLayout(
            [(binding, list(columns)) for binding, columns in bindings.items()],
            parent,
        )
        row = [value for columns in bindings.values() for value in columns.values()]
        super().__init__(layout, row)


def _raising(message: str) -> RowFn:
    def fail(row: Sequence[Value]) -> Value:
        raise ExecutionError(message)

    return fail


def is_true(value: Value) -> bool:
    """SQL WHERE semantics: only TRUE passes (NULL and FALSE do not)."""
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExecutionError(f"boolean context requires a boolean, got {value!r}")


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern to an anchored regular expression."""
    pieces = ["^"]
    for ch in pattern:
        if ch == "%":
            pieces.append(".*")
        elif ch == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(ch))
    pieces.append("$")
    return re.compile("".join(pieces), re.DOTALL)


def _is_number(value: Value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_values(left: Value, right: Value) -> Optional[int]:
    """SQL comparison: None if either side is NULL, else -1/0/+1.

    Numbers compare across int/float; text with text; bool with bool.
    Mixed-type comparisons raise :class:`ExecutionError` — upstream
    validation coerces LLM output to schema types before evaluation.
    """
    if left is None or right is None:
        return None
    if _is_number(left) and _is_number(right):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    if isinstance(left, bool) and isinstance(right, bool):
        return (left > right) - (left < right)
    raise ExecutionError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


class Evaluator:
    """Compiles expression ASTs to per-row callables.

    :meth:`compile` is the one entry point: it resolves every column
    against a :class:`RowLayout` (and dispatches on node type) once, and
    returns a callable taking a flat row.  :meth:`evaluate` is the same
    thing run once against a :class:`Scope`.

    Args:
        subquery_executor: hook invoked for every subquery node; receives
            the subquery AST and the current row's scope (for
            correlation) and must return a
            :class:`~repro.relational.table.Table`.
    """

    def __init__(self, subquery_executor: Optional[SubqueryExecutor] = None):
        self._run_subquery = subquery_executor

    def evaluate(self, expr: ast.Expr, scope: Scope) -> Value:
        return self.compile(expr, RowLayout([], parent=scope))(())

    def compile(self, expr: ast.Expr, layout: RowLayout) -> RowFn:
        """``expr`` as a function of a row laid out by ``layout``.

        Nothing is evaluated and nothing raises here: unknown and
        ambiguous columns, misplaced aggregates and unsupported nodes
        all fail when (and only if) a row reaches them.
        """
        compiler = _COMPILERS.get(type(expr))
        if compiler is None:
            return _raising(f"cannot evaluate {type(expr).__name__} node")
        return compiler(self, expr, layout)

    # -- leaves ------------------------------------------------------------------

    def _compile_literal(self, expr: ast.Literal, layout: RowLayout) -> RowFn:
        value = expr.value
        return lambda row: value

    def _compile_columnref(self, expr: ast.ColumnRef, layout: RowLayout) -> RowFn:
        return layout.column(expr.table, expr.name)

    def _compile_star(self, expr: ast.Star, layout: RowLayout) -> RowFn:
        return _raising("'*' is only valid in a select list or COUNT(*)")

    # -- operators -----------------------------------------------------------------

    def _compile_binaryop(self, expr: ast.BinaryOp, layout: RowLayout) -> RowFn:
        op = expr.op
        left = self.compile(expr.left, layout)
        right = self.compile(expr.right, layout)

        if op == "AND":

            def conjunction(row):
                first = _as_bool(left(row))
                if first is False:
                    return False
                second = _as_bool(right(row))
                if second is False:
                    return False
                if first is None or second is None:
                    return None
                return True

            return conjunction

        if op == "OR":

            def disjunction(row):
                first = _as_bool(left(row))
                if first is True:
                    return True
                second = _as_bool(right(row))
                if second is True:
                    return True
                if first is None or second is None:
                    return None
                return False

            return disjunction

        outcomes = _COMPARISON_OUTCOMES.get(op)
        if outcomes is not None:

            def comparison(row):
                ordering = compare_values(left(row), right(row))
                return None if ordering is None else outcomes[ordering]

            return comparison

        if op == "||":

            def concatenation(row):
                first, second = left(row), right(row)
                if first is None or second is None:
                    return None
                return _text(first) + _text(second)

            return concatenation

        return lambda row: _arithmetic(op, left(row), right(row))

    def _compile_unaryop(self, expr: ast.UnaryOp, layout: RowLayout) -> RowFn:
        op = expr.op
        operand = self.compile(expr.operand, layout)

        def negation(row):
            value = _as_bool(operand(row))
            return None if value is None else not value

        def minus(row):
            value = operand(row)
            if value is None:
                return None
            if not _is_number(value):
                raise ExecutionError(f"unary minus requires a number, got {value!r}")
            return -value

        def unknown(row):
            operand(row)
            raise ExecutionError(f"unknown unary operator {op!r}")

        return {"NOT": negation, "-": minus}.get(op, unknown)

    # -- predicates --------------------------------------------------------------

    def _compile_between(self, expr: ast.Between, layout: RowLayout) -> RowFn:
        operand = self.compile(expr.operand, layout)
        low = self.compile(expr.low, layout)
        high = self.compile(expr.high, layout)
        negated = expr.negated

        def between(row):
            value, lowest, highest = operand(row), low(row), high(row)
            lower_cmp = compare_values(value, lowest)
            upper_cmp = compare_values(value, highest)
            if lower_cmp is None or upper_cmp is None:
                return None
            return (lower_cmp >= 0 and upper_cmp <= 0) != negated

        return between

    def _compile_inlist(self, expr: ast.InList, layout: RowLayout) -> RowFn:
        operand = self.compile(expr.operand, layout)
        items = [self.compile(item, layout) for item in expr.items]
        negated = expr.negated

        def in_list(row):
            value = operand(row)
            if value is None:
                return None
            return _membership(value, (item(row) for item in items), negated)

        return in_list

    def _compile_insubquery(self, expr: ast.InSubquery, layout: RowLayout) -> RowFn:
        operand = self.compile(expr.operand, layout)
        query, negated, scope_of = expr.query, expr.negated, layout.scope

        def in_subquery(row):
            value = operand(row)
            if value is None:
                return None
            table = self._execute_subquery(query, scope_of(row))
            if len(table.schema.columns) != 1:
                raise ExecutionError("IN subquery must return exactly one column")
            return _membership(value, (found[0] for found in table), negated)

        return in_subquery

    def _compile_exists(self, expr: ast.Exists, layout: RowLayout) -> RowFn:
        query, negated, scope_of = expr.query, expr.negated, layout.scope

        def exists(row):
            found = len(self._execute_subquery(query, scope_of(row))) > 0
            return found != negated

        return exists

    def _compile_scalarsubquery(self, expr: ast.ScalarSubquery, layout: RowLayout) -> RowFn:
        query, scope_of = expr.query, layout.scope

        def scalar_subquery(row):
            table = self._execute_subquery(query, scope_of(row))
            if len(table.schema.columns) != 1:
                raise ExecutionError("scalar subquery must return exactly one column")
            if len(table) == 0:
                return None
            if len(table) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            return table.rows[0][0]

        return scalar_subquery

    def _compile_isnull(self, expr: ast.IsNull, layout: RowLayout) -> RowFn:
        operand = self.compile(expr.operand, layout)
        negated = expr.negated
        return lambda row: (operand(row) is None) != negated

    def _compile_like(self, expr: ast.Like, layout: RowLayout) -> RowFn:
        operand = self.compile(expr.operand, layout)
        pattern = self.compile(expr.pattern, layout)
        negated = expr.negated
        # Each distinct pattern is translated once per clause, not per row.
        regexes: Dict[str, "re.Pattern[str]"] = {}

        def like(row):
            value, wanted = operand(row), pattern(row)
            if value is None or wanted is None:
                return None
            if not isinstance(value, str) or not isinstance(wanted, str):
                raise ExecutionError("LIKE requires text operands")
            regex = regexes.get(wanted)
            if regex is None:
                regex = regexes[wanted] = like_to_regex(wanted)
            return (regex.match(value) is not None) != negated

        return like

    def _compile_casewhen(self, expr: ast.CaseWhen, layout: RowLayout) -> RowFn:
        branches = [
            (self.compile(condition, layout), self.compile(result, layout))
            for condition, result in expr.branches
        ]
        otherwise = (
            self.compile(expr.else_result, layout)
            if expr.else_result is not None
            else lambda row: None
        )

        if expr.operand is not None:
            operand = self.compile(expr.operand, layout)

            def simple_case(row):
                subject = operand(row)
                for candidate, result in branches:
                    if compare_values(subject, candidate(row)) == 0:
                        return result(row)
                return otherwise(row)

            return simple_case

        def searched_case(row):
            for condition, result in branches:
                if is_true(condition(row)):
                    return result(row)
            return otherwise(row)

        return searched_case

    # -- functions -----------------------------------------------------------------

    def _compile_functioncall(self, expr: ast.FunctionCall, layout: RowLayout) -> RowFn:
        name = expr.name.upper()
        if is_aggregate_function(name):
            computed = layout.aggregate(print_expression(expr))
            if computed is None:
                return _raising(f"aggregate {name} used outside a grouping context")
            return computed
        if expr.distinct:
            return _raising("DISTINCT is only valid in aggregate calls")
        args = [self.compile(arg, layout) for arg in expr.args]
        return lambda row: functions.call_scalar(name, [arg(row) for arg in args])

    def _compile_cast(self, expr: ast.Cast, layout: RowLayout) -> RowFn:
        operand = self.compile(expr.operand, layout)
        type_name = expr.type_name
        return lambda row: coerce_value(operand(row), DataType.from_name(type_name))

    # -- subquery plumbing --------------------------------------------------------

    def _execute_subquery(self, query: ast.Query, scope: Scope):
        if self._run_subquery is None:
            raise ExecutionError("subqueries are not supported in this context")
        return self._run_subquery(query, scope)


#: Node type -> compiler, so dispatch is one dict lookup per node per clause.
_COMPILERS = {
    ast.Literal: Evaluator._compile_literal,
    ast.ColumnRef: Evaluator._compile_columnref,
    ast.Star: Evaluator._compile_star,
    ast.BinaryOp: Evaluator._compile_binaryop,
    ast.UnaryOp: Evaluator._compile_unaryop,
    ast.Between: Evaluator._compile_between,
    ast.InList: Evaluator._compile_inlist,
    ast.InSubquery: Evaluator._compile_insubquery,
    ast.Exists: Evaluator._compile_exists,
    ast.ScalarSubquery: Evaluator._compile_scalarsubquery,
    ast.IsNull: Evaluator._compile_isnull,
    ast.Like: Evaluator._compile_like,
    ast.CaseWhen: Evaluator._compile_casewhen,
    ast.FunctionCall: Evaluator._compile_functioncall,
    ast.Cast: Evaluator._compile_cast,
}

#: Comparison operator -> result indexed by ``compare_values``' ordering:
#: [0] equal, [1] greater, [-1] less.
_COMPARISON_OUTCOMES = {
    "=": (True, False, False),
    "<>": (False, True, True),
    "<": (False, False, True),
    "<=": (True, False, True),
    ">": (False, True, False),
    ">=": (True, True, False),
}


def _membership(operand: Value, candidates: Iterable[Value], negated: bool) -> Value:
    """``operand [NOT] IN candidates`` for a non-NULL operand."""
    saw_null = False
    for candidate in candidates:
        ordering = compare_values(operand, candidate)
        if ordering is None:
            saw_null = True
        elif ordering == 0:
            return not negated
    if saw_null:
        return None
    return negated


def _arithmetic(op: str, left: Value, right: Value) -> Value:
    if left is None or right is None:
        return None
    if not _is_number(left) or not _is_number(right):
        raise ExecutionError(
            f"arithmetic {op!r} requires numbers, got {left!r} and {right!r}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQLite-compatible: division by zero yields NULL
        return left / right
    if op == "%":
        if right == 0:
            return None
        if isinstance(left, int) and isinstance(right, int):
            return math.fmod(left, right).__int__()
        return math.fmod(left, right)
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _as_bool(value: Value) -> Optional[bool]:
    """Coerce to 3VL boolean; numbers count as truthy/falsy (SQLite-style)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExecutionError(f"boolean context requires a boolean, got {value!r}")


def _text(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def evaluate_constant(expr: ast.Expr) -> Value:
    """Evaluate an expression that references no columns or subqueries."""
    return Evaluator().evaluate(expr, EMPTY_SCOPE)
