"""Reference executor tests: the ground-truth SQL engine."""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, ExecutionError
from repro.relational import executor as executor_module
from repro.relational import expressions
from repro.relational.catalog import Catalog
from repro.relational.executor import ReferenceExecutor
from repro.relational.expressions import EMPTY_SCOPE, Evaluator
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.sql.parser import parse


def rows(reference, sql):
    return reference.execute(sql).rows


def test_projection_and_alias(reference):
    result = reference.execute("SELECT name AS n, population FROM countries LIMIT 1")
    assert result.schema.column_names == ["n", "population"]


def test_star_expansion(reference):
    result = reference.execute("SELECT * FROM countries LIMIT 1")
    assert result.schema.column_names == ["name", "continent", "population", "gdp"]


def test_qualified_star(reference):
    result = reference.execute(
        "SELECT c.* FROM cities c JOIN countries k ON k.name = c.country LIMIT 1"
    )
    assert result.schema.column_names == ["city", "country", "city_pop", "is_capital"]


def test_where_filters(reference):
    names = [r[0] for r in rows(reference, "SELECT name FROM countries WHERE continent = 'Asia'")]
    assert sorted(names) == ["India", "Japan"]


def test_where_null_is_not_true(mini_catalog):
    schema = TableSchema(
        name="t", columns=(Column("x", DataType.INTEGER),), primary_key=()
    )
    mini_catalog.register_table(Table(schema, [(1,), (None,), (3,)]))
    reference = ReferenceExecutor(mini_catalog)
    assert rows(reference, "SELECT x FROM t WHERE x > 1") == [(3,)]


def test_inner_join(reference):
    result = rows(
        reference,
        "SELECT c.city, k.continent FROM cities c JOIN countries k "
        "ON k.name = c.country WHERE k.continent = 'Asia' ORDER BY c.city",
    )
    assert result == [("Delhi", "Asia"), ("Osaka", "Asia"), ("Tokyo", "Asia")]


def test_left_join_null_extends(reference):
    result = rows(
        reference,
        "SELECT k.name, c.city FROM countries k LEFT JOIN cities c "
        "ON c.country = k.name AND c.is_capital = FALSE ORDER BY k.name",
    )
    by_name = {name: city for name, city in result}
    assert by_name["Iceland"] is None
    assert by_name["France"] == "Lyon"


def test_cross_join_cardinality(reference):
    result = rows(reference, "SELECT 1 FROM countries CROSS JOIN cities")
    assert len(result) == 10 * 11


def test_self_join_with_aliases(reference):
    result = rows(
        reference,
        "SELECT a.name FROM countries a JOIN countries b "
        "ON b.continent = a.continent AND b.population > a.population "
        "WHERE a.continent = 'Asia'",
    )
    assert result == [("Japan",)]


def test_duplicate_alias_raises(reference):
    with pytest.raises(ExecutionError):
        reference.execute("SELECT 1 FROM countries c JOIN cities c ON 1 = 1")


def test_duplicate_alias_is_case_insensitive(reference):
    # Scopes fold case, so ``a`` and ``A`` are one name: say so, rather
    # than letting the second binding shadow the first ("unknown column").
    with pytest.raises(ExecutionError, match="duplicate table name or alias"):
        reference.execute("SELECT a.city FROM cities a JOIN countries A ON 1 = 1")


def test_group_by_with_having(reference):
    result = rows(
        reference,
        "SELECT continent, COUNT(*) AS n FROM countries "
        "GROUP BY continent HAVING COUNT(*) >= 2 ORDER BY continent",
    )
    assert result == [("Asia", 2), ("Europe", 5), ("South America", 2)]


def test_global_aggregate_without_group_by(reference):
    assert rows(reference, "SELECT COUNT(*), MIN(population) FROM countries") == [
        (10, 370)
    ]


def test_aggregate_over_empty_input(reference):
    assert rows(
        reference, "SELECT COUNT(*), SUM(population) FROM countries WHERE name = 'X'"
    ) == [(0, None)]


def test_group_by_empty_input_yields_no_groups(reference):
    assert (
        rows(
            reference,
            "SELECT continent, COUNT(*) FROM countries WHERE name = 'X' GROUP BY continent",
        )
        == []
    )


def test_count_distinct(reference):
    assert rows(reference, "SELECT COUNT(DISTINCT continent) FROM countries") == [(4,)]


def test_aggregate_in_order_by(reference):
    result = rows(
        reference,
        "SELECT continent FROM countries GROUP BY continent ORDER BY SUM(population) DESC",
    )
    assert result[0] == ("Asia",)


def test_aggregate_expression_in_select(reference):
    result = rows(
        reference,
        "SELECT MAX(population) - MIN(population) FROM countries WHERE continent = 'Asia'",
    )
    assert result == [(1408000 - 125000,)]


def test_order_by_column_direction(reference):
    result = rows(
        reference,
        "SELECT name FROM countries WHERE continent = 'Europe' ORDER BY population DESC",
    )
    assert result[0] == ("Germany",)
    assert result[-1] == ("Iceland",)


def test_order_by_position_and_alias(reference):
    by_position = rows(reference, "SELECT name, population FROM countries ORDER BY 2 DESC LIMIT 1")
    by_alias = rows(
        reference, "SELECT name, population AS p FROM countries ORDER BY p DESC LIMIT 1"
    )
    assert by_position == by_alias == [("India", 1408000)]


def test_order_by_expression(reference):
    result = rows(
        reference,
        "SELECT name FROM countries ORDER BY population * -1 LIMIT 1",
    )
    assert result == [("India",)]


def test_order_by_nulls_default_and_override(mini_catalog):
    schema = TableSchema(name="t", columns=(Column("x", DataType.INTEGER),))
    mini_catalog.register_table(Table(schema, [(2,), (None,), (1,)]))
    reference = ReferenceExecutor(mini_catalog)
    assert rows(reference, "SELECT x FROM t ORDER BY x") == [(None,), (1,), (2,)]
    assert rows(reference, "SELECT x FROM t ORDER BY x DESC") == [(2,), (1,), (None,)]
    assert rows(reference, "SELECT x FROM t ORDER BY x NULLS LAST") == [
        (1,), (2,), (None,),
    ]
    assert rows(reference, "SELECT x FROM t ORDER BY x DESC NULLS FIRST") == [
        (None,), (2,), (1,),
    ]


def test_limit_offset(reference):
    all_names = rows(reference, "SELECT name FROM countries ORDER BY name")
    page = rows(reference, "SELECT name FROM countries ORDER BY name LIMIT 3 OFFSET 2")
    assert page == all_names[2:5]


def test_distinct(reference):
    result = rows(reference, "SELECT DISTINCT continent FROM countries")
    assert len(result) == 4


def test_union_dedupes_union_all_keeps(reference):
    union = rows(
        reference,
        "SELECT continent FROM countries UNION SELECT continent FROM countries",
    )
    union_all = rows(
        reference,
        "SELECT continent FROM countries UNION ALL SELECT continent FROM countries",
    )
    assert len(union) == 4
    assert len(union_all) == 20


def test_intersect_and_except(reference):
    intersect = rows(
        reference,
        "SELECT country FROM cities INTERSECT SELECT name FROM countries",
    )
    assert len(intersect) == 9  # every city country except Iceland (no city)
    except_rows = rows(
        reference,
        "SELECT name FROM countries EXCEPT SELECT country FROM cities",
    )
    assert except_rows == [("Iceland",)]


def test_setop_arity_mismatch_raises(reference):
    with pytest.raises(ExecutionError):
        reference.execute("SELECT name, continent FROM countries UNION SELECT name FROM countries")


def test_setop_order_by_name_and_position(reference):
    result = rows(
        reference,
        "SELECT name FROM countries UNION SELECT city FROM cities ORDER BY 1 LIMIT 3",
    )
    assert result == [("Berlin",), ("Brasilia",), ("Brazil",)]


def test_uncorrelated_in_subquery(reference):
    result = rows(
        reference,
        "SELECT name FROM countries WHERE name IN "
        "(SELECT country FROM cities WHERE city_pop > 5000) ORDER BY name",
    )
    assert result == [("Chile",), ("India",), ("Japan",)]


def test_correlated_exists(reference):
    result = rows(
        reference,
        "SELECT name FROM countries k WHERE EXISTS "
        "(SELECT 1 FROM cities c WHERE c.country = k.name AND c.city_pop > 10000)",
    )
    assert sorted(result) == [("India",), ("Japan",)]


def test_correlated_scalar_subquery(reference):
    result = rows(
        reference,
        "SELECT name, (SELECT MAX(city_pop) FROM cities c WHERE c.country = k.name) "
        "FROM countries k WHERE k.name = 'Japan'",
    )
    assert result == [("Japan", 13960)]


def test_scalar_subquery_multiple_rows_raises(reference):
    with pytest.raises(ExecutionError):
        reference.execute("SELECT (SELECT name FROM countries) FROM countries")


def test_derived_table(reference):
    result = rows(
        reference,
        "SELECT d.continent, d.n FROM "
        "(SELECT continent, COUNT(*) AS n FROM countries GROUP BY continent) AS d "
        "WHERE d.n >= 2 ORDER BY d.continent",
    )
    assert result == [("Asia", 2), ("Europe", 5), ("South America", 2)]


def test_case_expression_end_to_end(reference):
    result = rows(
        reference,
        "SELECT name, CASE WHEN population > 100000 THEN 'big' ELSE 'small' END "
        "FROM countries WHERE continent = 'Asia' ORDER BY name",
    )
    assert result == [("India", "big"), ("Japan", "big")]


def test_select_without_from(reference):
    assert rows(reference, "SELECT 1 + 1, UPPER('x')") == [(2, "X")]


def test_unknown_table_raises(reference):
    with pytest.raises(CatalogError):
        reference.execute("SELECT 1 FROM missing_table")


def test_having_without_group_or_aggregate_raises(reference):
    with pytest.raises(ExecutionError):
        reference.execute("SELECT name FROM countries HAVING name = 'France'")


def test_duplicate_output_names_are_uniquified(reference):
    result = reference.execute("SELECT name, name FROM countries LIMIT 1")
    assert result.schema.column_names == ["name", "name_2"]


def test_output_type_inference(reference):
    result = reference.execute("SELECT population / 2 AS half FROM countries LIMIT 1")
    assert result.schema.columns[0].dtype is DataType.REAL


def test_boolean_select_item(reference):
    result = rows(
        reference,
        "SELECT is_capital FROM cities WHERE city = 'Lyon'",
    )
    assert result == [(False,)]


# -- joins: hash probe vs the nested loop ------------------------------------------
#
# The executor probes a hash table when the join condition starts with
# ``left column = right column`` and runs the nested loop otherwise.  The
# two must be indistinguishable: same rows, same order, same errors.

_JOIN_CONDITIONS = [
    "l.lk = r.rk",  # bare equality
    "l.lk = r.rk AND l.lv < r.rw",  # equality AND residual
    "r.rk = l.lk",  # reversed operand order
    "l.lk < r.rk",  # non-equi
    "lk = rk",  # unqualified columns
    "lk = rk AND rw IS NOT NULL",
]


def _join_catalog(left_rows, right_rows, left_key=DataType.INTEGER, right_key=DataType.REAL):
    """``l(lid, lk, lv)`` and ``r(rid, rk, rw)`` with the given key types."""
    catalog = Catalog()
    for name, prefix, key_type, value, table_rows in (
        ("l", "l", left_key, "lv", left_rows),
        ("r", "r", right_key, "rw", right_rows),
    ):
        schema = TableSchema(
            name=name,
            columns=(
                Column(f"{prefix}id", DataType.INTEGER, nullable=False),
                Column(f"{prefix}k", key_type),
                Column(value, DataType.INTEGER),
            ),
        )
        numbered = [(i, key, v) for i, (key, v) in enumerate(table_rows)]
        catalog.register_table(Table(schema, numbered))
    return catalog


def _nested_loop(executor, join):
    """The join computed by the nested-loop routine, called directly."""
    left = executor._eval_table_ref(join.left, EMPTY_SCOPE)
    right = executor._eval_table_ref(join.right, EMPTY_SCOPE)
    layout = left.layout.joined(right.layout)
    condition = Evaluator().compile(join.condition, layout)
    null_right = (None,) * right.layout.width if join.kind == "left" else None
    return executor_module._join_rows(
        left.rows, lambda lrow: right.rows, condition, null_right
    )


def _parse_join(kind, condition):
    return parse(f"SELECT * FROM l {kind} r ON {condition}").from_clause


_small_values = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
# Few distinct keys, so duplicates and matches are common; NULLs on both
# sides; int keys on the left against float keys (1 vs 1.0) on the right.
_int_side = st.lists(st.tuples(_small_values, _small_values), max_size=6)
_float_side = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0])),
        _small_values,
    ),
    max_size=6,
)
_text_keys = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
_text_side = st.lists(st.tuples(_text_keys, _small_values), max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    sides=st.one_of(
        st.tuples(_int_side, _float_side, st.just((DataType.INTEGER, DataType.REAL))),
        st.tuples(_text_side, _text_side, st.just((DataType.TEXT, DataType.TEXT))),
    ),
    kind=st.sampled_from(["JOIN", "LEFT JOIN"]),
    condition=st.sampled_from(_JOIN_CONDITIONS),
)
def test_join_matches_nested_loop_and_sqlite(sides, kind, condition):
    left_rows, right_rows, (left_key, right_key) = sides
    catalog = _join_catalog(left_rows, right_rows, left_key, right_key)
    executor = ReferenceExecutor(catalog)
    join = _parse_join(kind, condition)

    # (a) row for row, order included, against the nested loop.
    joined = executor._eval_join(join, EMPTY_SCOPE).rows
    assert joined == _nested_loop(executor, join)

    # (b) as a bag against SQLite over the same tables.
    connection = sqlite3.connect(":memory:")
    try:
        for name in ("l", "r"):
            table = catalog.table(name)
            columns = ", ".join(table.schema.column_names)
            connection.execute(f"CREATE TABLE {name} ({columns})")
            connection.executemany(
                f"INSERT INTO {name} VALUES (?, ?, ?)", table.rows
            )
        expected = connection.execute(
            f"SELECT * FROM l {kind} r ON {condition}"
        ).fetchall()
    finally:
        connection.close()
    assert sorted(joined, key=repr) == sorted(expected, key=repr)


def test_join_keeps_nested_loop_order_under_limit():
    # Left-major, right-input order within a left row: LIMIT without
    # ORDER BY sees the same prefix whichever algorithm ran.
    catalog = _join_catalog(
        [(2, 0), (1, 0), (2, 1)], [(1.0, 7), (2.0, 8), (2.0, 9), (1.0, 6)]
    )
    executor = ReferenceExecutor(catalog)
    result = executor.execute("SELECT lid, rid FROM l JOIN r ON l.lk = r.rk")
    assert result.rows == [(0, 1), (0, 2), (1, 0), (1, 3), (2, 1), (2, 2)]
    limited = executor.execute("SELECT lid, rid FROM l JOIN r ON l.lk = r.rk LIMIT 3")
    assert limited.rows == result.rows[:3]


@pytest.mark.parametrize(
    "condition,expected",
    [
        ("l.lk = r.rk", (1, 1, False)),
        ("r.rk = l.lk", (1, 1, False)),
        ("lk = rk", (1, 1, False)),
        ("l.lk = r.rk AND l.lv < r.rw AND r.rw > 0", (1, 1, True)),
        ("l.lv < r.rw AND l.lk = r.rk", None),  # equality is not leftmost
        ("l.lk = r.rk OR l.lv = r.rw", None),
        ("l.lk < r.rk", None),
        ("l.lk = l.lv", None),  # both operands on one side
        ("l.lk = r.rk + 0", None),
        ("1 = 1", None),
        ("l.lk = o.k", None),  # not in this FROM clause: an outer query's
    ],
)
def test_equi_join_detection(condition, expected):
    executor = ReferenceExecutor(_join_catalog([], []))
    join = _parse_join("JOIN", condition)
    left = executor._eval_table_ref(join.left, EMPTY_SCOPE)
    right = executor._eval_table_ref(join.right, EMPTY_SCOPE)
    found = executor_module._equi_join_slots(
        join.condition, left.layout.joined(right.layout), left.layout.width
    )
    assert found == expected


def test_null_keys_with_residual_and_nan_keys_take_the_nested_loop():
    buckets = executor_module._equi_join_buckets
    left, right = [(0, 1, 5), (1, None, 5)], [(0, 1.0, 6)]
    assert buckets(left, right, 1, 1, False) == {1.0: [(0, 1.0, 6)]}
    # 3VL ``NULL AND x`` still evaluates ``x``, which may raise.
    assert buckets(left, right, 1, 1, True) is None
    # compare_values orders NaN equal to every number; a dict does not.
    assert buckets([(0, 1, 5)], [(0, float("nan"), 6)], 1, 1, False) is None

    catalog = _join_catalog([(1, 5), (2, 5)], [(float("nan"), 6), (2.0, 7)])
    executor = ReferenceExecutor(catalog)
    join = _parse_join("JOIN", "l.lk = r.rk")
    assert executor._eval_join(join, EMPTY_SCOPE).rows == _nested_loop(executor, join)


def test_mixed_type_join_keys_still_raise():
    text_vs_int = _join_catalog(
        [("x", 1)], [(1, 1)], left_key=DataType.TEXT, right_key=DataType.INTEGER
    )
    with pytest.raises(ExecutionError, match="cannot compare str with int"):
        ReferenceExecutor(text_vs_int).execute("SELECT * FROM l JOIN r ON l.lk = r.rk")

    bool_vs_int = _join_catalog(
        [(True, 1)], [(1, 1)], left_key=DataType.BOOLEAN, right_key=DataType.INTEGER
    )
    with pytest.raises(ExecutionError, match="cannot compare bool with int"):
        ReferenceExecutor(bool_vs_int).execute("SELECT * FROM l JOIN r ON l.lk = r.rk")

    # Reversed operands: the message keeps the condition's operand order.
    with pytest.raises(ExecutionError, match="cannot compare int with str"):
        ReferenceExecutor(text_vs_int).execute(
            "SELECT * FROM l LEFT JOIN r ON r.rk = l.lk AND l.lv = 1"
        )


def test_ambiguous_join_column_still_raises(reference):
    with pytest.raises(ExecutionError, match="ambiguous column name 'name'"):
        reference.execute(
            "SELECT 1 FROM countries a JOIN countries b ON name = b.name"
        )
    # ...but only when a row is evaluated, exactly like any other clause.
    assert rows(
        reference,
        "SELECT 1 FROM countries a JOIN (SELECT name FROM countries WHERE 1 = 0) b "
        "ON name = b.name",
    ) == []


# -- regression pins that do not depend on host speed --------------------------


def test_equi_join_compares_matches_not_pairs(monkeypatch):
    n, m = 30, 40
    catalog = _join_catalog(
        [(key, 0) for key in range(n)],
        [(float(key), 0) for key in range(10, 10 + m)],
    )
    calls = []
    real = expressions.compare_values

    def counting(left, right):
        calls.append((left, right))
        return real(left, right)

    monkeypatch.setattr(expressions, "compare_values", counting)
    result = ReferenceExecutor(catalog).execute(
        "SELECT l.lid, r.rid FROM l JOIN r ON l.lk = r.rk"
    )
    matches = len(result)
    assert matches == n - 10
    assert len(calls) <= n + m + matches < n * m


def test_no_scope_object_is_built_per_row(reference, monkeypatch):
    built = []
    for cls in (expressions.RowScope, expressions.BoundRow):
        real = cls.__init__

        def counting(self, *args, _real=real, _name=cls.__name__, **kwargs):
            built.append(_name)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    result = rows(
        reference,
        "SELECT k.continent, COUNT(*) AS n, MAX(c.city_pop) "
        "FROM cities c JOIN countries k ON c.country = k.name "
        "JOIN countries peer ON peer.continent = k.continent "
        "WHERE c.city_pop > 600 GROUP BY k.continent "
        "HAVING COUNT(*) > 1 ORDER BY n DESC, k.continent",
    )
    assert result[0] == ("Europe", 20, 3645)
    assert built == []
