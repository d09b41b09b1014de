"""Property tests of the central invariant.

With a zero-noise model (no gaps, no sampling errors, no omissions, no
hallucinations, no truncation) the decomposed engine must return exactly
the rows that the reference executor produces over the ground truth —
for randomly generated predicates, projections and configurations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.materialized import MaterializedEngine
from repro.config import EngineConfig
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM
from repro.llm.world import World
from repro.relational.table import Table
from tests.conftest import (
    CITY_ROWS,
    COUNTRY_ROWS,
    make_city_schema,
    make_country_schema,
    make_engine,
)

_WORLD = World(
    "prop", [Table(make_country_schema(), COUNTRY_ROWS), Table(make_city_schema(), CITY_ROWS)]
)
_ORACLE = MaterializedEngine(_WORLD)
_MODEL = SimulatedLLM(_WORLD, NoiseConfig.perfect(), seed=1)

_COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]
_CONTINENTS = ["Europe", "Asia", "Africa", "South America", "Oceania"]


@st.composite
def country_predicates(draw):
    """A random single-table predicate over the countries schema."""
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind == 0:
        op = draw(st.sampled_from(_COMPARISONS))
        value = draw(st.integers(min_value=0, max_value=2_000_000))
        return f"population {op} {value}"
    if kind == 1:
        continent = draw(st.sampled_from(_CONTINENTS))
        return f"continent = '{continent}'"
    if kind == 2:
        low = draw(st.integers(min_value=0, max_value=5000))
        high = draw(st.integers(min_value=0, max_value=5000))
        return f"gdp BETWEEN {min(low, high)} AND {max(low, high)}"
    if kind == 3:
        prefix = draw(st.sampled_from(["F", "I", "J", "K", "B", "X"]))
        return f"name LIKE '{prefix}%'"
    if kind == 4:
        picks = draw(
            st.lists(st.sampled_from(_CONTINENTS), min_size=1, max_size=3, unique=True)
        )
        quoted = ", ".join(f"'{c}'" for c in picks)
        return f"continent IN ({quoted})"
    return "gdp IS NOT NULL"


@st.composite
def compound_predicates(draw):
    left = draw(country_predicates())
    if draw(st.booleans()):
        connective = draw(st.sampled_from(["AND", "OR"]))
        right = draw(country_predicates())
        maybe_not = "NOT " if draw(st.booleans()) else ""
        return f"{left} {connective} {maybe_not}({right})"
    return left


@settings(max_examples=60, deadline=None)
@given(predicate=compound_predicates())
def test_filter_equivalence_random_predicates(predicate):
    sql = f"SELECT name, population FROM countries WHERE {predicate}"
    truth = sorted(_ORACLE.execute(sql).rows)
    engine = make_engine(_MODEL, _WORLD)
    assert sorted(engine.execute(sql).rows) == truth


@settings(max_examples=30, deadline=None)
@given(
    predicate=country_predicates(),
    columns=st.lists(
        st.sampled_from(["name", "continent", "population", "gdp"]),
        min_size=1, max_size=3, unique=True,
    ),
    page_size=st.integers(min_value=1, max_value=7),
)
def test_projection_and_page_size_equivalence(predicate, columns, page_size):
    sql = f"SELECT {', '.join(columns)} FROM countries WHERE {predicate}"
    truth = sorted(_ORACLE.execute(sql).rows, key=repr)
    engine = make_engine(_MODEL, _WORLD, EngineConfig().with_(page_size=page_size))
    assert sorted(engine.execute(sql).rows, key=repr) == truth


@settings(max_examples=30, deadline=None)
@given(
    predicate=country_predicates(),
    limit=st.integers(min_value=1, max_value=12),
)
def test_aggregate_equivalence_random_predicates(predicate, limit):
    sql = (
        "SELECT continent, COUNT(*), SUM(population) FROM countries "
        f"WHERE {predicate} GROUP BY continent"
    )
    truth = sorted(_ORACLE.execute(sql).rows, key=repr)
    engine = make_engine(_MODEL, _WORLD)
    assert sorted(engine.execute(sql).rows, key=repr) == truth


@settings(max_examples=30, deadline=None)
@given(
    threshold=st.integers(min_value=0, max_value=15000),
    use_lookup=st.booleans(),
)
def test_join_equivalence_random_thresholds(threshold, use_lookup):
    sql = (
        "SELECT c.city, k.continent FROM cities c JOIN countries k "
        f"ON k.name = c.country WHERE c.city_pop > {threshold}"
    )
    truth = sorted(_ORACLE.execute(sql).rows)
    config = EngineConfig().with_(enable_lookup_join=use_lookup)
    engine = make_engine(_MODEL, _WORLD, config)
    assert sorted(engine.execute(sql).rows) == truth


@st.composite
def equi_join_queries(draw):
    """A two-table equi-join: the reference executor's hash-probe path."""
    kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    equality = draw(
        st.sampled_from(["k.name = c.country", "c.country = k.name", "name = country"])
    )
    residual = ""
    if draw(st.booleans()):
        residual = f" AND c.city_pop > {draw(st.integers(min_value=0, max_value=15000))}"
    where = f" WHERE {draw(country_predicates())}" if draw(st.booleans()) else ""
    return (
        "SELECT k.name, k.continent, c.city, c.city_pop "
        f"FROM countries k {kind} cities c ON {equality}{residual}{where}"
    )


@settings(max_examples=40, deadline=None)
@given(sql=equi_join_queries(), use_lookup=st.booleans())
def test_equi_join_equivalence_random_shapes(sql, use_lookup):
    truth = sorted(_ORACLE.execute(sql).rows, key=repr)
    config = EngineConfig().with_(enable_lookup_join=use_lookup)
    engine = make_engine(_MODEL, _WORLD, config)
    assert sorted(engine.execute(sql).rows, key=repr) == truth


@settings(max_examples=20, deadline=None)
@given(keys=st.lists(
    st.sampled_from([row[0] for row in COUNTRY_ROWS] + ["Atlantis", "Mu"]),
    min_size=1, max_size=5, unique=True,
))
def test_point_lookup_equivalence(keys):
    quoted = ", ".join(f"'{k}'" for k in keys)
    sql = f"SELECT name, gdp FROM countries WHERE name IN ({quoted})"
    truth = sorted(_ORACLE.execute(sql).rows)
    engine = make_engine(_MODEL, _WORLD)
    assert sorted(engine.execute(sql).rows) == truth
