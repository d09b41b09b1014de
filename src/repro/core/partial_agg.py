"""Mergeable partial aggregation for sharded scans.

Each shard of a :class:`~repro.plan.physical.ShardedScanStep` reduces
its rows to per-group *partial states*; the executor merges the states
across shards with algebraic combiners, in ascending shard order, and
only then finalizes values.  The states mirror the reference
accumulators in :mod:`repro.relational.aggregates` exactly — NULL
skipping, ``COUNT(*)`` vs ``COUNT(col)``, integer-preserving SUM, AVG
as float-sum + count — so the merged result matches what the reference
executor would compute over the concatenated rows.

Exactness: COUNT/MIN/MAX merges are exact, and SUM/AVG merges are
exact whenever the per-shard sums are exact (integers, and floats
whose partial sums carry no rounding, e.g. dyadic fractions).  The
combiner folds shard partials left-to-right — the same order a single
chain would have seen the rows — so only float re-association can
introduce a last-ulp difference.

Grouping mirrors the reference executor: group keys are the
type-tagged numerically-normalized form of the group-column values,
groups surface in first-seen order across the shard-ordered row
stream, and each group's *representative* values (what a grouped
select emits for its group columns) come from the first row seen.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.plan.physical import (
    MERGEABLE_AGGREGATES,
    AggregateItem,
    PartialAggregateSpec,
)
from repro.relational.aggregates import compare_values
from repro.relational.executor import hashable_value
from repro.relational.expressions import Evaluator, RowLayout, is_true
from repro.relational.types import Value


class PartialState:
    """Base: feed with :meth:`add`, combine with :meth:`merge`."""

    def add(self, value: Value) -> None:
        raise NotImplementedError

    def merge(self, other: "PartialState") -> None:
        raise NotImplementedError

    def result(self) -> Value:
        raise NotImplementedError


class CountStarState(PartialState):
    """COUNT(*): counts rows including NULLs."""

    def __init__(self):
        self.n = 0

    def add(self, value: Value) -> None:
        self.n += 1

    def merge(self, other: "CountStarState") -> None:
        self.n += other.n

    def result(self) -> Value:
        return self.n


class CountState(PartialState):
    """COUNT(expr): counts non-NULL inputs."""

    def __init__(self):
        self.n = 0

    def add(self, value: Value) -> None:
        if value is not None:
            self.n += 1

    def merge(self, other: "CountState") -> None:
        self.n += other.n

    def result(self) -> Value:
        return self.n


class SumState(PartialState):
    """SUM(expr): integer sums stay int, any float input promotes."""

    def __init__(self):
        self.total: Optional[float] = None
        self.all_int = True

    def add(self, value: Value) -> None:
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"SUM expects numbers, got {value!r}")
        if isinstance(value, float):
            self.all_int = False
        self.total = value if self.total is None else self.total + value

    def merge(self, other: "SumState") -> None:
        if other.total is None:
            return
        if not other.all_int:
            self.all_int = False
        self.total = other.total if self.total is None else self.total + other.total

    def result(self) -> Value:
        if self.total is None:
            return None
        return int(self.total) if self.all_int else float(self.total)


class AvgState(PartialState):
    """AVG(expr) via sum + count: always returns REAL."""

    def __init__(self):
        self.total = 0.0
        self.count = 0

    def add(self, value: Value) -> None:
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"AVG expects numbers, got {value!r}")
        self.total += float(value)
        self.count += 1

    def merge(self, other: "AvgState") -> None:
        self.total += other.total
        self.count += other.count

    def result(self) -> Value:
        if self.count == 0:
            return None
        return self.total / self.count


class MinState(PartialState):
    """MIN(expr): keeps the least non-NULL value seen."""

    def __init__(self):
        self.best: Value = None

    def add(self, value: Value) -> None:
        if value is None:
            return
        if self.best is None or compare_values(value, self.best) < 0:
            self.best = value

    def merge(self, other: "MinState") -> None:
        self.add(other.best)

    def result(self) -> Value:
        return self.best


class MaxState(PartialState):
    """MAX(expr): keeps the greatest non-NULL value seen."""

    def __init__(self):
        self.best: Value = None

    def add(self, value: Value) -> None:
        if value is None:
            return
        if self.best is None or compare_values(value, self.best) > 0:
            self.best = value

    def merge(self, other: "MaxState") -> None:
        self.add(other.best)

    def result(self) -> Value:
        return self.best


_STATE_FACTORIES = {
    "COUNT": CountState,
    "SUM": SumState,
    "AVG": AvgState,
    "MIN": MinState,
    "MAX": MaxState,
}

assert frozenset(_STATE_FACTORIES) == MERGEABLE_AGGREGATES


def new_state(item: AggregateItem) -> PartialState:
    """A fresh partial state for one aggregate item."""
    if item.column is None:
        return CountStarState()
    return _STATE_FACTORIES[item.func]()


class GroupPartial:
    """Per-group partial: representative values + one state per item."""

    __slots__ = ("representative", "states")

    def __init__(self, representative: Tuple[Value, ...], states: List[PartialState]):
        self.representative = representative
        self.states = states

    def merge(self, other: "GroupPartial") -> None:
        for state, other_state in zip(self.states, other.states):
            state.merge(other_state)


#: Groups in first-seen order (dicts preserve insertion order).
Partials = Dict[Tuple, GroupPartial]


def reduce_rows(
    spec: PartialAggregateSpec,
    columns: Sequence[str],
    rows: Sequence[Sequence[Value]],
) -> Partials:
    """Reduce one shard's rows to per-group partial states.

    ``columns`` are the shard table's column names (the scan's fetched
    columns, schema-cased); the residual WHERE is evaluated per row
    under the step's binding before accumulation — exactly where the
    reference executor applies it.
    """
    position = {name.lower(): i for i, name in enumerate(columns)}
    group_positions = [position[name.lower()] for name in spec.group_columns]
    item_positions = [
        position[item.column.lower()] if item.column is not None else None
        for item in spec.items
    ]
    keep = None
    if spec.residual_filter is not None:
        keep = Evaluator().compile(
            spec.residual_filter, RowLayout([(spec.binding, columns)])
        )

    partials: Partials = {}
    for row in rows:
        if keep is not None and not is_true(keep(row)):
            continue
        key = tuple(hashable_value(row[i]) for i in group_positions)
        group = partials.get(key)
        if group is None:
            group = GroupPartial(
                representative=tuple(row[i] for i in group_positions),
                states=[new_state(item) for item in spec.items],
            )
            partials[key] = group
        for state, item_position in zip(group.states, item_positions):
            state.add(1 if item_position is None else row[item_position])
    return partials


def merge_partials(
    spec: PartialAggregateSpec, shard_partials: Sequence[Partials]
) -> List[Tuple[Value, ...]]:
    """Merge per-shard partials in shard order; finalize group rows.

    Group output order is first-seen order over the shard-ordered row
    stream — the order a single chain would have produced.  Aggregates
    over an empty, ungrouped input yield exactly one row (COUNT 0,
    everything else NULL), mirroring the reference executor.
    """
    merged: Partials = {}
    for partials in shard_partials:
        for key, group in partials.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = group
            else:
                existing.merge(group)
    if not merged and not spec.group_columns:
        merged[()] = GroupPartial(
            representative=(), states=[new_state(item) for item in spec.items]
        )
    return [
        group.representative + tuple(state.result() for state in group.states)
        for group in merged.values()
    ]
