"""Spans recorded from outside the program.

``SpanRecorder.install`` wraps public callables of each layer *at the
name the engine resolves* — a module global such as
``repro.core.engine.parse`` is patched on the importing module, a method
on its class — and records one ``Span`` per call with ``perf_counter``.
Spans stay in memory until the run ends.  Nothing under ``src/`` is
edited; spans inside the program are a later issue.

Parent links come from a per-thread stack, so a call that hops threads
(dispatcher pool, scheduler workers, the asyncio core) starts a new root
on the thread it lands on, and coroutines are recorded as leaves with no
parent: two of them interleave on one loop thread, where a stack would
link them to each other.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op_id: Optional[int]
    thread: int


#: The root span the benchmark opens around one public-API call.
OP = "op"

#: (module, attribute path inside it, layer).  The span name is the
#: attribute path.  ``repro.core.engine:parse`` is the engine's own
#: binding of the parser, not ``repro.sql.parser.parse``, so only calls
#: the engine makes are timed.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.engine", "parse", "sql"),
    ("repro.sql.binder", "Binder.bind", "sql"),
    ("repro.plan.optimizer", "Optimizer.plan", "plan"),
    ("repro.core.engine", "explain_plan", "plan"),
    ("repro.core.engine", "LLMStorageEngine.execute", "core"),
    ("repro.core.engine", "LLMStorageEngine.execute_many", "core"),
    ("repro.core.executor", "PlanExecutor.execute", "core"),
    ("repro.core.operators", "ModelClient.run_scan", "core"),
    ("repro.core.operators", "ModelClient.run_lookup", "core"),
    ("repro.core.operators", "ModelClient.run_sharded_scan", "core"),
    ("repro.core.operators", "ModelClient.run_judge", "core"),
    ("repro.core.operators", "ModelClient.open_scan_stream", "core"),
    ("repro.core.operators", "ModelClient.open_sharded_scan_stream", "core"),
    ("repro.core.operators", "ModelClient.open_lookup_stream", "core"),
    ("repro.core.validation", "Validator.validate_row", "core"),
    ("repro.core.operators", "build_enumerate_prompt", "prompts"),
    ("repro.core.operators", "build_lookup_prompt", "prompts"),
    ("repro.core.operators", "build_judge_prompt", "prompts"),
    ("repro.prompts.parsing", "parse_enumerate_completion", "prompts"),
    ("repro.prompts.parsing", "parse_lookup_completion", "prompts"),
    ("repro.prompts.parsing", "parse_judge_completion", "prompts"),
    ("repro.relational.executor", "ReferenceExecutor.execute", "relational"),
    ("repro.core.engine", "canonical_sql_key", "storage"),
    ("repro.storage.tier", "StorageTier.get_result", "storage"),
    ("repro.storage.tier", "StorageTier.put_result", "storage"),
    ("repro.storage.tier", "StorageTier.scan_fragment", "storage"),
    ("repro.storage.tier", "StorageTier.store_scan_fragment", "storage"),
    ("repro.storage.tier", "StorageTier.peek_scan_fragment", "storage"),
    ("repro.storage.tier", "StorageTier.peek_lookup_coverage", "storage"),
    ("repro.storage.tier", "StorageTier.lookup_cells", "storage"),
    ("repro.storage.tier", "StorageTier.store_lookup_row", "storage"),
    ("repro.storage.tier", "StorageTier.store_lookup_negative", "storage"),
    ("repro.storage.persistent", "SqliteBackend.get", "storage"),
    ("repro.storage.persistent", "SqliteBackend.peek", "storage"),
    ("repro.storage.persistent", "SqliteBackend.put", "storage"),
    ("repro.runtime.dispatcher", "Dispatcher.run_wave", "runtime"),
    ("repro.runtime.dispatcher", "Dispatcher.run_one", "runtime"),
    ("repro.runtime.dispatcher", "Dispatcher.submit", "runtime"),
    ("repro.runtime.scheduler", "QueryScheduler.execute", "runtime"),
    ("repro.llm.accounting", "MeteredModel.complete", "llm"),
    ("repro.llm.cache", "CachingModel.complete", "llm"),
    ("repro.llm.simulated", "SimulatedLLM.complete", "llm"),
    ("models", "ReplayModel.complete", "llm"),
    ("models", "ReplayModel.complete_async", "llm"),
    ("repro.stats.catalog", "StatisticsCatalog.flush", "stats"),
    ("repro.stats.catalog", "StatisticsCatalog.record_call", "stats"),
    ("repro.baselines.materialized", "MaterializedEngine.execute", "eval"),
    ("repro.eval.harness", "tuple_metrics", "eval"),
    ("repro.eval.harness", "exact_match", "eval"),
    ("repro.baselines.direct", "DirectPromptEngine.execute", "baselines"),
)


class SpanRecorder:
    """Wraps callables and keeps every call as a span, in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self, targets: Iterable[Tuple[str, str, str]] = TARGETS) -> None:
        for module_name, path, layer in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, path, layer))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def wrap(self, fn, name: str, layer: str):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        thread_id = threading.get_ident

        if inspect.iscoroutinefunction(fn):

            @wraps(fn)
            async def leaf(*args, **kwargs):
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append(
                        Span(next(ids), name, layer, start, clock(), None,
                             None, thread_id())
                    )

            return leaf

        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(span_id, name, layer, start, end, parent,
                         getattr(local, "op_id", None), thread_id())
                )

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Root span around one public-API call made by the benchmark."""
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        span_id = next(self._ids)
        stack.append(span_id)
        local.op_id = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            local.op_id = None
            self.spans.append(
                Span(span_id, OP, "bench", start, end, None, op_id,
                     threading.get_ident())
            )


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result is never negative.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


class SpanTotals(NamedTuple):
    count: int
    total_s: float
    self_s: float


def totals_by_name(spans: Iterable[Span]) -> Dict[str, SpanTotals]:
    """Call count, total time and self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    sums: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        entry = sums[span.name]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own[span.id]
    return {name: SpanTotals(int(c), t, s) for name, (c, t, s) in sums.items()}


def write_trace(path, spans: Iterable[Span]) -> int:
    """One JSON object per span, in completion order; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")
            count += 1
    return count
