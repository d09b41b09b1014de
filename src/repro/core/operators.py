"""LLM-backed physical operators.

``ModelClient`` is the runtime client that turns plan steps into model
traffic, routed through the concurrent scheduler in
:mod:`repro.runtime.dispatcher`.  Every prompt it pays for comes from
one of two places:

* **the enumeration page chain** (:meth:`ModelClient._page_chain`) —
  one generator that builds a page prompt, fetches it (optionally from
  a speculative prefetch), parses, validates, meters the page, and
  stops on natural end, a cursor bound, truncation, or the runaway
  guard.  A plain scan drives one chain over ``[cursor, ∞)`` behind
  prefix replay and storage write-back; a sharded scan and an adaptive
  re-plan round each drive one bounded chain per shard, fanned out in
  ``max_in_flight``-wide groups;
* **the voted batch wave** (:meth:`ModelClient._voted_wave`) — key
  batches, each asked ``votes`` times, dispatched as one concurrent
  wave and merged by self-consistency voting.  A materialized lookup
  and the judge send all their batches in one wave; a lookup stream
  sends one batch per wave so an early exit skips the rest.

Retrieval is produced through the streaming row pipeline
(:mod:`repro.core.streams`): :meth:`open_scan_stream`,
:meth:`open_sharded_scan_stream`, and :meth:`open_lookup_stream` yield
validated rows page by page, and the ``run_*`` operators are simply
consumers that drain them.  A consumer that closes a stream early
stops the page chain; the scan stream then writes the fetched prefix
back as a *partial-coverage* fragment (and a later same-shape stream
resumes at its cursor), so early exit saves calls without ever
poisoning the storage tier.

All calls flow through one wrapped model (cache, then meter), so cost
accounting and caching behave identically across operators — and
identically across concurrency levels: ``max_in_flight`` changes the
reported wall-clock only, never answers, tokens, or call counts.
Refused or unusable completions are retried with a bumped sample index
(beliefs are unchanged at temperature 0; the retry nonce only re-rolls
the refusal) under the reusable :class:`~repro.runtime.retry.RetryPolicy`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import EngineConfig
from repro.core import consistency, partial_agg
from repro.core.streams import RowStream, materialized_stream
from repro.core.validation import Validator
from repro.core.virtual import VirtualTable
from repro.errors import ExecutionError, LLMProtocolError
from repro.llm.accounting import MeteredModel, UsageMeter
from repro.llm.cache import CachingModel, PromptCache, resolve_model_name
from repro.llm.interface import Completion, CompletionOptions, LanguageModel
from repro.obs import metrics as obs_metrics
from repro.obs.trace import NOOP_TRACER
from repro.plan.physical import (
    JudgeStep,
    LookupStep,
    ScanStep,
    ShardSpec,
    ShardedScanStep,
)
from repro.prompts import parsing
from repro.prompts.enumerate import EnumerateRequest, build_enumerate_prompt
from repro.prompts.lookup import LookupRequest, build_lookup_prompt
from repro.prompts.predicate import JudgeRequest, build_judge_prompt
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType, Value
from repro.runtime.dispatcher import CompletionRequest, Dispatcher
from repro.runtime.latency import LatencyLedger
from repro.runtime.parallel import run_parallel
from repro.runtime.prefetch import ScanPrefetcher
from repro.runtime.retry import RetryPolicy
from repro.runtime.scheduler import (
    CancellationToken,
    CrossQueryDedup,
    FlightBudget,
)
from repro.storage.fragments import ScanFragment
from repro.storage.tier import StorageTier

class ModelClient:
    """Executes retrieval steps against a language model."""

    def __init__(
        self,
        model: LanguageModel,
        meter: UsageMeter,
        config: EngineConfig,
        cache: Optional[PromptCache] = None,
        validator: Optional[Validator] = None,
        storage: Optional[StorageTier] = None,
        dedup: Optional[CrossQueryDedup] = None,
        flight_budget: Optional[FlightBudget] = None,
        cancel: Optional[CancellationToken] = None,
        catalog_scope: str = "",
        tracer=None,
        registry=None,
        batcher=None,
        stats_catalog=None,
    ):
        self._raw_model = model
        # Online statistics feedback: executed scans report observed
        # cardinalities/selectivities here and every landed completion
        # feeds the per-kind latency/token histograms.  Recording never
        # changes answers; only the optimizer's *consultation* of the
        # catalog (gated on enable_adaptive) can change plans.
        self._stats = stats_catalog
        # Observability hooks: the tracer collects spans (no-op unless
        # the query runs under tracing), the registry feeds the
        # pages-per-scan histogram.  Neither affects answers or usage.
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._registry = registry
        # The storage tier only serves/stores under deterministic
        # configurations; resolve the gate once so the operators below
        # can simply test for None.  Fragments live under a
        # (model identity, semantic config, catalog fingerprint) scope —
        # a tier shared across engines or processes must never serve one
        # model's, one config's, or one catalog's rows as another's.
        self._storage: Optional[StorageTier] = (
            storage
            if storage is not None and storage.materialize_active(config)
            else None
        )
        self._storage_scope = StorageTier.fragment_scope(
            resolve_model_name(model), config, catalog_scope
        )
        self._cache: Optional[PromptCache] = None
        # The batching gate sits at the *bottom* of the stack (below
        # cache and meter): only calls that genuinely pay the model —
        # cache misses, consumed speculations — enter the session's
        # shared continuous-batching pool; zero-cost replays never
        # occupy a slot.  Identity passes through, so cache keys and
        # storage scopes are unchanged by how calls are pooled.
        raw: LanguageModel = model
        if batcher is not None:
            from repro.runtime.batching import BatchingGate

            raw = BatchingGate(model, batcher, cancel=cancel)
        inner: LanguageModel = raw
        if config.enable_cache:
            caching = CachingModel(inner, cache)
            self._cache = caching.cache
            inner = caching
        # The dispatcher commits wave makespans to the wall clock, so
        # the metered stack must not also track wall time per call.
        self._model = MeteredModel(inner, meter, track_wall=False)
        self._meter = meter
        self._config = config
        self._validator = validator or Validator(enabled=config.enable_validation)
        self._ledger = LatencyLedger(on_commit=meter.add_wall_ms)
        self._retry = RetryPolicy.from_config(config)
        # Cross-query single-flight shares the fragment scope: the
        # (model identity, semantic config) namespace is exactly the
        # boundary across which two requests may never join.
        self._dispatcher = Dispatcher(
            model=self._model,
            options_for=self._options,
            retry=self._retry,
            max_in_flight=config.max_in_flight,
            ledger=self._ledger,
            # Speculative prefetch goes through the gate too: a guessed
            # page coalesces into shared waves like any paid call.
            raw_model=raw,
            cache=self._cache,
            meter=meter,
            shared=dedup,
            dedup_scope=self._storage_scope,
            flight_budget=flight_budget,
            cancel=cancel,
            tracer=self._tracer,
            on_completion=(
                stats_catalog.record_call if stats_catalog is not None else None
            ),
        )
        self.warnings: List[str] = []
        self._warning_local = threading.local()

    @property
    def validator(self) -> Validator:
        return self._validator

    @property
    def stats_catalog(self):
        """The session's statistics catalog (``None`` in bare tests)."""
        return self._stats

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def dispatcher(self) -> Dispatcher:
        return self._dispatcher

    @property
    def tracer(self):
        """The query's tracer (the shared no-op when tracing is off)."""
        return self._tracer

    @property
    def ledger(self) -> LatencyLedger:
        return self._ledger

    @property
    def max_in_flight(self) -> int:
        return self._dispatcher.max_in_flight

    def close(self) -> None:
        """Release the dispatcher's worker pool."""
        self._dispatcher.close()

    def _record_fragment_hits(self, count: int, calls_saved: int = 0) -> None:
        """Count fragment serving in the tier *and* this query's meter.

        The tier counter is the session-global view; the meter copy is
        what attributes the saving to the query that enjoyed it (the
        engine used to diff tier snapshots, which misattributes when
        queries interleave).
        """
        assert self._storage is not None
        self._storage.record_fragment_hits(count, calls_saved=calls_saved)
        self._meter.record_fragment_hits(count, calls_saved=calls_saved)

    # ------------------------------------------------------------------
    # Warnings
    # ------------------------------------------------------------------

    def _warn(self, message: str) -> None:
        """Record a warning in the calling thread's scope.

        Inside a :meth:`warning_scope` (a concurrently-executing plan
        step) warnings buffer locally; the executor re-emits them in
        step order, so ``QueryResult.warnings`` ordering never depends
        on thread timing.
        """
        buffer = getattr(self._warning_local, "buffer", None)
        if buffer is not None:
            buffer.append(message)
        else:
            self.warnings.append(message)

    @contextmanager
    def warning_scope(self):
        """Capture this thread's warnings instead of publishing them."""
        previous = getattr(self._warning_local, "buffer", None)
        captured: List[str] = []
        self._warning_local.buffer = captured
        try:
            yield captured
        finally:
            self._warning_local.buffer = previous

    def emit_warnings(self, messages: Sequence[str]) -> None:
        """Publish captured warnings into the current scope, in order."""
        for message in messages:
            self._warn(message)

    # ------------------------------------------------------------------
    # Low-level call with retry
    # ------------------------------------------------------------------

    def _options(self, sample_index: int) -> CompletionOptions:
        return CompletionOptions(
            temperature=self._effective_temperature(),
            max_tokens=self._config.max_output_tokens,
            sample_index=sample_index,
        )

    def _effective_temperature(self) -> float:
        if self._config.votes > 1:
            # Voting needs independent samples; greedy samples are identical.
            return max(self._config.temperature, 0.7)
        return self._config.temperature

    # ------------------------------------------------------------------
    # Scan
    # ------------------------------------------------------------------

    def run_scan(self, step: ScanStep, virtual: VirtualTable) -> Table:
        """Materialize a scan step as a local table.

        Implemented as a full drain of :meth:`open_scan_stream`: the
        streaming pipeline is the single scan code path, and
        materialization is just the consumer that never exits early.
        """
        stream = self.open_scan_stream(step, virtual)
        return build_local_table(
            step.binding, step.schema, step.columns, stream.drain()
        )

    def open_scan_stream(self, step: ScanStep, virtual: VirtualTable) -> RowStream:
        """A page-by-page stream of the scan's validated rows.

        With the storage tier active, a covering fragment serves the
        whole stream locally (missing columns trigger the residual
        lookup of just those columns); an *incomplete* same-shape
        fragment — typically written back by an earlier early-exited
        stream — serves its prefix for free and the stream resumes
        fetching at the fragment's cursor.  Closing the stream before
        exhaustion writes the fetched prefix back as a
        partial-coverage fragment, so early exit never poisons the
        cache: the rows are real, merely marked incomplete.
        """
        page_size = self._config.page_size
        prefix: List[List[Value]] = []
        prefix_calls = 0
        if self._storage is not None:
            with self._tracer.span(
                "storage", kind="scan", table=step.table_name
            ) as probe:
                served = self._scan_from_storage(step, virtual, count_miss=False)
                if served is not None:
                    probe.set_tag("outcome", "hit")
                    return materialized_stream(
                        step.columns, served.rows, page_size
                    )
                prefix, prefix_calls = self._resumable_prefix(step)
                probe.set_tag("outcome", "resume" if prefix else "miss")
        return RowStream(
            step.columns, self._scan_pages(step, virtual, prefix, prefix_calls)
        )

    def _resumable_prefix(
        self, step: ScanStep
    ) -> Tuple[List[List[Value]], int]:
        """The prefix rows of an incomplete same-shape fragment.

        Called after the full-coverage probe missed; settles this
        scan's fragment hit/miss counters (exactly one is recorded).
        Only fragments with *exactly* the scan's column set resume:
        the resumed stream's writeback replaces the stored prefix, so
        resuming a narrower scan from a wider fragment would silently
        drop the extra columns the session already paid for.
        """
        storage = self._storage
        assert storage is not None
        fragment = storage.scan_fragment(
            self._storage_scope, step.table_name, step.pushdown_sql, step.order
        )
        step_columns = {name.lower() for name in step.columns}
        if (
            fragment is not None
            and not fragment.complete
            and len(fragment.rows) > 0
            and {name.lower() for name in fragment.columns} == step_columns
        ):
            self._record_fragment_hits(1, calls_saved=fragment.source_calls)
            return fragment.project(step.columns), fragment.source_calls
        storage.record_fragment_misses(1)
        return [], 0

    def _scan_pages(
        self,
        step: ScanStep,
        virtual: VirtualTable,
        prefix: List[List[Value]],
        prefix_calls: int,
    ):
        """Generator behind a scan stream: resume, fetch, write back.

        Yields the resumed prefix, then the page chain's validated
        pages from the prefix's cursor on.  Cleanup runs exactly once
        whether the consumer drains or closes early (``GeneratorExit``):
        the chain is closed (discarding its prefetches), skipped pages
        are accounted on early exit, and — unless the chain failed
        (truncation/guard) — the emitted rows are written back as a
        fragment whose ``complete`` flag reflects whether the
        enumeration actually ended.
        """
        page_size = self._config.page_size
        target = step.limit_hint
        prefix_pages = -(-len(prefix) // page_size) if prefix else 0
        prefetch_window = 0
        if self._config.max_in_flight > 1 and self._config.scan_prefetch_pages > 0:
            prefetch_window = min(
                self._config.scan_prefetch_pages, self._config.max_in_flight - 1
            )
        chain = _ChainProgress(len(prefix))
        pages = self._page_chain(
            chain, step, virtual,
            end=None, limit=target, est_rows=step.est_rows,
            prefetch_window=prefetch_window, label=f"scan {step.table_name}",
        )

        emitted = 0
        collected: List[List[Value]] = []  # emitted rows, for writeback
        finished = False
        interrupted = False
        try:
            for start in range(0, len(prefix), page_size):
                chunk = [list(row) for row in prefix[start : start + page_size]]
                if target is not None and emitted + len(chunk) > target:
                    chunk = chunk[: target - emitted]
                collected.extend(chunk)
                emitted += len(chunk)
                yield chunk
                if target is not None and emitted >= target:
                    finished = True
                    return
            for page in pages:
                collected.extend(page)
                yield page
            finished = True
        except GeneratorExit:
            interrupted = True
        finally:
            pages.close()
            self._observe_scan_pages(chain.pages)
            if chain.ended_naturally and target is None:
                self._record_natural_end(step, chain.cursor)
            if interrupted:
                self._meter.record_pages(
                    skipped=max(
                        0,
                        self._est_pages(step.est_rows) - prefix_pages - chain.pages,
                    )
                )
            if (finished or interrupted) and chain.storable and chain.pages > 0:
                self._store_scan_fragment(
                    step,
                    collected,
                    complete=chain.ended_naturally
                    and (target is None or chain.cursor <= target),
                    source_calls=prefix_calls + chain.pages,
                )

    def _page_chain(
        self,
        chain: "_ChainProgress",
        scan: ScanStep,
        virtual: VirtualTable,
        end: Optional[int],
        limit: Optional[int],
        est_rows: float,
        prefetch_window: int,
        label: str,
        trace_tags: Tuple[Tuple[str, object], ...] = (),
    ):
        """The enumeration page chain: validated row pages from a cursor.

        Pages the enumeration from ``chain.cursor`` and yields each
        page's validated rows, keeping ``chain`` (pages paid, cursor,
        natural end, storability) current for the caller.  The cursor
        range is bounded by at most one of:

        * ``end`` — a bound the chain owns: the last prompt asks only
          ``end - cursor`` rows, so nothing past ``end`` is read;
        * ``limit`` — a stop hint: every prompt asks a full page and
          rows past ``limit`` are cut.

        The runaway guard allows ``guard_factor`` times the pages
        ``est_rows`` implies, plus four.  ``prefetch_window`` pages
        ahead are speculatively started (each guessing the current
        page parses cleanly); ``label`` prefixes the malformed-line,
        truncation, and guard warnings.  The chain never touches
        storage or statistics — those belong to the calling operator.
        """
        page_size = self._config.page_size
        dtypes = [scan.schema.column(name).dtype for name in scan.columns]
        max_pages = self._est_pages(est_rows) * self._config.scan_guard_factor + 4
        stop = end if end is not None else limit

        def prompt_for(cursor: int) -> str:
            return build_enumerate_prompt(
                EnumerateRequest(
                    schema=scan.schema,
                    columns=scan.columns,
                    condition_sql=scan.pushdown_sql,
                    order=scan.order,
                    after_index=cursor,
                    max_rows=page_size if end is None else min(page_size, end - cursor),
                )
            )

        def parse_page(completion: Completion):
            return parse_enumerate(completion, dtypes)

        prefetcher = ScanPrefetcher(self._dispatcher) if prefetch_window else None
        try:
            while True:
                cursor = chain.cursor
                prompt = prompt_for(cursor)
                if prefetcher is not None:
                    # Guess the next pages parse cleanly and start them
                    # now, overlapping the page we are about to read.
                    prefetcher.prime([
                        prompt_for(cursor + offset * page_size)
                        for offset in range(1, prefetch_window + 1)
                        if chain.pages + offset < max_pages
                        and (stop is None or cursor + offset * page_size < stop)
                    ])
                page = self._fetch_page(prompt, parse_page, prefetcher, trace_tags)
                chain.pages += 1
                self._meter.record_pages(fetched=1)
                if page.malformed_lines:
                    self._warn(
                        f"{label}: {page.malformed_lines} malformed line(s) skipped"
                    )
                chain.cursor += len(page.rows)
                if page.complete and not page.has_more:
                    chain.ended_naturally = True
                rows = page.rows if stop is None else page.rows[: stop - cursor]
                validated = [
                    self._validator.validate_row(row, virtual, scan.columns)
                    for row in rows
                ]
                if validated:
                    yield validated
                if chain.ended_naturally or (stop is not None and chain.cursor >= stop):
                    return
                if not page.complete and not page.rows:
                    # Truncated before any row: the page size does not fit
                    # the output budget; give up rather than loop.
                    self._warn(f"{label}: page truncated before any row")
                    chain.storable = False
                    return
                if chain.pages >= max_pages:
                    self._warn(
                        f"{label}: aborted after {chain.pages} pages (guard limit)"
                    )
                    chain.storable = False
                    return
        finally:
            if prefetcher is not None:
                prefetcher.discard()

    def _est_pages(self, rows: float) -> int:
        """Pages an enumeration of ``rows`` rows is expected to take."""
        return max(1, -(-int(rows) // self._config.page_size))

    def _observe_scan_pages(self, pages: int) -> None:
        """Feed one scan operator call's page count to the histogram."""
        if self._registry is not None and pages > 0:
            self._registry.histogram(obs_metrics.PAGES_PER_SCAN).observe(pages)

    def _record_natural_end(self, scan: ScanStep, rows: int) -> None:
        """Record an enumeration that ran to the model's natural end.

        The cursor count is then ground truth: a full scan fixes the
        table's cardinality, a pushed-down scan fixes the predicate's
        selectivity (only once the denominator, the table's true row
        count, is itself known).
        """
        if self._stats is None:
            return
        if scan.pushdown_sql is None:
            self._stats.record_table_rows(scan.table_name, rows)
        elif scan.predicate_fingerprint is not None:
            known = self._stats.observed_rows(scan.table_name)
            if known is not None and known > 0:
                self._stats.record_selectivity(
                    scan.table_name, scan.predicate_fingerprint, known, rows
                )

    def _scan_from_storage(
        self, step: ScanStep, virtual: VirtualTable, count_miss: bool = True
    ) -> Optional[Table]:
        """Serve a scan from a materialized fragment, or None on miss.

        Full column coverage serves without any model traffic.  When
        only columns are missing and the fragment carries the primary
        key, a *residual* lookup fetches just the missing columns for
        the fragment's keys — rows the session already paid for are
        never re-enumerated.  ``count_miss=False`` defers the miss
        counter to the caller (the stream path still probes for a
        resumable prefix before conceding the miss).
        """
        storage = self._storage
        assert storage is not None
        fragment = storage.scan_fragment(
            self._storage_scope, step.table_name, step.pushdown_sql, step.order
        )
        if fragment is None and step.pinned_fragment is not None:
            # The planner routed this scan to a fragment that was since
            # evicted or expired; the pinned plan-time snapshot keeps
            # the routed plan servable (and no worse than storage-off).
            fragment = step.pinned_fragment
        target = step.limit_hint
        usable: Optional[int] = None
        if fragment is not None:
            if target is None:
                usable = len(fragment.rows) if fragment.complete else None
            elif fragment.complete or len(fragment.rows) >= target:
                usable = min(target, len(fragment.rows))
        if fragment is None or usable is None:
            if count_miss:
                storage.record_fragment_misses(1)
            return None

        missing = fragment.missing_columns(step.columns)
        if not missing:
            limit = usable if usable < len(fragment.rows) else None
            rows = fragment.project(step.columns, limit=limit)
            self._record_fragment_hits(1, calls_saved=fragment.source_calls)
            return build_local_table(step.binding, step.schema, step.columns, rows)

        primary_key = virtual.schema.primary_key
        if not primary_key or not fragment.covers_columns(primary_key):
            if count_miss:
                storage.record_fragment_misses(1)
            return None
        base_rows = fragment.rows[:usable]
        key_rows = fragment.project(primary_key, limit=usable)
        if any(value is None for key in key_rows for value in key):
            if count_miss:
                storage.record_fragment_misses(1)
            return None

        # Residual fetch: only the missing columns, only these keys.
        seen = set()
        keys: List[Tuple[Value, ...]] = []
        for key in key_rows:
            marker = normalize_key(tuple(key))
            if marker not in seen:
                seen.add(marker)
                keys.append(tuple(key))
        residual_step = LookupStep(
            binding=step.binding,
            table_name=step.table_name,
            schema=step.schema,
            key_columns=tuple(primary_key),
            attributes=tuple(missing),
            literal_keys=keys,
        )
        # Residual cost, estimated deterministically *before* the fetch
        # (a shared-meter delta would misattribute concurrent steps'
        # calls): keys the cell store cannot serve, in lookup batches.
        uncached = sum(
            1
            for key in keys
            if storage.lookup_cells(
                self._storage_scope,
                step.table_name,
                normalize_key(tuple(key)),
                missing,
                touch=False,
            )
            is None
        )
        batch_size = max(1, self._config.lookup_batch_size)
        residual_calls = -(-uncached // batch_size) if uncached else 0
        residual = self.run_lookup(residual_step, keys, virtual)
        attr_indices = [
            residual.schema.column_index(name) for name in missing
        ]
        key_indices = [
            residual.schema.column_index(name) for name in primary_key
        ]
        residual_values: Dict[Tuple, List[Value]] = {}
        for row in residual.rows:
            marker = normalize_key(tuple(row[i] for i in key_indices))
            residual_values[marker] = [row[i] for i in attr_indices]
        extras = [
            residual_values.get(
                normalize_key(tuple(key)), [None] * len(missing)
            )
            for key in key_rows
        ]

        fragment_index = fragment.column_index()
        missing_positions = {name.lower(): i for i, name in enumerate(missing)}
        out_rows: List[List[Value]] = []
        for row, extra in zip(base_rows, extras):
            out_row: List[Value] = []
            for name in step.columns:
                position = fragment_index.get(name.lower())
                if position is not None:
                    out_row.append(row[position])
                else:
                    out_row.append(extra[missing_positions[name.lower()]])
            out_rows.append(out_row)

        # The avoided re-enumeration minus the residual calls just paid
        # (the lookup path counts its own cell-store savings itself).
        self._record_fragment_hits(
            1, calls_saved=max(0, fragment.source_calls - residual_calls)
        )
        if usable == len(fragment.rows):
            storage.store_scan_fragment(
                self._storage_scope,
                step.table_name,
                step.pushdown_sql,
                step.order,
                fragment.widened(missing, extras),
            )
        return build_local_table(step.binding, step.schema, step.columns, out_rows)

    def _fetch_page(
        self,
        prompt: str,
        parse,
        prefetcher: Optional[ScanPrefetcher],
        trace_tags: Tuple[Tuple[str, object], ...],
    ):
        """One page, preferring an exact-match speculative completion."""
        first_attempt, prior_error = 0, None
        speculation = prefetcher.take(prompt) if prefetcher is not None else None
        if speculation is not None:
            completion, owed_ms = self._dispatcher.consume_speculation(speculation)
            self._ledger.add(owed_ms)
            try:
                return parse(completion)
            except LLMProtocolError as exc:
                if self._retry.max_attempts <= 1:
                    raise ExecutionError(
                        f"model output unusable after "
                        f"{self._retry.max_attempts} attempts: {exc}"
                    )
                # The speculative call was attempt 0; hand the rest of
                # the retry budget to the dispatcher.
                first_attempt, prior_error = 1, exc
        return self._dispatcher.run_one(
            CompletionRequest(
                prompt=prompt,
                sample_index=0,
                parse=parse,
                first_attempt=first_attempt,
                prior_error=prior_error,
                kind="scan-page",
                trace_tags=trace_tags,
            )
        )

    # ------------------------------------------------------------------
    # Sharded scan
    # ------------------------------------------------------------------

    def run_sharded_scan(self, step: ShardedScanStep, virtual: VirtualTable) -> Table:
        """Materialize a scan as independent per-shard page chains.

        Each shard owns a contiguous slice of the enumeration cursor
        and pages through it on its own; results merge by stable
        shard-order concatenation, which reproduces the single
        sequential chain byte for byte (a deterministic model slices
        the same believed row list at every cursor position).  With
        ``max_in_flight > 1`` the chains run concurrently in groups of
        at most ``max_in_flight``, so the reported critical path stays
        honest to the dispatcher's pool.  A fully-successful sharded
        scan writes its union back as a whole-scan fragment — the
        coverage that routes future whole-table scans to storage.

        With a :class:`~repro.plan.physical.PartialAggregateSpec`
        attached, each shard reduces to mergeable partial aggregates
        and the merged groups are returned instead of raw rows.
        """
        scan = step.scan
        if self._storage is not None:
            with self._tracer.span(
                "storage", kind="scan", table=scan.table_name
            ) as probe:
                served = self._scan_from_storage(scan, virtual)
                probe.set_tag(
                    "outcome", "hit" if served is not None else "miss"
                )
            if served is not None:
                if step.aggregate is None:
                    return served
                partial = partial_agg.reduce_rows(
                    step.aggregate, served.schema.column_names, served.rows
                )
                return self._aggregate_table(step, [partial])

        self._meter.record_sharded_scan(len(step.shards))
        outcomes: List[_ShardOutcome] = []
        stream = self.open_sharded_scan_stream(step, virtual, outcomes)
        if step.aggregate is None:
            return build_local_table(
                scan.binding, scan.schema, scan.columns, stream.drain()
            )
        for _ in stream:
            pass  # drive the chains; partials reduce from the outcomes
        partials = []
        for outcome in outcomes:
            shard_table = build_local_table(
                scan.binding, scan.schema, scan.columns, outcome.rows
            )
            partials.append(
                partial_agg.reduce_rows(
                    step.aggregate, shard_table.schema.column_names, shard_table.rows
                )
            )
        return self._aggregate_table(step, partials)

    def open_sharded_scan_stream(
        self,
        step: ShardedScanStep,
        virtual: VirtualTable,
        outcomes_sink: Optional[List["_ShardOutcome"]] = None,
    ) -> RowStream:
        """A stream yielding each shard chain's rows as one page.

        Chains are fetched in ``max_in_flight``-sized groups (the same
        grouping the materialized path used, so accounting is
        unchanged) and yielded in stable shard order.  Closing the
        stream early skips the not-yet-started groups; completed
        chains persist as per-shard fragments — exactly the
        partial-failure machinery — so a cut-short sharded stream
        never loses paid-for pages.  ``outcomes_sink`` receives the
        per-shard outcomes as they complete (partial aggregation needs
        the shard boundaries).
        """
        return RowStream(
            step.scan.columns,
            self._sharded_pages(step, virtual, outcomes_sink),
        )

    def _sharded_pages(
        self,
        step: ShardedScanStep,
        virtual: VirtualTable,
        outcomes_sink: Optional[List["_ShardOutcome"]],
    ):
        scan = step.scan
        shard_count = len(step.shards)

        def run_shard(shard: ShardSpec) -> "_ShardOutcome":
            served = self._shard_from_storage(scan, shard, shard_count)
            if served is not None:
                return served
            return self._run_shard_chain(scan, shard, virtual)

        completed: List[_ShardOutcome] = (
            outcomes_sink if outcomes_sink is not None else []
        )
        finished = False
        interrupted = False
        try:
            for group in self._fan_out(step.shards, run_shard):
                # The whole group already ran (and was paid for) before
                # the first yield can hand control away: record every
                # outcome now, so a close() mid-group still persists
                # and accounts the finished chains.
                completed.extend(group)
                for outcome in group:
                    if outcome.rows:
                        # Fresh per-chain row lists: safe to hand out.
                        yield outcome.rows
            finished = True
        except GeneratorExit:
            interrupted = True
        finally:
            fetched = sum(o.pages for o in completed)
            self._observe_scan_pages(fetched)
            if interrupted:
                self._meter.record_pages(
                    skipped=max(0, self._est_pages(scan.est_rows) - fetched)
                )
            # All chains landed: the shard-order concatenation is the
            # complete enumeration (the open-ended final shard ran to
            # the model's natural end), as authoritative as a serial
            # full scan's.
            whole = len(completed) == shard_count and all(
                o.storable for o in completed
            )
            if finished and whole:
                self._record_natural_end(
                    scan, sum(len(o.rows) for o in completed)
                )
            if (finished or interrupted) and self._storage is not None:
                if whole:
                    # Coverage union: the concatenation is the complete
                    # enumeration, stored under the whole-scan key the
                    # planner consults — future whole-table scans route
                    # to it.  The per-shard fragments would only
                    # duplicate these rows in the byte-budgeted store
                    # (the union is always consulted first), so they
                    # are not written.
                    self._store_scan_fragment(
                        scan,
                        [row for o in completed for row in o.rows],
                        complete=True,
                        source_calls=sum(o.cost for o in completed),
                    )
                else:
                    # No union: preserve the shards that did finish, so
                    # a same-shape re-run only re-pays the missing
                    # chains (failed, or never started on early exit).
                    for shard, outcome in zip(step.shards, completed):
                        if not outcome.storable or outcome.pages == 0:
                            continue
                        self._storage.store_shard_fragment(
                            self._storage_scope,
                            scan.table_name,
                            scan.pushdown_sql,
                            shard.index,
                            shard_count,
                            shard.start,
                            ScanFragment(
                                columns=tuple(scan.columns),
                                rows=tuple(tuple(row) for row in outcome.rows),
                                complete=True,
                                source_calls=outcome.pages,
                            ),
                        )

    def _fan_out(self, shards: Sequence[ShardSpec], run_shard):
        """Run ``run_shard`` per shard in ``max_in_flight``-wide groups.

        Yields each group's outcomes in shard order once the whole
        group has landed, after re-emitting its captured warnings in
        shard order (so warnings never depend on thread timing).
        Chains beyond the pool width cannot actually overlap; grouping
        keeps the wall-clock accounting honest.
        """
        # Chains may run on fresh worker threads with no ambient span
        # stack; capture the step span here and re-bind it per chain so
        # shard spans keep their place in the tree.
        parent = self._tracer.current_parent()

        def run_scoped(shard: ShardSpec) -> "_ShardOutcome":
            with self._tracer.bind(parent):
                with self._tracer.span("shard", shard=shard.index) as span:
                    with self.warning_scope() as captured:
                        outcome = run_shard(shard)
                    span.set_tag("rows", len(outcome.rows))
                    span.set_tag("pages", outcome.pages)
            outcome.warnings = captured
            return outcome

        width = max(1, self._config.max_in_flight)
        for begin in range(0, len(shards), width):
            group = run_parallel(
                self._ledger,
                [partial(run_scoped, shard) for shard in shards[begin : begin + width]],
            )
            for outcome in group:
                self.emit_warnings(outcome.warnings)
            yield group

    def _shard_from_storage(
        self, scan: ScanStep, shard: ShardSpec, shard_count: int
    ) -> Optional["_ShardOutcome"]:
        """Serve one static shard from its shard fragment, or None on miss."""
        storage = self._storage
        if storage is None:
            return None
        with self._tracer.span(
            "storage", kind="shard", table=scan.table_name, shard=shard.index
        ) as probe:
            fragment = storage.shard_fragment(
                self._storage_scope,
                scan.table_name,
                scan.pushdown_sql,
                shard.index,
                shard_count,
                shard.start,
            )
            served = (
                fragment is not None
                and fragment.complete
                and fragment.covers_columns(scan.columns)
            )
            probe.set_tag("outcome", "hit" if served else "miss")
        if not served:
            storage.record_fragment_misses(1)
            return None
        assert fragment is not None
        self._record_fragment_hits(1, calls_saved=fragment.source_calls)
        return _ShardOutcome(
            rows=fragment.project(scan.columns),
            pages=0,
            cost=fragment.source_calls,
            storable=True,
        )

    def _run_shard_chain(
        self, scan: ScanStep, shard: ShardSpec, virtual: VirtualTable
    ) -> "_ShardOutcome":
        """Drain one shard's bounded page chain into an outcome."""
        target = shard.row_target
        chain = _ChainProgress(shard.start)
        pages = self._page_chain(
            chain, scan, virtual,
            end=None if target is None else shard.start + target,
            limit=None,
            est_rows=(
                target if target is not None
                else max(1, int(scan.est_rows) - shard.start)
            ),
            prefetch_window=0,
            label=f"scan {scan.table_name} shard {shard.index}",
            trace_tags=(("shard", shard.index),),
        )
        rows = [row for page in pages for row in page]
        return _ShardOutcome(
            rows=rows, pages=chain.pages, cost=chain.pages, storable=chain.storable
        )

    # ------------------------------------------------------------------
    # Mid-query re-plan
    # ------------------------------------------------------------------

    def run_replan_shards(
        self,
        scan: ScanStep,
        shards: Sequence[ShardSpec],
        virtual: VirtualTable,
    ) -> List["_ShardOutcome"]:
        """Residual shard fan-out for a mid-query re-plan.

        The adaptive executor calls this after closing a streamed scan
        whose observed selectivity diverged from the estimate: each
        shard continues the enumeration cursor where the closed stream
        (plus earlier replan rounds) left off.  Chains are the same
        bounded page chains a sharded scan runs (minus its shard
        fragment probe: a re-plan only ever stores the combined prefix,
        via :meth:`store_replan_fragment`), and the executor keeps
        shard starts page-aligned with page-multiple targets, so every
        prompt is byte-identical to one the serial continuation would
        have issued — merged rows, and therefore results, cannot
        differ from the static plan's.
        """
        if self._registry is not None:
            self._registry.counter(obs_metrics.REPLANS_TOTAL).inc()
            self._registry.counter(obs_metrics.REPLAN_SHARDS_TOTAL).inc(
                len(shards)
            )
        if self._stats is not None:
            self._stats.replans += 1
            self._stats.replan_shards += len(shards)
        run_shard = partial(self._run_shard_chain, scan, virtual=virtual)
        outcomes = [
            outcome
            for group in self._fan_out(shards, run_shard)
            for outcome in group
        ]
        self._observe_scan_pages(sum(o.pages for o in outcomes))
        return outcomes

    def store_replan_fragment(
        self,
        scan: ScanStep,
        rows: Sequence[Sequence[Value]],
        source_calls: int,
        complete: bool,
    ) -> None:
        """Write back a replanned scan's combined enumeration prefix.

        The streamed prefix plus the residual shards' rows form one
        contiguous prefix of the enumeration, so storing it (replacing
        the shorter prefix the closed stream wrote back) leaves the
        storage tier exactly as informed as a serial run that fetched
        this far.
        """
        self._store_scan_fragment(scan, rows, complete, source_calls)

    def _store_scan_fragment(
        self,
        scan: ScanStep,
        rows: Sequence[Sequence[Value]],
        complete: bool,
        source_calls: int,
    ) -> None:
        """Write ``rows`` back under the scan's whole-scan fragment key."""
        if self._storage is None:
            return
        self._storage.store_scan_fragment(
            self._storage_scope,
            scan.table_name,
            scan.pushdown_sql,
            scan.order,
            ScanFragment(
                columns=tuple(scan.columns),
                rows=tuple(tuple(row) for row in rows),
                complete=complete,
                source_calls=source_calls,
            ),
        )

    def _aggregate_table(
        self, step: ShardedScanStep, partials: List[partial_agg.Partials]
    ) -> Table:
        """Merge per-shard partials into the step's pre-aggregated table."""
        spec = step.aggregate
        assert spec is not None
        scan = step.scan
        rows = partial_agg.merge_partials(spec, partials)
        columns = [
            replace(scan.schema.column(name), nullable=True)
            for name in spec.group_columns
        ]
        for item in spec.items:
            if item.func == "COUNT":
                dtype = DataType.INTEGER
            elif item.func == "AVG":
                dtype = DataType.REAL
            else:
                assert item.column is not None
                dtype = scan.schema.column(item.column).dtype
            columns.append(Column(name=item.output, dtype=dtype, nullable=True))
        schema = TableSchema(
            name=f"retrieved_{scan.binding}",
            columns=tuple(columns),
            description=(
                f"shard-merged partial aggregates for binding {scan.binding}"
            ),
        )
        # Values are exact merge results; schema coercion must not
        # touch them (an int SUM is not a REAL, a float MAX may land in
        # an INTEGER-typed column's slot only by type promotion).
        return Table.from_validated(schema, rows)


    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def run_lookup(
        self,
        step: LookupStep,
        keys: Sequence[Tuple[Value, ...]],
        virtual: VirtualTable,
    ) -> Table:
        """Materialize a lookup step: one row per found key.

        With the storage tier active, keys whose requested attributes
        are already materialized (or recorded as unknown — negative
        knowledge) are served locally; only the *missing* keys are
        batched into model calls, and their answers are written back.
        Every batch and every vote sample is independent, so the whole
        step is one wave: they overlap up to ``max_in_flight``.
        """
        columns = tuple(step.key_columns) + tuple(step.attributes)
        pages = self._lookup_pages(step, list(keys), virtual, one_wave=True)
        rows = [row for page in pages for row in page]
        return build_local_table(step.binding, step.schema, columns, rows)

    def _lookup_serving(
        self, step: LookupStep, keys: Sequence[Tuple[Value, ...]]
    ) -> Tuple[Dict[int, Optional[List[Value]]], List[int]]:
        """Split keys into storage-served answers and indices to fetch.

        The served map holds cell-store answers by key index (``None``
        marks negative knowledge: the entity is recorded as unknown).
        Hit/miss counters and the calls-saved estimate are settled
        here, identically for the wave and streaming consumers.
        """
        served: Dict[int, Optional[List[Value]]] = {}
        fetch_indices = list(range(len(keys)))
        storage = self._storage
        if storage is None:
            return served, fetch_indices
        batch_size = max(1, self._config.lookup_batch_size)
        votes = max(1, self._config.votes)
        fetch_indices = []
        with self._tracer.span(
            "storage", kind="lookup", table=step.table_name
        ) as probe:
            for index, key in enumerate(keys):
                outcome = storage.lookup_cells(
                    self._storage_scope,
                    step.table_name,
                    normalize_key(tuple(key)),
                    step.attributes,
                )
                if outcome is None:
                    fetch_indices.append(index)
                else:
                    found, values = outcome
                    served[index] = list(values) if found else None
            if not served:
                probe.set_tag("outcome", "miss")
            elif fetch_indices:
                probe.set_tag("outcome", "partial")
            else:
                probe.set_tag("outcome", "hit")
        if served:
            total_batches = -(-len(keys) // batch_size) if keys else 0
            paid_batches = (
                -(-len(fetch_indices) // batch_size) if fetch_indices else 0
            )
            self._record_fragment_hits(
                len(served),
                calls_saved=(total_batches - paid_batches) * votes,
            )
        if fetch_indices:
            storage.record_fragment_misses(len(fetch_indices))
        return served, fetch_indices

    def _settle_lookup_answer(
        self,
        step: LookupStep,
        key: Tuple[Value, ...],
        answer: Optional[List[Value]],
        virtual: VirtualTable,
    ) -> Optional[List[Value]]:
        """Validate one fetched answer and write it back to storage.

        ``None`` means the model does not know the entity; the negative
        is recorded so repeated probes stay free.
        """
        if answer is None:
            if self._storage is not None:
                self._storage.store_lookup_negative(
                    self._storage_scope,
                    step.table_name,
                    normalize_key(tuple(key)),
                    step.attributes,
                )
            return None
        validated = self._validator.validate_row(answer, virtual, step.attributes)
        if self._storage is not None:
            self._storage.store_lookup_row(
                self._storage_scope,
                step.table_name,
                normalize_key(tuple(key)),
                step.attributes,
                validated,
            )
        return validated

    def open_lookup_stream(
        self,
        step: LookupStep,
        keys: Sequence[Tuple[Value, ...]],
        virtual: VirtualTable,
    ) -> RowStream:
        """A page-by-page stream of the lookup's output rows.

        Where :meth:`run_lookup` fans every key batch out as one
        concurrent wave, the stream dispatches batches *one at a time*
        in key order and yields output rows as soon as they are
        determined — so an early-exiting consumer (EXISTS, LIMIT over
        point keys) skips the remaining batches entirely.  Batch
        boundaries, prompts, voting, and storage writes are identical
        to the materialized path; a drained stream returns exactly
        :meth:`run_lookup`'s rows.  Early exit needs no cleanup: cell
        writes happen per answered batch, so the store only ever holds
        fully-paid-for knowledge.
        """
        columns = tuple(step.key_columns) + tuple(step.attributes)
        return RowStream(columns, self._lookup_pages(step, list(keys), virtual))

    def _lookup_pages(
        self,
        step: LookupStep,
        keys: List[Tuple[Value, ...]],
        virtual: VirtualTable,
        one_wave: bool = False,
    ):
        """Output rows in key order, settled batch wave by batch wave.

        ``one_wave`` dispatches every key batch in a single voted wave
        (the materializing consumer); otherwise each batch is its own
        wave, so closing the generator skips the undispatched batches.
        """
        attr_dtypes = [step.schema.column(name).dtype for name in step.attributes]
        batch_size = max(1, self._config.lookup_batch_size)
        votes = max(1, self._config.votes)

        served, fetch_indices = self._lookup_serving(step, keys)
        batches = self._key_batches([keys[index] for index in fetch_indices])
        width = max(1, len(batches)) if one_wave else 1

        def prompt_for(batch: List[Tuple[Value, ...]]) -> str:
            return build_lookup_prompt(
                LookupRequest(
                    schema=step.schema,
                    key_columns=tuple(step.key_columns),
                    attributes=tuple(step.attributes),
                    entities=tuple(batch),
                )
            )

        def parse_text(text: str, batch_len: int):
            return parsing.parse_lookup_completion(text, batch_len, attr_dtypes)

        answer_by_index: Dict[int, Optional[List[Value]]] = {}
        emitted = 0

        def rows_until(bound: int) -> List[List[Value]]:
            """Output rows for keys below ``bound`` (all determined)."""
            nonlocal emitted
            out: List[List[Value]] = []
            for index in range(emitted, bound):
                values = (
                    served[index] if index in served else answer_by_index[index]
                )
                if values is not None:
                    out.append(list(keys[index]) + values)
            emitted = bound
            return out

        dispatched = 0
        try:
            for begin in range(0, len(batches), width):
                group = batches[begin : begin + width]
                first_fetch = fetch_indices[begin * batch_size]
                if first_fetch > emitted:
                    yield rows_until(first_fetch)  # leading served-only run
                self._meter.record_pages(fetched=len(group) * votes)
                merged = self._voted_wave(
                    group, prompt_for, parse_text,
                    "lookup-batch", "refused lookup", consistency.vote_rows,
                )
                dispatched += len(group)
                position = begin * batch_size
                for batch, answers in zip(group, merged):
                    for key, answer in zip(batch, answers):
                        answer_by_index[fetch_indices[position]] = (
                            self._settle_lookup_answer(step, key, answer, virtual)
                        )
                        position += 1
                bound = (
                    fetch_indices[position]
                    if position < len(fetch_indices)
                    else len(keys)
                )
                if bound > emitted:
                    yield rows_until(bound)
            if emitted < len(keys):
                yield rows_until(len(keys))  # served-only tail (or no batches)
        except GeneratorExit:
            # Early exit: the undispatched batches are the saving —
            # surface it in the same pages counters scans use (one
            # lookup batch = one page of lookup output).
            self._meter.record_pages(
                skipped=(len(batches) - dispatched) * votes
            )

    def _key_batches(
        self, keys: Sequence[Tuple[Value, ...]]
    ) -> List[List[Tuple[Value, ...]]]:
        """Consecutive ``lookup_batch_size`` slices of ``keys``."""
        batch_size = max(1, self._config.lookup_batch_size)
        return [
            list(keys[start : start + batch_size])
            for start in range(0, len(keys), batch_size)
        ]

    def _voted_wave(self, batches, prompt_for, parse_text, kind, refusal, vote):
        """Ask every key batch ``votes`` times, all in one wave.

        ``prompt_for(batch)`` builds a batch's prompt and
        ``parse_text(text, batch_len)`` decodes a completion (refusals
        raise ``refusal`` and are retried).  Returns one answer list
        per batch: the single sample, or the ``vote`` merge of all.
        """
        votes = max(1, self._config.votes)
        requests: List[CompletionRequest] = []
        for batch in batches:
            prompt = prompt_for(batch)

            def parse_answer(completion: Completion, batch_len=len(batch)):
                if parsing.looks_like_refusal(completion.text):
                    raise LLMProtocolError(refusal)
                return parse_text(completion.text, batch_len)

            requests.extend(
                CompletionRequest(
                    prompt=prompt, sample_index=sample, parse=parse_answer, kind=kind
                )
                for sample in range(votes)
            )
        answers = self._dispatcher.run_wave(requests)
        sampled = [
            answers[number * votes : (number + 1) * votes]
            for number in range(len(batches))
        ]
        return [vote(samples) if votes > 1 else samples[0] for samples in sampled]

    # ------------------------------------------------------------------
    # Judge
    # ------------------------------------------------------------------

    def run_judge(
        self, step: JudgeStep, keys: Sequence[Tuple[Value, ...]]
    ) -> Dict[Tuple, Optional[bool]]:
        """Judge a predicate for each key; returns normalized-key verdicts."""
        batches = self._key_batches(keys)

        def prompt_for(batch: List[Tuple[Value, ...]]) -> str:
            return build_judge_prompt(
                JudgeRequest(
                    schema=step.schema,
                    key_columns=tuple(step.key_columns),
                    condition_sql=step.condition_sql,
                    entities=tuple(batch),
                )
            )

        merged = self._voted_wave(
            batches, prompt_for, parsing.parse_judge_completion,
            "judge-batch", "refused judgement", consistency.vote_verdicts,
        )
        return {
            normalize_key(key): verdict
            for batch, verdicts in zip(batches, merged)
            for key, verdict in zip(batch, verdicts)
        }


class _ChainProgress:
    """What a page chain has done so far, kept current as it runs.

    ``cursor`` is the absolute enumeration index of the next row to
    ask for (rows parsed so far, plus the chain's start); ``pages`` is
    what the chain paid; ``ended_naturally`` is set once the model
    signalled the enumeration's end; ``storable`` is cleared when the
    chain gave up (truncation or the runaway guard).
    """

    __slots__ = ("cursor", "pages", "ended_naturally", "storable")

    def __init__(self, start: int):
        self.cursor = start
        self.pages = 0
        self.ended_naturally = False
        self.storable = True


class _ShardOutcome:
    """One shard chain's result: rows plus bookkeeping for the merge.

    ``pages`` is what the chain paid this run; ``cost`` is what a cold
    run would pay (a chain served from a shard fragment paid 0 pages
    but carries the fragment's original cost, which is what the merged
    whole-scan fragment should report as ``source_calls``).
    """

    __slots__ = ("rows", "pages", "cost", "storable", "warnings")

    def __init__(
        self,
        rows: List[List[Value]],
        pages: int,
        cost: int,
        storable: bool,
        warnings: Optional[List[str]] = None,
    ):
        self.rows = rows
        self.pages = pages
        self.cost = cost
        self.storable = storable
        self.warnings: List[str] = warnings or []


# ---------------------------------------------------------------------------
# Helpers shared with the executor
# ---------------------------------------------------------------------------


def parse_enumerate(completion: Completion, dtypes):
    """Parse an enumeration page, treating refusals as protocol errors."""
    if parsing.looks_like_refusal(completion.text):
        raise LLMProtocolError("refused enumeration")
    return parsing.parse_enumerate_completion(completion.text, dtypes)


def build_local_table(
    binding: str,
    virtual_schema: TableSchema,
    columns: Sequence[str],
    rows: Sequence[Sequence[Value]],
) -> Table:
    """A local table holding retrieved rows for one binding.

    All columns are nullable (the model may not know a value) and keep
    the virtual column types.
    """
    local_columns = tuple(
        replace(virtual_schema.column(name), nullable=True) for name in columns
    )
    schema = TableSchema(
        name=f"retrieved_{binding}",
        columns=local_columns,
        description=f"rows retrieved from the model for binding {binding}",
    )
    table = Table(schema)
    for row in rows:
        try:
            table.insert(row, coerce=True)
        except Exception:
            continue  # drop rows that cannot fit the schema even coerced
    return table


def normalize_key(values: Tuple[Value, ...]) -> Tuple:
    """Join-key normalization: numbers cross-type, text case-insensitive."""
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
