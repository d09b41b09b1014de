"""The adaptive materialization storage tier.

One :class:`StorageTier` per engine session routes repeated traffic
away from the model:

* a **normalized query-result cache** — whole result tables keyed on
  the bound, canonically-printed AST (plus model identity and the
  semantic engine configuration), so formatting/alias variants of a
  query hit without any model call;
* a **fragment store** — cells retrieved by scans and lookups are
  written back as reusable fragments (:mod:`repro.storage.fragments`)
  and serve later scans/lookups, including *partial* coverage: a scan
  missing only columns triggers a residual lookup of just those
  columns, and a lookup batch fetches only its uncached keys.

Both stores are :class:`~repro.storage.backend.StoreBackend`
implementations sharing LRU/TTL/byte-budget semantics: the in-process
:class:`~repro.storage.store.LRUByteStore` (default) or the persistent
process-shared :class:`~repro.storage.persistent.SqliteBackend`
(``storage_backend='sqlite'``), under which materialized knowledge
outlives the session — a restarted process replays a repeated workload
with ~0 model calls.

**Multi-tenancy.**  Every key the tier touches is prefixed with its
:class:`~repro.storage.backend.StorageScope` — ``(level, tenant)``
where level ∈ ``session | user | application`` — plus the scope's
current *generation stamp*.  Scopes are strictly isolated (a scope can
never serve another scope's entries; the (model identity, semantic
config, catalog fingerprint) fragment scope nests inside the tenant
prefix), each scope level can carry its own TTL default
(``scope_ttl_s``), and :meth:`clear` bumps the generation stamp so the
invalidation is observed by *every process* sharing a persistent
backend: their next access reads the new stamp and stops seeing the
old entries.

The tier only serves and stores under a **deterministic**
configuration (``votes == 1`` and ``temperature == 0``): sampled
results are never replayed, so storage can never change what a
nondeterministic engine would answer.

Results served from the tier are byte-identical to the storage-off
engine on deterministic workloads (temperature 0, no voting, no
injected noise) — fragments hold post-validation values keyed on the
exact prompt-relevant scan/lookup shape plus model identity.  One
caveat under *injected noise*: the simulated model's systematic errors
are addressed per retrieval mode, so a residual column fetch (lookup
prompts filling scan columns) serves the lookup-mode belief where a
fresh scan would have re-sampled the enumeration-mode one.  The tier
then consistently replays the values the session first retrieved —
arguably better than re-hallucinating — but it is a divergence from a
cold storage-off run, which is why the byte-identity bar is stated for
noise-free workloads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.config import STORAGE_MODES, EngineConfig
from repro.errors import ConfigError
from repro.obs import metrics as obs_metrics
from repro.relational.schema import TableSchema
from repro.relational.types import Value
from repro.storage.backend import StorageScope, StoreBackend, build_backends
from repro.storage.fragments import RowCells, ScanFragment
from repro.storage.store import approx_bytes

#: Config fields that affect query *results* (not wall-clock or storage
#: routing).  Concurrency and storage knobs are excluded on purpose:
#: results are invariant to them by construction, so a cache keyed this
#: way stays correct across those sweeps — and a persistent tier can
#: serve a process configured with a different backend/scope/budget.
_SEMANTIC_CONFIG_FIELDS = (
    "page_size",
    "lookup_batch_size",
    "votes",
    "temperature",
    "enable_pushdown",
    "enable_lookup_join",
    "enable_order_pushdown",
    # Streaming fetches a strict prefix of the materialized page chain,
    # but it changes which fragments (prefix vs whole-scan) a session
    # writes; keep streaming and non-streaming sessions from serving
    # each other's coverage expectations.
    "enable_streaming",
    "enable_cache",
    "enable_judge",
    "enable_validation",
    "max_retries",
    "max_output_tokens",
    "scan_guard_factor",
    # Sharding slices the enumeration cursor differently, which under
    # injected format noise can shift which lines are malformed; keep
    # shard configs from serving each other's rows.
    "scan_shards",
    "shard_min_rows",
)


def deterministic_config(config: EngineConfig) -> bool:
    """True when retrieval is replayable: no voting, greedy decoding."""
    return config.votes <= 1 and config.temperature <= 0.0


def semantic_fingerprint(config: EngineConfig) -> Tuple:
    """The config fields that can change retrieved values."""
    return tuple(getattr(config, name) for name in _SEMANTIC_CONFIG_FIELDS)


@dataclass(frozen=True)
class CachedResult:
    """A stored query result: the table plus everything render() needs."""

    schema: TableSchema
    rows: Tuple[Tuple[Value, ...], ...]
    explain_text: str
    warnings: Tuple[str, ...]
    calls: int

    def __approx_bytes__(self) -> int:
        return (
            approx_bytes(self.rows)
            + approx_bytes(self.explain_text)
            + approx_bytes(self.warnings)
            + 128
        )


@dataclass(frozen=True)
class StorageSnapshot:
    """Immutable point-in-time counters of the tier.

    ``persistent_hits``/``persistent_misses`` are the backing stores'
    own access counters, reported only for a persistent backend (they
    stay 0 on ``memory``); ``invalidations`` counts generation bumps
    this tier *observed* — its own :meth:`StorageTier.clear` calls plus
    any bump performed by another process sharing the store file.
    ``backend`` names the store implementation serving the tier.
    """

    result_hits: int = 0
    result_misses: int = 0
    fragment_hits: int = 0
    fragment_misses: int = 0
    calls_saved: int = 0
    evictions: int = 0
    expirations: int = 0
    oversized: int = 0
    persistent_hits: int = 0
    persistent_misses: int = 0
    invalidations: int = 0
    backend: str = "memory"

    def minus(self, earlier: "StorageSnapshot") -> "StorageSnapshot":
        return StorageSnapshot(
            result_hits=self.result_hits - earlier.result_hits,
            result_misses=self.result_misses - earlier.result_misses,
            fragment_hits=self.fragment_hits - earlier.fragment_hits,
            fragment_misses=self.fragment_misses - earlier.fragment_misses,
            calls_saved=self.calls_saved - earlier.calls_saved,
            evictions=self.evictions - earlier.evictions,
            expirations=self.expirations - earlier.expirations,
            oversized=self.oversized - earlier.oversized,
            persistent_hits=self.persistent_hits - earlier.persistent_hits,
            persistent_misses=self.persistent_misses
            - earlier.persistent_misses,
            invalidations=self.invalidations - earlier.invalidations,
            backend=self.backend,
        )


class StorageTier:
    """Session-scoped materialization tier (thread-safe).

    With the default ``memory`` backend the tier is in-process and dies
    with the session; with ``sqlite`` it composes over a process-shared
    WAL-mode file, so sessions, restarts, and concurrent processes all
    share one warm store — partitioned by :class:`StorageScope` so
    tenants never observe each other's entries.
    """

    def __init__(
        self,
        mode: str = "off",
        budget_bytes: int = 8_000_000,
        ttl_s: float = 0.0,
        clock: Optional[Callable[[], float]] = None,
        backend: str = "memory",
        path: Optional[str] = None,
        scope: Union[str, StorageScope] = "session",
        scope_ttl_s=None,
    ):
        if mode not in STORAGE_MODES:
            raise ConfigError(
                f"storage mode must be one of {', '.join(STORAGE_MODES)}; "
                f"got {mode!r}"
            )
        self.mode = mode
        self.budget_bytes = budget_bytes
        self.ttl_s = ttl_s
        self.scope = (
            scope if isinstance(scope, StorageScope) else StorageScope.parse(scope)
        )
        self._fragments: StoreBackend
        self._results: StoreBackend
        self._fragments, self._results, self.backend_note = build_backends(
            backend, budget_bytes, ttl_s, clock=clock, path=path
        )
        self.backend_name = self._fragments.name
        self.persistent = self._fragments.persistent
        # Per-scope TTL default: entries of this tier's scope level
        # carry it into the store (None inherits the store-level TTL).
        scope_ttls = dict(scope_ttl_s or ())
        self._entry_ttl: Optional[float] = scope_ttls.get(self.scope.level)
        self._lock = threading.Lock()
        self._result_hits = 0
        self._result_misses = 0
        self._fragment_hits = 0
        self._fragment_misses = 0
        self._calls_saved = 0
        self._invalidations = 0
        # Optional observability registry (attach_registry): mirrors
        # hit/miss counters into named metrics.  None costs nothing.
        self._registry = None
        # Prior bumps recorded in an attached persistent file are
        # history, not invalidations observed by *this* tier.
        self._last_seen_gen = self._fragments.generation(self.scope.scope_id)

    @staticmethod
    def from_config(
        config: EngineConfig, clock: Optional[Callable[[], float]] = None
    ) -> "StorageTier":
        return StorageTier(
            mode=config.storage_mode,
            budget_bytes=config.storage_budget_bytes,
            ttl_s=config.storage_ttl_s,
            clock=clock,
            backend=config.storage_backend,
            path=config.storage_path,
            scope=config.storage_scope,
            scope_ttl_s=config.scope_ttl_s,
        )

    # ------------------------------------------------------------------
    # Write-back window
    # ------------------------------------------------------------------

    def window(self):
        """Context manager: one statement's write-back window.

        On a persistent backend everything the statement writes back —
        fragments, lookup cells, its result, the recency bumps of its
        hits, the statistics catalog's delta — is buffered (reads see
        it) and committed in one transaction when the window closes,
        also when the statement fails: what completed before the
        failure is kept, as it would have been written through.  The
        engine opens one around every statement; windows nest and are
        shared by concurrent statements of the session, each close
        committing all that is pending then.
        """
        # The pair comes from one ``build_backends`` call: one file,
        # one window (or two memory stores, whose windows are no-ops).
        return self._fragments.window()

    def open_store(self, name: str) -> Optional[StoreBackend]:
        """A further logical store (entries that never expire) on the
        tier's persistent file — same connection, same write-back
        window — or None when the tier is in memory."""
        sibling = getattr(self._fragments, "sibling", None)
        return sibling(name, ttl_s=0.0) if sibling is not None else None

    # ------------------------------------------------------------------
    # Scoped keys
    # ------------------------------------------------------------------

    def _observe_generation(self, store: StoreBackend) -> int:
        """The scope's current stamp, counting observed bumps.

        Reading the stamp *on every access* is what makes invalidation
        cross-process: another process bumps the shared file's stamp,
        and the next key we build here lands in the new namespace — the
        old entries are simply never addressed again.  (Inside a
        :meth:`window` the backend answers from its first read: a
        statement runs under one generation.)
        """
        gen = store.generation(self.scope.scope_id)
        with self._lock:
            if gen > self._last_seen_gen:
                self._invalidations += gen - self._last_seen_gen
                self._last_seen_gen = gen
        return gen

    def _scoped(self, store: StoreBackend, key: Tuple) -> Tuple:
        """Prefix a logical key with ``(level, tenant, generation)``."""
        return self.scope.prefix + (self._observe_generation(store), *key)

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def result_cache_active(self, config: EngineConfig) -> bool:
        """Serve/store whole results?

        Both the tier *and* the engine config must enable storage (an
        injected shared tier never overrides a storage-off config), and
        the config must be deterministic.
        """
        return (
            self.mode != "off"
            and config.storage_mode != "off"
            and deterministic_config(config)
        )

    def materialize_active(self, config: EngineConfig) -> bool:
        """Serve/store fragments?  Tier and config must both opt in."""
        return (
            self.mode == "materialize"
            and config.storage_mode == "materialize"
            and deterministic_config(config)
        )

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------

    @staticmethod
    def result_key(
        model_name: str,
        config: EngineConfig,
        normalized_sql: str,
        catalog: str = "",
    ) -> Tuple:
        return (
            "result",
            model_name,
            semantic_fingerprint(config),
            catalog,
            normalized_sql,
        )

    @staticmethod
    def fragment_scope(
        model_name: str, config: EngineConfig, catalog: str = ""
    ) -> Tuple:
        """The namespace fragments live under.

        Model identity, the semantic config fingerprint, *and* the
        engine's catalog fingerprint: a tier shared across engines or
        processes must neither serve one model's rows as another's, nor
        mix fragments across configs that retrieve differently
        (validation, page sizes, pushdown, ...), nor serve entries
        materialized under a different set of registered
        schemas/constraints.  The catalog fingerprint is what lets a
        restarted process that registers the *same* catalog reuse the
        persistent store instead of wiping it.
        """
        return (model_name, semantic_fingerprint(config), catalog)

    def attach_registry(self, registry) -> None:
        """Mirror probe counters into an observability registry."""
        self._registry = registry

    def _count_probe(self, name: str, amount: int = 1) -> None:
        registry = self._registry
        if registry is not None and amount > 0:
            registry.counter(name).inc(amount)

    def get_result(self, key: Tuple) -> Optional[CachedResult]:
        entry = self._results.get(self._scoped(self._results, key))
        with self._lock:
            if entry is None:
                self._result_misses += 1
            else:
                self._result_hits += 1
                self._calls_saved += entry.calls
        if entry is None:
            self._count_probe(obs_metrics.RESULT_MISSES_TOTAL)
        else:
            self._count_probe(obs_metrics.RESULT_HITS_TOTAL)
        return entry

    def put_result(
        self,
        key: Tuple,
        schema: TableSchema,
        rows: Sequence[Sequence[Value]],
        explain_text: str,
        warnings: Sequence[str],
        calls: int,
    ) -> None:
        entry = CachedResult(
            schema=schema,
            rows=tuple(tuple(row) for row in rows),
            explain_text=explain_text,
            warnings=tuple(warnings),
            calls=calls,
        )
        self._results.put(
            self._scoped(self._results, key), entry, ttl_s=self._entry_ttl
        )

    # ------------------------------------------------------------------
    # Scan fragments
    # ------------------------------------------------------------------

    @staticmethod
    def _scan_key(
        scope: Tuple,
        table_name: str,
        condition: Optional[str],
        order: Optional[Tuple[str, bool]],
    ) -> Tuple:
        # Model identity partitions fragments: a tier shared across
        # engines must never serve one model's rows as another's.
        order_key = ""
        if order is not None:
            order_key = f"{order[0].lower()}:{'desc' if order[1] else 'asc'}"
        return ("scan", scope, table_name.lower(), condition or "", order_key)

    def scan_fragment(
        self,
        scope: Tuple,
        table_name: str,
        condition: Optional[str],
        order: Optional[Tuple[str, bool]],
    ) -> Optional[ScanFragment]:
        """The stored fragment for a scan shape, or None (no counters)."""
        return self._fragments.get(
            self._scoped(
                self._fragments,
                self._scan_key(scope, table_name, condition, order),
            )
        )

    def store_scan_fragment(
        self,
        scope: Tuple,
        table_name: str,
        condition: Optional[str],
        order: Optional[Tuple[str, bool]],
        fragment: ScanFragment,
    ) -> None:
        """Store a fragment, merging columns with a compatible entry."""
        key = self._scoped(
            self._fragments, self._scan_key(scope, table_name, condition, order)
        )

        def merge(existing: Optional[ScanFragment]) -> Optional[ScanFragment]:
            if existing is None:
                return fragment
            # Equal-length fragments merge their columns (both are
            # prefixes of the same deterministic enumeration, so
            # position identifies the row); the remaining guards
            # only see fragments of different lengths.
            merged = fragment.merged_with(existing)
            if merged is not None:
                return merged
            if existing.complete and not fragment.complete:
                return None  # never replace a complete fragment with a prefix
            if (
                not existing.complete
                and not fragment.complete
                and len(existing.rows) > len(fragment.rows)
            ):
                return None  # keep the longer already-paid-for prefix
            return fragment

        self._fragments.update(key, merge, ttl_s=self._entry_ttl)

    def peek_scan_fragment(
        self,
        scope: Tuple,
        table_name: str,
        condition: Optional[str],
        columns: Sequence[str],
    ) -> Optional[ScanFragment]:
        """A complete fragment covering ``columns``, else None.

        A planner-side probe: no counters, no LRU effect.  Only
        unordered complete fragments count — they can serve any
        order/limit by leaving ordering to exact local compute.  The
        planner *pins* the returned fragment on the scan step, so a
        coverage-routed plan stays servable even if the entry is
        evicted or expires between planning and execution.
        """
        fragment = self._fragments.peek(
            self._scoped(
                self._fragments,
                self._scan_key(scope, table_name, condition, None),
            )
        )
        if fragment is None or not fragment.complete:
            return None
        if not fragment.covers_columns(columns):
            return None
        return fragment

    # ------------------------------------------------------------------
    # Shard fragments
    # ------------------------------------------------------------------

    @staticmethod
    def _shard_key(
        scope: Tuple,
        table_name: str,
        condition: Optional[str],
        shard_index: int,
        shard_count: int,
        start: int,
    ) -> Tuple:
        return (
            "scan-shard",
            scope,
            table_name.lower(),
            condition or "",
            (shard_index, shard_count, start),
        )

    def shard_fragment(
        self,
        scope: Tuple,
        table_name: str,
        condition: Optional[str],
        shard_index: int,
        shard_count: int,
        start: int,
    ) -> Optional[ScanFragment]:
        """The stored fragment for one shard of a sharded scan."""
        return self._fragments.get(
            self._scoped(
                self._fragments,
                self._shard_key(
                    scope, table_name, condition, shard_index, shard_count, start
                ),
            )
        )

    def store_shard_fragment(
        self,
        scope: Tuple,
        table_name: str,
        condition: Optional[str],
        shard_index: int,
        shard_count: int,
        start: int,
        fragment: ScanFragment,
    ) -> None:
        """Store one shard chain's rows for same-shape reuse.

        Shard fragments serve a later scan sharded the *same way*
        (count and cursor range included in the key); the union of a
        fully-successful sharded scan is additionally stored as a
        whole-scan fragment, which is what routes future whole-table
        scans — sharded or not — to materialized data.
        """
        key = self._scoped(
            self._fragments,
            self._shard_key(
                scope, table_name, condition, shard_index, shard_count, start
            ),
        )
        self._fragments.put(key, fragment, ttl_s=self._entry_ttl)

    # ------------------------------------------------------------------
    # Lookup cells
    # ------------------------------------------------------------------

    @staticmethod
    def _row_key(scope: Tuple, table_name: str, normalized_key: Tuple) -> Tuple:
        return ("row", scope, table_name.lower(), normalized_key)

    def lookup_cells(
        self,
        scope: Tuple,
        table_name: str,
        normalized_key: Tuple,
        attributes: Sequence[str],
        touch: bool = True,
    ) -> Optional[Tuple[bool, Optional[List[Value]]]]:
        """Serve one lookup key from the cell store.

        Returns ``None`` on miss, ``(True, values)`` when every
        requested attribute is cached, or ``(False, None)`` when the
        entity is recorded as unknown for these attributes.  Counters
        are the caller's job (it knows whether storage is consulted at
        all for the step); ``touch=False`` is the planner's
        recency-neutral probe.
        """
        store = self._fragments.get if touch else self._fragments.peek
        cells = store(
            self._scoped(
                self._fragments, self._row_key(scope, table_name, normalized_key)
            )
        )
        if cells is None:
            return None
        if cells.covers(attributes):
            return True, cells.values_for(attributes)
        if cells.is_negative_for(attributes):
            return False, None
        return None

    def _update_cells(
        self,
        scope: Tuple,
        table_name: str,
        normalized_key: Tuple,
        change: Callable[[RowCells], RowCells],
    ) -> None:
        """Read-merge-write one entity's cells (atomic in the backend)."""
        key = self._scoped(
            self._fragments, self._row_key(scope, table_name, normalized_key)
        )
        key_bytes = approx_bytes(normalized_key)
        self._fragments.update(
            key,
            lambda cells: change(cells or RowCells()),
            size_of=lambda cells: approx_bytes(cells) + key_bytes,
            ttl_s=self._entry_ttl,
        )

    def store_lookup_row(
        self,
        scope: Tuple,
        table_name: str,
        normalized_key: Tuple,
        attributes: Sequence[str],
        values: Sequence[Value],
    ) -> None:
        # Frozen: the backend may apply the change again at flush time.
        attributes, values = tuple(attributes), tuple(values)
        self._update_cells(
            scope,
            table_name,
            normalized_key,
            lambda cells: cells.with_values(attributes, values),
        )

    def store_lookup_negative(
        self,
        scope: Tuple,
        table_name: str,
        normalized_key: Tuple,
        attributes: Sequence[str],
    ) -> None:
        attributes = tuple(attributes)
        self._update_cells(
            scope,
            table_name,
            normalized_key,
            lambda cells: cells.with_negative(attributes),
        )

    def peek_lookup_coverage(
        self,
        scope: Tuple,
        table_name: str,
        normalized_keys: Sequence[Tuple],
        attributes: Sequence[str],
    ) -> int:
        """How many of ``normalized_keys`` the cell store can serve."""
        covered = 0
        for normalized_key in normalized_keys:
            outcome = self.lookup_cells(
                scope, table_name, normalized_key, attributes, touch=False
            )
            if outcome is not None:
                covered += 1
        return covered

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def record_fragment_hits(self, count: int = 1, calls_saved: int = 0) -> None:
        with self._lock:
            self._fragment_hits += count
            self._calls_saved += calls_saved
        self._count_probe(obs_metrics.FRAGMENT_HITS_TOTAL, count)

    def record_fragment_misses(self, count: int = 1) -> None:
        with self._lock:
            self._fragment_misses += count
        self._count_probe(obs_metrics.FRAGMENT_MISSES_TOTAL, count)

    def snapshot(self) -> StorageSnapshot:
        frag = self._fragments.snapshot_stats()
        res = self._results.snapshot_stats()
        with self._lock:
            return StorageSnapshot(
                result_hits=self._result_hits,
                result_misses=self._result_misses,
                fragment_hits=self._fragment_hits,
                fragment_misses=self._fragment_misses,
                calls_saved=self._calls_saved,
                evictions=frag[2] + res[2],
                expirations=frag[3] + res[3],
                oversized=frag[5] + res[5],
                persistent_hits=(frag[0] + res[0]) if self.persistent else 0,
                persistent_misses=(frag[1] + res[1]) if self.persistent else 0,
                invalidations=self._invalidations,
                backend=self.backend_name,
            )

    def reset_counters(self) -> None:
        with self._lock:
            self._result_hits = 0
            self._result_misses = 0
            self._fragment_hits = 0
            self._fragment_misses = 0
            self._calls_saved = 0
            self._invalidations = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Invalidate this scope's fragments and cached results.

        Physically drops the scope's entries from both stores *and*
        bumps the scope's generation stamp, so on a shared persistent
        backend every other process observes the invalidation on its
        next access (their reads move to the new stamp's namespace).
        Other scopes' entries are untouched.
        """
        prefix = self.scope.prefix
        self._fragments.remove_scope(prefix)
        self._results.remove_scope(prefix)
        scope_id = self.scope.scope_id
        new_gen = self._fragments.bump_generation(scope_id)
        # Persistent backends share one generations table per file; a
        # second bump there would double-count the invalidation.  The
        # in-memory pair keeps separate per-store stamps and needs both
        # advanced in lockstep.
        if self._results.generation(scope_id) < new_gen:
            self._results.bump_generation(scope_id)
        gen = self._fragments.generation(scope_id)
        with self._lock:
            # Our own bumps count as observed invalidations too — the
            # counter reports invalidation events, whoever caused them.
            self._invalidations += max(0, gen - self._last_seen_gen)
            self._last_seen_gen = gen

    @property
    def bytes_used(self) -> int:
        return self._fragments.bytes_used + self._results.bytes_used

    def describe(self) -> str:
        """One-line status for the REPL's ``.storage`` command."""
        snap = self.snapshot()
        text = (
            f"mode={self.mode} backend={self.backend_name} "
            f"scope={self.scope.scope_id} "
            f"bytes={self.bytes_used}/{self.budget_bytes} "
            f"results {snap.result_hits}h/{snap.result_misses}m, "
            f"fragments {snap.fragment_hits}h/{snap.fragment_misses}m, "
            f"{snap.calls_saved} call(s) saved, "
            f"{snap.evictions} evicted, {snap.expirations} expired"
        )
        if self.persistent:
            text += (
                f", persistent {snap.persistent_hits}h/"
                f"{snap.persistent_misses}m, "
                f"{snap.invalidations} invalidation(s)"
            )
        if self.backend_note:
            text += f" [{self.backend_note}]"
        return text
