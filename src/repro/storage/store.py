"""Byte-budgeted LRU/TTL store: the shared substrate of the storage tier.

Every materialized artifact — scan fragments, per-entity lookup cells,
normalized query results — lives in an :class:`LRUByteStore`.  Entries
carry a deterministic byte estimate (:func:`approx_bytes`) and an insert
timestamp; the store evicts least-recently-used entries when the byte
budget is exceeded and expires entries past the TTL on access.

The store is thread-safe: the concurrent runtime materializes plan
steps on orchestration threads, and all of them read and write the
session's storage tier.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Tuple


def approx_bytes(value: Any) -> int:
    """Deterministic, platform-independent size estimate of a payload.

    Close enough to real memory use to make a byte budget meaningful,
    while staying reproducible across Python builds (``sys.getsizeof``
    is not).  Payload classes can define ``__approx_bytes__`` to size
    themselves; the persistent backend relies on this so a serialized
    (pickled) payload is sized by its *logical* content, not by the
    encoding — memory and persistent backends then evict at the same
    budget boundaries.
    """
    if value is None:
        return 16
    sizer = getattr(value, "__approx_bytes__", None)
    if sizer is not None:
        return int(sizer())
    if isinstance(value, bool):
        return 28
    if isinstance(value, (int, float)):
        return 32
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, bytes):
        return 33 + len(value)
    if isinstance(value, dict):
        return 64 + sum(
            approx_bytes(k) + approx_bytes(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return 56 + sum(approx_bytes(item) for item in value)
    return 64


#: Reusable and reentrant: ``nullcontext`` keeps no state.
_NO_WINDOW = nullcontext()


@dataclass
class StoreStats:
    """Counters for one store (monotonic; reset with the session).

    ``oversized`` counts admissions of entries larger than the whole
    byte budget (see :class:`LRUByteStore` for the policy).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    stored: int = 0
    oversized: int = 0


class _Entry:
    __slots__ = ("payload", "size", "stored_at", "ttl_s")

    def __init__(
        self,
        payload: Any,
        size: int,
        stored_at: float,
        ttl_s: Optional[float] = None,
    ):
        self.payload = payload
        self.size = size
        self.stored_at = stored_at
        # None inherits the store-level TTL; a float overrides it for
        # this entry (per-scope TTL defaults of the multi-tenant tier).
        self.ttl_s = ttl_s


class LRUByteStore:
    """An LRU map bounded by approximate bytes, with optional TTL.

    ``ttl_s == 0`` disables expiry.  This class is also the in-memory
    implementation of the store backend protocol
    (:class:`repro.storage.backend.StoreBackend`): a persistent backend
    (:mod:`repro.storage.persistent`) offers the same surface —
    including per-scope generation stamps and scope-prefixed removal —
    over a process-shared file.

    Oversized-entry policy: a single entry larger than the whole budget
    is **admitted alone** — it evicts everything else and stays
    resident (with ``bytes_used`` above budget) until the next insert
    evicts it in turn.  Refusing it would make large scans uncacheable
    for no benefit; keeping it resident is the best cache content until
    something newer arrives.  Each such admission is recorded in
    ``stats.oversized`` so a budget persistently exceeded is
    observable, not silent.
    """

    #: Backend identity: surfaced by the tier's ``.storage`` rendering.
    name = "memory"
    #: Entries die with the process; the tier reports persistent
    #: hit/miss counters only for backends that outlive it.
    persistent = False

    def __init__(
        self,
        budget_bytes: int,
        ttl_s: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._budget_bytes = max(1, int(budget_bytes))
        self._ttl_s = float(ttl_s)
        self._clock = clock
        self._bytes_used = 0
        self._lock = threading.RLock()
        self._generations: dict = {}
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        return self._budget_bytes

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes_used

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> Optional[Any]:
        """The payload for ``key``, bumping recency; None on miss/expiry."""
        with self._lock:
            entry = self._live_entry(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.payload

    def peek(self, key: Hashable) -> Optional[Any]:
        """Like :meth:`get` but strictly read-only.

        Used by the planner: coverage probes during EXPLAIN/planning
        must not distort hit statistics or keep entries artificially
        warm.  An entry past its TTL is reported as a miss but — unlike
        :meth:`get` — neither deleted nor counted as an expiration: the
        mutation belongs to the next genuinely mutating access, not to
        a probe.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or self._expired(entry):
                return None
            return entry.payload

    def put(
        self,
        key: Hashable,
        payload: Any,
        size: Optional[int] = None,
        ttl_s: Optional[float] = None,
    ) -> None:
        """Insert or replace ``key``; evicts LRU entries over budget.

        Replacing an entry that had already passed its TTL records an
        expiration (the old payload died of age, not of replacement);
        an entry larger than the whole budget is admitted under the
        oversized policy documented on the class and recorded in
        ``stats.oversized``.  ``ttl_s`` overrides the store-level TTL
        for this entry (the multi-tenant tier writes each scope's
        entries under that scope's TTL default).
        """
        if size is None:
            size = approx_bytes(payload)
        size = max(1, int(size))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes_used -= old.size
                if self._expired(old):
                    self.stats.expirations += 1
            self._entries[key] = _Entry(payload, size, self._clock(), ttl_s)
            self._bytes_used += size
            self.stats.stored += 1
            if size > self._budget_bytes:
                self.stats.oversized += 1
            while self._bytes_used > self._budget_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._bytes_used -= evicted.size
                self.stats.evictions += 1

    def update(
        self,
        key: Hashable,
        merge: Callable[[Optional[Any]], Optional[Any]],
        size_of: Callable[[Any], int] = approx_bytes,
        ttl_s: Optional[float] = None,
    ) -> Optional[Any]:
        """Atomic read-merge-write; returns what ``key`` now holds.

        ``merge(existing)`` gets the live payload as :meth:`peek` sees
        it (None when there is none) and returns the payload to store,
        or None to leave the entry alone.
        """
        with self._lock:
            existing = self.peek(key)
            merged = merge(existing)
            if merged is None:
                return existing
            self.put(key, merged, size_of(merged), ttl_s=ttl_s)
            return merged

    def window(self):
        """Write-back window; a no-op here, where a write is a dict
        store.  See :meth:`repro.storage.persistent.SqliteBackend.window`."""
        return _NO_WINDOW

    def remove(self, key: Hashable) -> None:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._bytes_used -= entry.size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes_used = 0

    def remove_scope(self, prefix: Tuple) -> int:
        """Remove every tuple key starting with ``prefix``; count removed.

        The multi-tenant tier prefixes all of a scope's keys with
        ``(level, tenant)``, so scope invalidation is a prefix delete.
        """
        removed = 0
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key[: len(prefix)] == prefix
            ]
            for key in doomed:
                entry = self._entries.pop(key)
                self._bytes_used -= entry.size
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Scope generations
    # ------------------------------------------------------------------

    def generation(self, scope_id: str) -> int:
        """The scope's monotonic invalidation stamp (0 until bumped).

        An in-memory store's generations are process-local; the
        persistent backend shares them through the store file, which is
        what lets one process's invalidation be observed by others.
        """
        with self._lock:
            return self._generations.get(scope_id, 0)

    def bump_generation(self, scope_id: str) -> int:
        """Advance the scope's stamp; entries keyed under older stamps
        become unreachable to scoped readers."""
        with self._lock:
            nxt = self._generations.get(scope_id, 0) + 1
            self._generations[scope_id] = nxt
            return nxt

    def snapshot_stats(self) -> Tuple[int, int, int, int, int, int]:
        with self._lock:
            stats = self.stats
            return (
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.expirations,
                stats.stored,
                stats.oversized,
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _expired(self, entry: _Entry) -> bool:
        ttl = self._ttl_s if entry.ttl_s is None else entry.ttl_s
        return ttl > 0 and self._clock() - entry.stored_at >= ttl

    def _live_entry(self, key: Hashable) -> Optional[_Entry]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self._expired(entry):
            del self._entries[key]
            self._bytes_used -= entry.size
            self.stats.expirations += 1
            return None
        return entry
