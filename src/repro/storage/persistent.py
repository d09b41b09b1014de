"""Persistent store backend: a single process-safe SQLite file.

One file holds every logical store of the tier (``fragments``,
``results`` and the statistics catalog's ``stats`` rows are partitioned
by a ``store`` column) plus the per-scope generation stamps that
implement cross-process invalidation.  The file is opened in WAL mode
so concurrent processes — the serving layer's workers, parallel CLI
invocations, a restarted session — can read and write it
simultaneously.  The logical stores a session opens on one file share
one connection (:meth:`SqliteBackend.sibling`).

**Write-back is a group commit.**  Inside a :meth:`SqliteBackend.window`
(the engine opens one around every statement) a ``put``, an ``update``
and the recency bump of a ``get`` hit land in an in-memory pending map
that reads consult first, and the window's close writes everything
pending on the file — all of its stores — in one short ``IMMEDIATE``
transaction under a busy timeout; the write lock is never held across a
model call.  Inside that transaction the bookkeeping is per flush, not
per entry: one recency-sequence read, one budget check and one LRU
eviction pass per store.  An access outside any window is a window of
one: it is written through before the call returns.  Pending bytes are
bounded by the store's own budget — past it the window flushes early.

Semantics mirror :class:`~repro.storage.store.LRUByteStore` exactly:

* byte budget with LRU eviction (recency is a monotonic ``last_used``
  sequence shared through the file, so LRU order is global across
  processes, not per connection);
* TTL expiry on access, with per-entry overrides (entries carry the
  writing scope's TTL, so readers honor it regardless of their own
  configuration);
* ``peek`` strictly read-only; the oversized-admission policy and its
  counter; hit/miss/eviction/expiration stats (process-local, like the
  memory store's — entries persist, counters reset with the session).

Sizing is deterministic: entries are sized by :func:`approx_bytes` over
the *logical* payload before pickling (payload classes define
``__approx_bytes__``), never by the encoded blob — so the memory and
persistent backends evict at the same budget boundaries.

Degradation is graceful and ``error:``-free: a corrupt, locked, or
unwritable file raises :class:`StorageBackendError` at open (the tier
falls back to memory and notes why), and an I/O failure mid-session
flips every store of the file onto an in-memory store — pending entries
included — so the engine keeps answering queries.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.storage.store import LRUByteStore, StoreStats, approx_bytes

__all__ = ["SqliteBackend", "StorageBackendError"]


class StorageBackendError(Exception):
    """A persistent backend could not be opened or kept alive."""


_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    store     TEXT NOT NULL,
    key       TEXT NOT NULL,
    payload   BLOB NOT NULL,
    size      INTEGER NOT NULL,
    stored_at REAL NOT NULL,
    ttl_s     REAL NOT NULL,
    last_used INTEGER NOT NULL,
    PRIMARY KEY (store, key)
);
CREATE INDEX IF NOT EXISTS entries_lru ON entries (store, last_used);
CREATE TABLE IF NOT EXISTS generations (
    scope TEXT PRIMARY KEY,
    gen   INTEGER NOT NULL
);
"""

#: Bound parameters per batched ``IN (...)`` read (SQLite builds before
#: 3.32 allow 999 in total).
_READ_CHUNK = 500


def _enable_wal(conn: sqlite3.Connection, deadline: float) -> None:
    """Switch the file to WAL, waiting out a concurrent first open.

    SQLite answers ``PRAGMA journal_mode=WAL`` with ``database is
    locked`` at once — without consulting the busy timeout — while
    another process is creating or converting the same file, so the
    switch is retried until ``deadline`` (monotonic), and a file some
    other process already switched is accepted as it is.
    """
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError:
            try:
                if conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal":
                    return
            except sqlite3.OperationalError:
                pass  # still locked: keep waiting
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.01)


def encode_key(key: Hashable) -> str:
    """Canonical text form of a tier key.

    Keys are tuples of primitives (strings, numbers, bools, None,
    nested tuples), whose ``repr`` is deterministic across processes
    and Python versions — unlike pickle bytes, which may differ by
    memoization.  The tuple repr is also prefix-stable: the repr of
    ``(a, b)`` minus its closing paren prefixes the repr of
    ``(a, b, *rest)``, which is what scope removal matches on.
    """
    return repr(key)


def scope_prefix_pattern(prefix: Tuple) -> str:
    """The encoded-key prefix every key under ``prefix`` starts with."""
    text = repr(prefix)
    if text.endswith(",)"):  # 1-tuple: ('a',) -> "('a',"
        return text[:-1]
    return text[:-1] + ","  # ('a', 'b') -> "('a', 'b',"


#: What a pending entry records about its key.
_PUT = "put"        # a payload the flush will write
_TOUCH = "touch"    # a ``get`` hit: the flush bumps the row's recency
_ABSENT = "absent"  # a read found no live row: nothing to write


class _Pending:
    """One key's state inside the open window."""

    __slots__ = (
        "key", "state", "payload", "size", "stored_at", "ttl_s",
        "merges", "size_of", "seen", "weight",
    )

    def __init__(self, key: Hashable, state: str, weight: int):
        self.key = key
        self.state = state
        self.payload: Any = None
        self.size = 0
        # For a touch: the file row's own stamps, so that a later put
        # over it can tell an expired row without reading it again.
        self.stored_at = 0.0
        self.ttl_s = 0.0
        #: ``update`` merges applied since the file row was read; None
        #: for a blind ``put``, which overwrites whatever the file holds.
        self.merges: Optional[List[Callable[[Any], Any]]] = None
        self.size_of: Callable[[Any], int] = approx_bytes
        #: The blob the merges were applied on top of (None: no live row).
        self.seen: Optional[bytes] = None
        #: Bytes counted against the window's memory bound.
        self.weight = weight


class _StoreFile:
    """One SQLite file: the connection, its lock, and the group-commit
    window shared by every logical store opened on it."""

    def __init__(self, path: str):
        self.lock = threading.RLock()
        self.stores: List["SqliteBackend"] = []
        #: Open windows; 0 means every access is written through.
        self.depth = 0
        #: Scope stamps read inside the open window (one read each).
        self.generations: Dict[str, int] = {}
        self.failed = False
        try:
            # Autocommit: reads take no transaction, and the only write
            # transactions are the explicit IMMEDIATE ones below.
            self.conn = sqlite3.connect(
                path, timeout=5.0, check_same_thread=False,
                isolation_level=None,
            )
            _enable_wal(self.conn, deadline=time.monotonic() + 5.0)
            self.conn.execute("PRAGMA synchronous=NORMAL")
            self.conn.execute("PRAGMA busy_timeout=5000")
            self.conn.executescript(_SCHEMA)
        except (sqlite3.Error, OSError, ValueError) as exc:
            raise StorageBackendError(str(exc)) from exc

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        conn = self.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass  # the failure being raised is the one that matters
            raise
        conn.execute("COMMIT")

    # The file is its own window: ``with file:`` opens one (cheaper on
    # the per-statement path than a generator-based context manager).

    def __enter__(self) -> None:
        with self.lock:
            self.depth += 1
            self.generations.clear()

    def __exit__(self, *exc_info) -> None:
        with self.lock:
            # Flush before leaving: once the statement has returned,
            # its write-back is in the file for every process.
            self.flush()
            self.depth -= 1
            self.generations.clear()

    def flush(self) -> None:
        """Write everything pending, on every store, in one transaction."""
        with self.lock:
            if self.failed:
                return
            writers = [s for s in self.stores if s.has_writes()]
            try:
                if writers:
                    with self.transaction():
                        for store in writers:
                            store.write_pending()
            except (sqlite3.Error, pickle.PickleError) as exc:
                self.degrade(exc)  # moves the pending payloads over
            finally:
                # Also on an error that is not the file's (a merge that
                # raised): a pending map that cannot be written must not
                # fail every later flush.
                for store in self.stores:
                    store.forget_pending()

    def degrade(self, exc: Exception) -> None:
        """Swap every store onto memory after an I/O failure."""
        with self.lock:
            if self.failed:
                return
            self.failed = True
            for store in self.stores:
                store.fall_back(exc)
            try:
                self.conn.close()
            except sqlite3.Error:
                pass


class SqliteBackend:
    """A :class:`~repro.storage.backend.StoreBackend` over one file."""

    name = "sqlite"
    persistent = True

    def __init__(
        self,
        path: str,
        budget_bytes: int,
        ttl_s: float = 0.0,
        clock: Optional[Callable[[], float]] = None,
        store: str = "store",
        _file: Optional[_StoreFile] = None,
    ):
        self._path = path
        self._budget_bytes = max(1, int(budget_bytes))
        self._ttl_s = float(ttl_s)
        # Wall clock, not monotonic: timestamps must mean the same
        # thing to every process sharing the file.
        self._clock = clock or time.time
        self._store = store
        self._file = _file if _file is not None else _StoreFile(path)
        self._lock = self._file.lock
        self._fallback: Optional[LRUByteStore] = None
        self.failure_note: Optional[str] = None
        self.stats = StoreStats()
        # Encoded key -> state, least recently used first: the order
        # the flush hands out recency sequence numbers in.
        self._pending: Dict[str, _Pending] = {}
        self._pending_bytes = 0
        with self._lock:
            self._file.stores.append(self)

    def sibling(
        self, store: str, ttl_s: Optional[float] = None
    ) -> "SqliteBackend":
        """Another logical store of this file, on the same connection —
        so that one statement's write-back is one transaction.  It
        inherits this store's budget and, unless given, its TTL."""
        return SqliteBackend(
            self._path,
            self._budget_bytes,
            self._ttl_s if ttl_s is None else ttl_s,
            clock=self._clock,
            store=store,
            _file=self._file,
        )

    def window(self):
        """Context manager: buffer write-back until it closes.

        Windows nest and are shared by every store of the file (and by
        every thread using them); each close flushes all that is
        pending at that moment.
        """
        return self._file

    # ------------------------------------------------------------------
    # Degradation
    # ------------------------------------------------------------------

    def _degrade(self, exc: Exception) -> LRUByteStore:
        """Swap in an in-memory store after an I/O failure.

        The session keeps working (warm entries are lost, correctness
        is not: a miss only means re-paying the model).  The reason is
        kept for the tier's ``.storage`` rendering.
        """
        self._file.degrade(exc)
        if self._fallback is None:  # opened on a file that had failed
            self.fall_back(exc)
        return self._fallback

    def fall_back(self, exc: Exception) -> None:
        """The file's half of :meth:`_degrade`: build the fallback and
        move the window's pending payloads into it, so the session keeps
        reading its own writes."""
        self.failure_note = f"sqlite degraded to memory ({exc})"
        fallback = LRUByteStore(self._budget_bytes, self._ttl_s)
        for entry in self._pending.values():
            if entry.state is _PUT:
                fallback.put(
                    entry.key, entry.payload, size=entry.size,
                    ttl_s=entry.ttl_s,
                )
        self.forget_pending()
        # The moved entries were counted when they were staged; only an
        # eviction among them is news.
        self.stats.evictions += fallback.stats.evictions
        fallback.stats = self.stats  # keep one counter stream
        self._fallback = fallback

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        return self._budget_bytes

    def _total(self, expression: str, of_fallback) -> int:
        """An aggregate over this store's rows, pending writes included."""
        with self._lock:
            try:
                if self._fallback is None:
                    self._file.flush()  # degrades by itself on failure
                if self._fallback is None:
                    row = self._file.conn.execute(
                        f"SELECT {expression} FROM entries WHERE store = ?",
                        (self._store,),
                    ).fetchone()
                    return int(row[0])
            except sqlite3.Error as exc:
                self._degrade(exc)
            return of_fallback(self._fallback)

    @property
    def bytes_used(self) -> int:
        return self._total("COALESCE(SUM(size), 0)", lambda f: f.bytes_used)

    def __len__(self) -> int:
        return self._total("COUNT(*)", len)

    # ------------------------------------------------------------------
    # Pending map
    # ------------------------------------------------------------------

    def _expired(self, stored_at: float, ttl_s: float) -> bool:
        return ttl_s > 0 and self._clock() - stored_at >= ttl_s

    def _note(self, text: str, entry: _Pending) -> None:
        """Make ``entry`` the key's pending state, most recent last."""
        old = self._pending.pop(text, None)
        if old is not None:
            self._pending_bytes -= old.weight
        self._pending[text] = entry
        self._pending_bytes += entry.weight

    def _drop(self, text: str) -> None:
        old = self._pending.pop(text, None)
        if old is not None:
            self._pending_bytes -= old.weight

    def _settle(self) -> None:
        """End of a mutating access: write through outside a window,
        flush early inside one that has outgrown the store's budget."""
        if not self._file.depth or self._pending_bytes > self._budget_bytes:
            self._file.flush()

    def has_writes(self) -> bool:
        return any(e.state is not _ABSENT for e in self._pending.values())

    def forget_pending(self) -> None:
        self._pending.clear()
        self._pending_bytes = 0

    def _read_row(self, text: str):
        return self._file.conn.execute(
            "SELECT payload, stored_at, ttl_s FROM entries "
            "WHERE store = ? AND key = ?",
            (self._store, text),
        ).fetchone()

    def _delete_row(self, text: str) -> None:
        self._file.conn.execute(
            "DELETE FROM entries WHERE store = ? AND key = ?",
            (self._store, text),
        )

    def _pending_put(self, text: str) -> Optional[_Pending]:
        """The key's pending payload if it is still alive.

        A pending payload past its TTL is dropped and counted as an
        expiration, exactly as the row would have been.
        """
        entry = self._pending.get(text)
        if entry is None or entry.state is not _PUT:
            return None
        if self._expired(entry.stored_at, entry.ttl_s):
            self._drop(text)
            self._delete_row(text)  # the row this put had replaced, if any
            self.stats.expirations += 1
            return None
        return entry

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> Optional[Any]:
        """The payload for ``key``, bumping recency; None on miss/expiry."""
        text = encode_key(key)
        with self._lock:
            if self._fallback is not None:
                return self._fallback.get(key)
            try:
                entry = self._pending_put(text)
                if entry is not None:
                    self._pending[text] = self._pending.pop(text)  # recency
                    self.stats.hits += 1
                    return entry.payload
                row = self._read_row(text)
                if row is not None and self._expired(row[1], row[2]):
                    self._delete_row(text)
                    self.stats.expirations += 1
                    row = None
                if row is None:
                    self.stats.misses += 1
                    # A miss writes nothing; inside a window it is
                    # remembered so a following write of the key need
                    # not read the file to learn it replaces nothing.
                    if self._file.depth:
                        self._note(text, _Pending(key, _ABSENT, len(text)))
                        self._settle()
                    return None
                touch = _Pending(key, _TOUCH, len(text))
                touch.stored_at, touch.ttl_s = row[1], row[2]
                self._note(text, touch)
                self.stats.hits += 1
                payload = pickle.loads(row[0])
                self._settle()
                return payload
            except (sqlite3.Error, pickle.PickleError) as exc:
                return self._degrade(exc).get(key)

    def peek(self, key: Hashable) -> Optional[Any]:
        """Like :meth:`get` but strictly read-only (planner probes)."""
        text = encode_key(key)
        with self._lock:
            if self._fallback is not None:
                return self._fallback.peek(key)
            try:
                entry = self._pending.get(text)
                if entry is not None and entry.state is _PUT:
                    if self._expired(entry.stored_at, entry.ttl_s):
                        return None
                    return entry.payload
                row = self._read_row(text)
                if row is None or self._expired(row[1], row[2]):
                    return None
                return pickle.loads(row[0])
            except (sqlite3.Error, pickle.PickleError) as exc:
                return self._degrade(exc).peek(key)

    def _replaces_expired(self, text: str) -> bool:
        """Does a write of ``text`` now replace an entry that died of
        age?  Uses what the window already knows before reading."""
        entry = self._pending.get(text)
        if entry is None:
            row = self._file.conn.execute(
                "SELECT stored_at, ttl_s FROM entries "
                "WHERE store = ? AND key = ?",
                (self._store, text),
            ).fetchone()
            return row is not None and self._expired(row[0], row[1])
        if entry.state is _ABSENT:
            return False
        return self._expired(entry.stored_at, entry.ttl_s)

    def _read_base(self, text: str) -> Tuple[Optional[Any], Optional[bytes], bool]:
        """What an ``update`` of ``text`` merges with: the live payload,
        its blob, and whether the file holds a row that died of age.  A
        miss the window remembers spares the read."""
        known = self._pending.get(text)
        if known is not None and known.state is _ABSENT:
            return None, None, False
        row = self._read_row(text)
        if row is None:
            return None, None, False
        if self._expired(row[1], row[2]):
            return None, None, True
        return pickle.loads(row[0]), row[0], False

    def _stage(
        self,
        text: str,
        key: Hashable,
        payload: Any,
        size: int,
        ttl_s: Optional[float],
        seen: Optional[bytes] = None,
    ) -> _Pending:
        size = max(1, int(size))
        entry = _Pending(
            key, _PUT, size + len(text) + (len(seen) if seen else 0)
        )
        entry.seen = seen
        entry.payload = payload
        entry.size = size
        entry.stored_at = self._clock()
        entry.ttl_s = self._ttl_s if ttl_s is None else float(ttl_s)
        self._note(text, entry)
        self.stats.stored += 1
        if size > self._budget_bytes:
            self.stats.oversized += 1
        return entry

    def put(
        self,
        key: Hashable,
        payload: Any,
        size: Optional[int] = None,
        ttl_s: Optional[float] = None,
    ) -> None:
        """Insert or replace ``key``; evicts LRU entries over budget.

        Mirrors the memory store: replacing a dead entry records an
        expiration, oversized entries are admitted alone and counted,
        and ``size`` defaults to :func:`approx_bytes` over the logical
        payload — *before* pickling, so both backends agree on budgets.
        """
        if size is None:
            size = approx_bytes(payload)
        text = encode_key(key)
        with self._lock:
            if self._fallback is not None:
                self._fallback.put(key, payload, size=size, ttl_s=ttl_s)
                return
            try:
                if self._replaces_expired(text):
                    self.stats.expirations += 1
                self._stage(text, key, payload, size, ttl_s)
                self._settle()
            except sqlite3.Error as exc:
                # Raised before the entry was staged (a failing flush
                # degrades by itself and moves the staged entry over).
                self._degrade(exc).put(key, payload, size=size, ttl_s=ttl_s)

    def update(
        self,
        key: Hashable,
        merge: Callable[[Optional[Any]], Optional[Any]],
        size_of: Callable[[Any], int] = approx_bytes,
        ttl_s: Optional[float] = None,
    ) -> Optional[Any]:
        """Atomic read-merge-write; returns what ``key`` now holds.

        ``merge(existing)`` gets the live payload (None when there is
        none) and returns the payload to store, or None to leave the
        entry alone.  The merge is applied at once, so the window reads
        its own write, and *again* inside the flush's transaction if the
        file's row is no longer the one it was applied to — another
        process's write in between is merged with, never overwritten.
        ``merge`` must therefore be a pure function of its argument.
        """
        text = encode_key(key)
        with self._lock:
            if self._fallback is not None:
                return self._fallback.update(key, merge, size_of, ttl_s)
            try:
                entry = self._pending_put(text)
                if entry is not None:
                    base, seen, replaces_expired = entry.payload, entry.seen, False
                    # On top of a blind put the result is blind too.
                    merges = None if entry.merges is None else entry.merges + [merge]
                else:
                    base, seen, replaces_expired = self._read_base(text)
                    merges = [merge]
                merged = merge(base)
                if merged is None:
                    return base
                if replaces_expired:
                    self.stats.expirations += 1
                entry = self._stage(
                    text, key, merged, size_of(merged), ttl_s, seen
                )
                entry.merges = merges
                entry.size_of = size_of
                self._settle()
                return merged
            except (sqlite3.Error, pickle.PickleError) as exc:
                # Raised while reading the base, before anything was staged.
                return self._degrade(exc).update(key, merge, size_of, ttl_s)

    # ------------------------------------------------------------------
    # Flush (called by the file, inside its transaction)
    # ------------------------------------------------------------------

    def _read_rows(self, texts: Sequence[str]) -> Dict[str, Tuple]:
        rows: Dict[str, Tuple] = {}
        conn = self._file.conn
        for start in range(0, len(texts), _READ_CHUNK):
            chunk = texts[start:start + _READ_CHUNK]
            marks = ",".join("?" * len(chunk))
            for text, blob, stored_at, ttl_s in conn.execute(
                "SELECT key, payload, stored_at, ttl_s FROM entries "
                f"WHERE store = ? AND key IN ({marks})",
                (self._store, *chunk),
            ):
                rows[text] = (blob, stored_at, ttl_s)
        return rows

    def _remerge(self) -> None:
        """Re-apply ``update`` merges whose base row changed under us.

        Runs inside the write transaction, so what is read here is what
        the write replaces: the read-merge-write is atomic across
        processes.
        """
        merged = [
            text for text, e in self._pending.items()
            if e.state is _PUT and e.merges is not None
        ]
        if not merged:
            return
        current = self._read_rows(merged)
        for text in merged:
            entry = self._pending[text]
            row = current.get(text)
            blob = None
            if row is not None and not self._expired(row[1], row[2]):
                blob = row[0]
            if blob == entry.seen:
                continue
            payload = pickle.loads(blob) if blob is not None else None
            changed = False
            for merge in entry.merges:
                result = merge(payload)
                if result is not None:
                    payload = result
                    changed = True
            if changed:
                entry.payload = payload
                entry.size = max(1, int(entry.size_of(payload)))
            else:
                entry.state = _ABSENT  # every merge declined: keep the row

    def write_pending(self) -> None:
        """Apply this store's pending entries; the file's flush calls
        this inside its transaction."""
        conn = self._file.conn
        store = self._store
        self._remerge()
        # One sequence read, then local increments in recency order.
        seq = int(
            conn.execute(
                "SELECT COALESCE(MAX(last_used), 0) FROM entries "
                "WHERE store = ?",
                (store,),
            ).fetchone()[0]
        )
        touches, inserts = [], []
        for text, entry in self._pending.items():
            if entry.state is _ABSENT:
                continue
            seq += 1
            if entry.state is _TOUCH:
                touches.append((seq, store, text))
            else:
                inserts.append(
                    (
                        store,
                        text,
                        pickle.dumps(entry.payload, protocol=4),
                        entry.size,
                        entry.stored_at,
                        entry.ttl_s,
                        seq,
                    )
                )
        if touches:
            conn.executemany(
                "UPDATE entries SET last_used = ? WHERE store = ? AND key = ?",
                touches,
            )
        if inserts:
            conn.executemany(
                "INSERT OR REPLACE INTO entries "
                "(store, key, payload, size, stored_at, ttl_s, last_used) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                inserts,
            )
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used rows while over budget (keep >= 1):
        one budget check and one pass per flush."""
        conn = self._file.conn
        used, count = conn.execute(
            "SELECT COALESCE(SUM(size), 0), COUNT(*) FROM entries "
            "WHERE store = ?",
            (self._store,),
        ).fetchone()
        if used <= self._budget_bytes or count <= 1:
            return
        victims = []
        cursor = conn.execute(
            "SELECT key, size FROM entries WHERE store = ? "
            "ORDER BY last_used ASC",
            (self._store,),
        )
        for text, size in cursor:
            if used <= self._budget_bytes or count <= 1:
                break
            victims.append((self._store, text))
            used -= size
            count -= 1
        cursor.close()
        conn.executemany(
            "DELETE FROM entries WHERE store = ? AND key = ?", victims
        )
        self.stats.evictions += len(victims)

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------

    def remove(self, key: Hashable) -> None:
        text = encode_key(key)
        with self._lock:
            if self._fallback is not None:
                self._fallback.remove(key)
                return
            try:
                self._drop(text)
                self._delete_row(text)
            except sqlite3.Error as exc:
                self._degrade(exc).remove(key)

    def clear(self) -> None:
        with self._lock:
            if self._fallback is not None:
                self._fallback.clear()
                return
            try:
                self.forget_pending()
                self._file.conn.execute(
                    "DELETE FROM entries WHERE store = ?", (self._store,)
                )
            except sqlite3.Error as exc:
                self._degrade(exc).clear()

    def remove_scope(self, prefix: Tuple) -> int:
        """Delete every key of one ``(level, tenant)`` scope prefix."""
        pattern = scope_prefix_pattern(prefix)
        with self._lock:
            if self._fallback is not None:
                return self._fallback.remove_scope(prefix)
            try:
                for text in [t for t in self._pending if t.startswith(pattern)]:
                    self._drop(text)
                cursor = self._file.conn.execute(
                    "DELETE FROM entries WHERE store = ? "
                    "AND substr(key, 1, ?) = ?",
                    (self._store, len(pattern), pattern),
                )
                return cursor.rowcount
            except sqlite3.Error as exc:
                return self._degrade(exc).remove_scope(prefix)

    # ------------------------------------------------------------------
    # Scope generations (cross-process invalidation)
    # ------------------------------------------------------------------

    def generation(self, scope_id: str) -> int:
        """The scope's stamp as currently recorded *in the file* — a
        bump by any process is observed here by all of them.  Inside a
        window the stamp is read once: a statement runs under the
        generation it started with."""
        with self._lock:
            if self._fallback is not None:
                return self._fallback.generation(scope_id)
            file = self._file
            if file.depth and scope_id in file.generations:
                return file.generations[scope_id]
            try:
                row = file.conn.execute(
                    "SELECT gen FROM generations WHERE scope = ?", (scope_id,)
                ).fetchone()
                gen = int(row[0]) if row is not None else 0
                if file.depth:
                    file.generations[scope_id] = gen
                return gen
            except sqlite3.Error as exc:
                return self._degrade(exc).generation(scope_id)

    def bump_generation(self, scope_id: str) -> int:
        with self._lock:
            if self._fallback is not None:
                return self._fallback.bump_generation(scope_id)
            try:
                with self._file.transaction() as conn:
                    conn.execute(
                        "INSERT INTO generations (scope, gen) VALUES (?, 1) "
                        "ON CONFLICT(scope) DO UPDATE SET gen = gen + 1",
                        (scope_id,),
                    )
                    row = conn.execute(
                        "SELECT gen FROM generations WHERE scope = ?",
                        (scope_id,),
                    ).fetchone()
                self._file.generations.pop(scope_id, None)
                return int(row[0])
            except sqlite3.Error as exc:
                return self._degrade(exc).bump_generation(scope_id)

    # ------------------------------------------------------------------
    # Stats / lifecycle
    # ------------------------------------------------------------------

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

    def close(self) -> None:
        """Flush, then close the file's connection (every sibling's)."""
        with self._lock:
            if self._fallback is None:
                self._file.flush()
                try:
                    self._file.conn.close()
                except sqlite3.Error:
                    pass
