"""The store backend protocol and multi-tenant scope machinery.

The storage tier composes over any :class:`StoreBackend` — a
byte-budgeted key/value store with TTL semantics matching
:class:`~repro.storage.store.LRUByteStore` (which is the in-memory
implementation) plus two multi-tenancy primitives:

* **scope-prefixed removal** — every key the tier writes starts with a
  ``(level, tenant)`` prefix, so one scope's entries can be dropped
  without touching any other tenant's;
* **generation stamps** — a monotonic per-scope counter.  The tier
  includes the current stamp in every key it reads or writes, so
  bumping the stamp (``clear()``-style invalidation) makes all older
  entries unreachable *for every process sharing the backend*: the next
  access in any process reads the new stamp and stops seeing them.

:class:`StorageScope` carries the access level (``session`` | ``user``
| ``application``) and the tenant identity inside it.  Scopes are
strictly isolated by key prefix — a scope can never serve another
scope's entries — and the existing (model identity, semantic config)
fragment scope nests inside the tenant prefix.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ContextManager,
    Hashable,
    Optional,
    Protocol,
    Tuple,
)

from repro.config import SCOPE_LEVELS, parse_storage_scope

__all__ = [
    "SCOPE_LEVELS",
    "StorageScope",
    "StoreBackend",
    "build_backends",
]


class StoreBackend(Protocol):
    """What the storage tier needs from a store.

    Semantics (matching :class:`~repro.storage.store.LRUByteStore`):
    ``get`` bumps recency and counts a hit/miss/expiration; ``peek`` is
    strictly read-only (an expired entry reports a miss without being
    deleted or counted); ``put`` admits under a byte budget with LRU
    eviction, an optional explicit size, and an optional per-entry TTL
    override; ``update`` is an atomic read-merge-write (``merge`` maps
    the live payload, or None, to the payload to store, or to None to
    leave the entry alone); ``remove``/``clear`` drop entries without
    stat mutation.  ``window()`` is a context manager inside which a
    backend may defer write-back, provided reads see the deferred
    writes; on close everything deferred is written.  An access outside
    any window is a window of one.
    ``stats`` counters are process-local and reset with the session —
    a persistent backend's *entries* outlive the process, its counters
    do not.
    """

    name: str
    persistent: bool

    def get(self, key: Hashable) -> Optional[Any]: ...

    def peek(self, key: Hashable) -> Optional[Any]: ...

    def put(
        self,
        key: Hashable,
        payload: Any,
        size: Optional[int] = None,
        ttl_s: Optional[float] = None,
    ) -> None: ...

    def update(
        self,
        key: Hashable,
        merge: Callable[[Optional[Any]], Optional[Any]],
        size_of: Callable[[Any], int] = ...,
        ttl_s: Optional[float] = None,
    ) -> Optional[Any]: ...

    def window(self) -> ContextManager[None]: ...

    def remove(self, key: Hashable) -> None: ...

    def clear(self) -> None: ...

    def remove_scope(self, prefix: Tuple) -> int: ...

    def generation(self, scope_id: str) -> int: ...

    def bump_generation(self, scope_id: str) -> int: ...

    def snapshot_stats(self) -> Tuple[int, int, int, int, int, int]: ...

    @property
    def budget_bytes(self) -> int: ...

    @property
    def bytes_used(self) -> int: ...


#: Default tenant per level when the scope string names none.  A
#: session without an explicit tenant must never share with another
#: session, so its default is a fresh unique id (minted per tier);
#: user/application default to one shared tenant.
_SHARED_DEFAULT_TENANT = {"user": "default", "application": "shared"}


@dataclass(frozen=True)
class StorageScope:
    """One tenant's namespace: access level + identity within it."""

    level: str
    tenant: str

    @staticmethod
    def parse(scope: str) -> "StorageScope":
        """Build from ``"level"`` / ``"level:tenant"`` config syntax."""
        level, tenant = parse_storage_scope(scope)
        if tenant is None:
            tenant = _SHARED_DEFAULT_TENANT.get(level) or uuid.uuid4().hex
        return StorageScope(level=level, tenant=tenant)

    @property
    def scope_id(self) -> str:
        """The string form generation stamps are keyed by."""
        return f"{self.level}:{self.tenant}"

    @property
    def prefix(self) -> Tuple[str, str]:
        """The key prefix isolating this scope's entries."""
        return (self.level, self.tenant)


def build_backends(
    backend: str,
    budget_bytes: int,
    ttl_s: float,
    clock=None,
    path: Optional[str] = None,
) -> Tuple[StoreBackend, StoreBackend, Optional[str]]:
    """A ``(fragments, results)`` backend pair, plus a fallback note.

    ``sqlite`` backends share one WAL-mode file and one connection to
    it (two logical stores, one transaction per write-back window); a
    file that cannot be opened — corrupt, locked, unwritable — does
    not fail the engine: the pair degrades to in-memory stores and the
    reason is returned as the third element for surfacing in
    ``.storage`` output.
    """
    import time

    from repro.storage.store import LRUByteStore

    note = None
    if backend == "sqlite":
        from repro.storage.persistent import SqliteBackend, StorageBackendError

        try:
            fragments = SqliteBackend(
                path, budget_bytes, ttl_s, clock=clock, store="fragments"
            )
            return fragments, fragments.sibling("results"), None
        except StorageBackendError as exc:
            note = f"sqlite backend unavailable ({exc}); using memory"
    clock = clock or time.monotonic
    return (
        LRUByteStore(budget_bytes, ttl_s, clock),
        LRUByteStore(budget_bytes, ttl_s, clock),
        note,
    )
