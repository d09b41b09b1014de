"""Online statistics catalog: observed cardinalities and selectivities.

Every executed plan feeds back what it actually saw — how many rows a
full enumeration returned, what fraction of rows survived a pushed or
residual predicate, how long each prompt kind took and how many tokens
it burned.  The catalog records those observations keyed the same way
the planner will ask for them:

* **tables** — last observed full-enumeration row count per table
  (last-value: the model's answer *is* the cardinality, there is
  nothing to average);
* **predicates** — additive ``(rows_in, rows_out)`` accumulators per
  ``(table, predicate fingerprint)``, where the fingerprint is the
  alias-normalized canonical text of the bound conjuncts
  (:func:`repro.storage.normalize.predicate_fingerprint`), so the same
  predicate shape written against any alias shares one accumulator;
* **calls** — per-prompt-kind latency and token histograms with the
  fixed bucket layouts of :mod:`repro.obs.metrics`, so occupancy
  counts merge additively and order-invariantly.

Persistence goes through the same :class:`~repro.storage.backend.
StoreBackend` protocol as the fragment/result stores, under keys that
lead with a literal ``"stats"`` component — deliberately *outside* the
generation-stamped scope namespace, so statistics survive cache
invalidation (``clear()`` drops cached answers, not what was learned
about the data).  Cross-process merge is delta-based: a flush reads
the persisted blob, folds in only the observations recorded since the
previous flush, and writes the merged blob back, read and write inside
one transaction of the backend (``StoreBackend.update``) — two
processes flushing interleaved never double-count an observation and
never lose one.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    TOKEN_BUCKETS,
    Histogram,
    format_bound,
)

__all__ = ["StatisticsCatalog"]

#: Persisted payload schema version.
_PAYLOAD_VERSION = 1


def _empty_payload() -> Dict:
    return {
        "v": _PAYLOAD_VERSION,
        "tables": {},       # table -> observed row count (last value)
        "predicates": {},   # (table, fingerprint) -> [rows_in, rows_out]
        "latency": {},      # kind -> [counts..., count, sum] flat record
        "tokens": {},       # kind -> [counts..., count, sum] flat record
    }


def _merge_payload(base: Dict, delta: Dict) -> Dict:
    """Fold ``delta`` into ``base`` (both payload dicts); returns base.

    Tables merge last-value (delta wins: it is the newer observation);
    everything else merges additively.
    """
    base["tables"].update(delta["tables"])
    for key, (rows_in, rows_out) in delta["predicates"].items():
        acc = base["predicates"].setdefault(key, [0.0, 0.0])
        acc[0] += rows_in
        acc[1] += rows_out
    for field in ("latency", "tokens"):
        for kind, record in delta[field].items():
            counts, total = record
            existing = base[field].get(kind)
            if existing is None:
                base[field][kind] = [list(counts), float(total)]
            else:
                for i, c in enumerate(counts):
                    if i < len(existing[0]):
                        existing[0][i] += c
                existing[1] += float(total)
    return base


def _histogram_record(histogram: Histogram) -> List:
    return [histogram.bucket_counts(), histogram.sum]


def _percentile(
    bounds: Tuple[float, ...], counts: List[int], pct: float
) -> Optional[float]:
    """Integer-rank percentile over cumulative bucket counts (the same
    rule as :meth:`repro.obs.metrics.Histogram.percentile`)."""
    total = sum(counts)
    if total == 0:
        return None
    rank = max(1, math.ceil(total * pct / 100.0))
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= rank:
            return bounds[i] if i < len(bounds) else math.inf
    return math.inf


class StatisticsCatalog:
    """Observed statistics with delta-based cross-process persistence.

    ``backend=None`` keeps the catalog in-memory for the session; with
    a backend, :meth:`flush` persists the unflushed delta under the
    key set by :meth:`set_scope` (which also loads what other
    processes have already recorded for that scope).
    """

    def __init__(self, backend=None):
        self._backend = backend
        self._key: Optional[Tuple] = None
        self._lock = threading.Lock()
        # Merged view (persisted + this process's unflushed delta):
        # what the planner reads.
        self._tables: Dict[str, int] = {}
        self._predicates: Dict[Tuple[str, str], List[float]] = {}
        self._latency: Dict[str, Histogram] = {}
        self._tokens: Dict[str, Histogram] = {}
        # Unflushed delta: what a flush will fold into the store.
        self._delta = _empty_payload()
        self.replans = 0           # session-local, surfaced by .stats
        self.replan_shards = 0

    # ------------------------------------------------------------------
    # Scope / persistence
    # ------------------------------------------------------------------

    def set_scope(self, key: Optional[Tuple]) -> None:
        """Bind the catalog to a persisted scope key and (re)load it.

        Keys lead with a literal ``"stats"`` component so the catalog's
        rows live outside the generation-stamped cache namespace.  A
        pending delta is flushed to the *old* key first, so switching
        scopes (catalog re-registration) never drops observations.
        """
        with self._lock:
            if key == self._key:
                return
            self._flush_locked()
            self._key = tuple(key) if key is not None else None
            self._reload_locked()

    def _reload_locked(self) -> None:
        self._tables = {}
        self._predicates = {}
        self._latency = {}
        self._tokens = {}
        payload = None
        if self._backend is not None and self._key is not None:
            payload = self._backend.peek(self._key)
        if isinstance(payload, dict) and payload.get("v") == _PAYLOAD_VERSION:
            self._tables.update(payload["tables"])
            for key, (rows_in, rows_out) in payload["predicates"].items():
                self._predicates[key] = [float(rows_in), float(rows_out)]
            for field, store, buckets in (
                ("latency", self._latency, LATENCY_BUCKETS_MS),
                ("tokens", self._tokens, TOKEN_BUCKETS),
            ):
                for kind, (counts, total) in payload[field].items():
                    histogram = Histogram(kind, buckets)
                    if len(counts) == len(buckets) + 1:
                        histogram.merge_counts(counts, total)
                    store[kind] = histogram
        # Re-apply the unflushed delta on top of the persisted view so
        # the merged state stays consistent across a reload.
        self._apply_delta_to_view(self._delta)

    def _apply_delta_to_view(self, delta: Dict) -> None:
        self._tables.update(delta["tables"])
        for key, (rows_in, rows_out) in delta["predicates"].items():
            acc = self._predicates.setdefault(key, [0.0, 0.0])
            acc[0] += rows_in
            acc[1] += rows_out
        for field, store, buckets in (
            ("latency", self._latency, LATENCY_BUCKETS_MS),
            ("tokens", self._tokens, TOKEN_BUCKETS),
        ):
            for kind, (counts, total) in delta[field].items():
                histogram = store.get(kind)
                if histogram is None:
                    histogram = Histogram(kind, buckets)
                    store[kind] = histogram
                histogram.merge_counts(counts, total)

    def flush(self) -> None:
        """Fold the unflushed delta into the persisted blob.

        Read-merge-write: only *this process's new observations* are
        added to whatever the store holds now, so concurrent processes
        flushing in any order never double-count (each observation is
        folded in exactly once, by the process that made it).
        """
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._backend is None or self._key is None:
            return
        if not self._delta_dirty():
            return
        delta = self._delta

        def fold(persisted):
            if not (
                isinstance(persisted, dict)
                and persisted.get("v") == _PAYLOAD_VERSION
            ):
                persisted = _empty_payload()
            return _merge_payload(persisted, delta)

        # The backend's atomic read-merge-write: the blob read and the
        # blob written are the same transaction's, so another process
        # flushing in between loses nothing (and neither do we).
        persisted = self._backend.update(self._key, fold)
        self._delta = _empty_payload()
        # The persisted blob may contain other processes' observations
        # we have not seen; refresh the merged view from it.
        self._tables = dict(persisted["tables"])
        self._predicates = {
            key: [float(a), float(b)]
            for key, (a, b) in persisted["predicates"].items()
        }
        self._latency = {}
        self._tokens = {}
        for field, store, buckets in (
            ("latency", self._latency, LATENCY_BUCKETS_MS),
            ("tokens", self._tokens, TOKEN_BUCKETS),
        ):
            for kind, (counts, total) in persisted[field].items():
                histogram = Histogram(kind, buckets)
                if len(counts) == len(buckets) + 1:
                    histogram.merge_counts(counts, total)
                store[kind] = histogram

    def _delta_dirty(self) -> bool:
        delta = self._delta
        return bool(
            delta["tables"]
            or delta["predicates"]
            or delta["latency"]
            or delta["tokens"]
        )

    # ------------------------------------------------------------------
    # Recording (executor feedback)
    # ------------------------------------------------------------------

    def record_table_rows(self, table: str, rows: int) -> None:
        """A full enumeration of ``table`` returned ``rows`` rows."""
        table = table.lower()
        rows = int(rows)
        with self._lock:
            self._tables[table] = rows
            self._delta["tables"][table] = rows

    def record_selectivity(
        self, table: str, fingerprint: str, rows_in: float, rows_out: float
    ) -> None:
        """``rows_out`` of ``rows_in`` rows survived the predicate."""
        if rows_in <= 0:
            return
        key = (table.lower(), fingerprint)
        with self._lock:
            for store in (self._predicates, self._delta["predicates"]):
                acc = store.setdefault(key, [0.0, 0.0])
                acc[0] += float(rows_in)
                acc[1] += float(rows_out)

    def record_call(self, kind: str, latency_ms: float, tokens: float) -> None:
        """One model call of prompt ``kind`` completed."""
        with self._lock:
            for store, buckets, value in (
                (self._latency, LATENCY_BUCKETS_MS, float(latency_ms)),
                (self._tokens, TOKEN_BUCKETS, float(tokens)),
            ):
                histogram = store.get(kind)
                if histogram is None:
                    histogram = Histogram(kind, buckets)
                    store[kind] = histogram
                histogram.observe(value)
            for field, buckets, value in (
                ("latency", LATENCY_BUCKETS_MS, float(latency_ms)),
                ("tokens", TOKEN_BUCKETS, float(tokens)),
            ):
                record = self._delta[field].get(kind)
                if record is None:
                    record = [[0] * (len(buckets) + 1), 0.0]
                    self._delta[field][kind] = record
                index = len(buckets)
                for i, bound in enumerate(buckets):
                    if value <= bound:
                        index = i
                        break
                record[0][index] += 1
                record[1] += value

    # ------------------------------------------------------------------
    # Planner queries
    # ------------------------------------------------------------------

    def observed_rows(self, table: str) -> Optional[int]:
        """The last observed full row count of ``table`` (None: never
        fully enumerated)."""
        with self._lock:
            return self._tables.get(table.lower())

    def observed_selectivity(
        self, table: str, fingerprint: str
    ) -> Optional[float]:
        """Observed fraction of rows surviving the predicate shape.

        None until at least one observation exists.  The ratio is
        clamped away from exact 0 (a selective predicate may still
        match in unseen data) but may legitimately reach 1.0.
        """
        with self._lock:
            acc = self._predicates.get((table.lower(), fingerprint))
        if acc is None or acc[0] <= 0:
            return None
        rows_in, rows_out = acc
        return min(1.0, max(rows_out, 0.5) / rows_in)

    # ------------------------------------------------------------------
    # Introspection (.stats REPL command)
    # ------------------------------------------------------------------

    def describe(self) -> str:
        with self._lock:
            tables = dict(self._tables)
            predicates = {
                key: tuple(acc) for key, acc in self._predicates.items()
            }
            latency = {
                kind: (hist.bucket_counts(), hist.count)
                for kind, hist in self._latency.items()
            }
            tokens = {
                kind: hist.bucket_counts() for kind, hist in self._tokens.items()
            }
            replans = self.replans
            replan_shards = self.replan_shards
        lines: List[str] = []
        lines.append("tables:")
        if tables:
            for name in sorted(tables):
                lines.append(f"  {name}: rows={tables[name]}")
        else:
            lines.append("  (none observed)")
        lines.append("predicates:")
        if predicates:
            for (table, fingerprint) in sorted(predicates):
                rows_in, rows_out = predicates[(table, fingerprint)]
                sel = min(1.0, max(rows_out, 0.5) / rows_in) if rows_in else 0.0
                lines.append(
                    f"  {table} | {fingerprint}: sel={sel:.3f} "
                    f"({rows_out:g}/{rows_in:g})"
                )
        else:
            lines.append("  (none observed)")
        lines.append("calls:")
        if latency:
            for kind in sorted(latency):
                counts, count = latency[kind]
                p50 = format_bound(
                    _percentile(LATENCY_BUCKETS_MS, counts, 50)
                )
                tok_counts = tokens.get(kind)
                tok50 = (
                    format_bound(_percentile(TOKEN_BUCKETS, tok_counts, 50))
                    if tok_counts
                    else "-"
                )
                lines.append(
                    f"  {kind}: count={count} p50_latency_ms={p50} "
                    f"p50_tokens={tok50}"
                )
        else:
            lines.append("  (none observed)")
        if replans:
            lines.append(
                f"replans: {replans} (residual shards: {replan_shards})"
            )
        return "\n".join(lines)
