"""Session state shared across the queries of one engine instance.

The session owns the usage meter (cumulative accounting, optional
budget), the prompt cache (reuse *across* queries is intentional:
repeated lookups of the same entities are a dominant cost in interactive
workloads), and the storage tier (:mod:`repro.storage`), which
materializes retrieved fragments and whole results so repeated traffic
stops paying model calls at all.

Under concurrent serving the session is additionally the sharing
boundary: one :class:`~repro.runtime.scheduler.FlightBudget` caps total
in-flight model calls across every query of the session at
``max_in_flight``, and one
:class:`~repro.runtime.scheduler.CrossQueryDedup` registry lets
overlapping queries join each other's identical in-flight calls instead
of paying twice.  Both are wired into every query — a session queried
from plain threads gets the same guarantees as one behind the
scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.config import EngineConfig
from repro.llm.accounting import Budget, PriceModel, UsageMeter, UsageSnapshot
from repro.llm.cache import PromptCache, resolve_model_name
from repro.llm.interface import LanguageModel
from repro.llm.transport import as_transport, transport_label
from repro.obs.hub import Observability
from repro.runtime.batching import ContinuousBatcher
from repro.runtime.scheduler import CrossQueryDedup, FlightBudget
from repro.stats import StatisticsCatalog
from repro.storage.tier import StorageTier


@dataclass
class EngineSession:
    """Model handle plus cumulative accounting, cache, and storage."""

    model: LanguageModel
    config: EngineConfig = field(default_factory=EngineConfig)
    price_model: PriceModel = field(default_factory=PriceModel)
    budget: Optional[Budget] = None
    storage: Optional[StorageTier] = None

    def __post_init__(self):
        self.meter = UsageMeter(self.price_model, self.budget)
        self.cache = PromptCache()
        self.dedup = CrossQueryDedup()
        self.flight_budget = FlightBudget(self.config.max_in_flight)
        if self.storage is None:
            self.storage = StorageTier.from_config(self.config)
        # Observability is wired only when enabled: the meter observer,
        # tier counters, and in-flight gauges otherwise stay detached,
        # so the disabled path records nothing and checks nothing.
        self.obs = Observability.from_config(self.config)
        if self.obs.enabled:
            self.meter.set_observer(self.obs)
            self.storage.attach_registry(self.obs.registry)
            self.flight_budget.attach_registry(self.obs.registry)
        # Continuous batching: one shared slot pool per session, fed by
        # every query's BatchingGate.  When active, it replaces the
        # FlightBudget as the session's admission control for raw model
        # calls (the engine stops handing the budget to ModelClients),
        # so the pool's ``batch_slots`` — not ``max_in_flight`` — is
        # the serving layer's concurrency bound.
        self.batcher: Optional[ContinuousBatcher] = None
        if self.config.enable_continuous_batching:
            self.batcher = ContinuousBatcher(
                as_transport(self.model),
                slots=self.config.batch_slots,
                registry=(self.obs.registry if self.obs.enabled else None),
            )
        # Online statistics catalog: always recording (``.stats`` shows
        # what was observed either way); the optimizer only *consults*
        # it under ``enable_adaptive``.  Persistence piggybacks on the
        # sqlite storage file as its own logical store, on the tier's
        # connection so that its flush joins the statement's commit —
        # and only when adaptive is on, so a static session neither
        # reads nor writes stats rows and stays byte/cost-identical.
        stats_backend = None
        if (
            self.config.enable_adaptive
            and self.config.storage_backend == "sqlite"
        ):
            # None on a tier that fell back to memory at open: the
            # catalog is then memory-only, never an error.
            stats_backend = self.storage.open_store("stats")
        self.stats_catalog = StatisticsCatalog(stats_backend)

    def query_meter(self, forward_wall: bool = True) -> UsageMeter:
        """A child meter attributing one query's usage.

        Everything the query records rolls up into the session meter;
        ``forward_wall=False`` (the serving layer) keeps the query's
        critical path out of the session clock, which then receives one
        batch makespan instead of a sum of overlapped walls.
        """
        return self.meter.child(forward_wall=forward_wall)

    @property
    def serving_slots(self) -> int:
        """Concurrent-model-call width the serving layer prices against.

        With continuous batching the shared pool is the bound (its
        slots are what limit simultaneous raw calls); otherwise the
        classic ``max_in_flight`` dispatcher budget is.
        """
        if self.batcher is not None:
            return max(self.config.max_in_flight, self.config.batch_slots)
        return self.config.max_in_flight

    def describe_transport(self) -> str:
        """One line naming the model boundary (``.storage``, demos)."""
        if getattr(self.model, "is_transport", False):
            text = self.model.describe()
        else:
            text = f"in-process {resolve_model_name(self.model)}"
        if self.batcher is not None:
            text += (
                f"; continuous batching over {self.batcher.slots} slot(s)"
            )
        return text

    def close(self) -> None:
        """Release the continuous batcher and flush storage.

        The statistics catalog's last delta and anything still pending
        on the storage file go out in one commit.  The store stays open:
        usage and storage counters are read after ``close()``.
        """
        if self.batcher is not None:
            self.batcher.close()
        with self.storage.window():
            self.stats_catalog.flush()

    def usage(self) -> UsageSnapshot:
        """Cumulative usage, with the storage tier's counters folded in."""
        snapshot = self.meter.snapshot()
        storage = self.storage.snapshot()
        return replace(
            snapshot,
            result_cache_hits=storage.result_hits,
            fragment_hits=storage.fragment_hits,
            calls_saved=storage.calls_saved,
            persistent_hits=storage.persistent_hits,
            persistent_misses=storage.persistent_misses,
            invalidations=storage.invalidations,
            latency_summary=self.obs.latency_summary(),
            transport=transport_label(self.model),
        )

    def reset_usage(self) -> None:
        self.meter.reset()
        self.storage.reset_counters()

    def clear_cache(self) -> None:
        self.cache.clear()
        self.storage.clear()
