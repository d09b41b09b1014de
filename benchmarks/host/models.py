"""Replay model: takes the simulated model's compute out of the host clock.

A cold statement spends ~95% of its host time inside ``SimulatedLLM``
recomputing believed rows — work that in production happens in a remote
service.  ``ReplayModel`` wraps the live model with a record-through
tape keyed on ``(prompt, options)``: the first time a request is seen it
falls through to the inner model and the ``Completion`` is kept; every
later time the recorded object is returned unchanged (same tokens, same
simulated ``latency_ms``, same ``model_name``) in O(1).  The tape is
filled by an untimed warm-up pass of the exact iteration and never
written to disk, so a prompt-format change can never replay stale text.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict, List, Sequence, Tuple

from repro.llm.interface import BatchRequest, Completion, CompletionOptions


class ReplayModel:
    """Record-through tape over ``inner`` with optional real latency.

    ``latency_s`` is slept once per call on every surface: ``time.sleep``
    on the sync paths (dispatcher pool threads overlap it) and
    ``asyncio.sleep`` on ``complete_async`` — a sync-only sleeping model
    would be run inline on the engine's event loop and serialise every
    speculative call, which is not what a network transport does.
    """

    def __init__(self, inner, latency_s: float = 0.0):
        self._inner = inner
        self.latency_s = latency_s
        self._tape: Dict[Tuple[str, CompletionOptions], Completion] = {}
        self._lock = threading.Lock()
        self._in_flight = 0
        self.reset_counters()

    @property
    def model_name(self) -> str:
        return self._inner.model_name

    def reset_counters(self) -> None:
        """Zero the counters (the tape is kept)."""
        with self._lock:
            self.raw_calls = 0
            self.misses = 0
            self.peak_in_flight = self._in_flight
            self.busy_s = 0.0

    def __len__(self) -> int:
        return len(self._tape)

    # -- the three model surfaces -------------------------------------------

    def complete(
        self, prompt: str, options: CompletionOptions = CompletionOptions()
    ) -> Completion:
        started = self._enter()
        try:
            if self.latency_s:
                time.sleep(self.latency_s)
            return self._replay(prompt, options)
        finally:
            self._exit(started)

    def complete_many(self, requests: Sequence[BatchRequest]) -> List[Completion]:
        return [self.complete(prompt, options) for prompt, options in requests]

    async def complete_async(
        self, prompt: str, options: CompletionOptions = CompletionOptions()
    ) -> Completion:
        started = self._enter()
        try:
            if self.latency_s:
                await asyncio.sleep(self.latency_s)
            return self._replay(prompt, options)
        finally:
            self._exit(started)

    # -- internals ----------------------------------------------------------

    def _replay(self, prompt: str, options: CompletionOptions) -> Completion:
        key = (prompt, options)
        completion = self._tape.get(key)
        if completion is None:
            completion = self._inner.complete(prompt, options)
            with self._lock:
                self.misses += 1
                self._tape.setdefault(key, completion)
        return completion

    def _enter(self) -> float:
        with self._lock:
            self.raw_calls += 1
            self._in_flight += 1
            if self._in_flight > self.peak_in_flight:
                self.peak_in_flight = self._in_flight
        return time.perf_counter()

    def _exit(self, started: float) -> None:
        elapsed = time.perf_counter() - started
        with self._lock:
            self._in_flight -= 1
            self.busy_s += elapsed
