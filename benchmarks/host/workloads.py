"""The five workloads (names are permanent) and the recorder they feed.

Every workload drives the engine through its public API only —
``LLMStorageEngine``, ``register_virtual_table``, ``execute``,
``execute_many``, ``usage``, ``close`` and the ``EngineConfig`` fields
``max_in_flight``, ``storage_mode``, ``storage_backend``,
``storage_path``, ``storage_scope`` — so a PR that deletes another knob
does not break the benchmark.  All load comes from one process and one
generator thread, closed loop: the next call is issued when the previous
one returns, as callers of a library do.

Statements always run in the suite's own order, world after world.  The
work a statement does depends on what ran before it (prompt cache,
fragments of wider scans, the layout of the sqlite file): two shuffles
of suite A differed by 40% in ``stmt_per_s`` on ``storage_cold_write``,
and in calls and tokens; even visiting the three worlds in another order
moved its ``op_ms_p50`` by 10%.  An order drawn from the seed would make
two seeds two different workloads, so ``--seed`` only seeds the replayed
model — its seed is part of the model's name and so of every cache and
storage key.  Every iteration of a run is the same: one warm-up pass
records every prompt the timed iterations ask, and per-statement counts
do not depend on how many iterations fit into ``--seconds``.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import statistics
import time
from typing import Dict, List, Optional, Sequence

from models import ReplayModel

from repro import EngineConfig, LLMStorageEngine
from repro.baselines.materialized import MaterializedEngine
from repro.errors import ReproError
from repro.eval.harness import build_decomposed, build_direct, evaluate_query
from repro.eval.metrics import tuple_metrics
from repro.eval.workloads import WorkloadQuery, workload_for
from repro.eval.worlds import all_worlds
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM

#: Float slack when comparing a noise-free answer with the oracle's.
EXACT_TOLERANCE = 1e-9


class Run:
    """What one measured run accumulates; workloads report into it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.iter_s: List[float] = []
        self.iter_cpu_s: List[float] = []
        self.op_ms: List[float] = []
        self.statements = 0
        self.failed = 0
        self.first_failure = ""
        self.f1: List[float] = []
        self.engines = 0
        self.rows_returned = 0
        # Summed over every engine the iterations built.
        self.calls = 0
        self.tokens = 0
        self.sim_wall_ms = 0.0
        self.dedup_hits = 0
        self.cache_hits = 0
        self.cache_requests = 0
        self.result_hits = 0
        self.result_misses = 0
        self.fragment_hits = 0
        self.fragment_misses = 0
        self.file_bytes = 0
        self.payload_bytes = 0

    @property
    def ops(self) -> int:
        return len(self.op_ms)

    # -- timing -------------------------------------------------------------

    def start_iteration(self):
        return time.perf_counter(), time.process_time()

    def end_iteration(self, started, statements: int) -> None:
        wall, cpu = started
        self.iter_cpu_s.append(time.process_time() - cpu)
        self.iter_s.append(time.perf_counter() - wall)
        self.statements += statements

    def call(self, fn, *args, **kwargs):
        """One public-API call: timed, traced as an op, failures counted."""
        started = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                with self.tracer.op(self.ops + 1):
                    result = fn(*args, **kwargs)
        except ReproError as exc:
            result = None
            self.fail(f"{type(exc).__name__}: {exc}")
        self.op_ms.append((time.perf_counter() - started) * 1e3)
        return result

    # -- untimed bookkeeping ------------------------------------------------

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.first_failure = self.first_failure or reason

    def score(self, rows, truth) -> bool:
        """Record F1 against the oracle; True when the bags are equal."""
        metrics = tuple_metrics(rows, truth, EXACT_TOLERANCE)
        self.f1.append(metrics.f1)
        self.rows_returned += len(rows)
        return len(rows) == len(truth) == metrics.true_positives

    def harvest(self, engine) -> None:
        """Fold a finished engine's counters in (after the timed section)."""
        self.engines += 1
        usage = engine.usage
        self.calls += usage.calls
        self.tokens += usage.total_tokens
        self.sim_wall_ms += usage.wall_ms
        self.dedup_hits += usage.dedup_hits
        cache = getattr(engine, "cache_stats", None)
        if cache is not None:
            self.cache_hits += cache.hits
            self.cache_requests += cache.requests
        storage = getattr(engine, "storage_stats", None)
        if storage is not None:
            self.result_hits += storage.result_hits
            self.result_misses += storage.result_misses
            self.fragment_hits += storage.fragment_hits
            self.fragment_misses += storage.fragment_misses


def measure(iterate, run: Run, iterations: int, seconds: float, cycle: int = 1):
    """Call ``iterate(run)`` ``iterations`` times, or — when ``seconds``
    is set — until that long has passed, at least twice, and a whole
    number of cycles is done."""
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        iterate(run)
        done += 1
        if not seconds:
            if done >= iterations:
                return
        elif time.perf_counter() >= deadline and done >= 2 and done % cycle == 0:
            return


def build_engine(world, model, config: EngineConfig) -> LLMStorageEngine:
    engine = LLMStorageEngine(model, config=config)
    for schema in world.schemas():
        engine.register_virtual_table(
            schema, row_estimate=world.row_count(schema.name)
        )
    return engine


def variants(query: WorkloadQuery) -> List[str]:
    """Suite B: same FROM/WHERE as ``query``, another SELECT list.

    Only columns the original statement already fetched are used, so on
    a store populated by suite A these are answered from fragments plus
    local compute, with no model call.
    """
    select, rest = re.match(r"SELECT (.*?) FROM (.*)$", query.sql).groups()
    base = re.split(r" GROUP BY | ORDER BY | LIMIT ", rest)[0]
    first = select.split(",")[0].strip()
    if query.query_class == "filter":
        return [
            f"SELECT COUNT(*) FROM {base}",
            f"SELECT {first} FROM {base} ORDER BY {first}",
        ]
    if query.query_class == "topk":
        return [f"SELECT {first} AS v FROM {rest}"]
    if query.query_class == "aggregate":
        if " GROUP BY " in rest:
            return [f"SELECT {first} FROM {rest}"]
        if not select.startswith("COUNT(*)"):
            return [f"SELECT COUNT(*) FROM {base}"]
    return []


class Workload:
    """``setup()``, ``warm_up()``, then identical ``iterate(run)`` calls."""

    name = ""
    #: One line, as recorded in BENCHMARK.json.
    why = ""
    #: Iterations of a full run, sized for ~15-20 s on a 2-core host.
    iterations = 1
    #: A ``--seconds`` run stops only at a multiple of this.
    cycle = 1
    #: The model answers from ground truth, so every answer must equal
    #: the oracle's.
    noise_free = True
    #: What one op is, for the printed sample count.
    op = "execute"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.worlds = all_worlds()
        self.truth: Dict[str, list] = {}
        #: Oracle time per statement: the plain relational executor over
        #: ground truth, the baseline the engine is compared with.
        self.reference_s: List[float] = []
        self.models: Dict[str, ReplayModel] = {}

    # -- shared setup helpers ----------------------------------------------

    def answer(self, world, statements: Sequence[str]) -> None:
        """Oracle answers, computed once; also the reference baseline."""
        oracle = MaterializedEngine(world)
        for sql in statements:
            started = time.perf_counter()
            self.truth[sql] = oracle.execute(sql).rows
            self.reference_s.append(time.perf_counter() - started)

    def replay_model(self, world, latency_s: float = 0.0) -> ReplayModel:
        live = SimulatedLLM(world, NoiseConfig.perfect(), self.seed)
        return ReplayModel(live, latency_s)

    def warm_up(self) -> None:
        """Record the tape: untimed passes of the exact iteration, until
        one asks nothing new (with threads, which pages are speculated
        on can differ from pass to pass)."""
        models = list(self.models.values())
        for _ in range(3 if models else 0):
            for model in models:
                model.reset_counters()
            self.iterate(Run())
            if not any(model.misses for model in models):
                break
        for model in models:
            model.reset_counters()

    def run_statements(self, run: Run, engine, statements) -> list:
        return [(sql, run.call(engine.execute, sql)) for sql in statements]

    def check(self, run: Run, answered) -> List[str]:
        """Score every answer; the reasons any of them counts as failed
        beyond having raised (which ``Run.call`` already counted)."""
        wrong = []
        for sql, result in answered:
            if result is None:
                run.f1.append(0.0)
            elif not run.score(result.rows, self.truth[sql]) and self.noise_free:
                wrong.append(f"wrong answer: {sql}")
        return wrong

    # -- per workload -------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self, run: Run) -> None:
        raise NotImplementedError

    def side_metrics(self, plain: Run, iterations: int, seconds: float) -> dict:
        """Per-layer metrics the workload measures outside the traced run."""
        return {}

    def teardown(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class AnalyticCold(Workload):
    """The engine's own CPU path with nothing cached."""

    name = "analytic_cold"
    why = (
        "fresh engine, storage off, replayed model: the engine's own CPU "
        "path (sql, plan, core, prompts, relational) with nothing cached"
    )
    iterations = 250

    def setup(self) -> None:
        #: Per world: suite A, and what runs after it on the same engine.
        self.statements: Dict[str, List[str]] = {}
        self.variants: Dict[str, List[str]] = {}
        for name, world in self.worlds.items():
            self.statements[name] = [q.sql for q in workload_for(world)]
            self.variants[name] = []
            self.answer(world, self.statements[name])
            self.models[name] = self.replay_model(world)

    def fresh_config(self) -> EngineConfig:
        """The engines' configuration; called once per iteration, untimed."""
        return EngineConfig(storage_mode="off", max_in_flight=1)

    def iterate(self, run: Run) -> None:
        config = self.fresh_config()
        engines, answered, fresh = [], [], []
        started = run.start_iteration()
        for name, world in self.worlds.items():
            engine = build_engine(world, self.models[name], config)
            answered += self.run_statements(run, engine, self.statements[name])
            fresh += self.run_statements(run, engine, self.variants[name])
            engine.close()
            engines.append(engine)
        run.end_iteration(started, len(answered) + len(fresh))
        for engine in engines:
            run.harvest(engine)
        for reason in self.check(run, answered + fresh):
            run.fail(reason)
        self.after_iteration(run, engines, fresh)

    def after_iteration(self, run: Run, engines, fresh) -> None:
        pass


class StorageColdWrite(AnalyticCold):
    """Same statements, every page and result written back to sqlite."""

    name = "storage_cold_write"
    why = (
        "same statements into an empty sqlite store: every page and result "
        "encoded and written; minus analytic_cold is the price of write-back"
    )
    iterations = 80

    def store_config(self, directory: str) -> EngineConfig:
        return EngineConfig(
            max_in_flight=1,
            storage_mode="materialize",
            storage_backend="sqlite",
            storage_path=os.path.join(directory, "store.db"),
            storage_scope="application",
        )

    def new_store(self, directory: str) -> None:
        os.makedirs(directory)

    def fresh_config(self) -> EngineConfig:
        self.store_dir = os.path.join(self.scratch, "store")
        self.new_store(self.store_dir)
        return self.store_config(self.store_dir)

    def after_iteration(self, run: Run, engines, fresh) -> None:
        run.file_bytes += sum(
            entry.stat().st_size for entry in os.scandir(self.store_dir)
        )
        run.payload_bytes += engines[-1].storage.bytes_used
        # Engines sit in reference cycles: collect them, so that their
        # sqlite connections close before the files go and garbage from
        # this iteration is not carried into the next one's timing.
        del engines[:]
        gc.collect()
        shutil.rmtree(self.store_dir)


class StorageWarmRead(StorageColdWrite):
    """A restarted process over a populated store: reads, no model."""

    name = "storage_warm_read"
    why = (
        "restart over a populated sqlite store: result and fragment reads "
        "plus local compute, no model call, working set fits the budget"
    )
    iterations = 400

    def setup(self) -> None:
        super().setup()
        #: The populated store every iteration starts from a copy of.
        self.pristine = os.path.join(self.scratch, "pristine")
        os.makedirs(self.pristine)
        config = self.store_config(self.pristine)
        for name, world in self.worlds.items():
            self.variants[name] = [
                sql for query in workload_for(world) for sql in variants(query)
            ]
            self.answer(world, self.variants[name])
            engine = build_engine(world, self.models[name], config)
            for sql in self.statements[name]:
                engine.execute(sql)
            engine.close()

    def new_store(self, directory: str) -> None:
        shutil.copytree(self.pristine, directory)

    def after_iteration(self, run: Run, engines, fresh) -> None:
        served = [result.usage for _, result in fresh if result is not None]
        if sum(usage.calls for usage in served):
            run.fail("suite B made a model call")
        if not sum(usage.fragment_hits for usage in served):
            run.fail("suite B had no fragment hit")
        super().after_iteration(run, engines, fresh)


class ServeConcurrent(Workload):
    """One 20-statement batch through ``execute_many`` at 10 ms per call."""

    name = "serve_concurrent"
    why = (
        "20-statement batch, jobs=4, max_in_flight=8, 10 ms real latency per "
        "call: dispatcher, scheduler, prefetch, single-flight in real time"
    )
    iterations = 150
    op = "execute_many"
    latency_s = 0.010
    jobs = 4
    config = EngineConfig(storage_mode="off", max_in_flight=8)

    def setup(self) -> None:
        self.world = self.worlds["movies"]
        # Every other statement of the first twelve runs twice, the copy
        # right behind its original so that the two are in flight
        # together (single-flight).  Not drawn from the seed: which
        # chains are doubled, and where, moves the batch's critical path.
        self.batch = [
            query.sql
            for index, query in enumerate(workload_for(self.world))
            for _ in range(2 if index % 2 == 0 and index < 12 else 1)
        ]
        self.answer(self.world, self.batch)
        # Real latency from the warm-up on: which pages are speculated on
        # depends on what is in flight at the time.
        self.models = {"movies": self.replay_model(self.world, self.latency_s)}

    def iterate(self, run: Run, jobs: Optional[int] = None,
                config: Optional[EngineConfig] = None) -> None:
        started = run.start_iteration()
        engine = build_engine(
            self.world, self.models["movies"], config or self.config
        )
        outcomes = run.call(
            engine.execute_many, self.batch,
            jobs=jobs or self.jobs, collect_outcomes=True,
        )
        engine.close()
        run.end_iteration(started, len(self.batch))
        run.harvest(engine)
        if outcomes is None:
            return
        problems = [
            f"{outcome.status}: {outcome.error}"
            for outcome in outcomes if not outcome.ok
        ]
        problems += self.check(run, [
            (sql, outcome.result if outcome.ok else None)
            for sql, outcome in zip(self.batch, outcomes)
        ])
        if problems:
            # One op is one batch: it fails once, whatever went wrong in it.
            run.fail(problems[0])

    def side_metrics(self, plain: Run, iterations: int, seconds: float) -> dict:
        """The same batch with no concurrency, on both clocks."""
        serial = Run()
        config = EngineConfig(storage_mode="off", max_in_flight=1)
        measure(
            lambda run: self.iterate(run, jobs=1, config=config),
            serial, iterations, seconds,
        )
        return {
            "runtime.real_speedup_vs_serial": statistics.median(serial.iter_s)
            / statistics.median(plain.iter_s),
            "runtime.sim_speedup_vs_serial": (
                serial.sim_wall_ms / len(serial.iter_s)
            ) / (plain.sim_wall_ms / len(plain.iter_s)),
        }


class PaperRepro(Workload):
    """The researcher's path: live noisy model, scored against the oracle."""

    name = "paper_repro"
    why = (
        "live noisy simulated model scored against the oracle, decomposed "
        "and direct engines: simulator and eval do the work, and accuracy "
        "is carried along"
    )
    iterations = 8
    cycle = 8
    noise_free = False
    op = "evaluate_query"
    #: Fixed, not drawn from ``--seed``: the accuracy the paper reports
    #: is a property of the code, so it must repeat on every seed.
    model_seeds = tuple(range(7, 15))

    def setup(self) -> None:
        self.queries = {
            name: workload_for(world) for name, world in self.worlds.items()
        }
        for name, world in self.worlds.items():
            # evaluate_query asks the oracle itself; these only time the
            # reference baseline, as on every other workload.
            self.answer(world, [q.sql for q in self.queries[name]])
        self.direct_f1: List[float] = []

    def iterate(self, run: Run) -> None:
        model_seed = self.model_seeds[len(run.iter_s) % len(self.model_seeds)]
        engines, scored, count = [], [], 0
        started = run.start_iteration()
        for name, world in self.worlds.items():
            oracle = MaterializedEngine(world)
            for build in (build_decomposed, build_direct):
                model = SimulatedLLM(world, NoiseConfig(), model_seed)
                engine = build(model, world)
                for query in self.queries[name]:
                    scored.append(
                        (build, run.call(evaluate_query, engine, oracle, query))
                    )
                if build is build_decomposed:
                    engine.close()
                engines.append(engine)
                count += len(self.queries[name])
        run.end_iteration(started, count)
        for engine in engines:
            run.harvest(engine)
        for build, evaluation in scored:
            if evaluation is None or evaluation.failed:
                if evaluation is not None:
                    run.fail(evaluation.failure)
                f1 = 0.0
            else:
                f1 = evaluation.metrics.f1
                run.rows_returned += evaluation.metrics.predicted
            (run.f1 if build is build_decomposed else self.direct_f1).append(f1)

    def side_metrics(self, plain: Run, iterations: int, seconds: float) -> dict:
        return {"baselines.direct_f1": statistics.fmean(self.direct_f1)}


WORKLOADS = {
    cls.name: cls
    for cls in (
        AnalyticCold, StorageWarmRead, StorageColdWrite, ServeConcurrent,
        PaperRepro,
    )
}
