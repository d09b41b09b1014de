"""Prompt-sequence pin for every retrieval loop of ``ModelClient``.

Each case runs one retrieval shape — plain, limit-hinted, resumed and
sharded scans, truncation and guard trips, a fired adaptive re-plan, a
materialized lookup, an early-exit lookup stream, a voted judge — and
reduces what the model was asked and what came back to a fingerprint:
every prompt handed to the dispatcher (hashed; in order at
``max_in_flight=1``, as a multiset at 4, where shard chains
interleave), every storage write, calls, tokens, simulated wall,
pages fetched/skipped, warnings, and the type-tagged rows.

The fingerprints in ``retrieval_pin.json`` were recorded before the
page loops were consolidated, so any drift in prompts, accounting or
rows fails here.  Re-record (only for an intended behaviour change)
with::

    PYTHONPATH=src python tests/test_retrieval_pin.py --record
"""

import dataclasses
import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.config import EngineConfig
from repro.core.engine import LLMStorageEngine
from repro.core.operators import ModelClient
from repro.eval.worlds import all_worlds
from repro.llm.accounting import UsageMeter
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM
from repro.plan.cost import CostEstimate
from repro.plan.physical import JudgeStep
from repro.runtime.dispatcher import Dispatcher
from repro.storage.tier import StorageTier

PIN_PATH = Path(__file__).with_name("retrieval_pin.json")
SEED = 11

NOISES = {
    "perfect": NoiseConfig.perfect(),
    # Chatter and refusals exercise the strip and retry paths; the
    # garbling wrapper below adds malformed lines (index-shifting pages,
    # so prefetch guesses miss and malformed-line warnings fire).
    "noisy": NoiseConfig(format_noise_rate=0.3, refusal_rate=0.05),
}

#: Not prompt-safe, so the filter runs locally over a streamed scan.
RESIDUAL = "CASE WHEN {} THEN 1 ELSE 0 END = 1"
REPLAN_QUERY = (
    "SELECT title FROM movies WHERE "
    + RESIDUAL.format("rating > 9.0")
    + " LIMIT 5"
)


def _movies():
    return all_worlds()["movies"]


def _director_names(count):
    directors = _movies().table("directors")
    index = directors.schema.column_index("name")
    return [row[index] for row in directors.rows[:count]]


class _Garbling:
    """Corrupts a fixed share of answer lines so they cannot parse.

    Which lines break depends only on their text, so the damage is
    deterministic and identical across concurrency levels.
    """

    def __init__(self, inner):
        self._inner = inner
        self.model_name = inner.model_name

    def _garble(self, completion):
        lines = [
            line + " | ?" if "|" in line and _digest(line)[-1] in "05a" else line
            for line in completion.text.split("\n")
        ]
        return dataclasses.replace(completion, text="\n".join(lines))

    def complete(self, prompt, options):
        return self._garble(self._inner.complete(prompt, options))

    def complete_many(self, requests):
        return [self._garble(c) for c in self._inner.complete_many(requests)]


def _model(noise):
    model = SimulatedLLM(_movies(), noise=noise, seed=SEED)
    return model if noise == NoiseConfig.perfect() else _Garbling(model)


def _engine(noise, estimates=None, **config):
    world = _movies()
    engine = LLMStorageEngine(_model(noise), config=EngineConfig().with_(**config))
    for schema in world.schemas():
        engine.register_virtual_table(
            schema,
            row_estimate=(estimates or {}).get(
                schema.name, world.row_count(schema.name)
            ),
        )
    return engine


def _run_sql(noise, queries, estimates=None, **config):
    engine = _engine(noise, estimates, **config)
    try:
        rows, warnings = [], []
        for sql in queries:
            result = engine.execute(sql)
            rows.append(result.rows)
            warnings.extend(result.warnings)
        return rows, warnings, engine.usage
    finally:
        engine.close()


def _sql_case(*queries, estimates=None, **config):
    return lambda noise, mif: _run_sql(
        noise, list(queries), estimates, max_in_flight=mif, **config
    )


def _judge_case(noise, mif):
    world = _movies()
    schema = world.table("movies").schema
    titles = world.table("movies").rows
    index = schema.column_index("title")
    keys = [(row[index],) for row in titles[:40]]
    config = EngineConfig().with_(max_in_flight=mif, votes=3)
    meter = UsageMeter()
    client = ModelClient(_model(noise), meter, config)
    step = JudgeStep(
        binding="movies", table_name="movies", schema=schema,
        key_columns=("title",), condition_sql="rating > 7.5",
        est_keys=len(keys), estimate=CostEstimate(),
    )
    try:
        verdicts = client.run_judge(step, keys)
    finally:
        client.close()
    rows = [[key, verdict] for key, verdict in sorted(verdicts.items())]
    return [rows], list(client.warnings), meter.snapshot()


_IN_LIST = ", ".join(f"'{name}'" for name in _director_names(20))

CASES = {
    "plain_scan": _sql_case("SELECT title, year, rating FROM movies"),
    "truncated_scan": _sql_case(
        "SELECT title, year FROM movies", max_output_tokens=120, page_size=12
    ),
    "truncated_first_page": _sql_case(
        "SELECT title FROM movies", max_output_tokens=1
    ),
    "truncated_first_page_sharded": _sql_case(
        "SELECT title FROM movies",
        max_output_tokens=1, scan_shards=7, shard_min_rows=8,
    ),
    "guarded_scan": _sql_case(
        "SELECT title FROM movies",
        estimates={"movies": 10}, scan_guard_factor=1,
    ),
    "guarded_sharded_scan": _sql_case(
        "SELECT title FROM movies",
        estimates={"movies": 70}, scan_guard_factor=1,
        scan_shards=7, shard_min_rows=8,
    ),
    "limit_hint_scan": _sql_case(
        "SELECT title FROM movies ORDER BY rating DESC LIMIT 7",
        "SELECT title, year FROM movies WHERE year >= 2000 LIMIT 25",
    ),
    "resumed_prefix_scan": _sql_case(
        "SELECT title FROM movies WHERE "
        + RESIDUAL.format("year >= 1990")
        + " LIMIT 5",
        "SELECT title FROM movies WHERE " + RESIDUAL.format("year >= 1990"),
        storage_mode="materialize",
    ),
    "sharded_scan": _sql_case(
        "SELECT title, year FROM movies",
        "SELECT title FROM movies WHERE year >= 1990",
        scan_shards=7, shard_min_rows=8,
    ),
    "sharded_partial_agg": _sql_case(
        "SELECT director, COUNT(*), AVG(year) FROM movies GROUP BY director",
        scan_shards=7, shard_min_rows=8,
    ),
    "adaptive_replan": _sql_case(
        REPLAN_QUERY,
        REPLAN_QUERY.replace("LIMIT 5", "LIMIT 9"),
        enable_adaptive=True,
    ),
    "sharded_scan_materialize": _sql_case(
        "SELECT title, year FROM movies WHERE year >= 1990",
        "SELECT title FROM movies WHERE year >= 1990",
        scan_shards=7, shard_min_rows=8, storage_mode="materialize",
    ),
    "adaptive_replan_materialize": _sql_case(
        REPLAN_QUERY,
        REPLAN_QUERY.replace("LIMIT 5", "LIMIT 9"),
        enable_adaptive=True, storage_mode="materialize",
    ),
    "materialized_lookup": _sql_case(
        f"SELECT name, born FROM directors WHERE name IN ({_IN_LIST})",
        enable_streaming=False, storage_mode="materialize",
    ),
    "lookup_stream_early_exit": _sql_case(
        "SELECT 1 WHERE EXISTS (SELECT born FROM directors "
        f"WHERE name IN ({_IN_LIST}))",
        storage_mode="materialize",
    ),
    "judge_votes3": _judge_case,
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _tagged(rows):
    return repr(
        [[tuple((type(v).__name__, v) for v in row) for row in part] for part in rows]
    )


class _PromptLog:
    """Records digests of what the engine pays for or writes back."""

    def __init__(self):
        self.entries = []
        self._lock = threading.Lock()

    def add(self, kind, sample_index, prompt):
        with self._lock:
            self.entries.append(f"{kind}|{sample_index}|{_digest(prompt)}")


#: Every storage write the operators can make.
STORE_METHODS = (
    "store_scan_fragment",
    "store_shard_fragment",
    "store_lookup_row",
    "store_lookup_negative",
)


def _recording(monkeypatch, log, stores):
    for name in STORE_METHODS:
        monkeypatch.setattr(
            StorageTier, name, _logged(getattr(StorageTier, name), name, stores)
        )
    submit = Dispatcher.submit
    consume = Dispatcher.consume_speculation

    def recording_submit(self, request):
        log.add(request.kind, request.sample_index, request.prompt)
        return submit(self, request)

    def recording_consume(self, spec):
        log.add("scan-page", spec.options.sample_index, spec.prompt)
        return consume(self, spec)

    monkeypatch.setattr(Dispatcher, "submit", recording_submit)
    monkeypatch.setattr(Dispatcher, "consume_speculation", recording_consume)


def _logged(method, name, stores):
    def logged(self, *args, **kwargs):
        stores.add(name, 0, repr((args, sorted(kwargs.items()))))
        return method(self, *args, **kwargs)

    return logged


def fingerprint(case, noise_name, mif, monkeypatch):
    log, stores = _PromptLog(), _PromptLog()
    _recording(monkeypatch, log, stores)
    rows, warnings, usage = CASES[case](NOISES[noise_name], mif)
    prompts = log.entries if mif == 1 else sorted(log.entries)
    return {
        "stores": _digest("\n".join(sorted(stores.entries))),
        "store_count": len(stores.entries),
        "prompts": _digest("\n".join(prompts)),
        "prompt_count": len(prompts),
        "calls": usage.calls,
        "prompt_tokens": usage.prompt_tokens,
        "completion_tokens": usage.completion_tokens,
        "wall_ms": usage.wall_ms,
        "pages_fetched": usage.pages_fetched,
        "pages_skipped": usage.pages_skipped,
        "warnings": _digest("\n".join(warnings)),
        "rows": _digest(_tagged(rows)),
    }


GRID = [
    (case, noise, mif)
    for case in CASES
    for noise in NOISES
    for mif in (1, 4)
]


def _load_pin():
    return json.loads(PIN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case,noise,mif", GRID, ids=[f"{c}-{n}-mif{m}" for c, n, m in GRID]
)
def test_retrieval_matches_pin(case, noise, mif, monkeypatch):
    expected = _load_pin()[f"{case}/{noise}/{mif}"]
    assert fingerprint(case, noise, mif, monkeypatch) == expected


def test_pin_covers_the_grid():
    assert sorted(_load_pin()) == sorted(f"{c}/{n}/{m}" for c, n, m in GRID)


def _record() -> None:
    pin = {}
    for case, noise, mif in GRID:
        with pytest.MonkeyPatch.context() as monkeypatch:
            pin[f"{case}/{noise}/{mif}"] = fingerprint(case, noise, mif, monkeypatch)
    PIN_PATH.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_retrieval_pin.py --record")
    _record()
