"""Harness tests for the host-clock benchmark (collected by tier-1)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
from models import ReplayModel
from spans import Span, self_times, totals_by_name
from workloads import WORKLOADS, Run, ServeConcurrent, build_engine

from repro import EngineConfig
from repro.eval.workloads import workload_for
from repro.eval.worlds import all_worlds
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert metrics.percentile(samples, 50) == 5
    assert metrics.percentile(samples, 90) == 9
    assert metrics.percentile(samples, 91) == 10
    assert metrics.percentile(samples, 100) == 10
    assert metrics.percentile([7.5], 50) == 7.5
    assert metrics.percentile([1, 2], 50) == 1


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span(1, "parent", "core", 0.0, 10.0, None, 1, 0),
        Span(2, "child", "sql", 1.0, 3.0, 1, 1, 0),
        Span(3, "child", "sql", 2.0, 5.0, 1, 1, 0),  # overlaps span 2
        Span(4, "child", "sql", 8.0, 12.0, 1, 1, 0),  # runs past the parent
        Span(5, "grandchild", "sql", 2.5, 3.0, 3, 1, 0),
        Span(6, "elsewhere", "llm", 4.0, 6.0, None, None, 1),  # other thread
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 0.5)
    assert own[6] == pytest.approx(2.0)
    totals = totals_by_name(spans)
    assert totals["child"].count == 3
    assert totals["child"].total_s == pytest.approx(2.0 + 3.0 + 4.0)
    assert totals["child"].self_s == pytest.approx(2.0 + 2.5 + 4.0)


def test_benchmark_json_lists_the_names_the_code_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.GATED
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER + metrics.UNGATED
    ]
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))


def typed_rows(result):
    return [[(type(v), v) for v in row] for row in result.rows]


def test_replay_is_identical_to_the_live_model():
    config = EngineConfig(storage_mode="off", max_in_flight=1)
    for world in all_worlds().values():
        statements = [q.sql for q in workload_for(world)]
        replay = ReplayModel(SimulatedLLM(world, NoiseConfig.perfect(), 7))
        passes = []
        for model in (SimulatedLLM(world, NoiseConfig.perfect(), 7), replay, replay):
            engine = build_engine(world, model, config)
            rows = [typed_rows(engine.execute(sql)) for sql in statements]
            usage = engine.usage
            engine.close()
            passes.append(
                (rows, usage.calls, usage.total_tokens, usage.wall_ms)
            )
        live, recording, replayed = passes
        assert recording == live
        assert replayed == live
        # The third pass was served from the tape alone.
        assert replay.misses == len(replay) < replay.raw_calls


def test_serving_batch_overlaps_model_calls(tmp_path):
    workload = ServeConcurrent(7, str(tmp_path))
    workload.setup()
    workload.warm_up()
    model = workload.models["movies"]
    assert model.latency_s == ServeConcurrent.latency_s
    run = Run()
    workload.iterate(run)
    assert run.failed == 0 and run.ops == 1
    assert model.peak_in_flight > 1


def quick(out_dir, *extra):
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out_dir),
         *extra],
        stdout=subprocess.PIPE, text=True,
    )


def printed_names(stdout):
    """Metric names per printed section, in order."""
    sections = {}
    for line in stdout.splitlines():
        if line.startswith("== "):
            words = line.split()
            current = sections.setdefault((words[1], words[4]), [])
        elif line.startswith("  ") and line.split()[0][0].isalnum():
            current.append(line.split()[0])
    return sections


@pytest.fixture(scope="module")
def two_quick_runs(tmp_path_factory):
    first = tmp_path_factory.mktemp("first")
    second = tmp_path_factory.mktemp("second")
    # Side by side: nothing here reads a clock.
    a = quick(first, "--no-trace")
    b = quick(second, "--no-trace")
    out_a, out_b = a.communicate(timeout=120)[0], b.communicate(timeout=120)[0]
    assert a.returncode == 0 and b.returncode == 0, out_a + out_b
    return first, second, out_a


def test_quick_prints_every_name_once(two_quick_runs):
    _, _, stdout = two_quick_runs
    sections = printed_names(stdout)
    assert [name for name, _ in sections] == list(WORKLOADS)
    expected = [m.name for m in metrics.END_TO_END]
    for names in sections.values():
        assert names == expected
    for line in stdout.splitlines():
        if line.startswith("{"):
            assert list(json.loads(line)["metrics"]) == [
                m["name"] for m in BENCHMARK["end_to_end"]
            ]


def test_traced_run_emits_the_per_layer_names(tmp_path):
    process = quick(tmp_path, "--workload", "analytic_cold", "--trace", "1")
    stdout = process.communicate(timeout=120)[0]
    assert process.returncode == 0, stdout
    expected = [m["name"] for m in BENCHMARK["per_layer"]]
    (names,) = printed_names(stdout).values()
    assert names == expected
    result = json.loads(stdout.splitlines()[-1])
    assert list(result["metrics"]) == expected
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (tmp_path / "analytic_cold.trace.jsonl").stat().st_size > 0


def test_two_quick_runs_agree_on_counts(two_quick_runs):
    first, second, _ = two_quick_runs
    for name in WORKLOADS:
        a = json.loads((first / f"{name}.trace0.json").read_text())["values"]
        b = json.loads((second / f"{name}.trace0.json").read_text())["values"]
        for metric in (
            "model_calls_per_stmt", "tokens_per_stmt", "answer_f1", "failed_share",
        ):
            assert a[metric] == b[metric], (name, metric)
