"""Host-clock benchmark: five workloads, two clocks, per-layer attribution.

Two ways in, one code path underneath:

* ``python benchmarks/host/run.py [--workload NAME|all] [--seed N]
  [--quick] [--no-trace] [--repeat K] [--out DIR]`` runs each workload in
  its own subprocess (so ``peak_rss_mb`` is the workload's own), first
  untraced for the end-to-end metrics and then traced for the per-layer
  ones, and prints every metric by name with its unit.
* ``... --workload NAME --seed N --seconds S --trace 0|1`` is one such
  subprocess: one workload, one kind of run, measured for ``S`` seconds
  (without ``--seconds``: for the workload's fixed iteration count), with
  the result as one JSON object on the last line of standard output.
  This is the command ``BENCHMARK.json`` names.

Exit status is non-zero when an answer was wrong: ``failed_share > 0``
anywhere, ``answer_f1 < 1`` on a noise-free workload, or a model call /
no fragment hit in suite B of ``storage_warm_read``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# The program under test is the checkout this file sits in, from source.
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Run, measure  # noqa: E402

#: Temp stores, traces and result files; ignored by git.
SCRATCH = ROOT / ".bench_host"

#: Setups per run; ``setup_s`` is their median.
SETUPS = 5
#: The traced run (and the untraced one beside it) is this much shorter.
TRACE_DIVISOR = 5
#: Serial batches behind ``runtime.*_speedup_vs_serial``.
SERIAL_BATCHES = 10


# ---------------------------------------------------------------------------
# One workload, one run (the subprocess)
# ---------------------------------------------------------------------------


def set_up(workload_cls, seed: int, scratch: Path, repeats: int):
    """Build the workload ``repeats`` times; keep the last, time them all."""
    times, workload = [], None
    for _ in range(repeats):
        if workload is not None:
            workload.teardown()
        scratch.mkdir(parents=True)
        started = time.perf_counter()
        workload = workload_cls(seed, str(scratch))
        workload.setup()
        workload.warm_up()
        times.append(time.perf_counter() - started)
    return workload, statistics.median(times)


def plain_run(workload, args) -> Run:
    run = Run()
    iterations = 2 if args.quick else workload.iterations
    measure(workload.iterate, run, iterations, args.seconds, workload.cycle)
    return run


def traced_run(workload, args, out_dir):
    """A short untraced run, the same again under spans, then whatever
    the workload measures on the side."""
    iterations = 2 if args.quick else max(2, workload.iterations // TRACE_DIVISOR)
    plain = Run()
    measure(workload.iterate, plain, iterations, args.seconds * 0.3)
    for model in workload.models.values():
        model.reset_counters()
    recorder = spans.SpanRecorder()
    traced = Run(tracer=recorder)
    recorder.install()
    try:
        measure(workload.iterate, traced, iterations, args.seconds * 0.5)
    finally:
        recorder.uninstall()
    layer_values = metrics.per_layer(workload, plain, traced, recorder.spans)
    # After per_layer has read the models' counters: the serial batches
    # below would otherwise be counted into the traced run's.
    layer_values.update(
        workload.side_metrics(
            plain, 2 if args.quick else SERIAL_BATCHES, args.seconds * 0.2
        )
    )
    if out_dir is not None:
        spans.write_trace(out_dir / f"{workload.name}.trace.jsonl", recorder.spans)
    return traced, layer_values


def gate(workload, values) -> list:
    problems = []
    if values["failed_share"] > 0:
        problems.append(f"failed_share = {values['failed_share']:.4f}")
    if workload.noise_free and values["answer_f1"] < 1.0:
        problems.append(f"answer_f1 = {values['answer_f1']:.4f} on a noise-free workload")
    return problems


def run_child(args) -> int:
    workload_cls = WORKLOADS[args.workload]
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    # The traced run does not report setup_s: one setup will do.
    workload, setup_s = set_up(
        workload_cls, args.seed, scratch, 1 if args.quick or args.trace else SETUPS
    )
    try:
        if args.trace:
            run, values = traced_run(workload, args, out_dir)
            specs = metrics.PER_LAYER + metrics.UNGATED
            values.update(metrics.end_to_end(run, setup_s))
            kind = "per-layer (traced)"
        else:
            run = plain_run(workload, args)
            values = metrics.end_to_end(run, setup_s)
            specs = metrics.END_TO_END
            kind = "end-to-end"
    finally:
        workload.teardown()

    print(
        f"== {workload.name}  seed {args.seed}  {kind}: "
        f"{len(run.iter_s)} iterations, {run.ops} {workload.op} ops, "
        f"{run.statements} statements"
    )
    for spec in specs:
        print(f"  {spec.name:<40} {values[spec.name]:>14.4f}  {spec.unit}")
    print(
        f"  (not gated) op_ms_p99 {metrics.percentile(run.op_ms, 99):.3f}  "
        f"op_ms_max {max(run.op_ms):.3f}"
    )
    problems = gate(workload, values)
    if run.first_failure:
        problems.append(f"first failure: {run.first_failure}")
    for problem in problems:
        print(f"  FAILED: {problem}")

    reported = specs if args.trace else metrics.GATED
    result = {
        "correct": not problems,
        "attempted": run.ops,
        "failed": run.failed,
        "metrics": {
            spec.name: {"value": values[spec.name], "unit": spec.unit}
            for spec in reported
        },
    }
    if out_dir is not None:
        everything = {spec.name: values[spec.name] for spec in specs}
        path = out_dir / f"{workload.name}.trace{int(args.trace)}.json"
        path.write_text(json.dumps({**result, "values": everything}))
    print(json.dumps(result))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# All workloads, in subprocesses (the command a person runs)
# ---------------------------------------------------------------------------


def spawn(args, workload: str, trace: int, out_dir: Path):
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--trace", str(trace), "--out", str(out_dir),
    ]
    if args.quick:
        command.append("--quick")
    if args.seconds:
        command += ["--seconds", str(args.seconds)]
    path = out_dir / f"{workload}.trace{trace}.json"
    path.unlink(missing_ok=True)  # never read an earlier run's result
    status = subprocess.run(command).returncode
    values = json.loads(path.read_text())["values"] if path.exists() else {}
    return status, values


def print_repeats(names, repeats) -> bool:
    """Per workload x end-to-end metric: every value, the relative
    difference between the extremes, the bound, and a flag beyond it."""
    flagged = False
    print("\n== repeats: workload, metric, values, rel. diff, bound")
    for name in names:
        for spec in metrics.END_TO_END:
            values = [rep[name][spec.name] for rep in repeats if spec.name in rep[name]]
            if len(values) < 2:
                continue
            low, high = min(values), max(values)
            diff = (high - low) / abs(low) if low else float(high != low)
            beyond = diff > spec.bound
            flagged |= beyond
            print(
                f"  {name:<20} {spec.name:<22} "
                + " ".join(f"{v:>12.4f}" for v in values)
                + f"  {diff:>8.2%}  {spec.bound:>6.1%}"
                + ("  BEYOND BOUND" if beyond else "")
            )
    return flagged


def run_all(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = Path(args.out) if args.out else SCRATCH / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    status = 0
    repeats = []
    for _ in range(args.repeat):
        repeats.append({})
        for name in names:
            code, values = spawn(args, name, 0, out_dir)
            status |= code
            repeats[-1][name] = values
    if not args.no_trace:
        for name in names:
            code, _ = spawn(args, name, 1, out_dir)
            status |= code
    if args.repeat > 1 and print_repeats(names, repeats):
        print("  (a pair beyond its bound: lengthen the run, do not widen the bound)")
    print(
        f"\n{len(names)} workload(s) in {time.perf_counter() - started:.1f} s; "
        f"results and traces in {out_dir}"
    )
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS],
                        help="; ".join(f"{k}: {v.why}" for k, v in WORKLOADS.items()))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure this long instead of a fixed iteration count")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="one run of one workload: 0 end-to-end, 1 per-layer")
    parser.add_argument("--quick", action="store_true",
                        help="two iterations per workload, one setup")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help=f"results and trace.jsonl files (default {SCRATCH}/out)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace is None:
        return run_all(args)
    if args.workload == "all":
        raise SystemExit("--trace needs one --workload")
    return run_child(args)


if __name__ == "__main__":
    sys.exit(main())
