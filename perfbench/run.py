"""omnisim benchmark: one workload, one process, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Workloads are ``search``, ``oracle`` and ``field`` (see workloads.py and
README.md).  omnisim is imported from ``src/`` of the checkout, never from an
installed copy.  With ``--trace 0`` the rounds run untraced and the result
holds the end-to-end metrics; with ``--trace 1`` rounds alternate untraced
and traced, per-call probes follow, and the result holds the per-layer
metrics.  Earlier lines print every metric of the workload by name and
unit; a report and, when traced, a span file go to ``.bench_build/perfbench``.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import os

# At most nproc threads: BLAS stays single-threaded so that the coverage
# map's own two-thread pool is the only parallelism.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import PER_LAYER, TraceView, layer_metrics, not_called  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Checked, Task, load_references  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Declared in BENCHMARK.json: measured on every workload.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

SETUP_REPEATS = 5      # set-ups before the rounds
SETUPS_PER_ROUND = 3   # and after each untraced round


def fresh_import():
    """Import omnisim from ``src/`` anew, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "omnisim" or k.startswith("omnisim.")]:
        del sys.modules[key]
    om = importlib.import_module("omnisim")
    if not Path(om.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"omnisim imported from {om.__file__}, not from {SRC}")
    return om


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _run_task(workload, tracer: Tracer, task_id: int, kind: str, fn, round_index: int,
              traced: bool) -> Task:
    """Time one task, then check its output; failures are recorded, not raised."""
    failures = []
    value = None
    tracer.task, tracer.enabled = task_id, traced
    started = time.perf_counter()
    try:
        value = tracer.call(f"task.{kind}", fn)
    except Exception as exc:  # a failing task is counted; the loop goes on
        failures.append(f"{kind}: {type(exc).__name__}: {exc} "
                        f"at {traceback.extract_tb(exc.__traceback__)[-1]}")
    seconds = time.perf_counter() - started
    tracer.enabled = False
    checked = Checked()
    if not failures:
        try:
            checked = workload.check(kind, value)
        except Exception as exc:  # a broken output fails the task, not the run
            checked = Checked([f"{kind}: check raised {type(exc).__name__}: {exc}"])
    return Task(task_id, kind, round_index, seconds, failures + checked.failures,
                checked.evaluations, checked.artifact_bytes, checked.work)


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        references: dict | None = None) -> dict:
    """Run one workload; returns {"result": contract line, "report": details}."""
    if not (SRC / "omnisim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no omnisim package under {SRC}")
    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload_name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    if references is None:
        references = load_references(size)
    workload = WORKLOADS[workload_name](seed, SIZES[size], workdir, references)

    def timed_setup():
        # the dropped import's reference cycles are the benchmark's garbage:
        # collect them now, so that no collection of them lands in the timing
        gc.collect()
        started = time.perf_counter()
        om = fresh_import()
        workload.setup(om)
        setup_times.append(time.perf_counter() - started)
        return om

    workload.prepare(fresh_import())
    setup_times: list[float] = []
    for _ in range(SETUP_REPEATS):
        om = timed_setup()
    workload.warm_up()

    tracer = Tracer()
    ids = itertools.count()
    probe_kinds: dict[int, str] = {}
    if trace:
        tracer.install(om)
        # one traced set-up, so that parse and layout spans exist on every workload
        tracer.task, tracer.enabled = next(ids), True
        probe_kinds[tracer.task] = "setup"
        workload.setup(om)
        tracer.enabled = False
    rounds: list[tuple[bool, list[Task]]] = []
    durations: list[float] = []
    min_rounds = max(SIZES[size].min_rounds, 2 if trace else 1)
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() + statistics.median(durations) <= deadline:
        traced = trace and len(rounds) % 2 == 1
        started = time.perf_counter()
        tasks = [_run_task(workload, tracer, next(ids), kind, fn, len(rounds), traced)
                 for kind, fn in workload.round_tasks()]
        durations.append(time.perf_counter() - started)
        rounds.append((traced, tasks))
        if not trace:
            # more set-ups spread over the run, so setup_s sees the same machine as wall_s
            for _ in range(SETUPS_PER_ROUND):
                om = timed_setup()

    plain = [tasks for traced, tasks in rounds if not traced]
    walls = [sum(t.seconds for t in tasks) for tasks in plain]
    all_tasks = [t for _, tasks in rounds for t in tasks]
    failed = [t for t in all_tasks if t.failures]
    detail = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (len(failed) / len(all_tasks), "frac"),
        **workload.end_to_end(plain),
    }
    samples = {"setup_s": len(setup_times), "rounds": len(plain),
               "tasks": sum(len(tasks) for tasks in plain)}

    per_layer = trace_overhead = None
    if trace:
        kind_ids: dict[str, int] = {}

        def call(kind, fn, *args, **kwargs):
            if kind not in kind_ids:
                kind_ids[kind] = next(ids)
                probe_kinds[kind_ids[kind]] = kind
            tracer.task = kind_ids[kind]
            return fn(*args, **kwargs)

        tracer.task, tracer.enabled = None, True
        workload.probe(call)
        tracer.enabled = False
        tracer.uninstall()
        traced_rounds = [tasks for traced, tasks in rounds if traced]
        traced_walls = [sum(t.seconds for t in tasks) for tasks in traced_rounds]
        view = TraceView(tracer, traced_rounds, probe_kinds)
        # the wrappers' cost, counted: spans per round x cost per span; the
        # traced / untraced round ratio is kept, but round-to-round noise decides it
        spans_per_round, span_cost = view.spans_per_round(), tracer.span_cost()
        overhead = spans_per_round * span_cost / statistics.median(walls)
        per_layer = layer_metrics(view, overhead)
        q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls[0],) * 3
        trace_overhead = {
            "spans_per_round": spans_per_round, "span_cost_us": span_cost * 1e6,
            "estimate_frac": overhead,
            "round_ratio_minus_1": statistics.median(traced_walls) / statistics.median(walls) - 1.0,
            "untraced_round_spread": (q3 - q1) / statistics.median(walls),
        }
        samples["traced_rounds"] = len(traced_rounds)
        samples["spans"] = len(tracer.spans)

    provenance = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "OMNISIM_THREADS": os.environ.get("OMNISIM_THREADS"),
        "OMNISIM_THREADS_in_tasks": [1, 2] if workload_name == "field" else None,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(), "machine": platform.machine(),
        "samples": samples,
    }
    report = {
        "provenance": provenance,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "per_layer": (None if per_layer is None else
                      {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER}),
        "trace_overhead": trace_overhead,
        "setup_seconds": setup_times,
        "round_seconds": [{"traced": traced, "seconds": sum(t.seconds for t in tasks)}
                          for traced, tasks in rounds],
        "task_seconds": {kind: [t.seconds for t in all_tasks if t.kind == kind]
                         for kind in dict.fromkeys(t.kind for t in all_tasks)},
        "notes": workload.notes(),
        "failures": [f for t in failed for f in t.failures][:50],
    }
    out_dir = ROOT / ".bench_build" / "perfbench"
    if trace:
        span_file = out_dir / f"spans-{workload_name}-seed{seed}.json"
        tracer.write(span_file, {"provenance": provenance, "per_layer": report["per_layer"],
                                 "task_kinds": {**{t.id: t.kind for t in all_tasks}, **probe_kinds}})
        report["span_file"] = str(span_file)
    report_file = out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    with open(report_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    report["report_file"] = str(report_file)

    if trace:
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER
                   if per_layer[k] is not None}
    else:
        metrics = {k: {"value": detail[k][0], "unit": u} for k, u in END_TO_END}
    result = {"correct": not failed, "attempted": len(all_tasks), "failed": len(failed),
              "metrics": metrics}
    return {"result": result, "report": report}


def print_report(report: dict) -> None:
    prov = report["provenance"]
    print(f"perfbench workload={prov['workload']} seed={prov['seed']} "
          f"trace={prov['trace']} size={prov['size']}")
    print("provenance " + json.dumps(prov))
    section = report["per_layer"] or report["end_to_end"]
    for name, entry in section.items():
        value = "missing" if entry["value"] is None else repr(entry["value"])
        unused = " (not called on this workload)" if (
            report["per_layer"] and not_called(prov["workload"], name)) else ""
        print(f"metric {name} = {value} {entry['unit']}{unused}")
    for note in report["notes"]:
        print(f"note {note}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(f"report {report['report_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(out["report"])
    missing = [k for k, v in (out["report"]["per_layer"] or {}).items() if v["value"] is None]
    if missing:
        print(f"perfbench: metrics missing (public name gone): {missing}", file=sys.stderr)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
