"""Run every workload over several seeds and record one results file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/<name>.json

Each seed runs ``run.py`` once untraced; ``--trace-seeds`` also run traced.
For every metric the file keeps all values with their median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the quartile distance
over the median.  Compare two such files to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",") if x]


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report_line = next(line for line in proc.stdout.splitlines() if line.startswith("report "))
    with open(report_line.split(" ", 1)[1], encoding="utf-8") as fh:
        report = json.load(fh)
    return {"result": json.loads(proc.stdout.splitlines()[-1]), "report": report}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def collect(runs: list[dict], section: str) -> dict:
    values: dict[str, list] = {}
    units: dict[str, str] = {}
    for run in runs:
        for name, entry in (run["report"][section] or {}).items():
            if entry["value"] is not None:
                values.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
    return {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in WORKLOADS:
        plain = [run_once(workload, s, 0) for s in seed_list(args.seeds)]
        traced = [run_once(workload, s, 1) for s in seed_list(args.trace_seeds)]
        everything = plain + traced
        out["provenance"] = {k: v for k, v in plain[0]["report"]["provenance"].items()
                             if k not in ("workload", "seed", "trace", "samples")}
        out["workloads"][workload] = {
            "seeds": seed_list(args.seeds),
            "trace_seeds": seed_list(args.trace_seeds),
            "correct": all(r["result"]["correct"] for r in everything),
            "attempted": sum(r["result"]["attempted"] for r in everything),
            "failed": sum(r["result"]["failed"] for r in everything),
            "end_to_end": collect(plain, "end_to_end"),
            "per_layer": collect(traced, "per_layer"),
            "samples": [r["report"]["provenance"]["samples"] for r in everything],
            "notes": plain[0]["report"]["notes"],
        }
        declared = {m["name"] for m in BENCHMARK["end_to_end"]}
        for name, stats in out["workloads"][workload]["end_to_end"].items():
            mark = "*" if name in declared else " "
            print(f"{workload:7s}{mark}{name:20s} median {stats['median']:.6g} {stats['unit']:5s} "
                  f"spread {stats['spread']:.4f}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
