"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/``: the objectives and evaluation counts of the
seed-independent ``search`` tasks, and the coverage and pattern CSVs of the
``field`` workload, for both sizes.  The committed files were recorded from
the code the benchmark was defined on; re-record them only in a change that
documents why these outputs moved.
"""

from __future__ import annotations

import gzip
import json

import run
from workloads import REFERENCE_DIR, SIZES, Field, Search

SEED_INDEPENDENT = ("greedy_group", "greedy_element", "exhaustive")


def record(size_name: str) -> dict:
    size = SIZES[size_name]
    workdir = run.ROOT / ".bench_build" / "perfbench" / f"reference-{size_name}"
    workdir.mkdir(parents=True, exist_ok=True)

    search = Search(0, size, workdir, None)
    search.prepare(run.fresh_import())
    search.setup(run.fresh_import())
    objectives = {}
    for kind in SEED_INDEPENDENT:
        code, err, out = search.simulate(kind)
        if code != 0:
            raise RuntimeError(f"{kind}: exit code {code}: {err}")
        outcome = json.loads(out.read_text(encoding="utf-8"))["outcome"]
        objectives[kind] = {"objective": outcome["objective_bps_hz"],
                            "evaluations": outcome["evaluations"]}

    field = Field(0, size, workdir, None)
    field.prepare(run.fresh_import())
    field.setup(run.fresh_import())
    for kind, value in (("coverage", field.coverage(1)), ("pattern", field.pattern())):
        code, err, paths = value
        if code != 0:
            raise RuntimeError(f"{kind}: exit code {code}: {err}")
        (REFERENCE_DIR / f"{kind}-{size_name}.csv.gz").write_bytes(
            gzip.compress(paths[0].read_bytes(), mtime=0))
    return objectives


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    search = {name: record(name) for name in SIZES}
    with open(REFERENCE_DIR / "search.json", "w", encoding="utf-8") as fh:
        json.dump(search, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
