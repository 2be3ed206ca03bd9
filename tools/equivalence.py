"""SHA-256 digests of the search outcomes a bitwise-neutral change must keep.

Usage (no options; the checkout is the one this file sits in):

    python3 tools/equivalence.py

It prints one digest per part, as ``part: digest`` lines, then the total
digest over every outcome on a line of its own.  It hashes, as ``repr``
text, the config, objective, trace, evaluation count and degenerate count
of these searches on the bundled prototype (part "prototype searches"):

- greedy at group and at element granularity;
- exhaustive at group granularity;
- random at element granularity, 2 000 trials;
- statistical at group granularity, 100 samples;
- statistical at element granularity, 5 samples, 2 sweeps;

and, on the 240 ``oracle`` benchmark scenes of seeds 1-4, the exhaustive
and greedy group outcomes with the ``sum_rate`` of both chosen configurations
("oracle searches") and the relaxed bound ("oracle bounds"), plus, on the 60
scenes of seed 1, statistical search at group granularity with 3 samples
("oracle statistical").  ``tests/test_equivalence.py`` runs it and compares
its output with the digests recorded in ``tests/equivalence.json``: equal
digests mean every outcome of that part kept its bits.

The part "prototype field" hashes the field path's outputs on the prototype:
the bytes of a 21 x 21 coverage CSV and PGM at 1 and 2 threads and of a 1
degree pattern CSV of both sides, and the ``repr`` of ``snr_at`` at 10
points under a random element configuration, with and without the direct
path and a cos^1 element factor.  The part "CLI outputs" hashes the bytes
the CLI serializes outcomes and configurations into: ``oracle`` stdout and
the ``simulate`` reports of greedy and exhaustive group search on the
prototype, each run in a temporary directory on a copy of the scene named
``scene.json``, so the bytes do not depend on where the checkout is.  The
part "faded direct" hashes statistical group search on the prototype with
the direct path on and 6 samples, more than ``channel.TABLE_REALIZATIONS``,
so the state tables are built in two slices of realizations, and the
``evaluate_rates`` of its configuration under each of those realizations:
the only part whose channels add a faded direct path.  The total digest
leaves these three parts out, so it stays comparable with totals printed
before they existed.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import omnisim as om  # noqa: E402
from omnisim.channel import draw_realizations  # noqa: E402
from omnisim.cli import main as cli_main  # noqa: E402
from oracle_scenes import oracle_scenes  # noqa: E402

SEED = 7           # random and statistical searches
K_FACTOR_DB = 10.0  # as the CLI default
ORACLE_SEEDS = (1, 2, 3, 4)
ORACLE_SCENES = 60  # per seed, as one benchmark round
ORACLE_FADING_SAMPLES = 3  # statistical search on the scenes of the first seed
SNR_POINTS = 10    # per scene of the field part
FADED_DIRECT_SAMPLES = 6  # above TABLE_REALIZATIONS, so the state tables split
PARTS = ("prototype searches", "oracle searches", "oracle bounds", "oracle statistical",
         "prototype field", "CLI outputs", "faded direct")


def outcome_text(outcome) -> str:
    return repr((outcome.config.states, outcome.config.granularity.value,
                 outcome.objective, outcome.trace, outcome.evaluations,
                 outcome.degenerate_evaluations))


def prototype_lines():
    parsed = om.parse_scene(om.prototype_scene_path())
    scene, table = parsed.scene, parsed.table
    layout = om.build_layout(parsed.panel)
    group, element = om.Granularity.GROUP, om.Granularity.ELEMENT
    fading = om.FadingModel(k_factor_db=K_FACTOR_DB)
    searches = {
        "greedy group": lambda: om.greedy_optimize(scene, layout, table, group),
        "greedy element": lambda: om.greedy_optimize(scene, layout, table, element),
        "exhaustive group": lambda: om.exhaustive_optimize(scene, layout, table, group),
        "random element": lambda: om.random_baseline(scene, layout, table, element,
                                                     trials=2000, seed=SEED),
        "statistical group": lambda: om.statistical_optimize(
            scene, layout, table, fading, num_samples=100, seed=SEED, granularity=group),
        "statistical element": lambda: om.statistical_optimize(
            scene, layout, table, fading, num_samples=5, seed=SEED, granularity=element,
            max_sweeps=2),
    }
    for name, search in searches.items():
        line = f"{name} {outcome_text(search())}"
        yield line, {"prototype searches": line}


def oracle_lines():
    for seed in ORACLE_SEEDS:
        for i, document in enumerate(oracle_scenes(seed, ORACLE_SCENES)):
            parsed = om.parse_scene_dict(document, source=f"oracle[{i}]")
            scene, table = parsed.scene, parsed.table
            layout = om.build_layout(parsed.panel)
            best = om.exhaustive_optimize(scene, layout, table, om.Granularity.GROUP)
            greedy = om.greedy_optimize(scene, layout, table, om.Granularity.GROUP)
            bound = om.relaxed_upper_bound(scene, layout, table)
            rates = (om.sum_rate(scene, layout, table, best.config),
                     om.sum_rate(scene, layout, table, greedy.config))
            scene_id = f"oracle {seed} {i}"
            outcomes = f"{outcome_text(best)} {outcome_text(greedy)}"
            yield (f"{scene_id} {outcomes} {bound!r} {rates!r}",
                   {"oracle searches": f"{scene_id} {outcomes} {rates!r}",
                    "oracle bounds": f"{scene_id} {bound!r}"})
            if seed == ORACLE_SEEDS[0]:
                fading = om.statistical_optimize(
                    scene, layout, table, om.FadingModel(k_factor_db=K_FACTOR_DB),
                    num_samples=ORACLE_FADING_SAMPLES, seed=SEED,
                    granularity=om.Granularity.GROUP)
                line = f"oracle statistical {seed} {i} {outcome_text(fading)}"
                yield line, {"oracle statistical": line}


def run_cli(*argv: str) -> str:
    """Run one CLI command in-process; returns its standard output."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        if cli_main(list(argv)) != 0:
            raise SystemExit(f"omnisim {' '.join(argv)} failed")
    return stdout.getvalue()


def artifact_lines():
    """Digests of the coverage and pattern files the CLI writes."""
    config = om.prototype_scene_path()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for count in ("1", "2"):
            with mock.patch.dict(os.environ, OMNISIM_THREADS=count):
                run_cli("coverage", "--config", config, "--grid=-2,2,-2,2,21,21",
                        "--out", str(out / "map.csv"), "--pgm", str(out / "map.pgm"))
            for name in ("map.csv", "map.pgm"):
                yield f"coverage {count} {name}", (out / name).read_bytes()
        run_cli("pattern", "--config", config, "--side", "both", "--step-deg", "1",
                "--out", str(out / "pattern.csv"))
        yield "pattern", (out / "pattern.csv").read_bytes()


def field_lines():
    """Lines of the "prototype field" part, which the total leaves out."""
    for name, data in artifact_lines():
        yield None, {"prototype field": f"{name} {hashlib.sha256(data).hexdigest()}"}
    parsed = om.parse_scene(om.prototype_scene_path())
    document = copy.deepcopy(parsed.raw)
    document["options"].update(direct_path=True, element_factor_q=1.0)
    layout = om.build_layout(parsed.panel)
    rng = np.random.default_rng(SEED)
    config = om.Configuration(states=tuple(
        rng.integers(0, len(parsed.table.states), layout.num_elements).tolist()))
    points = rng.uniform(-3.0, 3.0, (SNR_POINTS, 3))
    for tag, scene in (("plain", parsed.scene),
                       ("direct", om.parse_scene_dict(document).scene)):
        for point in points:
            snr = om.snr_at(scene, layout, parsed.table, config, point)
            yield None, {"prototype field": f"snr_at {tag} {point.tolist()!r} {snr!r}"}


def cli_lines():
    """Lines of the "CLI outputs" part, which the total leaves out."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copyfile(om.prototype_scene_path(), Path(tmp, "scene.json"))
        home = os.getcwd()
        os.chdir(tmp)
        try:
            outputs = {"oracle stdout": run_cli("oracle", "--config", "scene.json").encode()}
            for optimizer in ("greedy", "exhaustive"):
                run_cli("simulate", "--config", "scene.json", "--optimizer", optimizer,
                        "--granularity", "group", "--out", "report.json")
                outputs[f"simulate {optimizer} group"] = Path(tmp, "report.json").read_bytes()
        finally:
            os.chdir(home)
    for name, data in outputs.items():
        yield None, {"CLI outputs": f"{name} {hashlib.sha256(data).hexdigest()}"}


def faded_direct_lines():
    """Lines of the "faded direct" part, which the total leaves out."""
    parsed = om.parse_scene(om.prototype_scene_path())
    document = copy.deepcopy(parsed.raw)
    document["options"].update(direct_path=True)
    scene, table = om.parse_scene_dict(document).scene, parsed.table
    layout = om.build_layout(parsed.panel)
    fading = om.FadingModel(k_factor_db=K_FACTOR_DB)
    outcome = om.statistical_optimize(scene, layout, table, fading,
                                      num_samples=FADED_DIRECT_SAMPLES, seed=SEED,
                                      granularity=om.Granularity.GROUP)
    yield None, {"faded direct": f"statistical group {outcome_text(outcome)}"}
    realizations = draw_realizations(fading, om.channel_geometry(scene, layout), SEED,
                                     FADED_DIRECT_SAMPLES)
    for i, realization in enumerate(realizations):
        rates = om.evaluate_rates(scene, layout, table, outcome.config, fading=realization)
        yield None, {"faded direct": f"evaluate_rates {i} {rates.sum_rate!r} "
                                    f"{rates.per_user_rate.tolist()!r} {rates.degenerate!r}"}


def main() -> None:
    """The total hashes every line as it always has, so its digest stays
    comparable across versions of this script; each part hashes its own, and
    lines of no total (None) only their part."""
    total = hashlib.sha256()
    parts = {name: hashlib.sha256() for name in PARTS}
    for line, part_lines in (*prototype_lines(), *oracle_lines(), *field_lines(),
                             *cli_lines(), *faded_direct_lines()):
        if line is not None:
            total.update(line.encode() + b"\n")
        for name, part_line in part_lines.items():
            parts[name].update(part_line.encode() + b"\n")
    for name, digest in parts.items():
        print(f"{name}: {digest.hexdigest()}")
    print(total.hexdigest())


if __name__ == "__main__":
    main()
