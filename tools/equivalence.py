"""One SHA-256 over the search outcomes a bitwise-neutral change must keep.

Usage (no options; the checkout is the one this file sits in):

    python3 tools/equivalence.py

It hashes, as ``repr`` text, the config, objective, trace, evaluation count
and degenerate count of these searches on the bundled prototype:

- greedy at group and at element granularity;
- exhaustive at group granularity;
- random at element granularity, 2 000 trials;
- statistical at group granularity, 100 samples;
- statistical at element granularity, 5 samples, 2 sweeps;

and, on the 240 ``oracle`` benchmark scenes of seeds 1-4, the exhaustive
and greedy group outcomes, the relaxed bound and ``sum_rate`` of both chosen
configurations, plus, on the 60 scenes of seed 1, statistical search at group
granularity with 3 samples.  Run it at two commits: equal hashes mean every
one of these outcomes kept its bits.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import omnisim as om  # noqa: E402
from oracle_scenes import oracle_scenes  # noqa: E402

SEED = 7           # random and statistical searches
K_FACTOR_DB = 10.0  # as the CLI default
ORACLE_SEEDS = (1, 2, 3, 4)
ORACLE_SCENES = 60  # per seed, as one benchmark round
ORACLE_FADING_SAMPLES = 3  # statistical search on the scenes of the first seed


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
        yield f"{name} {outcome_text(search())}"


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
            yield (f"oracle {seed} {i} {outcome_text(best)} {outcome_text(greedy)} "
                   f"{bound!r} {rates!r}")
            if seed == ORACLE_SEEDS[0]:
                fading = om.statistical_optimize(
                    scene, layout, table, om.FadingModel(k_factor_db=K_FACTOR_DB),
                    num_samples=ORACLE_FADING_SAMPLES, seed=SEED,
                    granularity=om.Granularity.GROUP)
                yield f"oracle statistical {seed} {i} {outcome_text(fading)}"


def main() -> None:
    digest = hashlib.sha256()
    for line in (*prototype_lines(), *oracle_lines()):
        digest.update(line.encode() + b"\n")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
