"""The benchmark's three workloads and the checks on their outputs.

Every workload is a closed loop with one client: a round runs a fixed list
of tasks one after another, and the next task starts when the previous one
has returned.  A task's time covers only the calls into omnisim; its output
checks run afterwards, untimed and untraced.  A failed check or an exception
marks the task failed; the loop carries on.

- ``search``: the bundled 640-element prototype, optimized through
  ``cli.main(["simulate", ...])``.  The beamforming search loop dominates.
- ``oracle``: seeded small scenes solved by exhaustive and greedy search plus
  the relaxed bound, the traffic of the brute-force oracle acceptance test.
  Many problems of 16..24 elements, fixed set-up per problem, K = 1 and 2.
- ``field``: coverage maps (1 and 2 threads), a radiation pattern and point
  SNRs of the prototype's all-zeros configuration.  The element->point field
  kernel, the artifact writers and the thread pool; beamforming never runs.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import importlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle_scenes import oracle_scenes

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance on objectives of deterministic searches against the
# reference recorded from the seed code.
OBJECTIVE_RTOL = 1e-12


@dataclass(frozen=True)
class Size:
    """Problem sizes.  ``full`` is what the benchmark measures; ``tiny``
    runs every code path in about a second for the benchmark's own tests."""

    name: str
    search_panel: tuple[int, int] | None  # (rows, cols); None keeps 20 x 32
    statistical_samples: int
    random_trials: int
    oracle_scenes: int
    grid_cells: int          # coverage cells per axis
    pattern_step_deg: float
    snr_points: int
    min_rounds: int


SIZES = {
    "full": Size("full", None, 100, 2000, 60, 161, 0.1, 500, 4),
    "tiny": Size("tiny", (5, 16), 10, 50, 6, 21, 1.0, 20, 1),
}


@dataclass
class Task:
    """One task run: what it was, how long its omnisim calls took, and
    what the checks found."""

    id: int
    kind: str
    round: int
    seconds: float
    failures: list[str]
    evaluations: int = 0
    artifact_bytes: int = 0
    work: int = 0


def of_kind(tasks, kind: str):
    return next(t for t in tasks if t.kind == kind)


@dataclass
class Checked:
    """What the checks found for one task."""

    failures: list[str] = field(default_factory=list)
    evaluations: int = 0     # sum of OptimizationOutcome.evaluations
    artifact_bytes: int = 0  # bytes of the files the task wrote
    work: int = 0            # cells, probes or points computed


def load_references(size: str) -> dict:
    """Outputs recorded from the seed code; see ``make_reference.py``."""
    with open(REFERENCE_DIR / "search.json", encoding="utf-8") as fh:
        search = json.load(fh)[size]
    field_csv = {}
    for kind in ("coverage", "pattern"):
        with gzip.open(REFERENCE_DIR / f"{kind}-{size}.csv.gz", "rb") as fh:
            field_csv[kind] = fh.read()
    return {"search": search, "field": field_csv}


def run_cli(om, argv: list[str]) -> tuple[int, str]:
    """``cli.main`` with its console output captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = om.cli.main(argv)
    return code, err.getvalue()


def _evals_per_s(rounds) -> float:
    """Median over rounds of evaluations per second of search task time."""
    return statistics.median(sum(t.evaluations for t in r) / sum(t.seconds for t in r)
                             for r in rounds)


def _nondecreasing(trace) -> bool:
    values = [v for _, v in trace]
    return all(b >= a for a, b in zip(values, values[1:]))


def _sig6_unit(value: float) -> float:
    """One unit in the sixth significant digit of ``value`` (0 for 0)."""
    if value == 0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 5)


def _close_at_sig6(a: float, b: float, units: float = 1.01) -> bool:
    """``a`` and ``b`` agree within ``units`` of their sixth significant digit."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= units * max(_sig6_unit(a), _sig6_unit(b))


def compare_csv(produced: bytes, reference: bytes, what: str) -> list[str]:
    """Same rows and labels; numbers within 6-significant-digit rounding."""
    got = produced.decode("utf-8").splitlines()
    want = reference.decode("utf-8").splitlines()
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"{what}: {len(got)} lines / header {got[:1]} differ from the "
                f"reference's {len(want)} / {want[:1]}"]
    bad = []
    for row, (line, ref) in enumerate(zip(got[1:], want[1:]), start=2):
        cells, ref_cells = line.split(","), ref.split(",")
        ok = len(cells) == len(ref_cells) and cells[-1] == ref_cells[-1] and all(
            _close_at_sig6(float(x), float(y)) for x, y in zip(cells[:-1], ref_cells[:-1]))
        if not ok:
            bad.append(f"line {row}: {line!r} vs reference {ref!r}")
    if bad:
        return [f"{what}: {len(bad)} rows differ from the reference, first {bad[0]}"]
    return []


class Workload:
    """A fixed round of tasks over inputs generated from the workload seed."""

    name = ""

    def __init__(self, seed: int, size: Size, workdir: Path, references: dict | None):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.references = references
        self.om = None

    def prepare(self, om) -> None:
        """Generate the inputs (untimed)."""

    def setup(self, om) -> None:
        """Turn the inputs into validated omnisim objects (timed as setup_s)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Let allocations and lazy set-up settle before timing."""

    def round_tasks(self) -> list[tuple[str, object]]:
        """(kind, zero-argument callable) for each task of one round."""
        raise NotImplementedError

    def check(self, kind: str, value) -> Checked:
        raise NotImplementedError

    def probe(self, call) -> None:
        """Per-call costs at the chosen configurations (traced runs only).
        ``call(kind, fn, *args)`` runs ``fn`` as a task of ``kind``."""

    def end_to_end(self, rounds) -> dict:
        """Workload-specific end-to-end metrics from untraced rounds."""
        return {}

    def notes(self) -> list[str]:
        return []


# ---------------------------------------------------------------- search --

class Search(Workload):
    name = "search"
    KINDS = ("greedy_group", "greedy_element", "statistical", "random", "exhaustive")

    def __init__(self, *args):
        super().__init__(*args)
        gen = np.random.default_rng(self.seed)
        self.statistical_seed, self.random_seed = (int(s) for s in gen.integers(0, 2 ** 31, 2))
        self.chosen: dict[str, object] = {}

    def prepare(self, om) -> None:
        self.scene_path = om.prototype_scene_path()
        if self.size.search_panel is not None:
            with open(self.scene_path, encoding="utf-8") as fh:
                document = json.load(fh)
            document["panel"]["rows"], document["panel"]["cols"] = self.size.search_panel
            self.scene_path = str(self.workdir / "search-scene.json")
            with open(self.scene_path, "w", encoding="utf-8") as fh:
                json.dump(document, fh)

    def setup(self, om) -> None:
        importlib.import_module("omnisim.cli")
        self.om = om
        self.parsed = om.parse_scene(self.scene_path)
        self.layout = om.build_layout(self.parsed.panel)

    def _flags(self, kind: str) -> list[str]:
        return {
            "greedy_group": ["--optimizer", "greedy", "--granularity", "group"],
            "greedy_element": ["--optimizer", "greedy", "--granularity", "element"],
            "statistical": ["--optimizer", "statistical", "--granularity", "group",
                            "--samples", str(self.size.statistical_samples),
                            "--k-factor-db", "10", "--seed", str(self.statistical_seed)],
            "random": ["--optimizer", "random", "--granularity", "element",
                       "--trials", str(self.size.random_trials),
                       "--seed", str(self.random_seed)],
            "exhaustive": ["--optimizer", "exhaustive", "--granularity", "group"],
        }[kind]

    def simulate(self, kind: str):
        out = self.workdir / f"search-{kind}.json"
        argv = ["simulate", "--config", self.scene_path, *self._flags(kind), "--out", str(out)]
        code, err = run_cli(self.om, argv)
        return code, err, out

    def warm_up(self) -> None:
        self.simulate("greedy_group")

    def round_tasks(self):
        return [(kind, functools.partial(self.simulate, kind)) for kind in self.KINDS]

    def _config(self, payload):
        om = self.om
        if payload["granularity"] == "group":
            return om.Configuration.from_group_states(self.layout, payload["group_states"])
        return om.Configuration(states=tuple(payload["element_states"]))

    def _sample_average(self, config) -> float:
        om = self.om
        scene, table = self.parsed.scene, self.parsed.table
        geometry = om.channel_geometry(scene, self.layout)
        realizations = om.channel.draw_realizations(
            om.FadingModel(k_factor_db=10.0), geometry, self.statistical_seed,
            self.size.statistical_samples)
        total = math.fsum(om.evaluate_rates(scene, self.layout, table, config,
                                            geometry=geometry, fading=r).sum_rate
                          for r in realizations)
        return total / len(realizations)

    def _expected_evaluations(self, kind: str, trace) -> int:
        states = self.parsed.table.num_states
        units = (self.layout.num_groups if kind in ("greedy_group", "statistical", "exhaustive")
                 else self.layout.num_elements)
        if kind == "exhaustive":
            return states ** units
        if kind == "random":
            return self.size.random_trials
        return 1 + (len(trace) - 1) * units * (states - 1)

    def check(self, kind: str, value) -> Checked:
        code, err, out = value
        if code != 0:
            return Checked([f"{kind}: exit code {code}: {err.strip()}"])
        text = out.read_bytes()
        outcome = json.loads(text)["outcome"]
        objective, evaluations = outcome["objective_bps_hz"], outcome["evaluations"]
        trace = outcome["trace"]
        result = Checked(evaluations=evaluations, artifact_bytes=len(text))
        fail = result.failures.append
        config = self._config(outcome["config"])
        if not outcome["degenerate_channel"]:
            self.chosen[kind] = config  # probed for per-call ZF cost
        expected = self._expected_evaluations(kind, trace)
        if evaluations != expected:
            fail(f"{kind}: {evaluations} evaluations, expected {expected}")
        if kind != "random" and not _nondecreasing(trace):
            fail(f"{kind}: objective trace decreases: {trace}")
        if outcome["degenerate_channel"] and kind != "statistical":
            # the statistical optimum is chosen under fading; without it, its
            # channel may be rank-deficient
            fail(f"{kind}: chosen configuration has a rank-deficient channel")
        if kind == "statistical":
            recomputed = self._sample_average(config)
        else:
            recomputed = self.om.sum_rate(self.parsed.scene, self.layout,
                                          self.parsed.table, config)
        if recomputed != objective:
            fail(f"{kind}: objective {objective!r} != recomputed {recomputed!r}")
        reference = (self.references or {}).get("search", {}).get(kind)
        if reference is not None:
            if evaluations != reference["evaluations"]:
                fail(f"{kind}: {evaluations} evaluations, reference {reference['evaluations']}")
            if not math.isclose(objective, reference["objective"], rel_tol=OBJECTIVE_RTOL):
                fail(f"{kind}: objective {objective!r} vs reference {reference['objective']!r}")
        return result

    def probe(self, call) -> None:
        om = self.om
        scene, table, layout = self.parsed.scene, self.parsed.table, self.layout
        geometry = om.channel_geometry(scene, layout)
        kind = f"probe.k{scene.num_users}"
        group_configs = [c for k, c in sorted(self.chosen.items())
                         if c.granularity is om.Granularity.GROUP]
        for config in group_configs:
            channel = om.assemble_channel(geometry, table, config)
            for _ in range(100):
                call(kind, config.validate_against, table, layout)
                call(kind, om.assemble_channel, geometry, table, config)
                call(kind, om.zf_precoder, channel, scene.tx_power_w, scene.noise_power_w)
                call(kind, om.evaluate_rates, scene, layout, table, config, geometry=geometry)

    def end_to_end(self, rounds) -> dict:
        out = {f"{kind}_s": (statistics.median(of_kind(r, kind).seconds for r in rounds), "s")
               for kind in self.KINDS}
        out["evals_per_s"] = (_evals_per_s(rounds), "1/s")
        return out

    def notes(self) -> list[str]:
        s = self.parsed.scene
        macs = s.num_users * self.layout.num_elements * s.num_antennas
        return [f"one search evaluation assembles K*M*Nt = {s.num_users}*"
                f"{self.layout.num_elements}*{s.num_antennas} = {macs} complex MACs",
                f"statistical seed {self.statistical_seed}, random seed {self.random_seed}"]


# ---------------------------------------------------------------- oracle --

class Oracle(Workload):
    name = "oracle"
    TAIL_PERCENTILE = 95  # >= 10 samples beyond it from 4 rounds (240 tasks) up

    def __init__(self, *args):
        super().__init__(*args)
        self.chosen: dict[int, object] = {}

    def prepare(self, om) -> None:
        self.documents = oracle_scenes(self.seed, self.size.oracle_scenes)

    def setup(self, om) -> None:
        self.om = om
        self.problems = []
        for i, document in enumerate(self.documents):
            parsed = om.parse_scene_dict(document, source=f"oracle[{i}]")
            self.problems.append((parsed, om.build_layout(parsed.panel)))

    def _solve(self, index: int):
        om = self.om
        parsed, layout = self.problems[index]
        scene, table = parsed.scene, parsed.table
        best = om.exhaustive_optimize(scene, layout, table, om.Granularity.GROUP)
        greedy = om.greedy_optimize(scene, layout, table, om.Granularity.GROUP)
        bound = om.relaxed_upper_bound(scene, layout, table)
        return (index, best, greedy, bound,
                om.sum_rate(scene, layout, table, best.config),
                om.sum_rate(scene, layout, table, greedy.config))

    def warm_up(self) -> None:
        for i in range(min(2, len(self.problems))):
            self._solve(i)

    def round_tasks(self):
        return [("scene", functools.partial(self._solve, i)) for i in range(len(self.problems))]

    def check(self, kind: str, value) -> Checked:
        index, best, greedy, bound, best_rate, greedy_rate = value
        parsed, layout = self.problems[index]
        states, units = parsed.table.num_states, layout.num_groups
        if best.objective > 0:  # a full-rank channel, probed for per-call ZF cost
            self.chosen[index] = best.config
        result = Checked(evaluations=best.evaluations + greedy.evaluations)
        fail = result.failures.append
        tag = f"oracle[{index}]"
        if not best.objective >= greedy.objective:
            fail(f"{tag}: exhaustive {best.objective!r} < greedy {greedy.objective!r}")
        if not bound >= best.objective:
            fail(f"{tag}: bound {bound!r} < exhaustive {best.objective!r}")
        if best_rate != best.objective or greedy_rate != greedy.objective:
            fail(f"{tag}: objectives {best.objective!r}, {greedy.objective!r} != "
                 f"sum_rate {best_rate!r}, {greedy_rate!r}")
        if not _nondecreasing(greedy.trace):
            fail(f"{tag}: greedy trace decreases: {greedy.trace}")
        if best.evaluations != states ** units:
            fail(f"{tag}: exhaustive made {best.evaluations} evaluations, expected {states ** units}")
        expected = 1 + (len(greedy.trace) - 1) * units * (states - 1)
        if greedy.evaluations != expected:
            fail(f"{tag}: greedy made {greedy.evaluations} evaluations, expected {expected}")
        return result

    def probe(self, call) -> None:
        om = self.om
        for index, config in sorted(self.chosen.items()):
            parsed, layout = self.problems[index]
            scene, table = parsed.scene, parsed.table
            geometry = om.channel_geometry(scene, layout)
            channel = om.assemble_channel(geometry, table, config)
            kind = f"probe.k{scene.num_users}"
            for _ in range(10):
                call(kind, config.validate_against, table, layout)
                call(kind, om.assemble_channel, geometry, table, config)
                call(kind, om.zf_precoder, channel, scene.tx_power_w, scene.noise_power_w)
                call(kind, om.evaluate_rates, scene, layout, table, config, geometry=geometry)

    def tail(self, rounds) -> tuple[float, float, int]:
        times = sorted(t.seconds for r in rounds for t in r)
        if len(times) < 2:
            return times[0], times[0], len(times)
        cuts = statistics.quantiles(times, n=100, method="inclusive")
        return cuts[49], cuts[self.TAIL_PERCENTILE - 1], len(times)

    def end_to_end(self, rounds) -> dict:
        p50, tail, count = self.tail(rounds)
        return {
            "task_p50_s": (p50, "s"),
            "task_tail_s": (tail, "s"),
            "task_tail_percentile": (self.TAIL_PERCENTILE, "%"),
            "task_samples": (count, "count"),
            "evals_per_s": (_evals_per_s(rounds), "1/s"),
        }

    def notes(self) -> list[str]:
        users = [p.scene.num_users for p, _ in self.problems]
        macs = [p.scene.num_users * l.num_elements * p.scene.num_antennas
                for p, l in self.problems]
        return [f"{len(self.problems)} scenes per round: {users.count(1)} with K = 1, "
                f"{users.count(2)} with K = 2; K*M*Nt = {min(macs)}..{max(macs)} "
                f"complex MACs per evaluation",
                f"task_tail_s is p{self.TAIL_PERCENTILE}"]


# ----------------------------------------------------------------- field --

class Field(Workload):
    name = "field"
    GRID_EXTENT = (-2.0, 2.0, -2.0, 2.0)

    def __init__(self, *args):
        super().__init__(*args)
        self.digests: dict[str, str] = {}
        self.verified: set[str] = set()
        self.coverage_values: np.ndarray | None = None

    def prepare(self, om) -> None:
        n = self.size.grid_cells
        xs = np.linspace(self.GRID_EXTENT[0], self.GRID_EXTENT[1], n)
        ys = np.linspace(self.GRID_EXTENT[2], self.GRID_EXTENT[3], n)
        off_plane = np.flatnonzero(np.abs(xs) > 1e-9)
        gen = np.random.default_rng(self.seed)
        self.snr_cells = list(zip(gen.choice(off_plane, self.size.snr_points).tolist(),
                                  gen.integers(0, n, self.size.snr_points).tolist()))
        self.grid_arg = "--grid=" + ",".join(
            [*(f"{v:g}" for v in self.GRID_EXTENT), str(n), str(n)])
        panel = om.parse_scene(om.prototype_scene_path()).scene.panel
        u = om.build_layout(panel).u
        # same expression as coverage_map, so the points are its cell centres
        self.snr_points = [panel.center + xs[ix] * panel.normal + ys[iy] * u
                           for ix, iy in self.snr_cells]

    def setup(self, om) -> None:
        importlib.import_module("omnisim.cli")
        self.om = om
        self.scene_path = om.prototype_scene_path()
        self.parsed = om.parse_scene(self.scene_path)
        self.layout = om.build_layout(self.parsed.panel)
        self.config = om.Configuration.uniform(self.layout.num_elements, 0)

    def coverage(self, threads: int):
        csv = self.workdir / f"coverage-{threads}t.csv"
        pgm = self.workdir / f"coverage-{threads}t.pgm"
        previous = os.environ.get("OMNISIM_THREADS")
        os.environ["OMNISIM_THREADS"] = str(threads)
        try:
            code, err = run_cli(self.om, ["coverage", "--config", self.scene_path, self.grid_arg,
                                          "--out", str(csv), "--pgm", str(pgm)])
        finally:
            if previous is None:
                del os.environ["OMNISIM_THREADS"]
            else:
                os.environ["OMNISIM_THREADS"] = previous
        return code, err, (csv, pgm)

    def pattern(self):
        csv = self.workdir / "pattern.csv"
        code, err = run_cli(self.om, ["pattern", "--config", self.scene_path, "--side", "both",
                                      "--step-deg", f"{self.size.pattern_step_deg:g}",
                                      "--out", str(csv)])
        return code, err, (csv,)

    def _snr(self):
        om = self.om
        scene, table = self.parsed.scene, self.parsed.table
        return [om.snr_at(scene, self.layout, table, self.config, p) for p in self.snr_points]

    def warm_up(self) -> None:
        self.coverage(2)

    def round_tasks(self):
        return [("coverage_1t", functools.partial(self.coverage, 1)),
                ("coverage_2t", functools.partial(self.coverage, 2)),
                ("pattern", self.pattern),
                ("snr", self._snr)]

    def _check_files(self, kind: str, value, family: str, result: Checked) -> list[bytes]:
        code, err, paths = value
        if code != 0:
            result.failures.append(f"{kind}: exit code {code}: {err.strip()}")
            return []
        blobs = [p.read_bytes() for p in paths]
        result.artifact_bytes = sum(len(b) for b in blobs)
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        if self.digests.setdefault(family, digest) != digest:
            result.failures.append(f"{kind}: output bytes differ from an earlier "
                                   f"{family} run (other thread count or repeat)")
        elif digest not in self.verified and self.references is not None:
            problems = compare_csv(blobs[0], self.references["field"][family], kind)
            result.failures.extend(problems)
            if not problems:
                self.verified.add(digest)
        return blobs

    def check(self, kind: str, value) -> Checked:
        result = Checked()
        if kind.startswith("coverage"):
            blobs = self._check_files(kind, value, "coverage", result)
            result.work = self.size.grid_cells ** 2
            if blobs and self.coverage_values is None:
                rows = blobs[0].decode("utf-8").splitlines()[1:]
                values = np.array([float(r.split(",")[2]) for r in rows])
                self.coverage_values = values.reshape(self.size.grid_cells, -1)
        elif kind == "pattern":
            blobs = self._check_files(kind, value, "pattern", result)
            if blobs:
                result.work = blobs[0].count(b"\n") - 1
        else:
            result.work = len(value)
            result.failures.extend(self._check_snr(value))
        return result

    def _check_snr(self, snr_db: list[float]) -> list[str]:
        """Each point SNR, without the antenna and LNA gains, must give the
        spectral efficiency the coverage map wrote for that cell."""
        if self.coverage_values is None:
            return ["snr: no coverage map to compare with"]
        scene = self.parsed.scene
        chain_db = scene.tx_gain_db + scene.rx_gain_db + scene.lna_gain_db
        bad = []
        for (ix, iy), value in zip(self.snr_cells, snr_db):
            se = math.log2(1.0 + 10.0 ** ((value - chain_db) / 10.0))
            written = self.coverage_values[ix, iy]
            if not _close_at_sig6(se, written, units=0.51):
                bad.append(f"cell ({ix}, {iy}): snr_at gives {se!r} bits/s/Hz, map {written!r}")
        return [f"snr: {len(bad)} points disagree with the coverage map, first {bad[0]}"] if bad else []

    def end_to_end(self, rounds) -> dict:
        def median_s(kind):
            return statistics.median(of_kind(r, kind).seconds for r in rounds)

        return {
            "coverage_s": (median_s("coverage_1t"), "s"),
            "coverage_2t_s": (median_s("coverage_2t"), "s"),
            "pattern_s": (median_s("pattern"), "s"),
            "snr_points_per_s": (statistics.median(
                of_kind(r, "snr").work / of_kind(r, "snr").seconds for r in rounds), "1/s"),
        }

    def notes(self) -> list[str]:
        n = self.size.grid_cells
        return [f"coverage grid {n}x{n} = {n * n} cells, CSV and PGM, "
                f"OMNISIM_THREADS = 1 and 2; pattern step {self.size.pattern_step_deg:g} deg, "
                f"both sides; {self.size.snr_points} snr_at points"]


WORKLOADS = {cls.name: cls for cls in (Search, Oracle, Field)}
