"""Per-layer metrics of a traced run, derived from its spans.

The layers are omnisim's modules.  A traced result line carries every
declared metric, on every workload.  A metric of a function the workload
never calls reads 0 there; ``NOT_CALLED`` lists these, and they say nothing
about that workload.  A metric built on a public name that no longer exists
is reported as missing (None) and left out of the result line.  Which
end-to-end metric each one should move, on which workload, is listed in
README.md.
"""

from __future__ import annotations

import fnmatch
import statistics

from workloads import Search

SEARCH_KINDS = set(Search.KINDS)
COVERAGE_KINDS = {"coverage_1t", "coverage_2t"}
PROBE_KINDS = {"probe.k1", "probe.k2"}

# metric prefix -> (span name, task kinds it counts; None for all)
OPTIMIZERS = {
    "exhaustive": ("beamforming.exhaustive_optimize", None),
    "greedy_group": ("beamforming.greedy_optimize", {"greedy_group", "scene"}),
    "greedy_element": ("beamforming.greedy_optimize", {"greedy_element"}),
    "statistical": ("beamforming.statistical_optimize", None),
    "random": ("beamforming.random_baseline", None),
}
CLI_KINDS = {"simulate": SEARCH_KINDS, "coverage": COVERAGE_KINDS, "pattern": {"pattern"}}

PER_LAYER = [
    ("scene_io.parse_s", "s"),
    ("geometry.layout_s", "s"),
    ("elements.validate_us", "us"),
    ("channel.geometry_s", "s"),
    ("channel.assemble_us", "us"),
    ("channel.draw_s", "s"),
    ("beamforming.zf_k1_us", "us"),
    ("beamforming.zf_k2_us", "us"),
    ("beamforming.eval_us", "us"),
    ("beamforming.bound_s", "s"),
    *((f"beamforming.{opt}.{what}", unit) for opt in OPTIMIZERS
      for what, unit in (("evaluations", "count"), ("search_s", "s"), ("us_per_eval", "us"))),
    ("analysis.coverage_s", "s"),
    ("analysis.cells_per_s", "1/s"),
    ("analysis.coverage_scaling", "ratio"),
    ("analysis.pattern_s", "s"),
    ("analysis.probes_per_s", "1/s"),
    ("analysis.snr_us", "us"),
    *((f"cli.{sub}.{what}", unit) for sub in CLI_KINDS
      for what, unit in (("self_s", "s"), ("artifact_bytes", "B"))),
    ("trace.overhead_frac", "frac"),
]


# workload -> patterns of the metrics whose functions it never calls
NOT_CALLED = {
    "search": ("analysis.*", "beamforming.bound_s", "beamforming.zf_k1_us",
               "cli.coverage.*", "cli.pattern.*"),
    "oracle": ("analysis.*", "beamforming.greedy_element.*", "beamforming.random.*",
               "beamforming.statistical.*", "channel.draw_s", "cli.*"),
    "field": ("beamforming.*", "channel.assemble_us", "channel.draw_s", "cli.simulate.*"),
}


def not_called(workload: str, metric: str) -> bool:
    return any(fnmatch.fnmatchcase(metric, p) for p in NOT_CALLED[workload])


class Missing(Exception):
    """A metric needs a public name the tracer could not find."""


class TraceView:
    """Spans of the traced rounds and probes, indexed by task kind and round."""

    def __init__(self, tracer, rounds, probe_kinds: dict[int, str]):
        self.tracer = tracer
        self.missing = set(tracer.missing)
        self.selfs = tracer.self_times()
        self.rounds = rounds
        self.kind = dict(probe_kinds)
        self.round = {}
        for index, tasks in enumerate(rounds):
            for task in tasks:
                self.kind[task.id] = task.kind
                self.round[task.id] = index

    def select(self, name: str, kinds=None):
        if name in self.missing:
            raise Missing(name)
        return [s for s in self.tracer.spans
                if s.name == name and (kinds is None or self.kind.get(s.task) in kinds)]

    def per_call(self, names, kinds=None, scale: float = 1.0, own: bool = False) -> float:
        """Median duration (or self time) per call; 0 when never called."""
        spans = [s for name in names for s in self.select(name, kinds)]
        if not spans:
            return 0.0
        return statistics.median(self.selfs[s.id] if own else s.seconds for s in spans) * scale

    def per_round(self, name: str, kinds, value) -> float:
        """Median over traced rounds of ``value(span)`` summed over the round."""
        totals = [0.0] * len(self.rounds)
        for span in self.select(name, kinds):
            if span.task in self.round:
                totals[self.round[span.task]] += value(span)
        return statistics.median(totals) if totals else 0.0

    def spans_per_round(self) -> float:
        """Median over traced rounds of the spans recorded in the round."""
        counts = [0] * len(self.rounds)
        for span in self.tracer.spans:
            if span.task in self.round:
                counts[self.round[span.task]] += 1
        return statistics.median(counts) if counts else 0.0

    def task_total(self, kinds, attr: str) -> float:
        return statistics.median(sum(getattr(t, attr) for t in tasks if t.kind in kinds)
                                 for tasks in self.rounds) if self.rounds else 0.0

    def task_work(self, kinds) -> int:
        return next((t.work for tasks in self.rounds for t in tasks if t.kind in kinds), 0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(view: TraceView, overhead_frac: float) -> dict[str, float | None]:
    calls = {
        "scene_io.parse_s": lambda: view.per_call(["scene_io.parse_scene", "scene_io.parse_scene_dict"]),
        "geometry.layout_s": lambda: view.per_call(["geometry.build_layout"]),
        "elements.validate_us": lambda: view.per_call(
            ["elements.Configuration.validate_against"], scale=1e6),
        "channel.geometry_s": lambda: view.per_call(["channel.channel_geometry"]),
        "channel.assemble_us": lambda: view.per_call(["channel.assemble_channel"], scale=1e6),
        "channel.draw_s": lambda: view.per_call(["channel.draw_realizations"]),
        "beamforming.zf_k1_us": lambda: view.per_call(
            ["beamforming.zf_precoder"], {"probe.k1"}, scale=1e6),
        "beamforming.zf_k2_us": lambda: view.per_call(
            ["beamforming.zf_precoder"], {"probe.k2"}, scale=1e6),
        "beamforming.eval_us": lambda: view.per_call(
            ["beamforming.evaluate_rates"], PROBE_KINDS, scale=1e6),
        "beamforming.bound_s": lambda: view.per_call(["beamforming.relaxed_upper_bound"]),
        "analysis.coverage_s": lambda: view.per_call(["analysis.coverage_map"], {"coverage_1t"}),
        "analysis.pattern_s": lambda: view.per_round(
            "analysis.radiation_pattern", {"pattern"}, lambda s: s.seconds),
        "analysis.snr_us": lambda: view.per_call(["analysis.snr_at"], scale=1e6),
    }
    for opt, (name, kinds) in OPTIMIZERS.items():
        calls[f"beamforming.{opt}.evaluations"] = (
            lambda name=name, kinds=kinds: int(view.per_round(name, kinds, lambda s: s.count or 0)))
        calls[f"beamforming.{opt}.search_s"] = (
            lambda name=name, kinds=kinds: view.per_round(name, kinds, lambda s: view.selfs[s.id]))
    for sub, kinds in CLI_KINDS.items():
        calls[f"cli.{sub}.self_s"] = lambda kinds=kinds: view.per_call(["cli.main"], kinds, own=True)
        calls[f"cli.{sub}.artifact_bytes"] = lambda kinds=kinds: int(view.task_total(kinds, "artifact_bytes"))

    out: dict[str, float | None] = {}
    for name, fn in calls.items():
        try:
            out[name] = fn()
        except Missing:
            out[name] = None

    def derived(name, fn, *needs):
        out[name] = None if any(out[n] is None for n in needs) else fn(*(out[n] for n in needs))

    for opt in OPTIMIZERS:
        derived(f"beamforming.{opt}.us_per_eval", lambda s, e: _ratio(s, e) * 1e6,
                f"beamforming.{opt}.search_s", f"beamforming.{opt}.evaluations")
    derived("analysis.cells_per_s", lambda t: _ratio(view.task_work({"coverage_1t"}), t),
            "analysis.coverage_s")
    derived("analysis.coverage_scaling", lambda t: _ratio(
        t, 2.0 * view.per_call(["analysis.coverage_map"], {"coverage_2t"})), "analysis.coverage_s")
    derived("analysis.probes_per_s", lambda t: _ratio(view.task_work({"pattern"}), t),
            "analysis.pattern_s")
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name, _ in PER_LAYER}
