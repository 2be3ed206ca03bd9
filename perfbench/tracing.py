"""In-memory span tracer wrapped around omnisim's public functions.

The tracer lives outside the package: it replaces each public function in
``WRAPPED`` with a wrapper in every loaded ``omnisim`` module namespace that
binds it, so calls made inside the package (``cli`` calling
``beamforming.exhaustive_optimize``, ``sum_rate`` calling ``evaluate_rates``)
are recorded too.  A span is ``(id, name, start, end, parent, task, count)``;
``count`` holds the ``evaluations`` of a returned ``OptimizationOutcome``.
Spans stay in memory until :meth:`Tracer.write` is called.

A name that no longer exists is recorded in ``Tracer.missing`` instead of
failing, so that metrics built on it can be reported as missing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (module, attribute); a dotted attribute names a method on a class.
WRAPPED = (
    ("scene_io", "parse_scene"),
    ("scene_io", "parse_scene_dict"),
    ("geometry", "build_layout"),
    ("elements", "Configuration.validate_against"),
    ("channel", "channel_geometry"),
    ("channel", "assemble_channel"),
    ("channel", "draw_realizations"),
    ("beamforming", "zf_precoder"),
    ("beamforming", "evaluate_rates"),
    ("beamforming", "sum_rate"),
    ("beamforming", "greedy_optimize"),
    ("beamforming", "exhaustive_optimize"),
    ("beamforming", "random_baseline"),
    ("beamforming", "statistical_optimize"),
    ("beamforming", "relaxed_upper_bound"),
    ("analysis", "coverage_map"),
    ("analysis", "radiation_pattern"),
    ("analysis", "snr_at"),
    ("cli", "main"),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    task: int | None
    count: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``enabled``; wrappers cost one flag test when not."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.enabled = False
        self.task: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        count = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            count = getattr(result, "evaluations", None)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   self.task, count))

    def install(self, package) -> None:
        """Wrap every name in ``WRAPPED`` that ``package`` still defines."""
        for module_name, _ in WRAPPED:
            with contextlib.suppress(ImportError):
                importlib.import_module(f"{package.__name__}.{module_name}")
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == package.__name__
                                        or key.startswith(package.__name__ + "."))]
        for module_name, attr in WRAPPED:
            name = f"{module_name}.{attr}"
            owner = sys.modules.get(f"{package.__name__}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            targets = [owner] if path else [
                m for m in loaded if vars(m).get(leaf) is original]
            for target in targets:
                self._patches.append((target, leaf, original))
                setattr(target, leaf, wrapped)

    def uninstall(self) -> None:
        for target, leaf, original in reversed(self._patches):
            setattr(target, leaf, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return traced

    @staticmethod
    def span_cost() -> float:
        """Seconds an enabled wrapper adds to one call: the median over 7
        batches of 20 000 calls of a wrapped no-op's time minus a bare one's."""
        def noop():
            return None

        probe = Tracer()
        probe.enabled = True
        wrapped = probe._wrap("noop", noop)
        costs = []
        for _ in range(7):
            times = []
            for fn in (wrapped, noop):
                started = time.perf_counter()
                for _ in range(20000):
                    fn()
                times.append(time.perf_counter() - started)
            probe.spans.clear()
            costs.append((times[0] - times[1]) / 20000)
        return statistics.median(costs)

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return {s.id: s.seconds - covered[s.id] for s in self.spans}

    def write(self, path, summary: dict) -> None:
        """Write the spans, per-layer self time and ``summary`` as JSON."""
        selfs = self.self_times()
        by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        by_layer: dict[str, float] = defaultdict(float)
        for span in self.spans:
            entry = by_name[span.name]
            entry[0] += 1
            entry[1] += span.seconds
            entry[2] += selfs[span.id]
            by_layer[span.name.split(".", 1)[0]] += selfs[span.id]
        payload = {
            **summary,
            "missing_names": self.missing,
            "self_seconds_by_layer": dict(sorted(by_layer.items())),
            "by_name": {name: {"calls": c, "total_s": t, "self_s": s}
                        for name, (c, t, s) in sorted(by_name.items())},
            "span_fields": list(Span._fields),
            "spans": [list(s) for s in sorted(self.spans)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
