"""Command-line interface: scene ingestion, subcommand dispatch, artifacts.

Subcommands
-----------
simulate    run an optimizer, write a JSON run report
pattern     angular radiation sweep to CSV
coverage    spectral-efficiency grid to CSV (optional PGM heatmap)
linkbudget  itemized dB chain to stdout
oracle      guarded exhaustive search, JSON to stdout

Exit codes: 0 success, 2 validation error, 3 numerical error, 4 guard
refusal.  Errors are emitted as JSON on stderr.  The environment variable
OMNISIM_THREADS (positive integer) caps internal parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import beamforming
from .analysis import CoverageGrid, coverage_map, radiation_pattern
from .channel import (MEASURED_IOS_RX_GAIN_DB, MEASURED_TX_IOS_GAIN_DB,
                      FadingModel, link_budget, prototype_chain)
from .elements import Configuration, Granularity
from .errors import (NumericalError, OmnisimError, SearchSpaceError,
                     ValidationError)
from .geometry import Side, build_layout
from .scene_io import parse_scene

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_GUARD = 4


class _CliParser(argparse.ArgumentParser):
    """Argument errors surface as validation errors (JSON on stderr)."""

    def error(self, message):
        raise ValidationError(message)


def _finite_float(text: str) -> float:
    """argparse type for dB items: a number that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for seeds: numpy generators take no negative seed."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _fmt(value) -> str:
    """Fixed CSV/console numeric format: 6 significant digits."""
    return format(float(value), ".6g")


def thread_count() -> int:
    raw = os.environ.get("OMNISIM_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            f"OMNISIM_THREADS must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValidationError(
            f"OMNISIM_THREADS must be a positive integer, got {raw!r}"
        )
    return value


def _config_payload(config, layout) -> dict:
    payload = {"granularity": config.granularity.value}
    if config.granularity is Granularity.GROUP:
        payload["group_states"] = list(config.group_states(layout))
    else:
        payload["element_states"] = list(config.states)
    return payload


def _write_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_simulate(args) -> int:
    fading = FadingModel(k_factor_db=args.k_factor_db)  # rejects NaN up front
    parsed = parse_scene(args.config)
    layout = build_layout(parsed.panel)
    granularity = Granularity(args.granularity)
    started = time.perf_counter()
    if args.optimizer == "greedy":
        outcome = beamforming.greedy_optimize(
            parsed.scene, layout, parsed.table, granularity,
            max_sweeps=args.sweeps)
    elif args.optimizer == "exhaustive":
        outcome = beamforming.exhaustive_optimize(
            parsed.scene, layout, parsed.table, granularity)
    elif args.optimizer == "random":
        outcome = beamforming.random_baseline(
            parsed.scene, layout, parsed.table, granularity,
            trials=args.trials, seed=args.seed)
    else:
        outcome = beamforming.statistical_optimize(
            parsed.scene, layout, parsed.table,
            fading, num_samples=args.samples, seed=args.seed,
            granularity=granularity, max_sweeps=args.sweeps)
    elapsed = time.perf_counter() - started
    rates = beamforming.evaluate_rates(parsed.scene, layout, parsed.table,
                                       outcome.config)
    report = {
        "command": "simulate",
        "config_file": args.config,
        "optimizer": args.optimizer,
        "granularity": args.granularity,
        "seed": args.seed,
        "parameters": {
            "sweeps": args.sweeps,
            "trials": args.trials,
            "samples": args.samples,
            "k_factor_db": args.k_factor_db,
            "rng": "pcg64",
        },
        "scene": parsed.raw,
        "outcome": {
            "objective_bps_hz": outcome.objective,
            "config": _config_payload(outcome.config, layout),
            "per_user_rate_bps_hz": [float(r) for r in rates.per_user_rate],
            "degenerate_channel": rates.degenerate,
            "evaluations": outcome.evaluations,
            "trace": [[s, v] for s, v in outcome.trace],
        },
    }
    _write_json(report, args.out)
    # wall time stays off the artifact so identical runs stay byte-identical;
    # the degenerate count is a run diagnostic and stays off it too
    print(f"simulate: objective {_fmt(outcome.objective)} bits/s/Hz "
          f"in {elapsed:.3f} s ({outcome.evaluations} evaluations, "
          f"{outcome.degenerate_evaluations} degenerate)",
          file=sys.stderr)
    return EXIT_OK


def cmd_pattern(args) -> int:
    parsed = parse_scene(args.config)
    layout = build_layout(parsed.panel)
    # Sweeps use the all-zeros (uniform first-state) configuration so that
    # identical invocations stay reproducible without extra inputs.
    config = Configuration.uniform(layout.num_elements, 0)
    sides = {"reflection": [Side.REFLECTION], "refraction": [Side.REFRACTION],
             "both": [Side.REFLECTION, Side.REFRACTION]}[args.side]
    lines = ["angle_deg,power_db,side"]
    skipped = 0
    for side in sides:
        sweep = radiation_pattern(parsed.scene, layout, parsed.table, config,
                                  side, step_deg=args.step_deg,
                                  eval_radius=args.radius_m)
        skipped += sweep.skipped
        lines.extend(f"{_fmt(s.angle_deg)},{_fmt(s.power_db)},{s.side.value}"
                     for s in sweep)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    if skipped:
        print(f"pattern: skipped {skipped} in-plane probe angle(s)",
              file=sys.stderr)
    return EXIT_OK


def _parse_grid(text: str) -> CoverageGrid:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValidationError(
            f"--grid expects x0,x1,y0,y1,nx,ny; got {text!r}")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts[:4])
        nx, ny = int(parts[4]), int(parts[5])
    except ValueError as exc:
        raise ValidationError(f"--grid: {exc}") from None
    return CoverageGrid(x0=x0, x1=x1, y0=y0, y1=y1, nx=nx, ny=ny)


def _side_name(cell: int) -> str:
    return {1: "reflection", -1: "refraction", 0: "none"}[int(cell)]


def cmd_coverage(args) -> int:
    parsed = parse_scene(args.config)
    layout = build_layout(parsed.panel)
    config = Configuration.uniform(layout.num_elements, 0)
    grid = _parse_grid(args.grid)
    cmap = coverage_map(parsed.scene, layout, parsed.table, config, grid,
                        workers=thread_count())
    xs, ys = grid.xs, grid.ys
    lines = ["x_m,y_m,se_bps_hz,side"]
    for ix in range(grid.nx):
        for iy in range(grid.ny):
            lines.append(f"{_fmt(xs[ix])},{_fmt(ys[iy])},"
                         f"{_fmt(cmap.values[ix, iy])},"
                         f"{_side_name(cmap.side[ix, iy])}")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    if args.pgm:
        _write_pgm(cmap, args.pgm)
    return EXIT_OK


def _write_pgm(cmap, path: str) -> None:
    """8-bit PGM heatmap; masked cells are black, values scale to [min,max]."""
    values = cmap.values
    finite = values[np.isfinite(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    span = hi - lo
    pixels = np.zeros(values.shape, dtype=np.uint8)
    if finite.size:
        mask = np.isfinite(values)
        scaled = (values[mask] - lo) / span * 255.0 if span > 0 else 0.0
        pixels[mask] = np.round(scaled).astype(np.uint8) if span > 0 else 0
    # image rows run along y (height ny), columns along x (width nx)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cmap.grid.nx} {cmap.grid.ny}\n255\n".encode("ascii"))
        fh.write(pixels.T.tobytes())


def cmd_linkbudget(args) -> int:
    parsed = parse_scene(args.config)
    chain = prototype_chain(parsed.scene, ios_gain_db=args.ios_gain_db,
                            tx_ios_db=args.tx_ios_db, ios_rx_db=args.ios_rx_db)
    result = link_budget(chain)
    print(f"tx_power_dbm {_fmt(result.tx_power_dbm)}")
    for name, value in result.items:
        print(f"{name} {_fmt(value)}")
    print(f"received_dbm {_fmt(result.received_dbm)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    parsed = parse_scene(args.config)
    layout = build_layout(parsed.panel)
    outcome = beamforming.exhaustive_optimize(parsed.scene, layout, parsed.table,
                                              Granularity(args.granularity))
    payload = {
        "command": "oracle",
        "config_file": args.config,
        "granularity": args.granularity,
        "objective_bps_hz": outcome.objective,
        "config": _config_payload(outcome.config, layout),
        "evaluations": outcome.evaluations,
    }
    _write_json(payload, None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="omnisim",
                        description="Omni-surface link simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="optimize a configuration")
    sim.add_argument("--config", required=True)
    sim.add_argument("--optimizer", required=True,
                     choices=["greedy", "exhaustive", "random", "statistical"])
    sim.add_argument("--granularity", default="group",
                     choices=["element", "group"])
    sim.add_argument("--seed", type=_non_negative_int, default=0)
    sim.add_argument("--sweeps", type=int, default=10)
    sim.add_argument("--trials", type=int, default=100)
    sim.add_argument("--samples", type=int, default=100)
    sim.add_argument("--k-factor-db", type=float, default=10.0,
                     help="Rician K-factor for the statistical optimizer")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    pat = sub.add_parser("pattern", help="radiation pattern sweep to CSV")
    pat.add_argument("--config", required=True)
    pat.add_argument("--side", default="both",
                     choices=["reflection", "refraction", "both"])
    pat.add_argument("--step-deg", type=float, default=1.0)
    pat.add_argument("--radius-m", type=float, default=100.0)
    pat.add_argument("--out", required=True)
    pat.set_defaults(func=cmd_pattern)

    cov = sub.add_parser("coverage", help="spectral-efficiency map to CSV")
    cov.add_argument("--config", required=True)
    cov.add_argument("--grid", required=True,
                     help="x0,x1,y0,y1,nx,ny (panel-local metres)")
    cov.add_argument("--out", required=True)
    cov.add_argument("--pgm", default=None)
    cov.set_defaults(func=cmd_coverage)

    lb = sub.add_parser("linkbudget", help="itemized received-power chain")
    lb.add_argument("--config", required=True)
    lb.add_argument("--ios-gain-db", type=_finite_float, required=True)
    lb.add_argument("--tx-ios-db", type=_finite_float,
                    default=MEASURED_TX_IOS_GAIN_DB,
                    help="Tx->panel channel gain item (default: measured)")
    lb.add_argument("--ios-rx-db", type=_finite_float,
                    default=MEASURED_IOS_RX_GAIN_DB,
                    help="panel->Rx channel gain item (default: measured)")
    lb.set_defaults(func=cmd_linkbudget)

    orc = sub.add_parser("oracle", help="guarded exhaustive search")
    orc.add_argument("--config", required=True)
    orc.add_argument("--granularity", default="group",
                     choices=["element", "group"])
    orc.set_defaults(func=cmd_oracle)
    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": {"type": kind, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SearchSpaceError as exc:
        _emit_error("guard", exc)
        return EXIT_GUARD
    except NumericalError as exc:
        _emit_error("numerical", exc)
        return EXIT_NUMERICAL
    except OmnisimError as exc:
        _emit_error("validation", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
