"""Layouts, sides, the bound and every search outcome have the same bits under
any OpenBLAS kernel (K <= 2): they sum in orders that ``geometry.dot3`` and
``channel.ordered_sum`` fix, never in one a BLAS kernel chooses.

The test runs this file as a script in child processes, one per kernel, and
compares the digests they print.  Run by hand as

    PYTHONPATH=src python tests/test_blas_kernels.py SCRATCH_DIR

it prints the digest of this process's kernel.  Inputs are built without
BLAS too: each vector is normalised by a Python-float fold, so no input
depends on the kernel either.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import omnisim as om
from omnisim.cli import main

# None leaves the variable unset: the kernel OpenBLAS picks for this CPU.
KERNELS = (None, "Haswell", "Prescott")
SEED = 2024


def unit(v) -> np.ndarray:
    """``v`` over its length, summed in a fixed order in Python floats."""
    x, y, z = (float(c) for c in v)
    return np.asarray(v, dtype=float) / math.sqrt((x * x + y * y) + z * z)


def tilted_normal(gen: np.random.Generator) -> np.ndarray:
    return unit(gen.standard_normal(3))


def placed(gen: np.random.Generator, normal: np.ndarray, side: float) -> np.ndarray:
    """A point 1-3 m from the origin on the ``side`` (+1 along ``normal``)."""
    v = unit(gen.standard_normal(3))
    if side * float((v[0] * normal[0] + v[1] * normal[1]) + v[2] * normal[2]) < 0.2:
        v = unit(v + 2.0 * side * normal)
    return v * gen.uniform(1.0, 3.0)


def geometry_lines(gen: np.random.Generator):
    """Layouts and in-plane axes of tilted 16 x 40 panels, and the side of
    seeded points."""
    points = gen.uniform(-2.0, 2.0, (200, 3))
    for _ in range(40):
        spec = om.PanelSpec(center=gen.uniform(-1, 1, 3), normal=tilted_normal(gen),
                            rows=16, cols=40, dx=0.0416, dy=0.0416,
                            group_rows=4, group_cols=4)
        layout = om.build_layout(spec)
        yield layout.positions.tobytes() + layout.u.tobytes() + layout.v.tobytes()
        yield spec.plane_side(points).tobytes()


def scene(gen: np.random.Generator, plane_wave: bool = False) -> dict:
    """A seeded scene document: 8-12 one-by-two-element groups on a tilted
    panel, Nt <= 2 antennas on one side and K <= Nt users on either."""
    normal = tilted_normal(gen)
    nt = int(gen.integers(1, 3))
    sides = gen.choice([-1.0, 1.0], int(gen.integers(1, nt + 1)))
    users = [placed(gen, normal, side) for side in sides]
    r = gen.uniform(0.25, 0.85, 2)
    t = np.sqrt(1 - r ** 2) * gen.uniform(0.4, 0.99, 2)
    ph = gen.uniform(0, 360, 4)
    document = {
        "frequency_hz": 3.6e9,
        "panel": {"rows": 1, "cols": 2 * int(gen.integers(8, 13)), "dx_m": 0.0416,
                  "dy_m": 0.0416, "group_rows": 1, "group_cols": 2,
                  "center": [0.0, 0.0, 0.0], "normal": normal.tolist()},
        "state_table": [{"reflection": {"amp": r[s], "phase_deg": ph[2 * s]},
                         "refraction": {"amp": t[s], "phase_deg": ph[2 * s + 1]}}
                        for s in range(2)],
        "bs": {"antennas": [placed(gen, normal, 1.0).tolist() for _ in range(nt)]},
        "users": [u.tolist() for u in users],
        "power": {"tx_dbm": 40.0, "bandwidth_hz": 10e6, "noise_figure_db": 6.0},
        "options": {"direct_path": bool(gen.integers(2)), "plane_wave": plane_wave},
    }
    return document


def model_lines(gen: np.random.Generator):
    """The plane-wave channel of tilted panels, and the bound of seeded scenes."""
    for _ in range(10):
        parsed = om.parse_scene_dict(scene(gen, plane_wave=True), source="plane wave")
        layout = om.build_layout(parsed.panel)
        yield om.channel_geometry(parsed.scene, layout).bs_to_element.tobytes()
    for _ in range(30):
        parsed = om.parse_scene_dict(scene(gen), source="bound")
        bound = om.relaxed_upper_bound(parsed.scene, om.build_layout(parsed.panel),
                                       parsed.table)
        yield repr(bound).encode()


def cli_lines(gen: np.random.Generator, scratch: Path):
    """``simulate`` with every optimizer and ``oracle`` on a tilted-panel scene."""
    config = scratch / "scene.json"
    config.write_text(json.dumps(scene(gen)))
    report = scratch / "report.json"
    runs = [["simulate", "--optimizer", optimizer, "--samples", "5", "--out", str(report)]
            for optimizer in ("greedy", "exhaustive", "random", "statistical")]
    for argv in (*runs, ["oracle"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--config", str(config), "--granularity", "group"])
        yield f"{code} {out.getvalue()}".encode()
        if argv[0] == "simulate":
            yield report.read_bytes()


def digest(scratch: Path) -> str:
    gen = np.random.default_rng(SEED)
    lines = (*geometry_lines(gen), *model_lines(gen), *cli_lines(gen, scratch))
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


def test_outcomes_do_not_depend_on_the_blas_kernel(tmp_path):
    src = str(Path(om.__file__).resolve().parent.parent)
    digests = {}
    for kernel in KERNELS:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        child = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        digests[kernel] = child.stdout.strip()
    assert len(set(digests.values())) == 1, digests


if __name__ == "__main__":
    print(digest(Path(sys.argv[1])))
