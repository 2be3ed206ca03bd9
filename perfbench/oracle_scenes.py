"""Seeded small scenes for the ``oracle`` workload, as scene documents.

The family follows the brute-force oracle acceptance test: one row of
1x2-element groups (here 8..12 groups, so 16..24 elements), a BS with one or
two antennas on the +z side, K <= Nt users placed on either side, and a
random passive two-state table.  Documents go through ``parse_scene_dict``
like any scene file, so the program only sees the generated inputs.

The group counts and (Nt, K) pairs follow a fixed mix, so that every seed
asks for the same number of exhaustive evaluations; the seed draws the
positions and the state tables.  The (Nt, K) mix is the test's: Nt uniform on
{1, 2} and K uniform on 1..Nt give (1, 1), (2, 1) and (2, 2) in the ratio
2 : 1 : 1.
"""

from __future__ import annotations

import math

import numpy as np


def _place(gen: np.random.Generator, side_sign: float | None = None) -> list[float]:
    v = gen.uniform([-0.8, -0.8, 0.3], [0.8, 0.8, 1.0])
    if side_sign is None:
        side_sign = float(gen.choice([-1.0, 1.0]))
    v[2] *= side_sign
    v /= np.linalg.norm(v)
    return [float(x) for x in v * gen.uniform(1.0, 3.0)]


GROUP_COUNTS = (8, 9, 10, 11, 12)
ANTENNAS_USERS = ((1, 1), (1, 1), (2, 1), (2, 2))


def oracle_scene(gen: np.random.Generator, units: int, nt: int, k: int) -> dict:
    """One scene document of ``units`` groups, ``nt`` antennas and ``k`` users."""
    bs = [_place(gen, 1.0) for _ in range(nt)]
    users = [_place(gen) for _ in range(k)]
    r = gen.uniform(0.25, 0.85, 2)
    t = np.sqrt(1.0 - r ** 2) * gen.uniform(0.4, 0.99, 2)
    phases = np.degrees(gen.uniform(0.0, 2.0 * math.pi, 4))
    return {
        "frequency_hz": 3.6e9,
        "panel": {"rows": 1, "cols": 2 * units, "dx_m": 0.0416, "dy_m": 0.0416,
                  "group_rows": 1, "group_cols": 2,
                  "center": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0]},
        "state_table": [
            {"reflection": {"amp": float(r[i]), "phase_deg": float(phases[2 * i])},
             "refraction": {"amp": float(t[i]), "phase_deg": float(phases[2 * i + 1])}}
            for i in range(2)
        ],
        "bs": {"antennas": bs},
        "users": users,
        "power": {"tx_dbm": 40.0, "bandwidth_hz": 1e7, "noise_figure_db": 6.0},
    }


def oracle_scenes(seed: int, count: int) -> list[dict]:
    """``count`` scenes; every 20 in a row hold each (groups, (Nt, K)) pair once."""
    gen = np.random.default_rng(seed)
    scenes = []
    for i in range(count):
        nt, k = ANTENNAS_USERS[i % len(ANTENNAS_USERS)]
        scenes.append(oracle_scene(gen, GROUP_COUNTS[i % len(GROUP_COUNTS)], nt, k))
    return scenes
