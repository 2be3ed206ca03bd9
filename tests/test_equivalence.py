"""Every outcome ``tools/equivalence.py`` hashes keeps its bits: the test runs
the tool in a child process and compares each part's digest and the total
with the entry recorded in ``equivalence.json``.

The digests depend on numpy's SIMD dispatch level and on the OpenBLAS
kernel, so the entries are keyed by the numpy version and the top dispatch
target the CPU enables, and the child pins the kernel with
``OPENBLAS_CORETYPE=Haswell`` (the kernel OpenBLAS picks by itself cannot be
read without ``threadpoolctl``, which is not a dependency).  On a key with no
entry, the test fails and prints the entry to record.  A change that means to
move bits records the printed entry in place of the old one and says so in
CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
RECORDED = Path(__file__).with_name("equivalence.json")
KERNEL = "Haswell"  # an OpenBLAS kernel for CPUs with AVX2 and FMA3


def dispatch_key() -> str:
    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return f"numpy {np.__version__} {(enabled or ['baseline'])[-1]}"


def tool_digests() -> dict:
    """``part: digest`` of each line the tool prints, the last as ``total``."""
    env = dict(os.environ, OPENBLAS_CORETYPE=KERNEL)
    child = subprocess.run([sys.executable, str(TOOL)], env=env, capture_output=True,
                           text=True, timeout=300, check=True)
    *parts, total = child.stdout.splitlines()
    return {**dict(line.split(": ") for line in parts), "total": total}


def test_hashed_outcomes_keep_their_bits():
    if not (__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")):
        pytest.fail(f"the pinned OpenBLAS kernel {KERNEL} needs AVX2 and FMA3, "
                    "which this CPU does not have")
    key, digests = dispatch_key(), tool_digests()
    recorded = json.loads(RECORDED.read_text()).get(key)
    entry = json.dumps({key: digests}, indent=2)
    assert recorded is not None, f"no entry for this key; record in {RECORDED.name}:\n{entry}"
    assert digests == recorded, f"hashed outcomes moved; this tree's entry:\n{entry}"
