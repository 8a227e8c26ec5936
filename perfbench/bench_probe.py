"""Host-speed probe for drift correction of the end-to-end times.

On a shared host the speed of this machine drifts by 10-30% over
minutes, for every program alike, so ten runs of the same code spread
more than a code change moves them. Between operations the benchmark
times a fixed kernel that no lotkalaw change can touch, a mix of what
lotkalaw does (string splitting and dict counting, JSON, a numpy
inverse-CDF draw), and scales its end-to-end times by
``PROBE_REFERENCE_S / median probe time`` of the run. On a quiet
machine of the reference speed the scaled times equal the raw ones;
the raw ones are printed next to them.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# Median probe time on the machine the benchmark was defined on
# (2 vCPUs, Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4). Fixed.
PROBE_REFERENCE_S = 0.2


def probe() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    t0 = perf_counter()
    tally: dict[str, int] = {}
    for i in range(60_000):
        name = " ".join(f"Author  {i % 20_000} X".split())
        tally[name] = tally.get(name, 0) + 1
    json.loads(json.dumps([[i, str(i), [i % 7]] for i in range(15_000)]))
    u = np.random.Generator(np.random.PCG64(12345)).random(1_000_000)
    np.bincount(np.searchsorted(np.cumsum(np.full(100, 0.01)), u))
    return perf_counter() - t0
