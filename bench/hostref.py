"""A fixed, stdlib-only reference loop that measures how fast the host runs
Python right now.

    python3 bench/hostref.py

prints one JSON line, ``{"ref_s": <seconds>}``.  The loop accumulates
``Fraction`` values in a dict keyed by tuples, the same kind of work as
hopfc's series and algebra kernels, but it imports nothing from hopfc, so a
change to the program cannot move it.  ``run.py`` runs it in a fresh process
between samples and scales the end-to-end times by how slow it ran (see
README.md, "Reference seconds").
"""

from __future__ import annotations

import json
import time
from fractions import Fraction


def ref_seconds():
    t0 = time.perf_counter()
    for _ in range(3):
        acc = {}
        for i in range(40000):
            key = (i % 97, i % 13, "x" * (i % 3))
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7, 1 + i % 5)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(json.dumps({"ref_s": ref_seconds()}))
