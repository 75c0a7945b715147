"""Fixed calibration kernel used to divide out the host's changing speed.

The kernel mixes the two kinds of work the workloads do: LAPACK calls
(one complex SVD of 128x128, one real SVD of 256x256, whose
working set is like the dense workloads', and many 6x6 SVDs) and interpreter
work (regex-plus-float parsing of CSV-like cells and json.dumps of a
dict).  It imports nothing from rebrick and its inputs are fixed, so any
change in its run time is a change in the host, not in the program.
"""

from __future__ import annotations

import json
import re
import time

import numpy as np

_CELL = re.compile(r"^([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)$")


class Calib:
    """Holds the fixed inputs, so that timing `run` measures only the work."""

    def __init__(self):
        rng = np.random.default_rng(20230627)
        self.big = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.real = rng.standard_normal((256, 256))
        self.small = rng.standard_normal((160, 6, 6))
        cells = rng.standard_normal(3600)
        self.lines = [
            ",".join(format(v, ".17g") for v in cells[i : i + 30]) for i in range(0, 3600, 30)
        ]
        self.doc = {f"k{i}": {"v": float(cells[i]), "tag": [i, str(i)]} for i in range(900)}

    def run(self) -> float:
        """One pass of the kernel; returns a value so no work can be skipped."""
        acc = float(np.linalg.svd(self.big, compute_uv=False)[0])
        acc += float(np.linalg.svd(self.real, compute_uv=False)[0])
        for M in self.small:
            acc += float(np.linalg.svd(M, compute_uv=False)[-1])
        for line in self.lines:
            for cell in line.split(","):
                acc += float(_CELL.match(cell).group(1))
        acc += len(json.dumps(self.doc, sort_keys=True))
        return acc

    def time(self) -> float:
        """Wall time of one kernel pass in seconds."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
