"""Self-tests of the benchmark, one fast pass per workload.

    python3 bench/selftest.py [--seed 1]

Checks, for every workload:
- every answer holds as recorded: outcomes match their expectations, no
  timed question fails, and the untimed known-defect questions either
  succeed or fail exactly as recorded;
- two traced runs with the same seed give identical per-layer counts;
- layer self times plus numpy.linalg / numpy.fft time cover at least 90 %
  of traced question time;
and that the trace shows 5 SVDs + 1 eig per rebrick_pair question, and
that char_poly takes at most about half of a small-n pass.
Exits 1 with a list of the failed checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--fast"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300)
    path = ROOT / ".bench_work" / "runs" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for w in WORKLOADS:
        plain = run(w, seed, 0)
        expect(plain["correct"], f"{w}: every answer holds as recorded {plain['wrong']}")
        expect(plain["failed"] == 0, f"{w}: no timed question fails {plain['failures']}")
        first, second = run(w, seed, 1), run(w, seed, 1)
        expect(first["counts_repeat"] and first["counts"] == second["counts"], f"{w}: per-layer counts repeat")
        share = first["metrics"]["trace.attributed_ratio"]
        expect(share >= 0.9, f"{w}: layers + numpy cover {share:.3f} of traced question time")
        for kind in ("pair_ok", "pair_planted"):
            if kind in first["kind_counts"]:
                seen = first["kind_counts"][kind]
                expect(seen == [[5, 1]], f"{w}: rebrick_pair ({kind}) runs 5 SVDs + 1 eig, saw {seen}")
        if w == "small-n":
            m = first["metrics"]
            q_ms = 1e3 / (m["trace.base_questions_per_s"] * m["trace.overhead_ratio"])
            part = m["permutation.char_poly_ms_per_q"] / q_ms
            expect(part <= 0.6, f"{w}: char_poly takes {part:.2f} of the traced pass")
    print(f"{len(problems)} failed" if problems else "all passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
