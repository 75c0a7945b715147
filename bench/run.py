"""Benchmark of rebrick: one workload per call, end to end or traced per layer.

    python3 bench/run.py --workload dense-bases --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The workload runs in a fresh child
process (bench/worker.py) with OpenBLAS/OpenMP/MKL pinned to one thread,
so that on a 2-core host one core computes and the other is left to the
OS and this harness.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1
the per-layer ones.  The full run record (raw and calibration times,
failing question kinds) goes to .bench_work/runs/ for audit.

Workloads, sizes and the reasons they were chosen are in
bench/workloads.py and bench/settings.json.  `--fast` runs one pass
with one set-up sample, for bench/selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("dense-bases", "spectral", "small-n", "cli-files")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS, PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, trace: int, spans: Path | None = None) -> dict:
    """Run one workload in a fresh process group; return its run record."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.fast:
        cmd.append("--fast")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"error: workload {args.workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true", help="one pass and one set-up sample (self-tests)")
    args = ap.parse_args()

    for need in (ROOT / "src" / "rebrick" / "__init__.py", ROOT / "src" / "rebrick" / "cli.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a rebrick checkout", file=sys.stderr)
            return 2

    runs = ROOT / ".bench_work" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_worker(args, args.trace, runs / f"{stem}-spans.json" if args.trace else None)
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(record["metrics"]):
        print(f"error: metrics {sorted(record['metrics'])} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
