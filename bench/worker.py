"""One workload in one fresh process: set-up time, warm-up, timed or traced passes.

Started by run.py with the BLAS thread pins already in the environment,
so numpy loads with one compute thread.  Prints one JSON record (the
run record, with raw and calibration times for audit) as its last line.

Each pass runs the workload's fixed question list once, in one closed
loop: the next question is asked only after the previous answer came
back.  The calibration kernel is timed before every pass and at segment
boundaries inside it (about every 0.25 s of work, because the host's
speed changes within a second); each segment's times are scaled by
(calib_nominal / mean(calib before, calib after)) ** calib_exponent.
The exponent is the workload's measured sensitivity to the host's speed
relative to the kernel's (bench/settings.json): small-n slows down 1.3
times as much as the kernel in log terms, dense-bases 0.75 times.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from calib import Calib  # noqa: E402
from tracing import LAYERS, Tracer, counts_per_question, summarize  # noqa: E402
from workloads import BUILDERS, CliAnswer, Outcome, classify  # noqa: E402

SETTINGS = json.loads((BENCH / "settings.json").read_text())
NOMINAL = SETTINGS["calib_nominal_s"]
SEGMENT_S = 0.25
SETUP_SNIPPET = """\
import time
t = time.perf_counter()
import rebrick, rebrick.cli
seconds = time.perf_counter() - t
import sys
sys.path.insert(0, {bench!r})
from calib import Calib
calib = Calib()
calib.run()
calib.run()
print(seconds, (calib.time() + calib.time()) / 2, rebrick.__file__)
"""


def fresh_import(src: Path, *flags: str):
    """Import rebrick in a fresh interpreter: (seconds, its calib time, stderr).

    The interpreter times the calibration kernel itself after the import,
    so the import is scaled by the speed of the process that ran it.
    """
    p = subprocess.run(
        [sys.executable, *flags, "-c", SETUP_SNIPPET.format(bench=str(BENCH))],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, calib_s, where = p.stdout.split()
    if not Path(where).resolve().is_relative_to(src):
        raise RuntimeError(f"rebrick imported from {where}, not from {src}")
    return float(seconds), float(calib_s), p.stderr


def measure_setup(k: int, src: Path) -> dict:
    """Median over k fresh interpreters of `import rebrick, rebrick.cli`, calibrated."""
    fresh_import(src)  # compiles the bytecode caches in a fresh checkout
    samples = [fresh_import(src)[:2] for _ in range(k)]
    return {
        "setup_s": statistics.median(s * NOMINAL / c for s, c in samples),
        "raw_s": [s for s, _ in samples],
        "calib_s": [c for _, c in samples],
    }


def measure_import_ms(k: int, src: Path) -> dict:
    """`python -X importtime`: cumulative rebrick + rebrick.cli time minus numpy's."""
    raw, cal = [], []
    for _ in range(k):
        _, calib_s, stderr = fresh_import(src, "-X", "importtime")
        cumulative = {}
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        ms = (cumulative["rebrick"] + cumulative.get("rebrick.cli", 0) - cumulative["numpy"]) / 1e3
        raw.append(ms)
        cal.append(ms * NOMINAL / calib_s)
    return {"cli.import_ms": statistics.median(cal), "raw_ms": raw}


class Pass:
    """One run over the question list: raw times, factors and answer statuses."""

    def __init__(self, n: int):
        self.raw = [0.0] * n
        self.scale = [1.0] * n
        self.status = [""] * n
        self.report_bytes = 0
        self.calib: list[float] = []

    def calibrated(self) -> list[float]:
        return [t * f for t, f in zip(self.raw, self.scale)]

    def total(self) -> float:
        return sum(self.calibrated())


def ask(q) -> Outcome:
    try:
        return Outcome(q.call())
    except (Exception, SystemExit) as exc:
        return Outcome(exc=exc)


def run_pass(questions, segments, calib: Calib, exponent: float, tracer: Tracer | None = None) -> Pass:
    gc.collect()
    p = Pass(len(questions))
    p.calib.append(calib.time())
    clock = time.perf_counter
    for seg in segments:
        for i in seg:
            q = questions[i]
            if tracer is not None:
                tracer.qid = q.qid
            t0 = clock()
            out = ask(q)
            t1 = clock()
            if tracer is not None:
                tracer.qid = None
            p.raw[i] = t1 - t0
            p.status[i] = classify(q, out)
            if isinstance(out.value, CliAnswer):
                p.report_bytes += len(out.value.stdout.encode())
        p.calib.append(calib.time())
        factor = (NOMINAL / ((p.calib[-2] + p.calib[-1]) / 2)) ** exponent
        for i in seg:
            p.scale[i] = factor
    return p


def make_segments(raw: list[float]) -> list[list[int]]:
    """Consecutive question groups of about SEGMENT_S seconds each."""
    segments, cur, acc = [], [], 0.0
    for i, t in enumerate(raw):
        cur.append(i)
        acc += t
        if acc >= SEGMENT_S:
            segments.append(cur)
            cur, acc = [], 0.0
    if cur:
        segments.append(cur)
    return segments


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true", help="one pass, one set-up sample")
    ap.add_argument("--spans", type=Path, default=None, help="write the first traced pass's spans here")
    args = ap.parse_args()

    root = BENCH.parent
    src = (root / "src").resolve()
    calib = Calib()
    for _ in range(3):
        calib.run()
    k = 1 if args.fast else SETTINGS["setup_interpreters"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "calib_nominal_s": NOMINAL,
              "calib_exponent": SETTINGS["calib_exponent"][args.workload]}
    record["setup"] = measure_setup(k, src)
    if args.trace:
        record["import"] = measure_import_ms(1 if args.fast else 3, src)

    import rebrick
    from rebrick import basis, cli, frames, linalg, matio, multipliers, permutation

    if not Path(rebrick.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"rebrick imported from {rebrick.__file__}, not from {src}")
    modules = dict(zip(LAYERS, (linalg, basis, permutation, frames, multipliers, matio, cli)))
    workdir = Path(".bench_work") / f"{args.workload}-{args.seed}-{args.trace}"
    ctx = SimpleNamespace(**modules, workdir=workdir)
    index = sorted(BUILDERS).index(args.workload)
    built = BUILDERS[args.workload](np.random.default_rng([args.seed, index]), ctx)
    # Inputs on which the program may fail by a recorded defect
    # (Question.known_defect) are asked once, untimed, and checked and
    # recorded apart: the timed passes hold only questions that succeed, so
    # `failed` does not move with the number of passes that fit in a run.
    probes = {f"{q.kind}#{q.qid}": classify(q, ask(q)) for q in built if q.known_defect is not None}
    questions = [q for q in built if q.known_defect is None]
    n = len(questions)

    exponent = SETTINGS["calib_exponent"][args.workload]
    warm = run_pass(questions, [list(range(n))], calib, exponent)
    # set-up objects move to the permanent generation, so a collection in a
    # timed pass scans only what the pass itself allocated
    gc.collect()
    gc.freeze()
    segments = make_segments(warm.raw)
    passes, traced, tracer = [], [], Tracer()
    t_start = time.perf_counter()
    while True:
        if args.trace and len(passes) > len(traced):
            tracer.install(modules)
            try:
                p = run_pass(questions, segments, calib, exponent, tracer)
            finally:
                tracer.uninstall()
            scale = {q.qid: f for q, f in zip(questions, p.scale)}
            summary = summarize(tracer.spans, scale, n)
            summary["_counts"] = _count_signature(tracer.spans)
            if not traced:
                summary["_kinds"] = _kind_counts(questions, tracer.spans)
                if args.spans is not None:
                    args.spans.parent.mkdir(parents=True, exist_ok=True)
                    args.spans.write_text(json.dumps(tracer.spans))
            tracer.spans.clear()
            traced.append((p, summary))
        else:
            passes.append(run_pass(questions, segments, calib, exponent))
        done = len(passes) >= 1 and (not args.trace or len(traced) >= 1)
        if done and (args.fast or time.perf_counter() - t_start >= args.seconds):
            break
    shutil.rmtree(workdir, ignore_errors=True)

    statuses = [s for p in [warm] + passes + [t for t, _ in traced] for s in p.status]
    timed = [s for p in passes for s in p.status]
    record.update(
        questions=n,
        segments=len(segments),
        passes=[{"raw_s": p.raw, "calib_s": p.calib, "calibrated_total_s": p.total()} for p in passes],
        correct="wrong" not in statuses + list(probes.values()),
        attempted=len(timed),
        failed=sum(s != "ok" for s in timed),
        failures=sorted({q.kind for q, s in zip(questions, warm.status) if s != "ok"}),
        known_defects=probes,
        wrong=sorted({f"{q.kind}: {q.state['last_failure']}" for q in built if "last_failure" in q.state}),
    )
    base_qps = n / statistics.median(p.total() for p in passes)
    if not args.trace:
        per_q = [statistics.median(p.calibrated()[i] for p in passes) for i in range(n)]
        record["metrics"] = {
            "setup_s": record["setup"]["setup_s"],
            "questions_per_s": base_qps,
            "latency_p50_ms": percentile_ms(per_q, 50),
            "latency_p90_ms": percentile_ms(per_q, 90),
            # share of all the workload's questions, known-defect ones
            # included, whose every answer in the run was right
            "ok_ratio": (sum(all(p.status[i] == "ok" for p in passes) for i in range(n))
                         + list(probes.values()).count("ok")) / len(built),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["latency_samples"] = n
    else:
        summaries = [s for _, s in traced]
        layer = {
            key: statistics.median(s[key] for s in summaries)
            for key in summaries[0]
            if not key.startswith("_")
        }
        traced_ms = statistics.median(p.total() for p, _ in traced) * 1e3 / n
        root_ms = statistics.median(s["_root_ms_per_q"] for s in summaries)
        layer.update(
            {
                "cli.report_bytes_per_q": traced[0][0].report_bytes / n,
                "cli.import_ms": record["import"]["cli.import_ms"],
                "trace.base_questions_per_s": base_qps,
                "trace.overhead_ratio": (1e3 / traced_ms) / base_qps,
                "trace.unattributed_ms_per_q": traced_ms - root_ms,
                "trace.attributed_ratio": root_ms / traced_ms,
            }
        )
        record["metrics"] = layer
        record["counts_repeat"] = all(s["_counts"] == summaries[0]["_counts"] for s in summaries)
        record["counts"] = summaries[0]["_counts"]
        record["kind_counts"] = summaries[0]["_kinds"]
        record["traced_passes"] = len(traced)
    print(json.dumps(record))
    return 0


def _count_signature(spans) -> dict:
    """Calls and per-call counts by span name: must repeat exactly from pass to pass."""
    out: dict = {}
    for name, _t0, _t1, _parent, _qid, extra in spans:
        calls, total = out.get(name, (0, 0))
        out[name] = (calls + 1, total + (extra or 0))
    return {k: list(v) for k, v in sorted(out.items())}


def _kind_counts(questions, spans) -> dict:
    """Per question kind: the set of (svd, eig) call counts seen on one question."""
    per_q = counts_per_question(spans)
    out: dict = {}
    for q in questions:
        c = per_q.get(q.qid, {})
        eig = sum(v for k, v in c.items() if k.startswith("numpy.linalg.eig"))
        pair = [c.get("numpy.linalg.svd", 0), eig]
        seen = out.setdefault(q.kind, [])
        if pair not in seen:
            seen.append(pair)
    return out


if __name__ == "__main__":
    sys.exit(main())
