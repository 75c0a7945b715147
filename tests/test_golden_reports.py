"""Golden CLI reports: every command and subcommand against recorded JSON.

Each case writes seeded inputs to a temporary directory, runs the CLI in
process with --quiet and compares the report with tests/golden/<case>.json.
Keys, verdicts, exit codes, strings, integers and booleans must match
exactly; floats must match to 1e-12 relative (values below 1e-13 are
rounding noise and are compared absolutely), so the fixtures hold across
BLAS builds.  Paths are normalised to file names.

Record the fixtures again with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from rebrick import matio
from rebrick.cli import run
from support import duplicated_e1_frame, plant_eigenvalue_i, rotation, shifted_duplicate_frame

GOLDEN = Path(__file__).with_name("golden")
REL = 1e-12
ABS = 1e-13


def _sign_pattern(N: int) -> np.ndarray:
    m = np.ones(N)
    m[N // 4 : N - N // 4 + 1] = -1.0
    return m.reshape(1, -1)


def _frrebrick_inputs():
    n, p = 6, 8
    S = np.eye(p)
    S[:2, :2] = rotation(np.pi / 2)
    A = np.zeros((n, p))
    A[:, 2:] = np.eye(n)
    return A, S


# name -> builder(put, rng) returning argv; put(file name, matrix or text) -> path
CASES = {
    "check-basis-regular": lambda put, rng: [
        "check-basis", put("v.csv", rng.standard_normal((5, 5)))
    ],
    "check-basis-singular": lambda put, rng: [
        "check-basis", put("s.json", np.outer(rng.standard_normal(3), rng.standard_normal(3)))
    ],
    "check-basis-malformed": lambda put, rng: ["check-basis", put("bad.csv", "1,2\n3,1+2x\n")],
    "check-basis-bad-tol": lambda put, rng: [
        "check-basis", put("i.csv", np.eye(2)), "--tol", "-1"
    ],
    "rebrick-random-pair": lambda put, rng: [
        "rebrick",
        put("v1.csv", rng.standard_normal((4, 4))),
        put("v2.csv", rng.standard_normal((4, 4))),
        "--out",
        put("b.json", None),
    ],
    "rebrick-quarter-turn": lambda put, rng: [
        "rebrick", put("v1.csv", np.eye(2)), put("v2.csv", rotation(np.pi / 2))
    ],
    "rebrick-not-a-basis": lambda put, rng: [
        "rebrick", put("v1.csv", [[1.0, 2.0], [2.0, 4.0]]), put("v2.csv", np.eye(2))
    ],
    "repair-planted": lambda put, rng: [
        "repair",
        put("v.csv", np.eye(4) + 0.1 * rng.standard_normal((4, 4))),
        put("a.csv", plant_eigenvalue_i(rng, 4)),
        "--out",
        put("w.csv", None),
    ],
    "frame-bounds": lambda put, rng: [
        "frame", "bounds", put("f.csv", rng.standard_normal((3, 5)))
    ],
    "frame-parseval": lambda put, rng: [
        "frame", "parseval", put("f.csv", rng.standard_normal((3, 5)))
    ],
    "frame-order": lambda put, rng: [
        "frame",
        "order",
        put("f.csv", duplicated_e1_frame(4)),
        put("g.csv", shifted_duplicate_frame(4)),
    ],
    "frame-rebrick": lambda put, rng: [
        "frame",
        "rebrick",
        put("f.csv", rng.standard_normal((3, 5))),
        put("g.csv", rng.standard_normal((3, 5))),
        "--out",
        put("c.csv", None),
    ],
    "frame-frrebrick": lambda put, rng: [
        "frame",
        "frrebrick",
        put("a.csv", _frrebrick_inputs()[0]),
        put("s.csv", _frrebrick_inputs()[1]),
    ],
    "multiplier-validate": lambda put, rng: [
        "multiplier", "validate", put("m.csv", _sign_pattern(16))
    ],
    "multiplier-rebrick": lambda put, rng: [
        "multiplier",
        "rebrick",
        put("x.csv", np.eye(1, 8)),
        # 0.5 at k = 1 and its mirror N - k = 7: the operator stays real
        put("m.csv", _sign_pattern(8) * np.where(np.isin(np.arange(8), (1, 7)), 0.5, 1.0)),
    ],
    "multiplier-hilbert": lambda put, rng: ["multiplier", "hilbert", "--N", "64"],
    "multiplier-trig": lambda put, rng: ["multiplier", "trig", "--K", "5"],
    "multiplier-sweep": lambda put, rng: ["multiplier", "sweep", "16", "32", "64"],
}


def run_case(name: str, workdir: Path, capsys=None) -> str:
    """Write the inputs of `name` to workdir, run it; returns the normalised stdout."""
    workdir.mkdir(parents=True, exist_ok=True)

    def put(fname, M):
        p = workdir / fname
        if isinstance(M, str):
            p.write_text(M)
        elif M is not None:
            matio.save_matrix(p, np.asarray(M, dtype=float))
        return str(p)

    rng = np.random.default_rng(sorted(CASES).index(name))
    argv = CASES[name](put, rng) + ["--quiet"]
    if capsys is None:
        from contextlib import redirect_stdout
        from io import StringIO

        buf = StringIO()
        with redirect_stdout(buf):
            code = run(argv)
        out = buf.getvalue()
    else:
        code = run(argv)
        out = capsys.readouterr().out
    assert json.loads(out)["exit_code"] == code
    return out.replace(str(workdir) + os.sep, "")


def _same(got, want, where="report"):
    assert type(got) is type(want), f"{where}: {got!r} vs recorded {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} vs {sorted(want)}"
        for k in want:
            _same(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} vs {len(want)}"
        for k, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL, abs_tol=ABS), f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{where}: {got!r} vs recorded {want!r}"


def test_every_command_and_exit_code_is_covered():
    reports = [json.loads((GOLDEN / f"{name}.json").read_text()) for name in CASES]
    assert {r["exit_code"] for r in reports} >= {0, 1, 2}
    frame_subs = {r["command"][1] for r in reports if r["command"][0] == "frame"}
    mult_subs = {r["command"][1] for r in reports if r["command"][0] == "multiplier"}
    assert frame_subs == {"bounds", "parseval", "order", "rebrick", "frrebrick"}
    assert mult_subs == {"validate", "rebrick", "hilbert", "trig", "sweep"}
    assert {r["command"][0] for r in reports} >= {"check-basis", "rebrick", "repair"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    got = json.loads(run_case(name, tmp_path, capsys))
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    _same(got, want)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{case}.json").write_text(run_case(case, Path(tmp) / case))
    sys.exit(0)
