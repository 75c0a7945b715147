import json
import subprocess
import sys

import numpy as np
import pytest

from rebrick import matio, multipliers
from rebrick.cli import run
from support import plant_eigenvalue_i, rotation


def write(tmp_path, name, M):
    p = tmp_path / name
    matio.save_matrix(p, np.asarray(M, dtype=float))
    return str(p)


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheckBasis:
    def test_identity(self, tmp_path, capsys):
        f = write(tmp_path, "i.csv", np.eye(3))
        code, report = run_json(capsys, ["check-basis", f])
        assert code == 0
        assert report["verdicts"]["is_basis"] is True
        assert report["exit_code"] == 0

    def test_singular(self, tmp_path, capsys):
        f = write(tmp_path, "s.csv", [[1.0, 1.0], [1.0, 1.0]])
        code, report = run_json(capsys, ["check-basis", f])
        assert code == 1
        assert report["verdicts"]["is_basis"] is False

    def test_malformed_cell(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,1+2x\n")
        code, report = run_json(capsys, ["check-basis", str(p)])
        assert code == 2
        assert report["error_position"] == {"row": 2, "col": 2}

    def test_missing_file(self, tmp_path, capsys):
        code, report = run_json(capsys, ["check-basis", str(tmp_path / "nope.csv")])
        assert code == 2


class TestRebrick:
    def test_counterexample(self, tmp_path, capsys):
        v1 = write(tmp_path, "v1.csv", np.eye(2))
        v3 = write(tmp_path, "v3.csv", rotation(np.pi / 2))
        code, report = run_json(capsys, ["rebrick", v1, v3])
        assert code == 1
        eigs = [complex(re, im) for re, im in report["certificates"]["eigenvalues_A"]]
        assert min(abs(e - 1j) for e in eigs) <= 1e-10
        assert min(abs(e + 1j) for e in eigs) <= 1e-10

    def test_eighth_turn_with_out(self, tmp_path, capsys):
        v1 = write(tmp_path, "v1.csv", np.eye(2))
        v2 = write(tmp_path, "v2.csv", rotation(np.pi / 4))
        out = tmp_path / "b.json"
        code, report = run_json(capsys, ["rebrick", v1, v2, "--out", str(out)])
        assert code == 0
        B = matio.load_matrix(out)
        np.testing.assert_allclose(B, np.eye(2) + 1j * rotation(np.pi / 4), atol=1e-15)

    def test_shape_mismatch(self, tmp_path, capsys):
        v1 = write(tmp_path, "v1.csv", np.eye(2))
        v2 = write(tmp_path, "v2.csv", np.eye(3))
        code, _ = run_json(capsys, ["rebrick", v1, v2])
        assert code == 2


class TestRepair:
    def test_quarter_turn_swap(self, tmp_path, capsys):
        v = write(tmp_path, "v.csv", np.eye(2))
        a = write(tmp_path, "a.csv", rotation(np.pi / 2))
        out = tmp_path / "w.json"
        code, report = run_json(capsys, ["repair", v, a, "--out", str(out)])
        assert code == 0
        assert report["certificates"]["permutation_image"] == [2, 1]
        assert report["certificates"]["permutation_cycles"] == "(1 2)"
        W = matio.load_matrix(out)
        np.testing.assert_allclose(W, np.diag([1 - 1j, 1 + 1j]), atol=1e-12)

    def test_identity_when_no_eigenvalue_i(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        v = write(tmp_path, "v.csv", np.eye(3))
        a = write(tmp_path, "a.csv", rng.standard_normal((3, 3)) + 4 * np.eye(3))
        code, report = run_json(capsys, ["repair", v, a])
        assert code == 0
        assert report["certificates"]["permutation_image"] == [1, 2, 3]

    def test_seeded_rerun_is_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        v = write(tmp_path, "v.csv", np.eye(9))
        a = write(tmp_path, "a.csv", plant_eigenvalue_i(rng, 9))
        run(["repair", v, a, "--seed", "7", "--format", "json"])
        first = capsys.readouterr().out
        run(["repair", v, a, "--seed", "7", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestFrame:
    def test_bounds_of_redundant_rebricked_frame(self, tmp_path, capsys):
        n = 8
        F = np.hstack([np.eye(n), np.eye(n)[:, :1]])
        G = np.hstack([np.eye(n), np.eye(n)[:, 1:2]])
        p = tmp_path / "frame.json"
        matio.save_matrix(p, F + 1j * G)
        code, report = run_json(capsys, ["frame", "bounds", str(p)])
        assert code == 0
        assert report["certificates"]["c"] == pytest.approx(2.0, abs=1e-10)
        assert report["certificates"]["C"] == pytest.approx(4.0, abs=1e-10)

    def test_parseval_example(self, tmp_path, capsys):
        n = 4
        S = np.hstack([np.eye(n), np.zeros((n, 1))])
        S[0, 0] = S[0, n] = 1 / np.sqrt(2)
        f = write(tmp_path, "p.csv", S)
        code, report = run_json(capsys, ["frame", "parseval", f])
        assert code == 0
        assert report["verdicts"]["parseval"] is True

    def test_order_incompatible_pair(self, tmp_path, capsys):
        n = 4
        F = np.zeros((n, n + 1))
        F[0, 0] = F[0, 1] = 1.0
        F[1, 2] = F[2, 3] = F[3, 4] = 1.0
        G = np.zeros((n, n + 1))
        G[0, 0] = 1.0
        G[1, 1] = G[1, 2] = 1.0
        G[2, 3] = G[3, 4] = 1.0
        f = write(tmp_path, "f.csv", F)
        g = write(tmp_path, "g.csv", G)
        code, report = run_json(capsys, ["frame", "order", f, g])
        assert code == 1
        assert report["verdicts"] == {"leq": False, "geq": False, "equivalent": False}

    def test_rebrick_pair_of_frames(self, tmp_path, capsys):
        n = 4
        F = np.hstack([np.eye(n), np.eye(n)[:, :1]])
        G = np.hstack([np.eye(n), np.eye(n)[:, 1:2]])
        f = write(tmp_path, "f.csv", F)
        g = write(tmp_path, "g.csv", G)
        code, report = run_json(capsys, ["frame", "rebrick", f, g])
        assert code == 0
        assert report["certificates"]["c"] == pytest.approx(2.0, abs=1e-10)

    def test_frrebrick_example(self, tmp_path, capsys):
        n, p = 6, 8
        S = np.eye(p)
        S[:2, :2] = rotation(np.pi / 2)
        A = np.zeros((n, p))
        A[:, 2:] = np.eye(n)
        a = write(tmp_path, "a.csv", A)
        s = write(tmp_path, "s.csv", S)
        code, report = run_json(capsys, ["frame", "frrebrick", a, s])
        assert code == 0
        assert report["certificates"]["rank_id_iS"] == p - 1
        assert report["certificates"]["rank_product"] == n


class TestMultiplier:
    def test_hilbert_64(self, capsys):
        code, report = run_json(capsys, ["multiplier", "hilbert", "--N", "64"])
        assert code == 0
        assert report["certificates"]["kernel_dim"] == 31
        assert report["certificates"]["rank"] == 33

    def test_trig(self, capsys):
        code, report = run_json(capsys, ["multiplier", "trig", "--K", "5"])
        assert code == 0
        assert report["certificates"]["max_dev"] <= 1e-10

    def test_validate_sign_pattern(self, tmp_path, capsys):
        N = 16
        m = np.ones(N)
        m[4 : N - 3] = -1.0
        f = write(tmp_path, "m.csv", m.reshape(1, -1))
        code, report = run_json(capsys, ["multiplier", "validate", f])
        assert code == 0
        assert report["verdicts"]["valid"] is True

    def test_validate_hilbert_fails(self, tmp_path, capsys):
        from rebrick.multipliers import discrete_hilbert

        p = tmp_path / "m.json"
        matio.save_matrix(p, discrete_hilbert(16).reshape(1, -1))
        code, report = run_json(capsys, ["multiplier", "validate", str(p)])
        assert code == 1
        assert report["certificates"]["reasons"]

    def test_rebrick_translates(self, tmp_path, capsys):
        N = 8
        x = np.zeros(N)
        x[0] = 1.0
        xf = write(tmp_path, "x.csv", x.reshape(1, -1))
        mf = write(tmp_path, "m.csv", np.ones(N).reshape(1, -1))
        code, report = run_json(capsys, ["multiplier", "rebrick", xf, mf])
        assert code == 0
        assert report["verdicts"]["onb"] is True

    def test_sweep(self, capsys):
        code, report = run_json(capsys, ["multiplier", "sweep", "16", "32", "64"])
        assert code == 0
        rows = report["certificates"]["rows"]
        sigmas = [r["sigma_min"] for r in rows]
        assert sigmas == sorted(sigmas, reverse=True)
        assert all(r["kernel_dim"] == 0 for r in rows)
        assert "modeling-dependent" in report["certificates"]["note"]


class TestSizeCaps:
    """Sizes from the command line are checked before the library is called."""

    @pytest.fixture(autouse=True)
    def library_must_not_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("library called with an uncapped size")

        for name in ("analytic_defect", "trig_rebrick_demo", "conditioning_sweep"):
            monkeypatch.setattr(multipliers, name, refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilbert", "--N", "100000000000"],
            ["trig", "--K", "100000000"],
            ["trig", "--K", "4", "--N", "100000000000"],
            ["sweep", "16", "100000000000"],
            ["sweep"] + [str(2 * k) for k in range(2, 100)],
        ],
    )
    def test_far_above_cap_is_input_error(self, capsys, argv):
        code, report = run_json(capsys, ["multiplier"] + argv)
        assert code == 2
        assert report["exit_code"] == 2 and "exceeds the cap" in report["error"]


class TestReportContract:
    def test_quiet_prints_only_json(self, tmp_path, capsys):
        f = write(tmp_path, "i.csv", np.eye(2))
        code = run(["check-basis", f, "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)  # whole stdout is one JSON document
        assert report["schema"] == 1

    def test_text_mode_prints_tolerance_block(self, tmp_path, capsys):
        f = write(tmp_path, "i.csv", np.eye(2))
        run(["check-basis", f])
        out = capsys.readouterr().out
        assert "tolerances:" in out
        assert "verdict is_basis: True" in out

    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        f = write(tmp_path, "i.csv", np.eye(4))
        run(["check-basis", f, "--format", "json", "--seed", "3"])
        first = capsys.readouterr().out
        run(["check-basis", f, "--format", "json", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_env_tolerance_applies_and_flag_wins(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "i.csv", np.eye(2))
        monkeypatch.setenv("REBRICK_TOL", "1e-5")
        _, report = run_json(capsys, ["check-basis", f])
        assert report["tolerances"]["equality_abs"] == 1e-5
        _, report = run_json(capsys, ["check-basis", f, "--tol", "1e-7"])
        assert report["tolerances"]["equality_abs"] == 1e-7

    @pytest.mark.parametrize("flag", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("style", ["--format=json", "--format=text"])
    def test_bad_tol_flag_is_input_error(self, tmp_path, capsys, flag, style):
        f = write(tmp_path, "i.csv", np.eye(2))
        code = run(["check-basis", f, "--tol", flag, style])
        out = capsys.readouterr().out
        assert code == 2
        if style == "--format=json":
            report = json.loads(out)
            assert report["exit_code"] == 2 and "--tol" in report["error"]
        else:
            assert "exit_code: 2" in out.splitlines()

    @pytest.mark.parametrize("value", ["nan", "-1", "abc"])
    def test_bad_env_tolerance_is_input_error(self, tmp_path, capsys, monkeypatch, value):
        f = write(tmp_path, "i.csv", np.eye(2))
        monkeypatch.setenv("REBRICK_TOL", value)
        code, report = run_json(capsys, ["check-basis", f])
        assert code == 2
        assert report["exit_code"] == 2 and "REBRICK_TOL" in report["error"]

    def test_malformed_json_schema_is_input_error(self, tmp_path, capsys):
        for i, text in enumerate(('{"data": []}', '{"rows": "x", "data": [[1]]}', '{"data": 5}')):
            p = tmp_path / f"bad{i}.json"
            p.write_text(text)
            code, report = run_json(capsys, ["check-basis", str(p)])
            assert code == 2 and report["exit_code"] == 2

    def test_out_written_only_when_affirmative(self, tmp_path, capsys):
        v1 = write(tmp_path, "v1.csv", np.eye(2))
        v3 = write(tmp_path, "v3.csv", rotation(np.pi / 2))
        out = tmp_path / "b.csv"
        code, report = run_json(capsys, ["rebrick", v1, v3, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert report["certificates"]["out"] is None

    def test_console_entry_point(self, tmp_path):
        f = write(tmp_path, "i.csv", np.eye(2))
        proc = subprocess.run(
            [sys.executable, "-m", "rebrick.cli", "check-basis", f, "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdicts"]["is_basis"] is True
