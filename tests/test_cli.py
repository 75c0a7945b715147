import argparse
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rebrick import basis, cli, errors, linalg, matio, multipliers, permutation
from rebrick.cli import run
from support import (
    count_formed,
    count_svd_calls,
    count_validations,
    duplicated_e1_frame,
    plant_eigenvalue_i,
    reference_save_csv,
    reference_save_json,
    refuse_inverses,
    rotation,
    shifted_duplicate_frame,
    truncating_shift,
)


def write(tmp_path, name, M):
    p = tmp_path / name
    matio.save_matrix(p, np.asarray(M, dtype=float))
    return str(p)


def run_module(argv):
    """`python -m rebrick.cli` in a child process that imports the rebrick under test."""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    cmd = [sys.executable, "-m", "rebrick.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


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

    # 4301 digits: one beyond Python's default int-conversion limit
    @pytest.mark.parametrize(
        "name, content, position",
        [
            ("big.json", b'{"data": [[1, 1' + b"0" * 400 + b"]]}", {"row": 1, "col": 2}),
            ("long.json", b'{"data": [[' + b"1" * 4301 + b"]]}", None),
            ("bad.csv", b"1,2\n3,4\xff\n", None),
            ("bad.json", b'{"data": [[1]], "note": "\xff"}', None),
            ("deep.json", b"[" * 100_000 + b"]" * 100_000, None),
        ],
        ids=["big.json", "long.json", "bad.csv", "bad.json", "deep.json"],
    )
    def test_unparseable_file_is_a_report(self, tmp_path, capsys, name, content, position):
        p = tmp_path / name
        p.write_bytes(content)
        code = run(["check-basis", str(p), "--quiet"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["exit_code"] == 2
        assert report["error_position"] == (position or {"row": 1, "col": 1})

    def test_cell_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(matio, "MAX_CELLS", 8)
        f = write(tmp_path, "i.csv", np.eye(3))
        code, report = run_json(capsys, ["check-basis", f])
        assert code == 2 and "more than 8 cells" in report["error"]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(["regular", "rank-deficient", "near the cutoff", "non-square"]),
    is_complex=st.booleans(),
    factor=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_basis_is_the_check_basis_report(n, kind, is_complex, factor, seed):
    """rebrick.check_basis(M) gives the verdict and certificates of `check-basis` on M's file,
    bit for bit, and a non-square M the same ShapeMismatch message."""
    rng = np.random.default_rng(seed)
    rows, cols = n, n
    if kind == "non-square":
        rows, cols = (n, n + 1) if seed % 2 else (n + 1, n)

    def draw(shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if is_complex else X

    s = rng.uniform(1.0, 2.0, min(rows, cols))
    if kind == "rank-deficient":
        s[-1] = 0.0
    elif kind == "near the cutoff":  # sigma_min within a factor 2 of rank_rel * n * sigma_max
        s[-1] = factor * linalg.DEFAULT_TOL.rank_rel * n * s.max()
    U, W = (np.linalg.qr(draw((k, k)))[0] for k in (rows, cols))
    M = (U[:, : s.size] * s) @ W[:, : s.size].conj().T
    out = io.StringIO()
    with TemporaryDirectory() as tmp, redirect_stdout(out):
        matio.save_matrix(f"{tmp}/m.csv", M)
        code = run(["check-basis", f"{tmp}/m.csv", "--quiet"])
    report = json.loads(out.getvalue())
    if kind == "non-square":
        with pytest.raises(errors.ShapeMismatch) as refusal:
            basis.check_basis(M)
        assert code == 2 and report["error"] == str(refusal.value)
        return
    reg = basis.check_basis(M)
    event(f"{kind}: {'regular' if reg.regular else 'singular'}")
    certs = report["certificates"]
    assert (certs["sigma_min"], certs["sigma_max"]) == (reg.sigma_min, reg.sigma_max)
    assert report["verdicts"]["is_basis"] is reg.regular and code == (0 if reg.regular else 1)


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


class TestInternalInconsistency:
    def test_exit_3_with_report(self, tmp_path, capsys, monkeypatch):
        def disagree(*args, **kwargs):
            raise errors.InternalConsistencyError("routes disagree")

        monkeypatch.setattr(basis, "rebrick_pair", disagree)
        v1 = write(tmp_path, "v1.csv", np.eye(2))
        v2 = write(tmp_path, "v2.csv", rotation(np.pi / 4))
        code = run(["rebrick", v1, v2, "--quiet"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["exit_code"] == 3 and report["error"] == "routes disagree"

    @pytest.mark.parametrize(
        "V2, tol",
        [(np.eye(2), "1e300"), (rotation(np.pi / 2 - 1e-6), "0.9")],
        ids=["identity", "near-quarter-turn"],
    )
    def test_large_tol_is_a_warning(self, tmp_path, capsys, V2, tol):
        # --tol moves eig_abs alone, so the eigenvalue route says no where sigma(B)
        # says yes; sigma_min(B) <= min|eig - i| (sqrt(2), 1e-6) holds, so no exit 3
        v1 = write(tmp_path, "v1.csv", np.eye(2))
        v2 = write(tmp_path, "v2.csv", V2)
        code = run(["rebrick", v1, v2, "--tol", tol, "--quiet"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["certificates"]["warning"] is True

    def test_planted_pair_at_n2_is_negative_verdict(self, tmp_path, capsys):
        # A@A = -Id exactly up to rounding: both routes must say "singular"
        v1 = write(tmp_path, "v1.csv", np.eye(2))
        a = write(tmp_path, "a.csv", plant_eigenvalue_i(np.random.default_rng(30), 2))
        code = run(["rebrick", v1, a, "--quiet"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["exit_code"] == 1 and report["verdicts"] == {"rebrickable": False}


class TestErrorKinds:
    KINDS = (errors.InputError, errors.NegativeVerdict, errors.InternalConsistencyError)

    @staticmethod
    def concrete_errors():
        return [
            cls
            for cls in vars(errors).values()
            if isinstance(cls, type)
            and issubclass(cls, errors.RebrickError)
            and cls not in (errors.RebrickError, errors.InputError, errors.NegativeVerdict)
        ]

    def test_every_error_has_exactly_one_kind(self):
        classes = self.concrete_errors()
        # one class per refused hypothesis, plus InternalConsistencyError, which is its own kind
        assert len(classes) == 11
        for cls in classes:
            assert sum(issubclass(cls, kind) for kind in self.KINDS) == 1, cls.__name__

    def test_exit_code_is_the_kind(self, tmp_path, capsys, monkeypatch):
        v1 = write(tmp_path, "v1.csv", np.eye(2))
        for cls in self.concrete_errors():

            def fail(*args, cls=cls, **kwargs):
                raise cls("planted")

            monkeypatch.setattr(basis, "rebrick_pair", fail)
            code = run(["rebrick", v1, v1, "--quiet"])
            report = json.loads(capsys.readouterr().out)
            want = (
                2 if issubclass(cls, errors.InputError)
                else 1 if issubclass(cls, errors.NegativeVerdict)
                else 3
            )
            assert code == report["exit_code"] == want, cls.__name__
            assert report["error"] == "planted"


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

    def test_solves_instead_of_inverting(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(3)
        v = write(tmp_path, "v.csv", np.eye(5) + 0.1 * rng.standard_normal((5, 5)))
        a = write(tmp_path, "a.csv", plant_eigenvalue_i(rng, 5))
        refuse_inverses(monkeypatch)
        code, report = run_json(capsys, ["repair", v, a])
        assert code == 0 and report["verdicts"]["repaired"] is True

    def test_the_search_alone_decides(self, tmp_path, capsys):
        # W = V (Id + iAt P) inherits the spread of sigma(V) = (1, 1e-11): the identity trial has
        # sigma_min(W) 1.4e-15, below W's cutoff, although sigma_min(Id + iAt) = 1e-4.  The search
        # judges W itself, so the W it writes is a basis with no second verdict
        v, a, out = tmp_path / "v.csv", tmp_path / "a.csv", tmp_path / "w.csv"
        v.write_text("1,0\n0,1e-11\n")
        a.write_text("1e-4,-1e11\n1e-11,1e-4\n")
        code, report = run_json(capsys, ["repair", str(v), str(a), "--out", str(out)])
        certs = report["certificates"]
        assert code == 0 and report["verdicts"] == {"repaired": True}
        assert certs["trials"] == 4 and certs["permutation_image"] == [2, 1]
        assert certs["sigma_min_after"] == pytest.approx(1.41421356e-11)
        V, A = matio.load_matrix(v), matio.load_matrix(a)
        W = permutation.rebrick_with_permutation(V, A, (1, 0))
        assert matio.load_matrix(out).tobytes() == W.tobytes()
        code, report = run_json(capsys, ["check-basis", str(out)])
        assert code == 0 and report["certificates"]["sigma_min"] == certs["sigma_min_after"]
        # the identity, which the search passed over, is singular at W's cutoff
        with pytest.raises(errors.NotRebrickable, match=r"^permutation \(0, 1\) leaves"):
            permutation.rebrick_with_permutation(V, A, (0, 1))

    def test_out_is_the_library_matrix(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        V = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
        v, a = write(tmp_path, "v.csv", V), write(tmp_path, "a.csv", plant_eigenvalue_i(rng, 6))
        out, lib = tmp_path / "w.csv", tmp_path / "lib.csv"
        code, report = run_json(capsys, ["repair", v, a, "--seed", "3", "--out", str(out)])
        assert code == 0 and report["certificates"]["trials"] >= 2
        W, _ = permutation.repair(matio.load_matrix(v), matio.load_matrix(a), seed=3)
        matio.save_matrix(lib, W)
        assert out.read_bytes() == lib.read_bytes()

    def test_negative_seed_at_nine(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        v = write(tmp_path, "v.csv", np.eye(9) + 0.1 * rng.standard_normal((9, 9)))
        a = write(tmp_path, "a.csv", plant_eigenvalue_i(rng, 9))
        code, report = run_json(capsys, ["repair", v, a, "--seed", "-1"])
        assert code == report["exit_code"] == 0
        assert report["verdicts"]["repaired"] is True
        assert report["command"][-2:] == ["--seed", "-1"]


class TestRealOperands:
    """The commands whose theory needs real operands refuse a complex file by argument name."""

    INPUTS = {
        "rebrick": (("V1", np.eye(2)), ("V2", rotation(np.pi / 4))),
        "repair": (("V", np.eye(2)), ("A", rotation(np.pi / 2))),
        "frame rebrick": (("F", duplicated_e1_frame(2)), ("G", duplicated_e1_frame(2))),
        "frame frrebrick": (("A", truncating_shift(2, 3)), ("S", np.eye(3))),
    }

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("command", sorted(INPUTS))
    def test_complex_file_is_refused_by_name(self, tmp_path, capsys, command, which):
        files = []
        for k, (_, M) in enumerate(self.INPUTS[command]):
            Z = M.astype(complex)
            Z[0, 0] += 1j
            files.append(str(tmp_path / f"m{k}.csv"))
            matio.save_matrix(files[-1], Z if k == which else M)
        code, report = run_json(capsys, command.split() + files)
        name = self.INPUTS[command][which][0]
        assert code == report["exit_code"] == 2
        assert report["error"] == f"{name}: entries must be real"

    def test_check_basis_takes_a_complex_file(self, tmp_path, capsys):
        f = tmp_path / "c.csv"
        f.write_text("1+1i,0\n0,1\n")
        code, report = run_json(capsys, ["check-basis", str(f)])
        assert code == report["exit_code"] == 0 and report["verdicts"]["is_basis"] is True

    def test_repair_of_a_singular_v_is_not_a_basis(self, tmp_path, capsys):
        v = write(tmp_path, "v.csv", np.ones((2, 2)))
        a = write(tmp_path, "a.csv", rotation(np.pi / 2))
        code, report = run_json(capsys, ["repair", v, a])
        assert code == report["exit_code"] == 2
        assert report["error"] == "columns of V do not form a basis"


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

    def test_rebrick_quarter_turn_is_negative_verdict(self, tmp_path, capsys):
        f = write(tmp_path, "f.csv", np.eye(2))
        g = write(tmp_path, "g.csv", rotation(np.pi / 2))
        code, report = run_json(capsys, ["frame", "rebrick", f, g])
        assert code == 1 and report["exit_code"] == 1
        assert report["verdicts"] == {"rebrickable": False}
        assert "error" not in report

    def test_rebrick_non_spanning_input_is_input_error(self, tmp_path, capsys):
        f = write(tmp_path, "f.csv", [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        g = write(tmp_path, "g.csv", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        code, report = run_json(capsys, ["frame", "rebrick", f, g])
        assert code == 2 and report["exit_code"] == 2
        assert "does not span" in report["error"]

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

    def test_frrebrick_near_the_cutoff_is_a_verdict(self, tmp_path, capsys):
        # S = quarter turn + Id, and ker(A) = span(e_{p-1}, e_p) tilted by phi
        # into the first plane, which fills the defect of Id + iS by about phi:
        # the cutoff falls inside the range of phi, and each input gets a verdict
        rng = np.random.default_rng(3)
        codes = set()
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = n + 2
            S = np.eye(p)
            S[:2, :2] = rotation(np.pi / 2)
            phi = 10.0 ** rng.uniform(-16, -10)
            A = np.zeros((n, p))
            A[:2, :2] = np.cos(phi) * np.eye(2)
            A[:2, p - 2 :] = -np.sin(phi) * np.eye(2)
            A[2:, 2 : p - 2] = np.eye(n - 2)
            a, s = write(tmp_path, "a.csv", A), write(tmp_path, "s.csv", S)
            code, report = run_json(capsys, ["frame", "frrebrick", a, s])
            assert code in (0, 1), report
            codes.add(code)
        assert codes == {0, 1}


class TestMultiplier:
    def test_hilbert_64(self, capsys):
        code, report = run_json(capsys, ["multiplier", "hilbert", "--N", "64"])
        assert code == 0
        assert report["certificates"]["kernel_dim"] == 31
        assert report["certificates"]["rank"] == 33

    def test_hilbert_verdict_is_read_off_the_kernel(self, capsys):
        # at N = 2 the symbol of H is 0 at DC and at Nyquist, so Id + iH = Id: no defect
        code, report = run_json(capsys, ["multiplier", "hilbert", "--N", "2"])
        assert (code, report["verdicts"]["analytic_defect"]) == (1, False)
        assert report["certificates"] == {"N": 2, "rank": 2, "kernel_dim": 0}
        for N in range(4, 65, 2):
            code, report = run_json(capsys, ["multiplier", "hilbert", "--N", str(N)])
            assert (code, report["verdicts"]["analytic_defect"]) == (0, True)
            assert report["certificates"]["kernel_dim"] == N // 2 - 1

    def test_trig(self, capsys):
        code, report = run_json(capsys, ["multiplier", "trig", "--K", "5"])
        assert code == 0
        assert report["certificates"]["max_dev"] <= 1e-10

    def test_trig_tol_at_the_deviation(self, capsys):
        # a deviation exactly at --tol matches, one ulp above it does not
        dev = multipliers.trig_rebrick_demo(5).max_dev
        for tol, want in ((dev, 0), (float(np.nextafter(dev, 0.0)), 1)):
            code, report = run_json(capsys, ["multiplier", "trig", "--K", "5", "--tol", repr(tol)])
            assert code == want and report["certificates"]["max_dev"] == dev

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

    def test_rebrick_reads_a_tight_tol_as_given(self, tmp_path, capsys):
        # |X_0| is 1/2 + 5e-11, the other |X_k| are 1/2: a floor of 1e-10 would pass it, exit 0
        xf = write(tmp_path, "x.csv", np.array([[1.000000000025, 2.5e-11, 2.5e-11, 2.5e-11]]))
        mf = write(tmp_path, "m.csv", np.ones((1, 4)))
        code, report = run_json(capsys, ["multiplier", "rebrick", xf, mf, "--tol", "1e-12"])
        assert code == report["exit_code"] == 2
        assert report["tolerances"]["equality_abs"] == 1e-12
        assert report["error"].startswith("translates of the generator are not orthonormal")

    def test_rebrick_above_cell_cap_without_out(self, tmp_path, capsys):
        # without --out no N x N array is built, so N^2 > MAX_CELLS still gets a verdict
        N = 1026
        x = write(tmp_path, "x.csv", np.eye(1, N))
        m = write(tmp_path, "m.csv", _sign_pattern(N))
        code, report = run_json(capsys, ["multiplier", "rebrick", x, m])
        assert code == report["exit_code"] == 0
        assert report["verdicts"]["onb"] is True
        assert report["certificates"]["out"] is None

    @pytest.mark.parametrize(
        "symbol, code", [("0,0-1i,0,0+1i", 1), ("0+1i,0+1i,0+1i,0+1i", 2)]
    )
    def test_rebrick_needs_a_real_operator(self, tmp_path, capsys, symbol, code):
        # the Hilbert symbol is complex but its operator is real: a negative verdict
        xf, mf = tmp_path / "x.csv", tmp_path / "m.csv"
        xf.write_text("1,0,0,0\n")
        mf.write_text(symbol + "\n")
        got, report = run_json(capsys, ["multiplier", "rebrick", str(xf), str(mf)])
        assert got == report["exit_code"] == code
        if code == 2:
            assert report["error"].startswith("multiplier: ")

    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_rebrick_out_is_the_reference_writers_bytes(self, tmp_path, capsys, ext):
        # the translate matrix is Toeplitz and written from its diagonals; the bytes are
        # those of the per-cell writers, for a valid symbol (exit 0) and an invalid one (exit 1)
        rng = np.random.default_rng(26)
        out, expected = tmp_path / f"t.{ext}", tmp_path / f"ref.{ext}"
        reference = {"csv": reference_save_csv, "json": reference_save_json}[ext]
        for N in range(2, 65):
            theta = 2 * np.pi * rng.random(N)
            theta = (theta - theta[-np.arange(N) % N]) / 2  # odd phases: a real generator
            x = np.fft.ifft(np.exp(1j * theta) / np.sqrt(N), norm="ortho").real
            even = rng.standard_normal(N)
            for m, code in ((_sign_pattern(N), 0), ((even + even[-np.arange(N) % N])[None], 1)):
                xf, mf = write(tmp_path, "x.csv", x[None]), write(tmp_path, "m.csv", m)
                assert run(["multiplier", "rebrick", xf, mf, "--out", str(out), "--quiet"]) == code
                cols, _ = multipliers.rebrick_translates(
                    matio.load_matrix(xf)[0], matio.load_matrix(mf)[0]
                )
                reference(expected, np.array(cols))
                assert out.read_bytes() == expected.read_bytes(), (N, code)
        capsys.readouterr()

    def test_sweep(self, capsys):
        code, report = run_json(capsys, ["multiplier", "sweep", "16", "32", "64"])
        assert code == 0
        rows = report["certificates"]["rows"]
        sigmas = [r["sigma_min"] for r in rows]
        assert sigmas == sorted(sigmas, reverse=True)
        assert all(r["kernel_dim"] == 0 for r in rows)
        assert "modeling-dependent" in report["certificates"]["note"]


def _sign_pattern(N: int) -> np.ndarray:
    m = np.ones((1, N))
    m[0, N // 4 : N - N // 4 + 1] = -1.0
    return m


def _frrebrick_example():
    S = np.eye(8)
    S[:2, :2] = rotation(np.pi / 2)
    return [truncating_shift(6, 8), S]


# command -> inputs; every input is scaled alone and all of them together
_SCALE_CASES = {
    "check-basis": lambda rng: [rng.standard_normal((3, 3))],
    "rebrick": lambda rng: [rng.standard_normal((3, 3)), rng.standard_normal((3, 3))],
    "repair": lambda rng: [
        np.eye(3) + 0.1 * rng.standard_normal((3, 3)), plant_eigenvalue_i(rng, 3)
    ],
    "frame bounds": lambda rng: [rng.standard_normal((3, 5))],
    "frame parseval": lambda rng: [rng.standard_normal((3, 5))],
    "frame order": lambda rng: [duplicated_e1_frame(4), shifted_duplicate_frame(4)],
    "frame rebrick": lambda rng: [rng.standard_normal((3, 5)), rng.standard_normal((3, 5))],
    "frame frrebrick": lambda rng: _frrebrick_example(),
    "multiplier validate": lambda rng: [_sign_pattern(16)],
    "multiplier rebrick": lambda rng: [np.eye(1, 8), _sign_pattern(8)],
}


class TestExtremeScale:
    """Entries scaled far from 1 always end in a documented exit code and a report."""

    @staticmethod
    def run_quiet(capsys, argv):
        code = run(argv + ["--quiet"])
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2, 3)
        assert report["exit_code"] == code
        return code, report

    def scale_every_input(self, tmp_path, capsys, command, scale):
        mats = _SCALE_CASES[command](np.random.default_rng(20))
        for scaled in [{k} for k in range(len(mats))] + [set(range(len(mats)))]:
            files = [
                write(tmp_path, f"m{k}.csv", M * (scale if k in scaled else 1.0))
                for k, M in enumerate(mats)
            ]
            self.run_quiet(capsys, command.split() + files)

    @pytest.mark.parametrize("scale", [1e-170, 1e170, 1e300])
    @pytest.mark.parametrize("command", sorted(_SCALE_CASES))
    def test_every_file_command(self, tmp_path, capsys, command, scale):
        self.scale_every_input(tmp_path, capsys, command, scale)

    @pytest.mark.parametrize("scale", [1e-170, 1e170, 1e300])
    @pytest.mark.parametrize("command", sorted(_SCALE_CASES))
    def test_lapack_sees_only_finite_arrays(self, tmp_path, capsys, monkeypatch, command, scale):
        # LAPACK reports a non-finite argument on fd 2, which --quiet cannot silence
        nonfinite = []
        for name in ("svd", "eigvals", "eigh", "solve"):
            def finite_only(M, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                if not np.all(np.isfinite(M)):
                    nonfinite.append(_name)
                return _fn(M, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, finite_only)
        self.scale_every_input(tmp_path, capsys, command, scale)
        assert nonfinite == []

    @pytest.mark.parametrize(
        "command, product", [("repair", "A @ V"), ("frame frrebrick", "A @ (Id + iS)")]
    )
    def test_overflowing_product_is_named(self, tmp_path, capsys, command, product):
        mats = _SCALE_CASES[command](np.random.default_rng(20))
        files = [write(tmp_path, f"m{k}.csv", 1e170 * M) for k, M in enumerate(mats)]
        code, report = self.run_quiet(capsys, command.split() + files)
        assert code == 2 and report["error"].startswith(f"{product}: entries must be finite")

    def test_overflowing_conjugated_operator_is_refused(self, tmp_path, capsys, monkeypatch):
        # V is regular at the cutoff and A @ V is finite; inv(V) @ A @ V is not, but no solve runs
        # before the search, and Weyl refuses every W_P at the identity trial, before any shuffle
        monkeypatch.setattr(permutation, "_TRIAL_CAP", 1)
        v = write(tmp_path, "v.csv", np.diag([1.0, 1e-12]))
        a = write(tmp_path, "a.csv", [[0.0, 0.0], [1e300, 0.0]])
        code, report = self.run_quiet(capsys, ["repair", v, a])
        assert code == 1 and report["error"].startswith("no permutation can repair A: ")

    def test_repair_checks_its_product_before_the_search(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the search ran before A @ V was checked")

        monkeypatch.setattr(permutation, "_search", unreachable)
        mats = _SCALE_CASES["repair"](np.random.default_rng(20))
        files = [write(tmp_path, f"m{k}.csv", 1e170 * M) for k, M in enumerate(mats)]
        code, report = self.run_quiet(capsys, ["repair"] + files)
        assert code == 2 and report["error"].startswith("A @ V: entries must be finite")

    @pytest.mark.parametrize("scale", [1e-170, 1e170, 1e300])
    @pytest.mark.parametrize(
        "argv", [["hilbert", "--N", "64"], ["trig", "--K", "5"], ["sweep", "16", "32"]]
    )
    def test_every_fileless_command(self, capsys, argv, scale):
        # these read no matrix, so the scale goes into the tolerance; only trig reads one,
        # and hilbert and sweep refuse the flag
        code, _ = self.run_quiet(capsys, ["multiplier"] + argv + ["--tol", repr(scale)])
        assert (code == 2) == (argv[0] != "trig")

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    @pytest.mark.parametrize("sub", ["bounds", "rebrick"])
    def test_frame_bounds_out_of_range_is_input_error(self, tmp_path, capsys, sub, scale):
        rng = np.random.default_rng(21)
        files = [write(tmp_path, f"{k}.csv", scale * rng.standard_normal((3, 5))) for k in "fg"]
        code, report = self.run_quiet(capsys, ["frame", sub] + files[: 1 if sub == "bounds" else 2])
        assert code == 2 and "float64 range" in report["error"]

    @pytest.mark.parametrize(
        "argv, mats",
        [
            (["check-basis"], [1.7e308 * np.array([[1.0, 1.0], [1.0, -1.0]])]),
            (["rebrick"], [1.5e308 * np.eye(2)] * 2),
            (["frame", "order"], [1.7e308 * np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])] * 2),
        ],
    )
    def test_singular_value_beyond_float64_is_input_error(self, tmp_path, capsys, argv, mats):
        # finite entries whose sigma_max is inf (or nan from B = V1 + i*V2): no rank is judged
        files = [write(tmp_path, f"m{k}.csv", M) for k, M in enumerate(mats)]
        code, report = self.run_quiet(capsys, argv + files)
        assert code == 2 and report["verdicts"] == {}
        assert report["error"].endswith("is beyond the float64 range")

    def test_rebrick_pair_out_of_range_gets_a_verdict(self, tmp_path, capsys):
        # the verdict squares no norm, so ||V2 @ inv(V1)||^2 may leave the float64 range
        rng = np.random.default_rng(22)
        v1 = write(tmp_path, "v1.csv", rng.standard_normal((3, 3)))
        V2 = rng.standard_normal((3, 3))
        for scale in (1e170, 1e300):
            v2 = write(tmp_path, "v2.csv", scale * V2)
            code, report = self.run_quiet(capsys, ["rebrick", v1, v2])
            certs = report["certificates"]
            assert code in (0, 1) and report["verdicts"]["rebrickable"] == (code == 0)
            numbers = [certs[k] for k in ("sigma_min_B", "min_dist_to_i", "condition_number")]
            assert np.all(np.isfinite(numbers + sum(certs["eigenvalues_A"], [])))


class TestSizeCaps:
    """Sizes from the command line are checked before the library is called."""

    @pytest.fixture(autouse=True)
    def library_must_not_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("library called with an uncapped size")

        for name in (
            "analytic_defect", "trig_rebrick_demo", "conditioning_sweep", "rebrick_translates"
        ):
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

    def test_translate_matrix_above_cell_cap_is_input_error(self, tmp_path, capsys):
        # a unit generator and a valid symbol, but --out would write N^2 > MAX_CELLS cells
        N = 1026
        x = write(tmp_path, "x.csv", np.eye(1, N))
        m = write(tmp_path, "m.csv", _sign_pattern(N))
        out = tmp_path / "t.csv"
        code, report = run_json(capsys, ["multiplier", "rebrick", x, m, "--out", str(out)])
        assert code == report["exit_code"] == 2
        assert not out.exists()
        cap = matio.MAX_CELLS
        assert report["error"] == f"translate matrix cells N*N={N * N} exceeds the cap {cap}"

    @pytest.mark.parametrize("m", [1024, 1025, 2**16])
    def test_wide_frame_order_is_a_verdict_in_linear_memory(self, tmp_path, capsys, m):
        # decided on 1 x m row-space bases: no m x m Vh, whose 1025 x 1025 case alone is 8.02 MiB
        f = write(tmp_path, "f.csv", np.ones((1, m)))
        tracemalloc.start()
        try:
            code, report = run_json(capsys, ["frame", "order", f, f])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == report["exit_code"] == 0
        assert report["verdicts"] == {"leq": True, "geq": True, "equivalent": True}
        assert report["certificates"] == {"ker_dim_F": m - 1, "ker_dim_G": m - 1}
        assert peak < 8 * 2**20


class TestReportContract:
    def test_quiet_prints_only_json(self, tmp_path, capsys):
        f = write(tmp_path, "i.csv", np.eye(2))
        code = run(["check-basis", f, "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)  # whole stdout is one JSON document
        assert report["schema"] == 3

    def test_text_mode_prints_tolerance_block(self, tmp_path, capsys):
        f = write(tmp_path, "i.csv", np.eye(2))
        run(["check-basis", f])
        out = capsys.readouterr().out
        assert "tolerances:" in out
        assert "verdict is_basis: True" in out

    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        f = write(tmp_path, "i.csv", np.eye(4))
        run(["check-basis", f, "--format", "json"])
        first = capsys.readouterr().out
        run(["check-basis", f, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_tol_flag_applies(self, tmp_path, capsys):
        f = write(tmp_path, "i.csv", np.eye(2))
        _, report = run_json(capsys, ["frame", "parseval", f, "--tol", "1e-7"])
        assert report["tolerances"]["equality_abs"] == report["tolerances"]["eig_abs"] == 1e-7

    @pytest.mark.parametrize("flag", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("style", ["--format=json", "--format=text"])
    def test_bad_tol_flag_is_input_error(self, tmp_path, capsys, flag, style):
        # parsed as a float, then refused by Tolerance: not a usage error
        f = write(tmp_path, "i.csv", np.eye(2))
        code = run(["frame", "parseval", f, "--tol", flag, style])
        out = capsys.readouterr().out
        assert code == 2
        if style == "--format=json":
            report = json.loads(out)
            assert report["exit_code"] == 2 and report["error"].startswith("--tol=")
        else:
            lines = out.splitlines()
            assert "exit_code: 2" in lines
            assert any(line.startswith("error: --tol=") for line in lines)

    @pytest.mark.parametrize("value", ["nan", "-1", "abc"])
    def test_env_tolerance_is_ignored(self, tmp_path, capsys, monkeypatch, value):
        # the command line is the only way to set a tolerance, so `command` replays a report
        f = write(tmp_path, "i.csv", np.eye(2))
        monkeypatch.setenv("REBRICK_TOL", value)
        code, report = run_json(capsys, ["frame", "parseval", f])
        assert code == report["exit_code"] == 0
        assert report["tolerances"] == dataclasses.asdict(linalg.Tolerance())

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

    @pytest.mark.parametrize(
        "value, rendered",
        [
            (np.float64(np.inf), '"inf"'),
            (np.float64(-np.inf), '"-inf"'),
            (np.float64(np.nan), '"nan"'),
            (np.float32(np.inf), '"inf"'),
            (np.float32(-np.inf), '"-inf"'),
            (np.float32(np.nan), '"nan"'),
            (np.float32(0.1), "0.10000000149011612"),
            (-0.0, "-0.0"),
            (complex(np.inf, np.nan), '["inf", "nan"]'),
            (np.complex128(complex(-np.inf, -0.0)), '["-inf", -0.0]'),
            (np.complex64(complex(1.5, np.inf)), '[1.5, "inf"]'),
            (np.bool_(True), "true"),
            (np.int64(-7), "-7"),
            (((1, np.float64(2.5)), (np.bool_(False), (np.nan,))), '[[1, 2.5], [false, ["nan"]]]'),
            ({"k": (np.int32(3), None, "s")}, '{"k": [3, null, "s"]}'),
            (
                np.array([[1 + 2j, complex(np.inf, 0)], [complex(-0.0, -1), complex(0, np.nan)]]),
                '[[[1.0, 2.0], ["inf", 0.0]], [[-0.0, -1.0], [0.0, "nan"]]]',
            ),
        ],
    )
    def test_report_values_render_to_fixed_json(self, value, rendered):
        assert json.dumps(cli._jsonable(value)) == rendered

    def test_console_entry_point(self, tmp_path):
        f = write(tmp_path, "i.csv", np.eye(2))
        proc = run_module(["check-basis", f, "--quiet"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdicts"]["is_basis"] is True


class TestUsageErrors:
    """A command line that matches no declared command is exit 2 with a report."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["frame", "order", "F"],
            ["multiplier", "validate"],
            ["frame", "bounds", "F", "F"],
            ["multiplier", "hilbert"],
            ["multiplier", "trig", "--N", "64"],
            ["multiplier", "hilbert", "--N", "1.5"],
            ["multiplier", "sweep", "16", "x"],
            ["frame", "parseval", "F", "--tol", "abc"],
            ["check-basis", "F", "--N", "4"],
            ["check-basis"],
            ["frame"],
            ["frame", "kernel", "F"],
            ["bogus"],
            [],
        ],
    )
    @pytest.mark.parametrize("style", ["--quiet", "--format=text"])
    def test_exit_2_with_report(self, tmp_path, capsys, argv, style):
        f = write(tmp_path, "f.csv", np.eye(2))
        argv = [f if a == "F" else a for a in argv] + [style]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: rebrick")
        if style == "--quiet":
            report = json.loads(captured.out)
            assert report["exit_code"] == 2
            assert report["command"] == argv  # as given, not as parsed
            assert report["error"].startswith("rebrick")
            assert report["verdicts"] == {} and report["inputs"] == {}
        else:
            lines = captured.out.splitlines()
            assert lines[0] == f"command: {' '.join(argv)}"
            assert lines[-1] == "exit_code: 2"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-basis", "F"],
            ["frame", "bounds", "F"],
            ["frame", "order", "F", "F"],
            ["multiplier", "hilbert", "--N", "64"],
        ],
    )
    def test_out_only_where_a_matrix_is_written(self, tmp_path, capsys, argv):
        f = write(tmp_path, "f.csv", np.eye(2))
        out = tmp_path / "x.csv"
        argv = [f if a == "F" else a for a in argv] + ["--out", str(out), "--quiet"]
        code = run(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == report["exit_code"] == 2
        assert "unrecognized arguments: --out" in report["error"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "style, as_json",
        [
            (["--format", "json"], True),
            (["--form=json"], True),
            (["--quiet", "--format"], True),
            (["--out", "--quiet"], True),
            (["--format", "xml"], False),
            ([], False),
        ],
    )
    def test_style_read_from_unparsed_argv(self, capsys, style, as_json):
        assert run(["frame", "order"] + style) == 2
        out = capsys.readouterr().out
        if as_json:
            assert json.loads(out)["exit_code"] == 2
        else:
            assert out.splitlines()[-1] == "exit_code: 2"

    def test_echo_in_declared_order(self, capsys):
        argv = ["multiplier", "trig", "--tol", "1e-9", "--K", "5", "--N", "64"]
        _, report = run_json(capsys, argv)
        want = ["multiplier", "trig", "--N", "64", "--K", "5", "--tol", "1e-09"]
        assert report["command"] == want

    def test_echo_built_before_tolerance_is_resolved(self, tmp_path, capsys):
        f = write(tmp_path, "i.csv", np.eye(2))
        code, report = run_json(capsys, ["frame", "parseval", f, "--tol", "-1"])
        assert code == 2 and report["error"].startswith("--tol=")
        assert report["command"] == ["frame", "parseval", f, "--tol", "-1.0"]

    def test_parser_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        def refuse():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", refuse)
        f = write(tmp_path, "i.csv", np.eye(2))
        assert run(["check-basis", f, "--quiet"]) == 0
        assert run(["multiplier", "hilbert", "--quiet"]) == 2

    def test_console_script_usage_error(self, tmp_path):
        f = write(tmp_path, "s.csv", np.ones((2, 2)))
        proc = run_module(["frame", "order", f, "--quiet"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["exit_code"] == 2


# every leaf command and the number of positionals it declares
_LEAVES = {command: len(make(np.random.default_rng(0))) for command, make in _SCALE_CASES.items()}
_LEAVES.update({"multiplier hilbert": 0, "multiplier trig": 0, "multiplier sweep": 3})


def _near_sign_pattern(N):
    # one value 1e-6 off +1 at k = 0: real and even, but not in {-1, +1}
    m = _sign_pattern(N)
    m[0, 0] += 1e-6
    return m


# the leaves whose answer reads eig_abs or equality_abs, the two values --tol sets:
# command -> (input files, a --tol value, where, key, the answer under that --tol);
# without the flag the answer is the opposite
_TOL_MOVES = {
    "rebrick": ([np.eye(2), np.eye(2)], "1e300", "certificates", "warning", True),
    "repair": ([np.eye(2), rotation(np.pi / 2)], "1e300", "certificates", "degenerate", True),
    # a frame 1e-6 off Parseval, and two kernels 1e-6 apart
    "frame parseval": ([np.eye(2, 3) + 1e-6], "1e-3", "verdicts", "parseval", True),
    "frame order": ([[[1.0, 1.0]], [[1.0, 1 + 2e-6]]], "1e-3", "verdicts", "leq", True),
    "multiplier validate": ([_near_sign_pattern(16)], "1e-3", "verdicts", "valid", True),
    "multiplier rebrick": ([np.eye(1, 8), _near_sign_pattern(8)], "1e-3", "verdicts", "onb", True),
    "multiplier trig": ([], "1e-20", "verdicts", "matches_exponentials", False),
}
# arguments that make each fileless leaf a valid command line
_FILELESS = {
    "multiplier hilbert": ["--N", "64"],
    "multiplier trig": ["--K", "5"],
    "multiplier sweep": ["16", "32"],
}


def _leaf_parsers():
    """Each leaf command of the parser, with its own parser."""
    leaves = {}

    def walk(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            leaves[" ".join(path)] = parser
        for action in subs:
            for name, sub in action.choices.items():
                walk(sub, path + [name])

    walk(cli._PARSER, [])
    return leaves


def _leaf_options():
    """Each leaf command of the parser and the option strings it declares."""
    return {
        command: {o for a in parser._actions for o in a.option_strings}
        for command, parser in _leaf_parsers().items()
    }


def _leaf_positionals():
    """Each leaf command of the parser and the positionals it declares, in order."""
    return {
        command: [a for a in parser._actions if not a.option_strings]
        for command, parser in _leaf_parsers().items()
    }


def _costs():
    """Each leaf command on a small fixed input: (inputs, the names passed to linalg.as_matrix,
    the names passed to linalg.formed, np.linalg.svd calls, exit code).  A matrix input is
    written to a file; a fileless leaf takes its _FILELESS arguments."""
    rng = np.random.default_rng(19)
    F, G = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
    quarter_turn = [np.eye(2), rotation(np.pi / 2)]
    return {
        "check-basis": ([np.eye(2)], ["matrix"], [], 1, 0),
        "rebrick": ([np.eye(2), rotation(np.pi / 4)], ["V1", "V2"], ["V2 @ inv(V1)"], 3, 0),
        # sigma(V), then one SVD of W per trial (4 at seed 0); one solve, on the accepted trial
        "repair": (quarter_turn, ["V", "A"], ["A @ V", "inv(V) @ A @ V @ P"], 5, 0),
        "frame bounds": ([F], ["synthesis"], [], 1, 0),
        "frame parseval": ([F], ["synthesis"], [], 1, 1),
        "frame order": (
            [duplicated_e1_frame(4), shifted_duplicate_frame(4)], ["synthesis"] * 2, [], 2, 1
        ),
        # F spans, G spans, F + iG spans (with its bounds)
        "frame rebrick": ([F, G], ["synthesis"] * 2, [], 3, 0),
        # as many as frames.frrebrick_check alone
        "frame frrebrick": (_frrebrick_example(), ["A", "S"], ["A @ (Id + iS)"], 4, 0),
        # the multiplier commands check signals and work on the symbol: no matrix, no SVD
        "multiplier validate": ([_sign_pattern(16)], [], [], 0, 0),
        "multiplier rebrick": ([np.eye(1, 8), _sign_pattern(8)], [], [], 0, 0),
        "multiplier hilbert": ([], [], [], 0, 0),
        "multiplier trig": ([], [], [], 0, 0),
        "multiplier sweep": ([], [], [], 0, 0),
    }


class TestCostPerCommand:
    """What each command validates, forms and decomposes, pinned exactly."""

    def test_every_leaf_has_a_row(self):
        assert sorted(_costs()) == sorted(_leaf_options())

    @pytest.mark.parametrize("command", sorted(_costs()))
    def test_row(self, tmp_path, capsys, monkeypatch, command):
        inputs, validated, formed, svds, want = _costs()[command]
        files = [write(tmp_path, f"m{k}.csv", M) for k, M in enumerate(inputs)]
        names, products = count_validations(monkeypatch), count_formed(monkeypatch)
        calls = count_svd_calls(monkeypatch)
        code = run(command.split() + files + _FILELESS.get(command, []) + ["--quiet"])
        capsys.readouterr()
        assert (names, products, len(calls), code) == (validated, formed, svds, want)


class TestFlagSurface:
    """Each flag is declared only on the commands whose answer can depend on it."""

    def test_flags_declared_only_where_they_can_change_the_answer(self):
        leaves = _leaf_options()
        assert set(leaves) == set(_LEAVES)
        assert {c for c, opts in leaves.items() if "--tol" in opts} == set(_TOL_MOVES)
        assert {c for c, opts in leaves.items() if "--seed" in opts} == {"repair"}
        assert all({"--format", "--quiet"} <= opts for opts in leaves.values())

    @pytest.mark.parametrize("command", sorted(_TOL_MOVES))
    def test_tol_changes_an_answer(self, tmp_path, capsys, command):
        inputs, tol, where, key, answer = _TOL_MOVES[command]
        files = [write(tmp_path, f"m{k}.csv", M) for k, M in enumerate(inputs)]
        argv = command.split() + (_FILELESS.get(command) or files)
        _, report = run_json(capsys, argv)
        assert report[where][key] is (not answer)
        _, report = run_json(capsys, argv + ["--tol", tol])
        assert report[where][key] is answer
        assert report["command"][-2:] == ["--tol", repr(float(tol))]

    @pytest.mark.parametrize(
        "command, flag",
        [(c, "--seed") for c in sorted(_LEAVES) if c != "repair"]
        + [(c, "--tol") for c in sorted(_LEAVES) if c not in _TOL_MOVES],
    )
    def test_undeclared_flag_is_usage_error(self, tmp_path, capsys, command, flag):
        if command in _FILELESS:
            positionals = _FILELESS[command]
        else:
            mats = _SCALE_CASES[command](np.random.default_rng(0))
            positionals = [write(tmp_path, f"m{k}.csv", M) for k, M in enumerate(mats)]
        argv = command.split() + positionals + [flag, "3", "--quiet"]
        code = run(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == report["exit_code"] == 2
        assert report["error"] == f"rebrick: unrecognized arguments: {flag} 3"
        assert report["command"] == argv and report["verdicts"] == {}


def _help_screen(argv):
    """Run `argv` in process; returns its stdout, which argparse ends with SystemExit(0)."""
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as stop:
        run(argv)
    assert stop.value.code == 0
    return out.getvalue()


class TestHelpScreens:
    """`-h` on the tool, on each group and on each leaf prints its screen and exits 0."""

    @pytest.mark.parametrize("argv", [["-h"], ["frame", "-h"], ["multiplier", "-h"]])
    def test_tool_and_groups(self, argv):
        screen, path = _help_screen(argv), argv[:-1]
        assert screen.startswith(f"usage: {' '.join(['rebrick'] + path)} ")
        # the commands one level below `path`
        below = {c.split()[len(path)] for c in _LEAVES if c.split()[: len(path)] == path}
        listed = re.search(r"\{([\w,-]+)\}", screen).group(1).split(",")
        assert set(listed) == below and len(listed) == len(below)

    def test_tool_description_is_the_module_docstring(self):
        screen = _help_screen(["-h"])
        assert cli.__doc__ in screen
        for internal in ("build_parser", "_Leaf", "_HELP", "rebrick.errors"):
            assert internal not in screen

    @pytest.mark.parametrize("command", sorted(_LEAVES))
    def test_usage_names_the_declared_arguments(self, command):
        screen = _help_screen(command.split() + ["-h"])
        usage = " ".join(screen.split("\n\n")[0].split())
        prog = f"usage: rebrick {command} "
        assert usage.startswith(prog)
        words = usage[len(prog) :]
        # --help is listed as -h; a flag's metavar is upper case or a {choice,...} set
        options = set(re.findall(r"(?<![\w-])(-{1,2}[A-Za-z][\w-]*)", words))
        assert options == _leaf_options()[command] - {"--help"}
        positionals = re.findall(r"(?<![-\w{,])([a-z][a-z0-9_]*)(?![\w,}])", words)
        assert positionals == [a.dest for a in _leaf_positionals()[command]]


def _readme_cli_table():
    """The README's CLI table: command -> (positional count, its own flags)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| command | positionals | flags of its own |")[1].split("\n\n")[0]
    rows = {}
    for line in table.strip().splitlines()[1:]:
        command, positionals, flags = [cell.strip() for cell in line.strip("|").split("|")]
        count = "0 or more" if positionals.startswith("0 or more") else positionals.split()[0]
        count = "0" if count == "none" else count
        rows[command.strip("`")] = (count, set(re.findall(r"`(--\w+)`", flags)))
    return rows


def test_readme_cli_table_is_the_parser():
    declared = {}
    for command, actions in _leaf_positionals().items():
        count = "0 or more" if any(a.nargs == "*" for a in actions) else str(len(actions))
        flags = _leaf_options()[command] - {"-h", "--help", "--format", "--quiet"}
        declared[command] = (count, flags)
    assert _readme_cli_table() == declared


# sizes, --N and --K values just above their caps are refused before anything is allocated
_SIZES = st.one_of(
    st.integers(-2, 1024), st.integers(2, 512).map(lambda n: 2 * n), st.just(cli.MAX_SYMBOL_N + 2)
)
_EDGE_N = ["1.5", str(cli.MAX_TRIG_N + 2), str(cli.MAX_SYMBOL_N + 2)]
_EDGE_K = ["2.0", "", str(cli.MAX_TRIG_K + 1)]
_TOLS = st.sampled_from(["nan", "-1", "abc", "0", "inf", "1e-9", "1e-6", "1e-3"])
_CELLS = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([0.5, 1e-170, 1e170, 1e300]))
# (extension, content): files that no reader accepts, the last two just above the cell cap
_MALFORMED = st.sampled_from(
    [
        ("csv", b""),
        ("csv", b"1,2\n3\n"),
        ("csv", b"1,x\n"),
        ("csv", b"nan,1\n1,1\n"),
        ("csv", b"1;2\n"),
        ("csv", b"[[1, 2]]"),
        ("csv", b"1,2\n3,4\xff\n"),
        ("json", b'{"data": []}'),
        ("json", b'{"data": 5}'),
        ("json", b'{"rows": "x", "data": [[1]]}'),
        ("json", b'{"rows": 2, "cols": 1, "data": [[1]]}'),
        ("json", b'{"data": [[1, 1' + b"0" * 400 + b"]]}"),
        ("json", b'{"data": [[' + b"1" * 4301 + b"]]}"),
        ("json", b'{"data": [[1]], "note": "\xff"}'),
        ("csv", b"0," * matio.MAX_CELLS + b"0\n"),
        ("json", b'{"data": [[' + b"0," * matio.MAX_CELLS + b"0]]}"),
    ]
)
# (extra argv, whether the report is JSON)
_STYLES = [
    ([], False),
    (["--quiet"], True),
    (["--format", "json"], True),
    (["--format=text"], False),
    (["--quiet", "--format=text"], True),
    (["--format", "xml"], False),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _draw_positional(data, workdir, k, shape):
    """A small matrix file (CSV or JSON), a malformed or missing file, or a size."""
    kind = data.draw(st.sampled_from(["csv", "json"] * 3 + ["malformed", "missing", "size"]))
    if kind == "size":
        return str(data.draw(_SIZES))
    if kind == "missing":
        return str(workdir / "missing.csv")
    if kind == "malformed":
        ext, content = data.draw(_MALFORMED)
        path = workdir / f"in{k}.{ext}"
        path.write_bytes(content)
    else:
        path = workdir / f"in{k}.{kind}"
        # the files of one command line mostly share a shape, so that some are compatible
        rows, cols = data.draw(st.sampled_from([shape] * 3 + [(1, 4), (4, 1), (2, 3)]))
        cells = data.draw(st.lists(_CELLS, min_size=rows * cols, max_size=rows * cols))
        matio.save_matrix(path, np.reshape(cells, (rows, cols)))
    return str(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_command_line_ends_in_a_report(fuzz_dir, data):
    """Whatever the command line, cli.run returns 0-3 and prints one report."""
    command = data.draw(st.sampled_from(sorted(_LEAVES)))
    count = data.draw(st.sampled_from([_LEAVES[command]] * 4 + [0, 1, 2, 3]))
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
    argv = command.split() + [_draw_positional(data, fuzz_dir, k, shape) for k in range(count)]
    flags = [
        ["--tol", data.draw(_TOLS)],
        ["--N", data.draw(st.one_of(st.integers(-2, 1024).map(str), st.sampled_from(_EDGE_N)))],
        ["--K", data.draw(st.one_of(st.integers(-2, 64).map(str), st.sampled_from(_EDGE_K)))],
        ["--seed", data.draw(st.sampled_from(["0", "7", "-1", "x"]))],
        ["--out", str(fuzz_dir / data.draw(st.sampled_from(["out.csv", "out.json"])))],
    ]
    chosen = data.draw(st.permutations([f for f in flags if data.draw(st.integers(0, 3)) == 0]))
    style, as_json = data.draw(st.sampled_from(_STYLES))
    argv += [a for flag in chosen for a in flag] + style
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    event(f"exit {code}")  # pytest --hypothesis-show-statistics shows the spread
    assert code in (0, 1, 2, 3)
    assert code != 3 or command == "rebrick"  # only rebrick_pair cross-checks its routes
    if as_json:
        assert json.loads(out.getvalue())["exit_code"] == code
    else:
        assert out.getvalue().splitlines()[-1] == f"exit_code: {code}"


# (name, extension, content): one malformed file of each kind; "over the cap" is
# built per command, one cell above a cap patched down to the largest valid input
_DIRECTED_MALFORMED = [
    ("bad cell", "csv", b"1,x\n1,1\n"),
    ("ragged row", "csv", b"1,2\n3\n"),
    ("empty data", "json", b'{"data": []}'),
    ("not UTF-8", "csv", b"1,2\n3,4\xff\n"),
    ("401 digits", "json", b'{"data": [[1' + b"0" * 400 + b"]]}"),
    ("4301 digits", "json", b'{"data": [[' + b"1" * 4301 + b"]]}"),
    ("deep nesting", "json", b"[" * 100_000 + b"]" * 100_000),
    ("over the cap", "csv", None),
]
_FILE_POSITIONALS = [(c, k) for c in sorted(_SCALE_CASES) for k in range(_LEAVES[c])]


@pytest.mark.parametrize(
    "name, ext, content", _DIRECTED_MALFORMED, ids=[m[0] for m in _DIRECTED_MALFORMED]
)
@pytest.mark.parametrize(
    "command, k", _FILE_POSITIONALS, ids=[f"{c}-{k}" for c, k in _FILE_POSITIONALS]
)
def test_malformed_file_at_every_position(
    tmp_path, capsys, monkeypatch, command, k, name, ext, content
):
    """Each file positional of each command hands a malformed file to the reader: exit 2."""
    mats = _SCALE_CASES[command](np.random.default_rng(0))
    files = [write(tmp_path, f"m{j}.csv", M) for j, M in enumerate(mats)]
    if content is None:
        cap = max(np.size(M) for M in mats)
        monkeypatch.setattr(matio, "MAX_CELLS", cap)
        content = b",".join([b"0"] * (cap + 1)) + b"\n"
    bad = tmp_path / f"bad.{ext}"
    bad.write_bytes(content)
    files[k] = str(bad)
    refused = []
    load_matrix = matio.load_matrix

    def recording(path, *args, **kwargs):
        try:
            return load_matrix(path, *args, **kwargs)
        except errors.MatrixParseError:
            refused.append(str(path))
            raise

    monkeypatch.setattr(matio, "load_matrix", recording)
    code = run(command.split() + files + ["--quiet"])
    report = json.loads(capsys.readouterr().out)
    assert refused == [str(bad)]
    assert code == 2 and report["exit_code"] == 2
    assert set(report["error_position"]) == {"row", "col"}


def test_each_input_file_is_read_once(tmp_path, capsys, monkeypatch):
    v1 = write(tmp_path, "v1.csv", np.eye(2))
    v2 = tmp_path / "v2.csv"
    v2.write_bytes(b"1,2\r\n3,4\r\n")
    reads = []
    for read in ("read_bytes", "read_text"):
        def counting(self, *args, _read=getattr(matio.Path, read), **kwargs):
            reads.append(self.name)
            return _read(self, *args, **kwargs)

        monkeypatch.setattr(matio.Path, read, counting)
    code, report = run_json(capsys, ["rebrick", v1, str(v2)])
    assert code == 0 and sorted(reads) == ["v1.csv", "v2.csv"]
    digests = [report["inputs"][key]["sha256"] for key in sorted(report["inputs"])]
    for f, digest in zip((v1, v2), digests):
        with open(f, "rb") as fh:  # not Path.read_bytes, which is counting here
            assert digest == hashlib.sha256(fh.read()).hexdigest()
