"""Cross-module consistency suite for the class-preservation table.

For each class of generating system (frame, Parseval frame, basis,
orthonormal basis) there is a matching condition on an operator A such
that applying A preserves the class, and a second condition under which
the combination phi + i*A*phi (normalized by 1/sqrt(2) in the Parseval
and orthonormal cases) lands in the class again.  These tests pin all
eight cells on finite instances, both directions each.
"""

import numpy as np
import pytest

from rebrick import basis, frames, linalg
from rebrick.frames import FiniteFrame
from support import (
    duplicated_e1_frame,
    is_unitary_defect,
    parseval_split_frame,
    random_invertible,
    random_orthogonal,
    random_special_orthogonal,
    random_symmetric,
    rotation,
)


def reflector(rng, n):
    R = random_special_orthogonal(rng, n)
    D = np.diag(rng.choice([-1.0, 1.0], size=n))
    return R @ D @ R.T


def spans(S, n):
    return linalg.regularity_of(S).rank == n


class TestApplyingAnOperator:
    """First table row: when is {A phi_n} in the same class as {phi_n}?"""

    def test_frame_iff_invertible(self):
        # a square matrix is surjective exactly when it is invertible
        rng = np.random.default_rng(0)
        n = 4
        S = duplicated_e1_frame(n)
        good = random_invertible(rng, n)
        assert spans(good @ S, n)
        bad = np.eye(n)
        bad[0, 0] = 0.0
        assert not spans(bad @ S, n)

    def test_parseval_iff_adjoint_isometry(self):
        rng = np.random.default_rng(1)
        n = 4
        F = FiniteFrame(parseval_split_frame(n))
        U = random_orthogonal(rng, n)  # U.T is an isometry
        assert frames.is_parseval(FiniteFrame(U @ F.synthesis))
        M = random_invertible(rng, n)
        M = M / np.linalg.svd(M, compute_uv=False)[0] * 2.0  # not an isometry
        assert not frames.is_parseval(FiniteFrame(M @ F.synthesis))

    def test_basis_iff_invertible(self):
        rng = np.random.default_rng(2)
        n = 5
        V = random_invertible(rng, n)
        assert linalg.regularity_of(random_invertible(rng, n) @ V).regular
        singular = np.eye(n)
        singular[-1, -1] = 0.0
        assert not linalg.regularity_of(singular @ V).regular

    def test_onb_iff_unitary(self):
        rng = np.random.default_rng(3)
        n = 5
        E = random_orthogonal(rng, n)
        eq = linalg.DEFAULT_TOL.equality_abs
        assert is_unitary_defect(random_orthogonal(rng, n) @ E) <= eq
        assert not (is_unitary_defect((np.eye(n) * 1.5) @ E) <= eq)


class TestCombiningWithAnOperator:
    """Second table row: when is {phi_n + i*A phi_n} in the class again?"""

    def test_frame_iff_regular_combination(self):
        rng = np.random.default_rng(4)
        n = 4
        F = FiniteFrame(duplicated_e1_frame(n))
        _, fb = frames.operator_rebrick_frame(F, random_symmetric(rng, n))
        assert fb.c > 0
        blocked = np.eye(n)
        blocked[:2, :2] = rotation(np.pi / 2)
        with pytest.raises(Exception):
            frames.operator_rebrick_frame(F, blocked)

    def test_parseval_iff_orthogonal_symmetric(self):
        rng = np.random.default_rng(5)
        n = 4
        F = FiniteFrame(parseval_split_frame(n))
        _, ok = frames.parseval_rebrick(F, reflector(rng, n))
        assert ok
        _, ok = frames.parseval_rebrick(F, random_symmetric(rng, n) + 3 * np.eye(n))
        assert not ok  # symmetric yet not orthogonal

    def test_basis_iff_no_eigenvalue_i(self):
        rng = np.random.default_rng(6)
        n = 4
        V = random_invertible(rng, n)
        _, v = basis.rebrick_with_operator(random_symmetric(rng, n), V)
        assert v.rebrickable
        blocked = np.eye(n)
        blocked[:2, :2] = rotation(np.pi / 2)
        _, v = basis.rebrick_with_operator(blocked, V)
        assert not v.rebrickable

    def test_onb_iff_orthogonal_symmetric(self):
        rng = np.random.default_rng(7)
        n = 4
        E = random_orthogonal(rng, n)
        A = reflector(rng, n)
        _, is_onb, _ = basis.onb_rebrick_check(E, A @ E)
        assert is_onb
        A = random_orthogonal(rng, n)
        if np.max(np.abs(A - A.T)) > 1e-4:
            _, is_onb, _ = basis.onb_rebrick_check(E, A @ E)
            assert not is_onb

    def test_parseval_and_onb_cells_share_the_condition(self):
        # the same operator class answers both normalized cells
        rng = np.random.default_rng(8)
        n = 4
        for _ in range(50):
            if rng.integers(0, 2):
                A = reflector(rng, n)
            else:
                A = random_orthogonal(rng, n)
                if np.max(np.abs(A - A.T)) < 1e-6:
                    continue
            E = random_orthogonal(rng, n)
            _, is_onb, _ = basis.onb_rebrick_check(E, A @ E)
            _, parseval_ok = frames.parseval_rebrick(
                FiniteFrame(parseval_split_frame(n)), A
            )
            assert is_onb == parseval_ok
