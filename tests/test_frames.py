import numpy as np
import pytest

from rebrick import errors, frames, linalg
from rebrick.frames import FiniteFrame
from support import (
    appended_vector_frame,
    count_svd_calls,
    duplicated_e1_frame,
    parseval_split_frame,
    random_invertible,
    random_orthogonal,
    random_symmetric,
    range_kernel_fills,
    rotation,
    shifted_duplicate_frame,
    truncating_shift,
    zero_padded_frame,
)


def rebricked_redundant_frame(n: int) -> np.ndarray:
    """Synthesis of {e_k + i*e_k} for all k plus the extra vector e1 + i*e2."""
    F = appended_vector_frame(n, 0)
    G = appended_vector_frame(n, 1)
    return F + 1j * G


class TestFrameBounds:
    def test_onb_as_frame(self):
        fb = frames.frame_bounds(FiniteFrame(np.eye(4)))
        assert fb.c == pytest.approx(1.0, abs=1e-12)
        assert fb.C == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_first_vector(self):
        fb = frames.frame_bounds(FiniteFrame(duplicated_e1_frame(5)))
        assert fb.c == pytest.approx(1.0, abs=1e-12)
        assert fb.C == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_redundant_rebricked_frame(self, n):
        fb = frames.frame_bounds(FiniteFrame(rebricked_redundant_frame(n)))
        assert fb.c == pytest.approx(2.0, abs=1e-10)
        assert fb.C == pytest.approx(4.0, abs=1e-10)

    def test_defining_inequality_on_random_vectors(self):
        rng = np.random.default_rng(0)
        S = duplicated_e1_frame(4)
        fb = frames.frame_bounds(FiniteFrame(S))
        for _ in range(1000):
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            energy = float(np.sum(np.abs(S.conj().T @ f) ** 2))
            nf2 = float(np.linalg.norm(f) ** 2)
            assert fb.c * nf2 <= energy * (1 + 1e-10)
            assert energy <= fb.C * nf2 * (1 + 1e-10)

    def test_rank_deficient_rejected(self):
        S = np.zeros((3, 4))
        S[0, 0] = 1.0
        with pytest.raises(errors.NotAFrame):
            frames.frame_bounds(FiniteFrame(S))

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_squares_outside_float64_rejected(self, scale):
        S = scale * np.random.default_rng(18).standard_normal((3, 5))
        with pytest.raises(errors.InvalidMatrix, match="float64 range"):
            frames.frame_bounds(FiniteFrame(S))

    def test_too_few_vectors_rejected(self):
        with pytest.raises(errors.NotAFrame):
            FiniteFrame(np.eye(3)[:, :2])


class TestParseval:
    def test_split_first_vector(self):
        assert frames.is_parseval(FiniteFrame(parseval_split_frame(4)))

    def test_onb(self):
        assert frames.is_parseval(FiniteFrame(np.eye(3)))

    def test_duplicated_unnormalized_is_not(self):
        assert not frames.is_parseval(FiniteFrame(duplicated_e1_frame(4)))


class TestFrameKernel:
    def test_riesz_basis_has_empty_kernel(self):
        rng = np.random.default_rng(1)
        K = frames.frame_kernel(FiniteFrame(random_invertible(rng, 4)))
        assert K.shape == (4, 0)

    def test_duplicated_first_vector(self):
        K = frames.frame_kernel(FiniteFrame(duplicated_e1_frame(4)))
        assert K.shape == (5, 1)
        v = K[:, 0] * np.sign(K[0, 0].real)
        expected = np.zeros(5)
        expected[0], expected[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        np.testing.assert_allclose(v, expected, atol=1e-12)

    def test_zero_padded(self):
        K = frames.frame_kernel(FiniteFrame(zero_padded_frame(4)))
        assert K.shape == (5, 1)
        np.testing.assert_allclose(np.abs(K[:, 0]), [1, 0, 0, 0, 0], atol=1e-12)

    def test_takes_one_svd(self, monkeypatch):
        F = FiniteFrame(np.random.default_rng(2).standard_normal((3, 5)))
        calls = count_svd_calls(monkeypatch)
        assert frames.frame_kernel(F).shape == (5, 2)
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
    def test_non_spanning_is_not_a_frame(self, scale):
        # third row is the sum of the first two: rank 2 < 3 at every scale
        S = np.random.default_rng(3).standard_normal((3, 5))
        S[2] = S[0] + S[1]
        F = FiniteFrame(scale * S, "F")
        with pytest.raises(errors.NotAFrame) as kernel_err:
            frames.frame_kernel(F)
        with pytest.raises(errors.NotAFrame) as bounds_err:
            frames.frame_bounds(F)
        assert str(kernel_err.value) == "frame F does not span: rank < 3"
        assert str(bounds_err.value) == str(kernel_err.value)

    def test_spans_exactly_when_frame_bounds_exist(self):
        # the kernel dimension decides spanning at the cutoff frame_bounds uses
        rng = np.random.default_rng(4)
        for eps in (1e-3, 1e-12, 1e-14, 1e-16, 0.0):
            S = rng.standard_normal((3, 6))
            S[2] = S[0] + S[1] + eps * rng.standard_normal(6)
            F = FiniteFrame(S)
            try:
                frames.frame_bounds(F)
                spans = True
            except errors.NotAFrame:
                spans = False
            try:
                frames.frame_kernel(F)
                assert spans
            except errors.NotAFrame:
                assert not spans


class TestFrameOrder:
    def test_equal_frames_equivalent(self):
        F = FiniteFrame(duplicated_e1_frame(4))
        v = frames.frame_leq(F, F)
        assert v.equivalent and v.leq and v.geq
        assert v.ker_dim_F == v.ker_dim_G == 1

    def test_incompatible_pair_has_no_order(self):
        F = FiniteFrame(duplicated_e1_frame(4), "F")
        G = FiniteFrame(shifted_duplicate_frame(4), "G")
        v = frames.frame_leq(F, G)
        assert not v.leq and not v.geq and not v.equivalent

    def test_nested_kernels_give_order(self):
        rng = np.random.default_rng(2)
        G = random_invertible(rng, 5) @ duplicated_e1_frame(5)  # rank 5, ker dim 1
        F = truncating_shift(3, 5) @ G  # two coordinates dropped, kernel grows
        # pad rows with zeros to compare in the same ambient space; the
        # kernel of the synthesis map is unchanged by zero rows
        F_padded = np.vstack([F, np.zeros((2, 6))])
        v = frames.frame_leq(FiniteFrame(F_padded, "F"), FiniteFrame(G, "G"))
        assert v.leq and not v.geq
        assert v.ker_dim_F == 3 and v.ker_dim_G == 1

    def test_transitivity_along_a_chain(self):
        rng = np.random.default_rng(3)
        n, m = 6, 8
        chain = [random_orthogonal(rng, n) @ np.hstack([np.eye(n), rng.standard_normal((n, m - n))])]
        for drop in (1, 2, 3):
            T = truncating_shift(n - drop, n)
            padded = np.vstack([T @ chain[0], np.zeros((drop, m))])
            chain.append(padded)
        for i in range(len(chain)):
            for j in range(i, len(chain)):
                v = frames.frame_leq(FiniteFrame(chain[j]), FiniteFrame(chain[i]))
                assert v.leq

    def test_index_count_mismatch(self):
        with pytest.raises(errors.IndexCountMismatch):
            frames.frame_leq(
                FiniteFrame(np.eye(3)), FiniteFrame(duplicated_e1_frame(3))
            )


class TestCompatibilityOperator:
    def test_equal_frames_give_identity(self):
        F = FiniteFrame(duplicated_e1_frame(4))
        T = frames.compatibility_operator(F, F)
        np.testing.assert_allclose(T, np.eye(4), atol=1e-10)

    def test_incompatible_pair_has_none(self):
        F = FiniteFrame(duplicated_e1_frame(4), "F")
        G = FiniteFrame(shifted_duplicate_frame(4), "G")
        assert frames.compatibility_operator(F, G) is None
        assert frames.compatibility_operator(G, F) is None

    def test_nested_kernels_give_noninvertible_factor(self):
        rng = np.random.default_rng(4)
        G = random_invertible(rng, 5) @ duplicated_e1_frame(5)
        T_drop = truncating_shift(3, 5)
        F_padded = np.vstack([T_drop @ G, np.zeros((2, 6))])
        F = FiniteFrame(F_padded, "F")
        Gf = FiniteFrame(G, "G")
        T = frames.compatibility_operator(F, Gf)
        assert T is not None
        np.testing.assert_allclose(T @ G, F_padded, atol=1e-9)
        ker_T = linalg.kernel_basis(T).shape[1]
        ker_F = linalg.kernel_basis(F_padded).shape[1]
        ker_G = linalg.kernel_basis(G).shape[1]
        assert ker_T == ker_F - ker_G

    def test_exists_iff_leq(self):
        rng = np.random.default_rng(5)
        pool = [
            duplicated_e1_frame(4),
            shifted_duplicate_frame(4),
            random_invertible(rng, 4) @ duplicated_e1_frame(4),
            np.vstack([truncating_shift(2, 4) @ duplicated_e1_frame(4), np.zeros((2, 5))]),
        ]
        for SF in pool:
            for SG in pool:
                F, G = FiniteFrame(SF), FiniteFrame(SG)
                has_T = frames.compatibility_operator(F, G) is not None
                assert has_T == frames.frame_leq(F, G).leq

    def test_pseudo_inverse_cuts_where_the_kernels_were_cut(self):
        # the third singular value of each synthesis lies below the rank cutoff
        # rank_rel * 6 * sigma_max, so frame_leq counts it as zero; a
        # pseudo-inverse that inverts 2e-15 instead blows rounding up into T
        rng = np.random.default_rng(3)
        U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        W = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        F = FiniteFrame(U @ np.diag([0.9, 0.5, 5e-14]) @ W.T)
        G = FiniteFrame(U @ np.diag([1.0, 0.7, 2e-15]) @ W.T)
        v = frames.frame_leq(F, G)
        assert v.equivalent and v.ker_dim_F == v.ker_dim_G == 4
        T = frames.compatibility_operator(F, G)
        assert T is not None
        assert np.linalg.norm(T, 2) == pytest.approx(0.9, rel=1e-9)
        assert np.max(np.abs(T @ G.synthesis - F.synthesis)) <= 1e-12

    def test_three_svds(self, monkeypatch):
        F = FiniteFrame(np.random.default_rng(16).standard_normal((3, 6)))
        calls = count_svd_calls(monkeypatch)
        assert frames.compatibility_operator(F, F) is not None
        assert len(calls) == 3  # two kernels and the pseudo-inverse


class TestRebrickFrames:
    def test_redundant_pair_bounds(self):
        F = FiniteFrame(appended_vector_frame(4, 0), "F")
        G = FiniteFrame(appended_vector_frame(4, 1), "G")
        combined, fb = frames.rebrick_frames(F, G)
        assert fb.c == pytest.approx(2.0, abs=1e-10)
        assert fb.C == pytest.approx(4.0, abs=1e-10)
        np.testing.assert_allclose(
            combined.synthesis, rebricked_redundant_frame(4), atol=1e-12
        )

    def test_same_frame_scales_bounds(self):
        rng = np.random.default_rng(6)
        S = random_invertible(rng, 4)
        F = FiniteFrame(S)
        fb0 = frames.frame_bounds(F)
        _, fb = frames.rebrick_frames(F, F)
        assert fb.c == pytest.approx(2 * fb0.c, rel=1e-10)
        assert fb.C == pytest.approx(2 * fb0.C, rel=1e-10)

    def test_quarter_turn_pair_degenerates(self):
        F = FiniteFrame(np.eye(2))
        G = FiniteFrame(rotation(np.pi / 2) @ np.eye(2))
        with pytest.raises(errors.NotRebrickable):
            frames.rebrick_frames(F, G)

    def test_incompatible_pair_still_rebricks(self):
        # no operator maps F onto G, yet the columnwise combination spans
        F = FiniteFrame(duplicated_e1_frame(4), "F")
        G = FiniteFrame(shifted_duplicate_frame(4), "G")
        assert frames.compatibility_operator(F, G) is None
        combined, fb = frames.rebrick_frames(F, G)
        assert fb.c > 0


class TestOperatorRebrickFrame:
    def test_zero_operator_keeps_frame(self):
        F = FiniteFrame(duplicated_e1_frame(3))
        out, fb = frames.operator_rebrick_frame(F, np.zeros((3, 3)))
        np.testing.assert_allclose(out.synthesis, F.synthesis, atol=1e-14)

    def test_quarter_turn_block_rejected(self):
        A = np.eye(4)
        A[:2, :2] = rotation(np.pi / 2)
        F = FiniteFrame(duplicated_e1_frame(4))
        with pytest.raises(errors.NotRebrickable):
            frames.operator_rebrick_frame(F, A)

    def test_symmetric_operator_bounds_sandwiched(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            S = rng.standard_normal((n, n + 2))
            if np.linalg.matrix_rank(S) < n:
                continue
            A = random_symmetric(rng, n)
            F = FiniteFrame(S)
            fb0 = frames.frame_bounds(F)
            out, fb = frames.operator_rebrick_frame(F, A)
            B = np.eye(n) + 1j * A
            sB = np.linalg.svd(B, compute_uv=False)
            assert fb.c >= fb0.c * sB[-1] ** 2 * (1 - 1e-10)
            assert fb.C <= fb0.C * sB[0] ** 2 * (1 + 1e-10)


class TestFrRebrick:
    @staticmethod
    def example(n):
        p = n + 2
        S = np.eye(p)
        S[:2, :2] = rotation(np.pi / 2)
        A = truncating_shift(n, p)  # kernel spans the first two coordinates
        return A, S, p

    def test_kernel_absorbs_the_defect(self):
        A, S, p = self.example(6)
        BS = np.eye(p) + 1j * S
        assert linalg.rank(BS) == p - 1  # not surjective on its own
        v = frames.frrebrick_check(A, S)
        assert v.surjective is True
        assert (v.rank_id_iS, v.rank_product) == (p - 1, 6)
        assert linalg.rank(A @ BS) == 6

    def test_invertible_a_cannot_absorb(self):
        rng = np.random.default_rng(8)
        A = random_invertible(rng, 4)
        S = np.eye(4)
        S[:2, :2] = rotation(np.pi / 2)
        assert frames.frrebrick_check(A, S).surjective is False

    def test_regular_symbol_always_passes(self):
        rng = np.random.default_rng(9)
        S = random_symmetric(rng, 6) + 4 * np.eye(6)
        A = truncating_shift(4, 6)
        assert frames.frrebrick_check(A, S).surjective is True

    def test_agreement_with_direct_product_rank(self):
        # frrebrick_check decides from the rank of A @ (Id + iS); the paper's
        # range-plus-kernel form must agree wherever every singular value behind
        # either route sits a factor GUARD or more from its cutoff.  At
        # rank_rel = 1e-6 a zero in exact arithmetic, which SVD returns at
        # rounding level, lies that far below the cutoff.
        tol, guard = linalg.Tolerance(rank_rel=1e-6), 1e4

        def decisive(M):
            reg = linalg.regularity_of(M, tol)
            s = np.linalg.svd(M, compute_uv=False)
            return bool(np.all((s > guard * reg.cutoff) | (s < reg.cutoff / guard)))

        rng = np.random.default_rng(10)
        seen = {True: 0, False: 0}
        for _ in range(300):
            p = int(rng.integers(3, 8))
            n = int(rng.integers(2, p + 1))
            Q = random_orthogonal(rng, p)
            S = np.eye(p)
            S[2:, 2:] = random_invertible(rng, p - 2, cond_cap=100.0)
            # a quarter turn on the first plane takes one dimension off Id + iS
            S[:2, :2] = rotation(np.pi / 2) if rng.integers(0, 3) else np.eye(2)
            S = Q @ S @ Q.T
            # ker(A) avoids that plane (head), meets it when p > n (tail), or is generic
            kind = rng.integers(0, 3)
            if kind == 2:
                A = rng.standard_normal((n, p))
            else:
                rows = np.eye(p)[:n] if kind == 0 else np.eye(p)[p - n :]
                A = random_orthogonal(rng, n) @ rows @ Q.T
            BS = np.eye(p) + 1j * S
            K = linalg.kernel_basis(A, tol)
            if not all(decisive(M) for M in (A, S, BS, A @ BS, np.hstack([BS, K]))):
                continue
            v = frames.frrebrick_check(A, S, tol)
            assert v.surjective == range_kernel_fills(A, S, tol)
            ranks = (linalg.rank(BS, tol), linalg.rank(A @ BS, tol))
            assert (v.rank_id_iS, v.rank_product) == ranks
            seen[v.surjective] += 1
        assert min(seen.values()) >= 50, seen

    def test_rank_deficient_inputs_rejected(self):
        A = np.zeros((2, 4))
        S = np.eye(4)
        with pytest.raises(errors.RankDeficientInput):
            frames.frrebrick_check(A, S)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_product_is_named(self):
        A, S, p = self.example(6)
        with pytest.raises(errors.InvalidMatrix, match=r"^A @ \(Id \+ iS\): entries must be finite"):
            frames.frrebrick_check(1e170 * A, 1e170 * S)

    def test_four_svds(self, monkeypatch):
        A, S, p = self.example(6)
        calls = count_svd_calls(monkeypatch)
        frames.frrebrick_check(A, S)
        assert len(calls) == 4  # rank(A), rank(S), rank(A @ (Id + iS)), rank(Id + iS)


class TestSurjectiveFactor:
    def test_same_operator_gives_identity(self):
        A = truncating_shift(3, 5)
        T = frames.surjective_factor(A, A)
        np.testing.assert_allclose(T, np.eye(5), atol=1e-10)
        assert linalg.kernel_basis(T).shape[1] == 0

    def test_factor_through_invertible(self):
        rng = np.random.default_rng(11)
        B = random_invertible(rng, 4)  # kernel 0
        A = rng.standard_normal((4, 5))  # kernel dim 1 generically
        T = frames.surjective_factor(A, B)
        assert T.shape == (4, 5)
        np.testing.assert_allclose(B @ T, A, atol=1e-9)
        assert linalg.kernel_basis(T).shape[1] == 1

    def test_bigger_kernel_through_smaller(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((3, 7))  # ker dim 4
        B = rng.standard_normal((3, 5))  # ker dim 2
        T = frames.surjective_factor(A, B)
        assert T.shape == (5, 7)
        np.testing.assert_allclose(B @ T, A, atol=1e-9)
        assert linalg.kernel_basis(T).shape[1] == 2
        assert linalg.rank(T) == 5  # surjective

    def test_impossible_direction_returns_none(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((3, 4))  # ker dim 1
        B = rng.standard_normal((3, 6))  # ker dim 3
        assert frames.surjective_factor(A, B) is None

    def test_kernel_dimension_additivity(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(n, n + 4))
            q = int(rng.integers(p, p + 4))
            A = rng.standard_normal((n, p))
            B = rng.standard_normal((p, q))
            if np.linalg.matrix_rank(A) < n or np.linalg.matrix_rank(B) < p:
                continue
            dim_ab = linalg.kernel_basis(A @ B).shape[1]
            dim_a = linalg.kernel_basis(A).shape[1]
            dim_b = linalg.kernel_basis(B).shape[1]
            assert dim_ab == dim_a + dim_b

    def test_kernel_dim_invariant_under_basis_change(self):
        rng = np.random.default_rng(15)
        A = rng.standard_normal((3, 6))
        R = random_invertible(rng, 6)
        assert (
            linalg.kernel_basis(A).shape[1] == linalg.kernel_basis(A @ R).shape[1]
        )

    def test_three_svds(self, monkeypatch):
        rng = np.random.default_rng(17)
        A, B = rng.standard_normal((3, 7)), rng.standard_normal((3, 5))
        calls = count_svd_calls(monkeypatch)
        assert frames.surjective_factor(A, B) is not None
        assert len(calls) == 3  # the two kernels give the ranks; the pseudo-inverse

    def test_rank_deficient_inputs_rejected(self):
        with pytest.raises(errors.RankDeficientInput):
            frames.surjective_factor(np.zeros((2, 4)), np.eye(2))
        with pytest.raises(errors.RankDeficientInput):
            frames.surjective_factor(np.eye(3), np.ones((3, 5)))


class TestParsevalRebrick:
    def test_reflection_operator_keeps_parseval(self):
        F = FiniteFrame(np.hstack([np.eye(3), np.zeros((3, 1))]))
        # pad with a zero vector so the frame is redundant yet Parseval
        out, ok = frames.parseval_rebrick(F, np.diag([1.0, -1.0, 1.0]))
        assert ok

    def test_split_frame_with_identity_scales(self):
        F = FiniteFrame(parseval_split_frame(4))
        out, ok = frames.parseval_rebrick(F, np.eye(4))
        assert ok
        np.testing.assert_allclose(
            out.synthesis, (1 + 1j) / np.sqrt(2) * F.synthesis, atol=1e-12
        )

    def test_rotation_breaks_parseval(self):
        F = FiniteFrame(parseval_split_frame(2))
        out, ok = frames.parseval_rebrick(F, rotation(np.pi / 4))
        assert not ok
        # still a frame: the combination spans
        assert linalg.rank(out.synthesis) == 2

    def test_boolean_matches_operator_condition(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            F = FiniteFrame(parseval_split_frame(n))
            if rng.integers(0, 2):
                R = random_orthogonal(rng, n)
                D = np.diag(rng.choice([-1.0, 1.0], size=n))
                A = R @ D @ R.T  # orthogonal and symmetric
            else:
                A = random_orthogonal(rng, n)
                if np.max(np.abs(A - A.T)) < 1e-6:
                    continue
            _, ok = frames.parseval_rebrick(F, A)
            unitary = np.max(np.abs(A @ A.T - np.eye(n))) <= 1e-9
            symmetric = np.max(np.abs(A - A.T)) <= 1e-9
            assert ok == (unitary and symmetric)

    def test_singular_operator_is_not_rebrickable(self):
        # Id + i*(quarter turn) is singular: the "frame" would span one dimension
        with pytest.raises(errors.NotRebrickable, match="Id \\+ iA is singular"):
            frames.parseval_rebrick(FiniteFrame(np.eye(2)), rotation(np.pi / 2))

    def test_rejects_non_parseval_input(self):
        with pytest.raises(errors.NotParsevalInput):
            frames.parseval_rebrick(FiniteFrame(duplicated_e1_frame(3)), np.eye(3))
