from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebrick import basis, errors, frames, linalg
from rebrick.frames import FiniteFrame
from support import (
    block_rotation,
    count_linalg_calls,
    count_svd_calls,
    dual_real_part,
    id_plus_a2_regularity,
    is_unitary_defect,
    plant_eigenvalue_i,
    random_invertible,
    random_orthogonal,
    random_special_orthogonal,
    random_symmetric,
    reference_rebrick_verdict,
    reference_spectral_factorize_orthosym,
    refuse_inverses,
    rotation,
    symmetry_condition_check,
)

ROT45 = rotation(np.pi / 4)
ROT90 = rotation(np.pi / 2)


class TestTransferOperator:
    def test_identity_to_rotation(self):
        A = basis.transfer_operator(np.eye(2), ROT45)
        np.testing.assert_allclose(A, ROT45, atol=1e-12)

    def test_same_basis_gives_identity(self):
        rng = np.random.default_rng(0)
        V = random_invertible(rng, 4)
        np.testing.assert_allclose(basis.transfer_operator(V, V), np.eye(4), atol=1e-10)

    def test_rotation_chain(self):
        # the step from the pi/4 rotation to the pi/2 rotation is again pi/4
        A = basis.transfer_operator(ROT45, ROT90)
        np.testing.assert_allclose(A, ROT45, atol=1e-12)

    def test_maps_first_basis_onto_second(self):
        rng = np.random.default_rng(1)
        V1, V2 = random_invertible(rng, 5), random_invertible(rng, 5)
        A = basis.transfer_operator(V1, V2)
        np.testing.assert_allclose(A @ V1, V2, atol=1e-9)

    def test_one_svd_one_solve(self, monkeypatch):
        rng = np.random.default_rng(1)
        V1, V2 = random_invertible(rng, 5), random_invertible(rng, 5)
        refuse_inverses(monkeypatch)
        svd_calls = count_svd_calls(monkeypatch)
        solve_calls = count_linalg_calls(monkeypatch, "solve")
        basis.transfer_operator(V1, V2)
        assert (len(svd_calls), len(solve_calls)) == (1, 1)  # sigma(V1); A by LU


class TestRebrickPair:
    def test_quarter_turn_counterexample(self):
        B, v = basis.rebrick_pair(np.eye(2), ROT90)
        assert not v.rebrickable
        np.testing.assert_allclose(
            sorted(v.eigenvalues_A, key=lambda z: z.imag), [-1j, 1j], atol=1e-10
        )
        assert v.min_dist_to_i <= 1e-10
        assert id_plus_a2_regularity(ROT90).sigma_min <= 1e-10

    def test_eighth_turn_succeeds(self):
        B, v = basis.rebrick_pair(np.eye(2), ROT45)
        assert v.rebrickable
        np.testing.assert_allclose(B, np.eye(2) + 1j * ROT45, atol=1e-14)

    def test_reflexivity(self):
        rng = np.random.default_rng(2)
        V = random_invertible(rng, 4)
        B, v = basis.rebrick_pair(V, V)
        assert v.rebrickable
        np.testing.assert_allclose(B, (1 + 1j) * V, atol=1e-12)

    def test_singular_factor_rejected(self):
        M = np.eye(3)
        S = np.eye(3)
        S[2, 2] = 0.0
        with pytest.raises(errors.RankDeficientInput, match="^columns of V1 do not form a basis$"):
            basis.rebrick_pair(S, M)
        with pytest.raises(errors.RankDeficientInput, match="^columns of V2 do not form a basis$"):
            basis.rebrick_pair(M, S)

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            basis.rebrick_pair(np.eye(2), np.eye(3))

    def test_overflowing_transfer_operator_is_named(self):
        rng = np.random.default_rng(4)
        V1, V2 = 1e-170 * random_invertible(rng, 3), 1e300 * random_invertible(rng, 3)
        pairs = [(V1, V2), (1e-170 * np.eye(2), 1e170 * np.eye(2))]
        for call in (basis.rebrick_pair, basis.transfer_operator):
            for W1, W2 in pairs:
                with pytest.raises(
                    errors.InvalidMatrix, match=r"^V2 @ inv\(V1\): entries must be finite"
                ):
                    call(W1, W2)

    @pytest.mark.parametrize(
        "call",
        [
            # ||Id + iA||^2 = 1e20 is in range, so the verdict alone would say yes
            lambda: basis.rebrick_with_operator(1e10 * np.eye(2), 1e300 * np.eye(2)),
            lambda: basis.rebricked_dual(1e300 * np.eye(2), 1e10 * np.eye(2)),
            # sigma(V)^2 = 1e300 passes the squares check of V, and B @ V = 1e150 + 1e350i leaves
            # float64 before any bound of it is squared
            lambda: basis.rebricked_frame_bounds(1e150 * np.eye(2), 1e200 * np.eye(2)),
        ],
        ids=["rebrick_with_operator", "rebricked_dual", "rebricked_frame_bounds"],
    )
    def test_overflowing_primal_is_named(self, call):
        with pytest.raises(errors.InvalidMatrix, match=r"^B @ V: entries must be finite"):
            call()

    def test_overflowing_operator_square_is_named(self):
        # sigma(V)^2 = 1e-300 and sigma(B @ V)^2 = 1e100 are in range; sigma(Id + iA)^2 = 1e400,
        # the square of the upper estimate's norm, is not
        with pytest.raises(
            errors.InvalidMatrix, match=r"^Id \+ iA: singular values in \[1\.000e\+200, "
        ):
            basis.rebricked_frame_bounds(1e-150 * np.eye(2), 1e200 * np.eye(2))

    def test_three_svds_one_eig_one_solve(self, monkeypatch):
        # sigma(V1), sigma(V2), sigma(B); A by LU; eig(A) only where sigma leaves an
        # eigenvalue near i possible: not on a clear "yes", once on a planted "no"
        rng = np.random.default_rng(6)
        yes = random_invertible(rng, 4), random_invertible(rng, 4)
        no = np.eye(4), plant_eigenvalue_i(rng, 4)
        refuse_inverses(monkeypatch)
        for (V1, V2), want in ((yes, [3, 0, 1]), (no, [3, 1, 1])):
            counts = [count_linalg_calls(monkeypatch, name) for name in ("svd", "eigvals", "solve")]
            _, v = basis.rebrick_pair(V1, V2)
            assert v.rebrickable == (want == [3, 0, 1])
            assert [len(c) for c in counts] == want

    def test_eigenvalues_are_computed_once(self, monkeypatch):
        # a clear "yes" leaves eig(A) to the first read of either certificate; later reads hit the cache
        rng = np.random.default_rng(6)
        _, v = basis.rebrick_pair(random_invertible(rng, 4), random_invertible(rng, 4))
        calls = count_linalg_calls(monkeypatch, "eigvals")
        for _ in range(2):
            eigs, min_dist = v.eigenvalues_A, v.min_dist_to_i
        assert len(calls) == 1
        assert v.eigenvalues_A is eigs and min_dist == float(np.min(np.abs(eigs - 1j)))

    def test_symmetry_of_the_relation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            V1, V2 = random_invertible(rng, n), random_invertible(rng, n)
            _, v12 = basis.rebrick_pair(V1, V2)
            _, v21 = basis.rebrick_pair(V2, V1)
            assert v12.rebrickable == v21.rebrickable

    def test_three_way_agreement_random(self):
        rng = np.random.default_rng(4)
        tol = linalg.DEFAULT_TOL
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            V1, V2 = random_invertible(rng, n), random_invertible(rng, n)
            B, v = basis.rebrick_pair(V1, V2)
            assert v.rebrickable == (v.min_dist_to_i > tol.eig_abs)
            assert v.rebrickable == id_plus_a2_regularity(basis.transfer_operator(V1, V2)).regular

    def test_three_way_agreement_adversarial(self):
        rng = np.random.default_rng(5)
        tol = linalg.DEFAULT_TOL
        for n in (2, 3, 5, 8):
            # exact eigenvalue i: every route must refuse
            A = plant_eigenvalue_i(rng, n)
            _, v = basis.rebrick_pair(np.eye(n), A)
            assert not v.rebrickable
            assert v.min_dist_to_i <= tol.eig_abs
            # clearly off i: every route must accept
            A_near = A + 1e-6 * np.eye(n)
            _, v = basis.rebrick_pair(np.eye(n), A_near)
            assert v.rebrickable
            assert v.min_dist_to_i > tol.eig_abs

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    def test_planted_pairs_at_n2_agree_on_every_route(self, scale):
        # A@A = -Id up to rounding: sigma(B) and the eigenvalues both refuse,
        # whatever the scale of the bases
        for seed in range(200):
            A = plant_eigenvalue_i(np.random.default_rng(seed), 2)
            _, v = basis.rebrick_pair(scale * np.eye(2), scale * A)
            assert not v.rebrickable and not v.warning, seed

    def test_gray_zone_sets_warning_instead_of_raising(self):
        # an eigenvalue this close to i sits between the eigenvalue threshold
        # and the singular-value cutoff: the verdict must flag it, not crash
        A = rotation(np.pi / 2) + 1e-10 * np.eye(2)
        _, v = basis.rebrick_pair(np.eye(2), A)
        assert v.warning

    def test_contradicting_certificates_raise(self, monkeypatch):
        # sigma_min(B) = sqrt(5), yet an eigenvalue at i would bound it by rounding
        def planted_i(M):
            return np.array([-1j, 1j])

        monkeypatch.setattr(linalg, "sorted_eigvals", planted_i)
        # at eig_abs = 1, sigma_min(B) lies below WARN_BAND * eig_abs, so the eigenvalues are asked
        with pytest.raises(errors.InternalConsistencyError, match=r"sigma_min\(B\)=2.236e\+00"):
            basis.rebrick_pair(np.eye(2), 2.0 * np.eye(2), linalg.Tolerance(eig_abs=1.0))


class TestRebrickWithOperator:
    def test_planted_eigenvalue_fails_for_every_basis(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            V = random_invertible(rng, 2)
            _, v = basis.rebrick_with_operator(ROT90, V)
            assert not v.rebrickable

    def test_symmetric_operator_succeeds(self):
        rng = np.random.default_rng(7)
        A = random_symmetric(rng, 5) + 6 * np.eye(5)  # invertible, symmetric
        _, v = basis.rebrick_with_operator(A, random_invertible(rng, 5))
        assert v.rebrickable

    def test_small_norm_operator_succeeds(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 4))
        A = 0.9 * M / np.linalg.svd(M, compute_uv=False)[0]
        _, v = basis.rebrick_with_operator(A, np.eye(4))
        assert v.rebrickable

    def test_flag_does_not_depend_on_basis(self):
        rng = np.random.default_rng(9)
        for A in (ROT90, ROT45, random_symmetric(rng, 2)):
            flags = set()
            for _ in range(100):
                V = random_invertible(rng, 2)
                _, v = basis.rebrick_with_operator(A, V)
                flags.add(v.rebrickable)
            assert len(flags) == 1

    def test_result_is_product(self):
        rng = np.random.default_rng(10)
        A, V = random_symmetric(rng, 3), random_invertible(rng, 3)
        BV, _ = basis.rebrick_with_operator(A, V)
        np.testing.assert_allclose(BV, (np.eye(3) + 1j * A) @ V, atol=1e-12)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_non_normal_operator_sets_warning(self, a):
        # eigenvalue a, far from i, yet sigma_min(Id + iA) ~ 1e-20 is below the
        # cutoff: the eigenvalues are ill-conditioned, the certificates consistent
        _, v = basis.rebrick_with_operator(np.array([[a, 1e20], [0.0, a]]), np.eye(2))
        assert not v.rebrickable and v.warning
        assert v.min_dist_to_i == pytest.approx(abs(a - 1j))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 8),
        kind=st.sampled_from(["random", "planted", "planted plus noise", "non-normal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_id_plus_a2(self, n, kind, seed):
        # the paper's form: no eigenvalue i <=> Id + A@A invertible.  With
        # B = Id + iA, Id + A@A = B @ conj(B), so sigma_min(B)^2 <= sigma_min(Id + A@A)
        # <= sigma_min(B) * sigma_max(B): compared where those bounds sit a factor
        # 1e4 from the oracle's cutoff
        rng = np.random.default_rng(seed)
        if kind == "random":
            A = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n, n))
        elif kind == "non-normal":  # eigenvalues +-i or real ones, upper part up to 1e8
            T = 10.0 ** rng.uniform(0, 8) * np.triu(rng.standard_normal((n, n)), 1)
            if rng.integers(2):
                T[:2, :2] = ROT90
            else:
                T += np.diag(rng.standard_normal(n))
            Q = random_orthogonal(rng, n)
            A = Q @ T @ Q.T
        else:
            A = plant_eigenvalue_i(rng, n)
            if kind == "planted plus noise":
                A = A + 10.0 ** rng.uniform(-16, -2) * rng.standard_normal((n, n))
        _, v = basis.rebrick_with_operator(A, np.eye(n))
        reg_B = linalg.regularity_of(np.eye(n) + 1j * A)
        oracle = id_plus_a2_regularity(A)
        if reg_B.sigma_min * reg_B.sigma_max < oracle.cutoff / 1e4:
            assert not v.rebrickable and not oracle.regular
        elif reg_B.sigma_min**2 > 1e4 * oracle.cutoff:
            assert v.rebrickable and oracle.regular


def _bits(attrs: dict) -> dict:
    """The verdict's attributes as exact bit patterns: arrays by dtype, shape and bytes, floats in hex."""
    def exact(x):
        if isinstance(x, np.ndarray):
            return x.dtype.str, x.shape, x.tobytes()
        return x.hex() if isinstance(x, float) else x

    return {k: (type(x).__name__, exact(x)) for k, x in attrs.items()}


def _outcome(call):
    """(True, the verdict's bits) or (False, (exception type, message))."""
    try:
        return True, _bits(call())
    except errors.RebrickError as exc:
        return False, (type(exc), str(exc))


def _reference_pair(V1, V2, tol):
    A1, A2 = linalg.require_square_pair(V1, V2, ("V1", "V2"), real=True)
    norm_V1 = basis.require_basis(A1, "V1", tol).sigma_max
    basis.require_basis(A2, "V2", tol)
    A = basis.transfer_operator(A1, A2, tol)
    return reference_rebrick_verdict(linalg.regularity_of(A1 + 1j * A2, tol), A, tol, norm_V1)


def _reference_with_operator(A, V, tol):
    A_, V_ = linalg.require_square_pair(A, V, ("A", "V"), real=True)
    basis.require_basis(V_, "V", tol)
    B = np.eye(A_.shape[0]) + 1j * A_
    linalg.formed("B @ V", np.matmul, B, V_)
    return reference_rebrick_verdict(linalg.regularity_of(B, tol), A_, tol, 1.0)


def _attributes(call, tol) -> dict:
    """The six attributes of the verdict that call() returns, read after the call."""
    with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as eigvals:
        v = call()[1]
    if not eigvals.called:
        # sigma alone decided: no eigenvalue may lie within WARN_BAND * eig_abs of i
        assert v.rebrickable and v.min_dist_to_i > linalg.WARN_BAND * tol.eig_abs
    return {k: getattr(v, k) for k in basis.RebrickVerdict.KEYS}


def test_verdict_keys_are_the_public_attributes():
    _, v = basis.rebrick_with_operator(np.zeros((2, 2)), np.eye(2))
    public = {k for k in dir(v) if not k.startswith("_")} - {"KEYS"}
    assert len(basis.RebrickVerdict.KEYS) == len(public) and set(basis.RebrickVerdict.KEYS) == public


class TestEagerOracle:
    """The verdict that skips eig(A) on a clear "yes" is the eager verdict, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(2, 8),
        kind=st.sampled_from(["random", "planted", "near i", "non-normal", "near the cutoff", "scaled"]),
        scale=st.sampled_from([1.0, 1e170, 1e-170]),
        log_eig_abs=st.floats(-12.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_both_calls_match_the_eager_verdict(self, n, kind, scale, log_eig_abs, seed):
        rng = np.random.default_rng(seed)
        if kind == "random":
            A = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n, n))
        elif kind == "non-normal":  # eigenvalues +-i or real ones, upper part up to 1e12
            T = 10.0 ** rng.uniform(0, 12) * np.triu(rng.standard_normal((n, n)), 1)
            if rng.integers(2):
                T[:2, :2] = ROT90
            else:
                T += np.diag(rng.standard_normal(n))
            Q = random_orthogonal(rng, n)
            A = Q @ T @ Q.T
        elif kind == "near the cutoff":  # a Jordan-like block: sigma_min(Id + iA) within WARN_BAND of the cutoff
            T = np.diag(rng.standard_normal(n))
            T[0, 1] = 10.0 ** rng.uniform(5, 6.5)
            Q = random_orthogonal(rng, n)
            A = Q @ T @ Q.T
        elif kind == "scaled":
            A = scale * rng.standard_normal((n, n))
        else:  # eigenvalues +-i, or an eigenvalue delta from i
            A = plant_eigenvalue_i(rng, n)
            if kind == "near i":
                A = A + 10.0 ** rng.uniform(-12, -2) * np.eye(n)
        tol = linalg.Tolerance(eig_abs=10.0**log_eig_abs)
        V = scale * random_invertible(rng, n)
        with np.errstate(over="ignore", invalid="ignore"):
            AV = A @ V  # beyond float64 at some scales: both sides then refuse V2 alike
        assert _outcome(lambda: _attributes(lambda: basis.rebrick_pair(V, AV, tol), tol)) == _outcome(
            lambda: _reference_pair(V, AV, tol)
        )
        assert _outcome(lambda: _attributes(lambda: basis.rebrick_with_operator(A, V, tol), tol)) == _outcome(
            lambda: _reference_with_operator(A, V, tol)
        )


class TestNonTransitivity:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_witness_verdicts(self, dim):
        A1, A2 = basis.non_transitivity_witness(dim)
        _, v1 = basis.rebrick_with_operator(A1, np.eye(dim))
        _, v2 = basis.rebrick_with_operator(A2, np.eye(dim))
        _, v21 = basis.rebrick_with_operator(A2 @ A1, np.eye(dim))
        assert (v1.rebrickable, v2.rebrickable, v21.rebrickable) == (True, True, False)

    def test_dim_two_is_the_eighth_turn(self):
        A1, A2 = basis.non_transitivity_witness(2)
        np.testing.assert_allclose(A1, ROT45, atol=1e-14)
        np.testing.assert_allclose(A2 @ A1, ROT90, atol=1e-14)

    def test_too_small(self):
        with pytest.raises(errors.InvalidSize):
            basis.non_transitivity_witness(1)


class TestOnbRebrick:
    def test_identity_pair(self):
        U, is_onb, A = basis.onb_rebrick_check(np.eye(3), np.eye(3))
        assert is_onb
        np.testing.assert_allclose(A, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(U, (1 + 1j) / np.sqrt(2) * np.eye(3), atol=1e-14)

    def test_eighth_turn_not_onb_but_still_regular(self):
        U, is_onb, A = basis.onb_rebrick_check(np.eye(2), ROT45)
        assert not is_onb
        assert np.linalg.svd(U, compute_uv=False)[-1] > 0.1  # still a basis

    def test_reflection_pair_is_onb(self):
        U, is_onb, A = basis.onb_rebrick_check(np.eye(2), np.diag([1.0, -1.0]))
        assert is_onb
        np.testing.assert_allclose(np.abs(np.diag(U)), np.ones(2), atol=1e-12)

    def test_not_orthogonal_rejected(self):
        with pytest.raises(errors.NotOrthogonal, match="^E1 is not orthogonal at tolerance$"):
            basis.onb_rebrick_check(2 * np.eye(2), np.eye(2))

    def test_symmetric_orthogonal_always_works(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            R = random_special_orthogonal(rng, n)
            D = np.diag(rng.choice([-1.0, 1.0], size=n))
            E = random_orthogonal(rng, n)
            U, is_onb, _ = basis.onb_rebrick_check(E, R @ D @ R.T @ E)
            assert is_onb
            assert is_unitary_defect(U) <= 1e-10

    def test_nonsymmetric_orthogonal_never_works(self):
        rng = np.random.default_rng(12)
        count = 0
        while count < 100:
            n = int(rng.integers(2, 9))
            A = random_orthogonal(rng, n)
            if np.max(np.abs(A - A.T)) < 1e-4:
                continue  # skipped: accidentally symmetric draw
            count += 1
            E = random_orthogonal(rng, n)
            U, is_onb, _ = basis.onb_rebrick_check(E, A @ E)
            assert not is_onb
            assert is_unitary_defect(U) > 1e-6

    def test_near_the_threshold_is_a_verdict(self):
        # A = R diag(rot(t), Id) R.T is orthogonal and symmetric up to t, which
        # brings both the unitarity and the symmetry test to their threshold
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(2, 9))
            E1, R = random_orthogonal(rng, n), random_orthogonal(rng, n)
            D = block_rotation(n, 10.0 ** rng.uniform(-10, -8.5))
            U, is_onb, _ = basis.onb_rebrick_check(E1, R @ D @ R.T @ E1)
            assert is_onb == (is_unitary_defect(U) <= linalg.DEFAULT_TOL.equality_abs)
            seen.add(is_onb)
        assert seen == {True, False}


class TestSymmetryCondition:
    """The Gram-symmetry oracle of `onb_rebrick_check` (`support.symmetry_condition_check`)."""

    def test_same_basis(self):
        assert symmetry_condition_check(np.eye(4), np.eye(4))

    def test_eighth_turn_fails(self):
        assert not symmetry_condition_check(np.eye(2), ROT45)

    def test_reflector_construction_passes(self):
        rng = np.random.default_rng(13)
        R = random_special_orthogonal(rng, 5)
        D = np.diag(rng.choice([-1.0, 1.0], size=5))
        assert symmetry_condition_check(np.eye(5), R @ D @ R.T)

    def test_agrees_with_direct_unitarity_check(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            E1 = random_orthogonal(rng, n)
            if rng.integers(0, 2):
                R = random_special_orthogonal(rng, n)
                D = np.diag(rng.choice([-1.0, 1.0], size=n))
                E2 = R @ D @ R.T @ E1
            else:
                E2 = random_orthogonal(rng, n)
            _, is_onb, _ = basis.onb_rebrick_check(E1, E2)
            assert symmetry_condition_check(E1, E2) == is_onb


class TestRebrickedDual:
    def test_trivial_zero_operator(self):
        primal, dual = basis.rebricked_dual(np.eye(3), np.zeros((3, 3)))
        np.testing.assert_allclose(primal, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(dual, np.eye(3), atol=1e-14)

    def test_scalar_case(self):
        primal, dual = basis.rebricked_dual(np.eye(2), np.eye(2))
        np.testing.assert_allclose(primal, (1 + 1j) * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(dual, np.eye(2) / (1 - 1j), atol=1e-14)

    def test_biorthogonality_random(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            V = random_invertible(rng, 5)
            A = random_symmetric(rng, 5)
            primal, dual = basis.rebricked_dual(V, A)
            np.testing.assert_allclose(dual.conj().T @ primal, np.eye(5), atol=1e-10)

    def test_biorthogonality_whenever_rebrickable(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 50:
            n = int(rng.integers(2, 7))
            V = random_invertible(rng, n)
            A = rng.standard_normal((n, n))
            _, v = basis.rebrick_with_operator(A, V)
            if not v.rebrickable or v.condition_number > 1e5:
                continue
            done += 1
            primal, dual = basis.rebricked_dual(V, A)
            np.testing.assert_allclose(dual.conj().T @ primal, np.eye(n), atol=1e-9)

    def test_rejects_nonrebrickable_operator(self):
        with pytest.raises(errors.NotRebrickable):
            basis.rebricked_dual(np.eye(2), ROT90)

    def test_rejects_singular_basis(self):
        with pytest.raises(errors.RankDeficientInput, match="^columns of V do not form a basis$"):
            basis.rebricked_dual(np.ones((2, 2)), np.zeros((2, 2)))

    def test_overflowing_dual_is_named(self):
        # 1e-310 * Id is a basis (the cutoff is relative), but its dual 1e310 * Id is no float64
        with pytest.raises(errors.InvalidMatrix, match=r"^inv\(\(B @ V\)\*\): entries must be finite"):
            basis.rebricked_dual(1e-310 * np.eye(2), np.zeros((2, 2)))

    def test_two_svds(self, monkeypatch):
        rng = np.random.default_rng(15)
        V, A = random_invertible(rng, 5), random_symmetric(rng, 5)
        refuse_inverses(monkeypatch)
        calls = count_svd_calls(monkeypatch)
        solves = count_linalg_calls(monkeypatch, "solve")
        basis.rebricked_dual(V, A)
        assert len(calls) == 2  # Id + iA and V; the dual inv(primal*) is one LU solve
        assert len(solves) == 1


class TestRealPartPreservation:
    def test_identity_gives_half(self):
        lam = basis.real_part_preservation_lambda(np.eye(3))
        assert lam == pytest.approx(0.5, abs=1e-12)

    def test_eighth_turn_has_none(self):
        assert basis.real_part_preservation_lambda(ROT45) is None

    def test_scaled_involution(self):
        rng = np.random.default_rng(16)
        for c in (0.5, 2.0, 3.7):
            J = np.diag([1.0, -1.0, 1.0])
            lam = basis.real_part_preservation_lambda(c * J)
            assert lam == pytest.approx(1.0 / (1.0 + c * c), abs=1e-10)
        # a generic symmetric matrix almost surely has no such constant
        assert basis.real_part_preservation_lambda(
            random_symmetric(rng, 4) + 5 * np.eye(4)
        ) is None

    def test_quarter_turn_squares_to_minus_identity(self):
        # A^2 = -Id leaves no admissible constant
        assert basis.real_part_preservation_lambda(ROT90) is None

    def test_cross_check_inverts_at_the_rank_rule(self, monkeypatch):
        # the answer is the algebraic rule; inv(B*) is the tests' oracle, not a route
        refuse_inverses(monkeypatch)
        calls = count_svd_calls(monkeypatch)
        assert basis.real_part_preservation_lambda(2.0 * np.eye(3)) == pytest.approx(0.2, abs=1e-12)
        assert len(calls) == 1  # A is invertible

    def test_matches_the_dual_real_part(self):
        # Re(inv(B*)) = (Id + A^2)^-1 for real A: lambda * Id exactly when
        # A^2 = (1/lambda - 1) * Id.  Compared where |1 + mu| >= 0.1.
        rng = np.random.default_rng(17)
        found = 0
        for _ in range(300):
            n = 2 * int(rng.integers(1, 4))
            Q = random_orthogonal(rng, n)
            kind = rng.integers(0, 3)
            if kind == 0:  # A^2 = c^2 * Id
                A = rng.uniform(0.2, 5.0) * Q @ np.diag(rng.choice([-1.0, 1.0], n)) @ Q.T
            elif kind == 1:  # A^2 = -c^2 * Id
                c = rng.choice([rng.uniform(0.2, 0.94), rng.uniform(1.05, 5.0)])
                A = c * Q @ np.kron(np.eye(n // 2), ROT90) @ Q.T
            else:
                A = random_invertible(rng, n)
            lam = basis.real_part_preservation_lambda(A)
            R = dual_real_part(A)
            oracle = float(np.trace(R)) / n
            assert (lam is not None) == bool(np.max(np.abs(R - oracle * np.eye(n))) <= 1e-9)
            if lam is not None:
                assert lam == pytest.approx(oracle, rel=1e-12)
                found += 1
        assert found >= 150

    def test_near_minus_identity_is_an_answer(self):
        # A = c * Q J Q.T (J^2 = -Id) plus noise, c just below 1: 1 + mu is small,
        # so inv(B*) is ill-conditioned, and the rule still answers lambda
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = 2 * int(rng.integers(1, 5))
            Q = random_orthogonal(rng, n)
            c = 1.0 - 10.0 ** rng.uniform(-6, -1)
            noise = 10.0 ** rng.uniform(-12, -10) * rng.standard_normal((n, n))
            A = c * Q @ np.kron(np.eye(n // 2), ROT90) @ Q.T + noise
            lam = basis.real_part_preservation_lambda(A)
            assert lam is not None and 1.0 / lam == pytest.approx(1.0 - c * c, abs=1e-8)  # 1 + mu


# The four constructors that build Id + iA decide it by one rule,
# basis.rebricking_factor: sigma(Id + iA) alone, with no eigenvalue route.
# Each case: (SVDs per call, the call on a real square A with V = Id).
CONSTRUCTORS = {
    "rebricked_dual": (2, lambda A: basis.rebricked_dual(np.eye(len(A)), A)),
    "rebricked_frame_bounds": (3, lambda A: basis.rebricked_frame_bounds(np.eye(len(A)), A)),
    "operator_rebrick_frame": (
        3, lambda A: frames.operator_rebrick_frame(FiniteFrame(np.eye(len(A))), A)
    ),
    "parseval_rebrick": (2, lambda A: frames.parseval_rebrick(FiniteFrame(np.eye(len(A))), A)),
}


class TestRebrickingFactor:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_quarter_turn_is_refused_alike(self, name):
        _, call = CONSTRUCTORS[name]
        with pytest.raises(
            errors.NotRebrickable, match=r"^Id \+ iA is singular at tolerance \(sigma_min="
        ):
            call(ROT90)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_constructors_run_no_eigenvalue_route(self, name, monkeypatch):
        svds, call = CONSTRUCTORS[name]
        A = random_symmetric(np.random.default_rng(22), 4)  # real spectrum: Id + iA is regular
        svd_calls = count_svd_calls(monkeypatch)
        eig_calls = count_linalg_calls(monkeypatch, "eigvals")
        call(A)
        assert (len(svd_calls), len(eig_calls)) == (svds, 0)

    def test_rebrick_with_operator_keeps_both_routes(self, monkeypatch):
        rng = np.random.default_rng(23)
        A, V = random_symmetric(rng, 4), random_invertible(rng, 4)
        gray = rotation(np.pi / 2) + 1e-10 * np.eye(2)  # regular, yet an eigenvalue 1e-10 from i
        # V and Id + iA; the eigenvalues of A only where sigma_min(Id + iA) leaves them in doubt
        for (A_, V_), want in (((A, V), (2, 0)), ((gray, np.eye(2)), (2, 1))):
            svd_calls = count_svd_calls(monkeypatch)
            eig_calls = count_linalg_calls(monkeypatch, "eigvals")
            _, v = basis.rebrick_with_operator(A_, V_)
            assert v.rebrickable and v.warning == (want == (2, 1))
            assert (len(svd_calls), len(eig_calls)) == want

    def test_certificates_are_those_of_the_judged_operator(self):
        # the verdict keeps its own copy of A: a caller reusing its buffer changes no certificate
        rng = np.random.default_rng(24)
        clear = random_symmetric(rng, 4)
        gray = rotation(np.pi / 2) + 1e-10 * np.eye(2)
        for A in (clear, gray):
            want = linalg.sorted_eigvals(A)
            _, v = basis.rebrick_with_operator(A, np.eye(len(A)))
            A[...] = rotation(np.pi / 2) if len(A) == 2 else 0.0
            np.testing.assert_array_equal(v.eigenvalues_A, want)
            assert v.min_dist_to_i == float(np.min(np.abs(want - 1j)))


class TestRebrickedFrameBounds:
    def test_zero_operator(self):
        rep = basis.rebricked_frame_bounds(np.eye(3), np.zeros((3, 3)))
        assert rep.c_exact == pytest.approx(1.0, abs=1e-12)
        assert rep.C_exact == pytest.approx(1.0, abs=1e-12)
        assert rep.norm_B == pytest.approx(1.0, abs=1e-12)

    def test_identity_operator(self):
        rep = basis.rebricked_frame_bounds(np.eye(3), np.eye(3))
        assert rep.c_exact == pytest.approx(2.0, abs=1e-12)
        assert rep.C_exact == pytest.approx(2.0, abs=1e-12)
        assert rep.norm_B == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_sandwich_random(self):
        rng = np.random.default_rng(17)
        slack = 1e-10
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            V = random_invertible(rng, n)
            A = rng.standard_normal((n, n))
            B = np.eye(n) + 1j * A
            if np.linalg.svd(B, compute_uv=False)[-1] < 1e-6:
                continue
            rep = basis.rebricked_frame_bounds(V, A)
            assert rep.c_lower_estimate <= rep.c_exact + slack
            assert rep.c_exact <= rep.C_exact + slack
            assert rep.C_exact <= rep.C_upper_estimate + slack

    @pytest.mark.parametrize("scale", [1e170, 1e-170])
    def test_out_of_range_bounds_are_input_errors(self, scale):
        rng = np.random.default_rng(19)
        V, A = scale * rng.standard_normal((3, 3)), 0.1 * rng.standard_normal((3, 3))
        with pytest.raises(errors.InvalidMatrix, match="float64 range"):
            basis.rebricked_frame_bounds(V, A)

    def test_norm_identity_for_symmetric_operators(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            A = random_symmetric(rng, n)
            rep = basis.rebricked_frame_bounds(np.eye(n), A)
            norm_A = np.linalg.svd(A, compute_uv=False)[0]
            assert rep.norm_B**2 == pytest.approx(1.0 + norm_A**2, abs=1e-10)


class TestSpectralFactorize:
    def test_identity(self):
        R, D = basis.spectral_factorize_orthosym(np.eye(3))
        np.testing.assert_allclose(D, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(R @ D @ R.T, np.eye(3), atol=1e-12)

    def test_diagonal_reflection(self):
        A = np.diag([1.0, -1.0])
        R, D = basis.spectral_factorize_orthosym(A)
        np.testing.assert_allclose(D, A, atol=1e-14)
        np.testing.assert_allclose(R @ D @ R.T, A, atol=1e-12)

    def test_random_reflector_recovered(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            R0 = random_special_orthogonal(rng, 5)
            signs = rng.choice([-1.0, 1.0], size=5)
            A = R0 @ np.diag(signs) @ R0.T
            R, D = basis.spectral_factorize_orthosym(A)
            assert sorted(np.diag(D)) == sorted(signs)
            assert np.all(np.diff(np.diag(D)) <= 0)  # +1 block first
            np.testing.assert_allclose(R @ D @ R.T, A, atol=1e-10)
            np.testing.assert_allclose(R.T @ R, np.eye(5), atol=1e-10)

    def test_sign_convention_reproducible(self):
        rng = np.random.default_rng(20)
        R0 = random_special_orthogonal(rng, 4)
        A = R0 @ np.diag([1.0, 1.0, -1.0, -1.0]) @ R0.T
        R1, D1 = basis.spectral_factorize_orthosym(A)
        R2, D2 = basis.spectral_factorize_orthosym(A.copy())
        np.testing.assert_array_equal(R1, R2)
        np.testing.assert_array_equal(D1, D2)

    def test_rejects_plain_rotation(self):
        with pytest.raises(errors.NotOrthogonal):
            basis.spectral_factorize_orthosym(ROT45)

    def test_rejects_symmetric_nonorthogonal(self):
        with pytest.raises(errors.NotOrthogonal):
            basis.spectral_factorize_orthosym(np.diag([2.0, 1.0]))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 64),
        kind=st.sampled_from(["rotated", "near tolerance", "signed involution", "rotation"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_reference(self, n, kind, seed):
        # the reference keeps the reconstruction check R @ D @ R.T == A that the
        # factorization dropped: an input on which it fires is a mismatch here
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=n)
        if kind == "rotated":
            R0 = random_orthogonal(rng, n)
            A = R0 @ np.diag(signs) @ R0.T
        elif kind == "near tolerance":  # eigenvalues +-(1 + delta), |delta| <= equality_abs
            R0 = random_orthogonal(rng, n)
            delta = rng.uniform(-1.0, 1.0, n) * linalg.DEFAULT_TOL.equality_abs
            A = R0 @ np.diag(signs * (1.0 + delta)) @ R0.T
        elif kind == "signed involution":  # eigenvectors with entries of equal magnitude
            image = np.arange(n)
            pairs = rng.permutation(n)[: n // 2 * 2].reshape(-1, 2)
            for a, b in pairs[: rng.integers(0, n // 2 + 1)]:
                image[a], image[b] = b, a
            A = signs[:, None] * np.eye(n)[image] * signs
        else:  # not symmetric
            A = block_rotation(n, np.pi / 4) if n >= 2 else -np.eye(1)
        outcomes = []
        for factorize in (basis.spectral_factorize_orthosym, reference_spectral_factorize_orthosym):
            try:
                R, D = factorize(A)
            except errors.NotOrthogonal as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((R.tobytes(), D.tobytes()))
        assert outcomes[0] == outcomes[1]


def test_block_rotation_witness_used_by_other_tests():
    A = block_rotation(4, np.pi / 2)
    w = linalg.sorted_eigvals(A)
    assert np.min(np.abs(w - 1j)) < 1e-12
