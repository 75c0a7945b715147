import re
import warnings
from itertools import permutations as all_perms

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rebrick
from rebrick import errors, linalg, permutation
from support import (
    char_poly_minors,
    count_svd_calls,
    exact_char_poly,
    permutation_matrix,
    plant_eigenvalue_i,
    random_invertible,
    random_orthogonal,
    reference_repair,
    reference_repair_permutation,
    rotation,
)

ROT90 = rotation(np.pi / 2)


def _permuted(A, pi) -> np.ndarray:
    """A @ P_pi as rebrick_with_permutation forms it: the imaginary part of Id + i * A @ P_pi."""
    return permutation.rebrick_with_permutation(np.eye(len(pi)), A, pi).imag


class TestColumnPermutation:
    def test_four_by_four_cycle(self):
        # image of the 3-cycle 2->3->4->2 (0-based: 1->2->3->1)
        pi = (0, 2, 3, 1)
        A = np.arange(16.0).reshape(4, 4)
        out = _permuted(A, pi)
        a = [A[:, j] for j in range(4)]
        expected = np.column_stack([a[0], a[3], a[1], a[2]])
        np.testing.assert_array_equal(out, expected)
        # matrix route gives the same result
        P = permutation_matrix(pi, 4)
        np.testing.assert_array_equal(A @ P, expected)
        np.testing.assert_array_equal(
            P,
            np.array(
                [
                    [1, 0, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, 1],
                    [0, 1, 0, 0],
                ],
                dtype=float,
            ),
        )

    def test_identity(self):
        A = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(_permuted(A, (0, 1, 2)), A)

    def test_transposition_on_identity(self):
        out = _permuted(np.eye(2), (1, 0))
        np.testing.assert_array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_not_a_permutation(self):
        with pytest.raises(errors.NotAPermutation):
            permutation.rebrick_with_permutation(np.eye(3), np.eye(3), (0, 0, 2))
        with pytest.raises(errors.NotAPermutation):
            permutation.rebrick_with_permutation(np.eye(3), np.eye(3), (0, 1))
        # an entry that is not an integer value is refused, not truncated by int()
        # a boolean is not one either, as as_matrix and matio refuse a boolean entry
        for pi in [(1.9, 0.99), (np.nan, 0), (1.0, np.nan), (np.inf, 0), (1j, 0), (1 + 0j, 0),
                   (True, False), (1, False), (np.True_, np.False_)]:
            with pytest.raises(errors.NotAPermutation, match="is not a bijection on 0..1$"):
                permutation.rebrick_with_permutation(np.eye(2), ROT90, pi)
            with pytest.raises(errors.NotAPermutation, match="is not a bijection on 0..1$"):
                permutation.cycle_notation(pi)
        with pytest.raises(errors.NotAPermutation, match=r"^\(1\.5, 0\.2\) is not a bijection"):
            permutation.cycle_notation((1.5, 0.2))
        # integer-valued floats are integers
        np.testing.assert_array_equal(
            permutation.rebrick_with_permutation(np.eye(2), ROT90, (1.0, 0.0)),
            permutation.rebrick_with_permutation(np.eye(2), ROT90, (1, 0)),
        )
        assert permutation.cycle_notation(np.array([1.0, 0.0])) == "(1 2)"

    def test_cycle_notation(self):
        assert permutation.cycle_notation((0, 1, 2)) == "id"
        assert permutation.cycle_notation((1, 0)) == "(1 2)"
        assert permutation.cycle_notation((0, 2, 3, 1)) == "(2 3 4)"
        assert permutation.cycle_notation((1, 0, 2, 4, 5, 3)) == "(1 2)(4 5 6)"


class TestCharPoly:
    def test_identity_two(self):
        p = permutation.char_poly(np.eye(2))
        np.testing.assert_allclose(p.coefficients, [1.0, -2.0, 1.0], atol=1e-14)

    def test_quarter_turn(self):
        p = permutation.char_poly(ROT90)
        np.testing.assert_allclose(p.coefficients, [1.0, 0.0, 1.0], atol=1e-14)

    def test_against_exact_integer_oracle(self):
        rng = np.random.default_rng(1)
        for n in range(2, 13):
            for _ in range(50 if n <= 4 else 2):
                A = rng.integers(-5, 6, size=(n, n))
                exact = np.array([float(c) for c in exact_char_poly(A)])
                p = np.array(permutation.char_poly(A.astype(float)).coefficients)
                scale = max(1.0, float(np.max(np.abs(exact))))
                assert np.max(np.abs(p - exact)) <= 1e-9 * scale

    def test_trace_and_determinant_coefficients(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            p = permutation.char_poly(A)
            assert p.coefficients[n - 1] == pytest.approx(-np.trace(A), rel=1e-10, abs=1e-10)
            assert p.coefficients[0] == pytest.approx(
                (-1.0) ** n * np.linalg.det(A), rel=1e-8, abs=1e-10
            )

    def test_minors_agree_with_recursion(self):
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            for _ in range(10):
                A = rng.standard_normal((n, n))
                a = char_poly_minors(A)
                b = np.array(permutation.char_poly(A).coefficients)
                scale = np.maximum(np.abs(a), 1.0)
                assert np.max(np.abs(a - b) / scale) <= 1e-9

    def test_large_dimension_gives_a_monic_degree_n_polynomial(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((15, 15))
        p = permutation.char_poly(A)
        assert len(p.coefficients) - 1 == 15 and p.coefficients[-1] == 1.0

    def test_evaluation_at_eigenvalue_is_zero(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 5))
        p = permutation.char_poly(A)
        for lam in np.linalg.eigvals(A):
            assert abs(np.polyval(p.coefficients[::-1], lam)) < 1e-6


class TestSummedCharPoly:
    def test_identity_two(self):
        np.testing.assert_allclose(
            permutation.summed_char_poly(np.eye(2)), [0.0, -2.0, 2.0], atol=1e-14
        )

    def test_zero_three(self):
        np.testing.assert_allclose(
            permutation.summed_char_poly(np.zeros((3, 3))), [0.0, 0.0, 0.0, 6.0], atol=0
        )

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            A = rng.integers(-4, 5, size=(3, 3)).astype(float)
            total = np.zeros(4)
            for pi in all_perms(range(3)):
                total += np.array(
                    permutation.char_poly(A[:, np.argsort(pi)]).coefficients
                )
            np.testing.assert_allclose(total, permutation.summed_char_poly(A), atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            A = rng.standard_normal((n, n))
            total = np.zeros(n + 1)
            for pi in all_perms(range(n)):
                total += np.array(
                    permutation.char_poly(A[:, np.argsort(pi)]).coefficients
                )
            closed = permutation.summed_char_poly(A)
            scale = np.maximum(np.abs(closed), 1.0)
            assert np.max(np.abs(total - closed) / scale) <= 1e-8


@pytest.mark.parametrize(
    "f, A, name",
    [
        # Faddeev-LeVerrier's X_2 squares the entries; the true coefficients are finite
        (permutation.char_poly, 1e200 * np.ones((2, 2)), "char_poly(A)"),
        (permutation.summed_char_poly, 1e308 * np.ones((2, 2)), "summed_char_poly(A)"),
        (permutation.invariant_eigenvalue_candidates, 1e308 * np.ones((2, 2)), "sum(A)"),
        (permutation.summed_char_poly, np.eye(171), "summed_char_poly(A)"),  # 171! > float max
    ],
    ids=["char_poly", "summed_char_poly", "invariant_eigenvalue_candidates", "171!"],
)
def test_a_coefficient_beyond_float64_is_named_without_a_warning(f, A, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InvalidMatrix, match=rf"^{re.escape(name)}: entries must be finite"):
            f(A)


class TestInvariantCandidates:
    def test_identity(self):
        zero, mean = permutation.invariant_eigenvalue_candidates(np.eye(4))
        assert zero == 0.0
        assert mean == pytest.approx(1.0)
        # 1 really is an eigenvalue of every column permutation of the identity
        ones = np.ones(4) / 2.0
        for pi in all_perms(range(4)):
            P = np.eye(4)[:, np.argsort(pi)]
            np.testing.assert_allclose(P @ ones, np.linalg.matrix_power(P, 1) @ ones)
            w = np.linalg.eigvals(P)
            assert np.min(np.abs(w - 1.0)) < 1e-10

    def test_singular_matrix_keeps_zero(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]])
        for pi in all_perms(range(3)):
            AP = A[:, np.argsort(pi)]
            w = np.linalg.eigvals(AP)
            assert np.min(np.abs(w)) < 1e-10

    def _common_eigenvalues(self, A, tol=1e-8):
        n = A.shape[0]
        candidates = np.linalg.eigvals(A)
        for pi in all_perms(range(n)):
            w = np.linalg.eigvals(A[:, np.argsort(pi)])
            candidates = np.array(
                [c for c in candidates if np.min(np.abs(w - c)) <= tol]
            )
            if candidates.size == 0:
                break
        return candidates

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_common_eigenvalues_inside_candidate_pair(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            A = rng.standard_normal((n, n))
            zero, mean = permutation.invariant_eigenvalue_candidates(A)
            for lam in self._common_eigenvalues(A):
                assert min(abs(lam - zero), abs(lam - mean)) <= 1e-8


class TestRepair:
    def test_quarter_turn_repaired_by_swap(self):
        rep = permutation.repair_permutation(ROT90)
        assert rep.permutation == (1, 0)
        W = permutation.rebrick_with_permutation(np.eye(2), ROT90, rep.permutation)
        np.testing.assert_allclose(W, np.diag([1.0 - 1j, 1.0 + 1j]), atol=1e-12)

    def test_no_eigenvalue_i_keeps_identity(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 4)) + 5 * np.eye(4)
        rep = permutation.repair_permutation(A)
        assert rep.permutation == (0, 1, 2, 3)
        assert rep.trials == 1

    def test_planted_eigenvalue_repaired_and_verified(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = plant_eigenvalue_i(rng, n)
            rep = permutation.repair_permutation(A)
            AP = A[:, np.argsort(rep.permutation)]
            w = linalg.sorted_eigvals(AP)
            assert np.min(np.abs(w - 1j)) > 1e-8
            assert rep.sigma_min_after > 1e-8

    @pytest.mark.parametrize("n", list(range(2, 9)))
    def test_always_succeeds_up_to_eight(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            A = plant_eigenvalue_i(rng, n)
            rep = permutation.repair_permutation(A)
            assert rep.sigma_min_after > 0

    def test_large_dimension_uses_seeded_random_search(self):
        rng = np.random.default_rng(9)
        A = plant_eigenvalue_i(rng, 9)
        rep1 = permutation.repair_permutation(A, seed=42)
        rep2 = permutation.repair_permutation(A, seed=42)
        assert rep1 == rep2
        AP = A[:, np.argsort(rep1.permutation)]
        assert np.min(np.abs(linalg.sorted_eigvals(AP) - 1j)) > 1e-8

    @pytest.mark.parametrize("n", [9, 12])
    def test_regular_input_keeps_identity_at_every_size(self, n):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((n, n)) + 5 * np.eye(n)
        rep = permutation.repair_permutation(A, seed=3)
        assert rep.permutation == tuple(range(n))
        assert rep.trials == 1

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("seed", range(10))
    def test_quarter_turn_blocks_repaired_in_few_trials(self, n, seed):
        # every 2x2 block has eigenvalue i, so the identity and most block-preserving orders fail
        A = np.kron(np.eye(n // 2), ROT90)
        rep = permutation.repair_permutation(A, seed=seed)
        assert rep.trials <= 20
        AP = A[:, np.argsort(rep.permutation)]
        assert np.min(np.abs(linalg.sorted_eigvals(AP) - 1j)) > 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 7, 42])
    def test_negative_seed_has_its_own_stream(self, seed):
        # random.Random(-s) repeats random.Random(s); a negative seed must not
        A = np.kron(np.eye(4), ROT90)
        plus = permutation.repair_permutation(A, seed=seed)
        minus = permutation.repair_permutation(A, seed=-seed)
        assert plus.permutation != minus.permutation
        AP = A[:, np.argsort(minus.permutation)]
        assert np.min(np.abs(linalg.sorted_eigvals(AP) - 1j)) > 1e-8

    def test_nonnegative_seeds_keep_their_stream(self):
        A = np.kron(np.eye(4), ROT90)
        assert permutation.repair_permutation(A, seed=1).permutation == (3, 6, 1, 5, 7, 0, 4, 2)

    def test_numpy_integer_seed(self):
        A = plant_eigenvalue_i(np.random.default_rng(14), 9)
        assert permutation.repair_permutation(A, seed=np.int64(5)) == (
            permutation.repair_permutation(A, seed=5)
        )

    @pytest.mark.parametrize("A", [0.5 * np.eye(3), np.kron(np.eye(2), ROT90)])
    def test_float_seed_rejected_before_the_first_trial(self, A):
        # the identity repairs 0.5 * Id at trial 1; the quarter turns need a shuffle
        with pytest.raises(TypeError):
            permutation.repair_permutation(A, seed=1.5)


    @pytest.mark.parametrize(("n", "t"), [(2, 1e15), (64, 1e12)])
    def test_hopeless_operator_refused_after_one_trial(self, n, t):
        # every A @ P has rank one, so sigma_min(Id + iAP) <= 1, far below the cutoff
        with pytest.raises(errors.SearchExhausted, match="^no permutation can repair A"):
            permutation.repair_permutation(t * np.ones((n, n)))

    @pytest.mark.parametrize(
        "A",
        [3e13 * np.ones((2, 2)), 3e12 * np.outer([1.0, 2.0, 3.0], [3.0, -1.0, 2.0])],
        ids=["3e13 ones(2)", "rank 1, n = 3"],
    )
    def test_refused_inside_the_old_weyl_gap(self, A, monkeypatch):
        # each trial's cutoff lies between 1 and 5: the bound through sigma(Id + iA) +- 2 missed
        # them and ran every shuffle; the bound through sigma(A) takes one more SVD, of A
        monkeypatch.setattr(permutation, "_TRIAL_CAP", 2)
        calls = count_svd_calls(monkeypatch)
        with pytest.raises(errors.SearchExhausted, match="^no permutation can repair A"):
            permutation.repair_permutation(A)
        assert len(calls) == 2
        n = A.shape[0]
        trials = (np.eye(n) + 1j * A[:, list(p)] for p in all_perms(range(n)))
        assert not any(linalg.regularity_of(B).regular for B in trials)

    @pytest.mark.parametrize("A", [ROT90, np.kron(np.eye(4), ROT90)], ids=["n = 2", "n = 8"])
    def test_unit_scale_repair_takes_one_svd_per_trial(self, A, monkeypatch):
        # the identity trial fails with a cutoff far below 1/2, so A itself is not decomposed
        calls = count_svd_calls(monkeypatch)
        rep = permutation.repair_permutation(A)
        assert rep.trials >= 2 and len(calls) == rep.trials


class TestRebrickWithPermutation:
    def test_matches_conjugated_form(self):
        rng = np.random.default_rng(10)
        V = random_invertible(rng, 4)
        A = plant_eigenvalue_i(rng, 4)
        At = np.linalg.inv(V) @ A @ V
        rep = permutation.repair_permutation(At)
        W = permutation.rebrick_with_permutation(V, A, rep.permutation)
        P = permutation_matrix(rep.permutation, 4)
        np.testing.assert_allclose(W, V @ (np.eye(4) + 1j * At @ P), atol=1e-9)
        assert np.linalg.svd(W, compute_uv=False)[-1] > 1e-8

    def test_identity_permutation_trivial_case(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        W = permutation.rebrick_with_permutation(np.eye(3), A, (0, 1, 2))
        np.testing.assert_allclose(W, np.eye(3) + 1j * A, atol=1e-12)

    def test_rejects_non_repairing_permutation(self):
        with pytest.raises(errors.NotRebrickable):
            permutation.rebrick_with_permutation(np.eye(2), ROT90, (0, 1))

    def test_overflowing_product_is_named(self):
        rng = np.random.default_rng(12)
        V, A = 1e170 * random_invertible(rng, 3), 1e170 * plant_eigenvalue_i(rng, 3)
        with pytest.raises(errors.InvalidMatrix, match="^A @ V: entries must be finite"):
            permutation.rebrick_with_permutation(V, A, (1, 0, 2))

    @pytest.mark.parametrize("pi", [(1, 0), (0, 1)])
    def test_singular_v_is_not_a_basis(self, pi):
        # with (1, 0), W = diag(1, i) is regular, yet V is no basis; with (0, 1), W is singular,
        # and the refusal names V, not the permutation
        V, A = np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(errors.RankDeficientInput, match="^columns of V do not form a basis$"):
            permutation.rebrick_with_permutation(V, A, pi)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    kind=st.sampled_from(["planted", "random"]),
    seed=st.integers(0, 2**32 - 1),
    search_seed=st.integers(-100, 100),
)
def test_repair_is_the_cli_route(n, kind, seed, search_seed):
    """The same bytes of W and the same certificate as the repair rule written out."""
    rng = np.random.default_rng(seed)
    V = random_invertible(rng, n)
    A = plant_eigenvalue_i(rng, n) if kind == "planted" else rng.standard_normal((n, n))
    W, rep = permutation.repair(V, A, seed=search_seed)
    W_ref, rep_ref = reference_repair(V, A, seed=search_seed)
    assert (W.dtype, W.shape, W.tobytes()) == (W_ref.dtype, W_ref.shape, W_ref.tobytes())
    assert rep == rep_ref


@pytest.mark.parametrize(
    "V, A, want",
    [
        (np.ones((2, 2)), ROT90, "columns of V do not form a basis"),
        (1e170 * np.eye(2), 1e170 * ROT90, "A @ V: entries must be finite"),
        # inv(V) @ A @ V leaves float64, yet no solve runs before the search: every W_P is singular
        (np.diag([1.0, 1e-12]), [[0.0, 0.0], [1e300, 0.0]], "no permutation can repair A"),
        (np.eye(2), 3e13 * np.ones((2, 2)), "no permutation can repair A"),
    ],
    ids=["singular V", "A @ V overflows", "inv(V) @ A @ V beyond float64", "3e13 * ones"],
)
def test_repair_refuses_as_the_cli_route(V, A, want):
    refusals = []
    for route in (permutation.repair, reference_repair):
        with pytest.raises(errors.RebrickError) as info:
            route(V, A)
        refusals.append((type(info.value), str(info.value)))
    assert refusals[0] == refusals[1] and refusals[0][1].startswith(want)


def _quarter_turns(n):
    """Eigenvalue i in every 2x2 diagonal block, so the identity fails and a shuffle must repair."""
    A = np.eye(n)
    A[: n // 2 * 2, : n // 2 * 2] = np.kron(np.eye(n // 2), ROT90)
    return A


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 12),
    kind=st.sampled_from(["planted", "random", "quarter turns"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_repair_matches_the_reference(n, kind, seed):
    """The same trial, permutation, certificates and degenerate flag as the written-out search."""
    rng = np.random.default_rng(seed)
    if kind == "planted":
        A = plant_eigenvalue_i(rng, n)
    elif kind == "random":
        A = rng.standard_normal((n, n))
    else:
        A = _quarter_turns(n)
    search_seed = int(rng.integers(-100, 100))
    got = permutation.repair_permutation(A, seed=search_seed)
    assert got == reference_repair_permutation(A, seed=search_seed)


@pytest.mark.parametrize("seed", [0, 1, 7, -1])
@pytest.mark.parametrize("n", range(2, 13))
def test_repair_matches_the_reference_past_the_identity(n, seed):
    A = _quarter_turns(n)
    got = permutation.repair_permutation(A, seed=seed)
    assert got.trials >= 2
    assert got == reference_repair_permutation(A, seed=seed)


def _two_step_refusal(V, A, tol=linalg.DEFAULT_TOL) -> bool:
    """The earlier bound, through sigma(V + iAV) +- 2 sigma_max(V): one the refusal must keep."""
    n = A.shape[0]
    v = np.linalg.svd(V, compute_uv=False)[0]
    reg = linalg.regularity_of(V + 1j * (A @ V), tol)
    slack = 2 * n * linalg.EPS * reg.sigma_max
    return reg.sigma_min + 2 * v + slack <= tol.rank_rel * n * (reg.sigma_max - 2 * v - slack)


@pytest.mark.parametrize(
    "n, v_seed",
    [(2, None), (3, None), (4, None), (2, 60), (3, 61), (4, 62)],
    ids=["2", "3", "4", "random V-2", "random V-3", "random V-4"],
)
def test_refusal_is_sound(n, v_seed, monkeypatch):
    """Whenever the refusal fires, no permutation of n! passes at tolerance."""
    # a hopeless input the refusal misses would otherwise run the full cap
    monkeypatch.setattr(permutation, "_TRIAL_CAP", 1000)
    rng = np.random.default_rng(50 + n)
    V = np.eye(n) if v_seed is None else random_invertible(np.random.default_rng(v_seed), n)
    # rank r < n puts sigma_min(A) far below sigma_max(A); at 1e12-1e15 a trial's cutoff
    # passes 1, where the bound through sigma(Id + iA) left a gap
    inputs = [(scale, r) for scale in 10.0 ** np.arange(0.0, 16.25, 0.25) for r in range(n + 1)]
    inputs += [(scale, r) for scale in 10.0 ** np.arange(12.0, 15.05, 0.1) for r in range(1, n)]
    fired = 0
    for scale, r in inputs:
        A = scale * rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        try:
            permutation.repair(V, A)
            refused = False
        except errors.SearchExhausted as exc:
            refused = str(exc).startswith("no permutation can repair A")  # the refusal, not the cap
        if refused:
            fired += 1
            trials = (V + 1j * (A @ V)[:, list(p)] for p in all_perms(range(n)))
            assert not any(linalg.regularity_of(B).regular for B in trials)
        else:
            assert not _two_step_refusal(V, A)
    assert fired > 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    kind=st.sampled_from(["planted", "random", "near i"]),
    log_cond=st.floats(0.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
    search_seed=st.integers(-100, 100),
)
def test_repair_writes_a_basis(n, kind, log_cond, seed, search_seed):
    """A W that repair returns is the trial rebrick_with_permutation returns, bit for bit, and
    check_basis calls it a basis, for V with condition number up to 1e12."""
    rng = np.random.default_rng(seed)
    if kind == "near i":
        # V = diag(d) with d powers of 2, so A = V At inv(V) and A @ V = V At are exact.  At has
        # eigenvalue i + 1e-4: Id + i At clears its own cutoff, yet V (Id + i At) is singular at
        # its cutoff once cond(V) passes about 1e10
        d = 2.0 ** -np.round(rng.uniform(0.0, 40.0, n))
        V, A = np.diag(d), d[:, None] * (plant_eigenvalue_i(rng, n) + 1e-4 * np.eye(n)) / d
    else:
        s = np.logspace(0.0, -log_cond, n)
        V = (random_orthogonal(rng, n) * s) @ random_orthogonal(rng, n)
        A = plant_eigenvalue_i(rng, n) if kind == "planted" else rng.standard_normal((n, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permutation, "_TRIAL_CAP", 200)  # "no" answers are not what this checks
        try:
            W, rep = permutation.repair(V, A, seed=search_seed)
        except errors.SearchExhausted:
            return
    assert permutation.rebrick_with_permutation(V, A, rep.permutation).tobytes() == W.tobytes()
    assert rebrick.check_basis(W).regular


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    kind=st.sampled_from(["planted", "random", "quarter turns"]),
    seed=st.integers(0, 2**32 - 1),
    search_seed=st.integers(-100, 100),
)
def test_repair_at_the_identity_is_repair_permutation(n, kind, seed, search_seed):
    rng = np.random.default_rng(seed)
    if kind == "planted":
        A = plant_eigenvalue_i(rng, n)
    elif kind == "random":
        A = rng.standard_normal((n, n))
    else:
        A = _quarter_turns(n)
    _, got = permutation.repair(np.eye(n), A, seed=search_seed)
    want = permutation.repair_permutation(A, seed=search_seed)
    assert (got.permutation, got.trials, got.sigma_min_after) == (
        want.permutation, want.trials, want.sigma_min_after
    )
