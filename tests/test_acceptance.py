"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a [PASS]/[FAIL] line (visible with `pytest -s`), and the
timed criteria assert their runtime budgets.
"""

import time
from contextlib import contextmanager
from itertools import permutations as all_perms

import numpy as np

from rebrick import basis, frames, linalg, multipliers, permutation
from rebrick.frames import FiniteFrame
from support import (
    appended_vector_frame,
    duplicated_e1_frame,
    is_unitary_defect,
    multiplier_matrix,
    plant_eigenvalue_i,
    random_invertible,
    random_orthogonal,
    random_special_orthogonal,
    random_symmetric,
    rotation,
    shifted_duplicate_frame,
    symmetry_condition_check,
    truncating_shift,
)

ROT45 = rotation(np.pi / 4)
ROT90 = rotation(np.pi / 2)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_01_counterexample_reproduction():
    with criterion(1, "quarter-turn counterexample detected and repaired"):
        start = time.perf_counter()
        _, v = basis.rebrick_pair(np.eye(2), ROT90)
        assert not v.rebrickable
        eigs = sorted(v.eigenvalues_A, key=lambda z: z.imag)
        assert abs(eigs[0] - (-1j)) <= 1e-10
        assert abs(eigs[1] - 1j) <= 1e-10
        rep = permutation.repair_permutation(ROT90)
        assert rep.permutation == (1, 0)
        W = permutation.rebrick_with_permutation(np.eye(2), ROT90, rep.permutation)
        assert np.max(np.abs(W - np.diag([1 - 1j, 1 + 1j]))) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_02_eighth_turn_cases_and_non_transitivity():
    with criterion(2, "pi/4 rotations rebrick; composing them does not"):
        target = np.array([(1 - 1j) / np.sqrt(2), (1 + 1j) / np.sqrt(2)])
        for V1, V2 in ((np.eye(2), ROT45), (ROT45, ROT90)):
            _, v = basis.rebrick_pair(V1, V2)
            assert v.rebrickable
            A = basis.transfer_operator(V1, V2)
            eigs = sorted(linalg.sorted_eigvals(A), key=lambda z: z.imag)
            assert np.max(np.abs(np.array(eigs) - target)) <= 1e-10
        A1, A2 = basis.non_transitivity_witness(2)
        flags = tuple(
            basis.rebrick_with_operator(A, np.eye(2))[1].rebrickable
            for A in (A1, A2, A2 @ A1)
        )
        assert flags == (True, True, False)


def test_criterion_03_summed_char_poly_identity():
    with criterion(3, "permutation-summed characteristic polynomial identity"):
        start = time.perf_counter()
        rng = np.random.default_rng(2023)
        for n in (2, 3, 4, 5):
            perms = list(all_perms(range(n)))
            for _ in range(100):
                A = rng.standard_normal((n, n))
                total = np.zeros(n + 1)
                for pi in perms:
                    AP = A[:, np.argsort(pi)]
                    total += np.array(permutation.char_poly(AP).coefficients)
                closed = permutation.summed_char_poly(A)
                scale = np.maximum(np.abs(closed), 1.0)
                assert np.max(np.abs(total - closed) / scale) <= 1e-8

        # common eigenvalues across all permutations stay inside {0, mean}
        def common_eigs(A):
            n = A.shape[0]
            cands = np.linalg.eigvals(A)
            for pi in all_perms(range(n)):
                w = np.linalg.eigvals(A[:, np.argsort(pi)])
                cands = np.array([c for c in cands if np.min(np.abs(w - c)) <= 1e-8])
                if cands.size == 0:
                    break
            return cands

        for n in (2, 3, 4, 5):
            singular = np.zeros((n, n))
            singular[0, :] = 1.0
            singular[:, 0] += 1.0
            structured = [np.eye(n), singular]
            random_draws = [rng.standard_normal((n, n)) for _ in range(10)]
            for A in structured + random_draws:
                zero, mean = permutation.invariant_eigenvalue_candidates(A)
                for lam in common_eigs(A):
                    assert min(abs(lam - zero), abs(lam - mean)) <= 1e-8
        assert time.perf_counter() - start < 60.0


def test_criterion_04_repair_always_succeeds_on_planted_instances():
    with criterion(4, "200 planted eigenvalue-i matrices all repaired"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for trial in range(200):
            n = 2 + trial % 7  # dimensions 2..8
            A = plant_eigenvalue_i(rng, n)
            rep = permutation.repair_permutation(A)
            assert rep.sigma_min_after > 1e-8
        assert time.perf_counter() - start < 30.0


def test_criterion_05_onb_rebricking_classes():
    with criterion(5, "reflector class is unitary, non-symmetric class is not"):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 17))
            R = random_special_orthogonal(rng, n)
            D = np.diag(rng.choice([-1.0, 1.0], size=n))
            E = random_orthogonal(rng, n)
            E2 = R @ D @ R.T @ E
            U, is_onb, _ = basis.onb_rebrick_check(E, E2)
            assert is_onb
            assert is_unitary_defect(U) <= 1e-10
            assert symmetry_condition_check(E, E2) == is_onb
        count = 0
        while count < 500:
            n = int(rng.integers(2, 17))
            A = random_orthogonal(rng, n)
            if np.max(np.abs(A - A.T)) < 1e-4:
                continue
            count += 1
            E = random_orthogonal(rng, n)
            U, is_onb, _ = basis.onb_rebrick_check(E, A @ E)
            assert not is_onb
            assert is_unitary_defect(U) > 1e-6
            assert symmetry_condition_check(E, A @ E) == is_onb


def test_criterion_06_redundant_rebricked_frame_bounds():
    with criterion(6, "redundant rebricked frame has bounds (2, 4)"):
        rng = np.random.default_rng(13)
        for n in (2, 8, 64):
            S = appended_vector_frame(n, 0) + 1j * appended_vector_frame(n, 1)
            fb = frames.frame_bounds(FiniteFrame(S))
            assert abs(fb.c - 2.0) <= 1e-10
            assert abs(fb.C - 4.0) <= 1e-10
        S = appended_vector_frame(64, 0) + 1j * appended_vector_frame(64, 1)
        for _ in range(1000):
            f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            energy = float(np.sum(np.abs(S.conj().T @ f) ** 2))
            nf2 = float(np.linalg.norm(f) ** 2)
            assert 2.0 * nf2 <= energy * (1 + 1e-10)
            assert energy <= 4.0 * nf2 * (1 + 1e-10)


def test_criterion_07_partial_order_suite():
    with criterion(7, "kernel order, compatibility and factorization"):
        F = FiniteFrame(duplicated_e1_frame(4), "F")
        G = FiniteFrame(shifted_duplicate_frame(4), "G")
        v = frames.frame_leq(F, G)
        assert not v.leq and not v.geq
        assert frames.compatibility_operator(F, G) is None
        assert frames.compatibility_operator(G, F) is None

        rng = np.random.default_rng(17)
        n, m = 6, 9
        chain = [random_invertible(rng, n) @ np.hstack([np.eye(n), rng.standard_normal((n, m - n))])]
        for drop in (1, 2, 3):
            T = truncating_shift(n - drop, n)
            chain.append(np.vstack([T @ chain[0], np.zeros((drop, m))]))
        for i in range(4):
            for j in range(i, 4):
                assert frames.frame_leq(FiniteFrame(chain[j]), FiniteFrame(chain[i])).leq

        # kernel-dimension additivity, exact integer equality
        for _ in range(50):
            n1 = int(rng.integers(2, 5))
            p1 = int(rng.integers(n1, n1 + 4))
            q1 = int(rng.integers(p1, p1 + 4))
            A = rng.standard_normal((n1, p1))
            B = rng.standard_normal((p1, q1))
            assert (
                linalg.decompose(A @ B).kernel.shape[1]
                == linalg.decompose(A).kernel.shape[1] + linalg.decompose(B).kernel.shape[1]
            )

        # explicit factorization through a smaller-kernel surjection
        for _ in range(50):
            n1 = int(rng.integers(2, 5))
            p1 = int(rng.integers(n1 + 1, n1 + 5))
            q1 = int(rng.integers(n1, p1 + 1))
            A = rng.standard_normal((n1, p1))
            B = rng.standard_normal((n1, q1))
            T = frames.surjective_factor(A, B)
            assert T is not None
            assert np.max(np.abs(B @ T - A)) <= 1e-9
            assert linalg.decompose(T).kernel.shape[1] == (p1 - n1) - (q1 - n1)


def test_criterion_08_absorbed_defect_example():
    with criterion(8, "kernel of the outer map absorbs the symbol defect"):
        n, p = 6, 8
        S = np.eye(p)
        S[:2, :2] = ROT90
        A = truncating_shift(n, p)
        BS = np.eye(p) + 1j * S
        assert linalg.regularity_of(BS).rank == p - 1
        assert frames.frrebrick_check(A, S).surjective is True
        assert linalg.regularity_of(A @ BS).rank == n


def test_criterion_09_analytic_signal_obstruction():
    with criterion(9, "Id + iH has rank 33 and kernel 31 at N = 64"):
        N = 64
        r, k = multipliers.analytic_defect(N)
        assert (r, k) == (33, 31)
        rng = np.random.default_rng(19)
        H = multiplier_matrix(multipliers.discrete_hilbert(N)).real
        B = np.eye(N) + 1j * H
        for _ in range(10):
            f = rng.standard_normal(N)
            X = np.fft.fft(f, norm="ortho")
            X[0] = 0.0
            X[N // 2] = 0.0  # convention bins carry no analytic content
            f = np.fft.ifft(X, norm="ortho").real
            witness = f - 1j * (H @ f)
            assert np.max(np.abs(B @ witness)) <= 1e-10 * max(1.0, np.linalg.norm(f))


def test_criterion_10_trigonometric_demo():
    with criterion(10, "rebricked trigonometric system matches exponentials"):
        rep = multipliers.trig_rebrick_demo(8, 64)
        assert rep.max_dev <= 1e-10


def test_criterion_11_frame_bound_sandwich():
    with criterion(11, "operator-norm sandwich on 1000 rebrickable instances"):
        rng = np.random.default_rng(23)
        slack = 1e-10
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            V = random_invertible(rng, n)
            A = random_symmetric(rng, n)  # symmetric: rebrickable by construction
            rep = basis.rebricked_frame_bounds(V, A)
            assert rep.c_lower_estimate <= rep.c_exact + slack
            assert rep.c_exact <= rep.C_exact + slack
            assert rep.C_exact <= rep.C_upper_estimate + slack
            norm_A = np.linalg.svd(A, compute_uv=False)[0]
            assert abs(rep.norm_B**2 - (1.0 + norm_A**2)) <= 1e-10


def test_criterion_12_conditioning_sweep():
    with criterion(12, "sigma_min decays without the kernel ever opening"):
        rows = multipliers.conditioning_sweep([16, 32, 64, 128, 256])
        sigmas = [r.sigma_min for r in rows]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
        assert sigmas[-1] < 0.05
        assert all(r.kernel_dim == 0 for r in rows)
