"""Shared constructions and exact-arithmetic oracles for the test suite."""

from fractions import Fraction
from itertools import combinations

import numpy as np

from rebrick import linalg, multipliers


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def block_rotation(n: int, theta: float) -> np.ndarray:
    A = np.eye(n)
    A[:2, :2] = rotation(theta)
    return A


def random_orthogonal(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_special_orthogonal(rng, n: int) -> np.ndarray:
    Q = random_orthogonal(rng, n)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_invertible(rng, n: int, cond_cap: float = 1e6) -> np.ndarray:
    while True:
        M = rng.standard_normal((n, n))
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] < cond_cap:
            return M


def random_symmetric(rng, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return (M + M.T) / 2.0


def plant_eigenvalue_i(rng, n: int) -> np.ndarray:
    """Real n x n matrix with eigenvalues +-i, via orthogonal conjugation."""
    assert n >= 2
    core = np.eye(n)
    core[:2, :2] = rotation(np.pi / 2.0)
    if n > 2:
        core[2:, 2:] = random_invertible(rng, n - 2)
    Q = random_orthogonal(rng, n)
    return Q @ core @ Q.T


# ---------------------------------------------------------------- frames

def duplicated_e1_frame(n: int) -> np.ndarray:
    """Synthesis of {e1, e1, e2, ..., en}: n x (n+1)."""
    S = np.zeros((n, n + 1))
    S[0, 0] = S[0, 1] = 1.0
    for k in range(1, n):
        S[k, k + 1] = 1.0
    return S


def shifted_duplicate_frame(n: int) -> np.ndarray:
    """Synthesis of {e1, e2, e2, e3, ..., en}: n x (n+1)."""
    S = np.zeros((n, n + 1))
    S[0, 0] = 1.0
    S[1, 1] = S[1, 2] = 1.0
    for k in range(2, n):
        S[k, k + 1] = 1.0
    return S


def appended_vector_frame(n: int, extra_index: int) -> np.ndarray:
    """Synthesis of {e1, ..., en, e_extra}: n x (n+1)."""
    S = np.zeros((n, n + 1))
    S[:, :n] = np.eye(n)
    S[extra_index, n] = 1.0
    return S


def parseval_split_frame(n: int) -> np.ndarray:
    """Synthesis of {e1/sqrt2, e1/sqrt2, e2, ..., en}: Parseval, n x (n+1)."""
    S = duplicated_e1_frame(n)
    S[0, 0] = S[0, 1] = 1.0 / np.sqrt(2.0)
    return S


def zero_padded_frame(n: int) -> np.ndarray:
    """Synthesis of {0, e1, ..., en}: n x (n+1)."""
    S = np.zeros((n, n + 1))
    S[:, 1:] = np.eye(n)
    return S


def truncating_shift(n: int, p: int) -> np.ndarray:
    """n x p map dropping the first p - n coordinates: x -> (x_{p-n+1}, ..., x_p)."""
    A = np.zeros((n, p))
    for j in range(n):
        A[j, j + (p - n)] = 1.0
    return A


# ------------------------------------------------------- exact oracles

def exact_char_poly(A_int) -> list[Fraction]:
    """det(lambda*Id - A) over Fractions, ascending coefficients (monic)."""
    A = [[Fraction(int(v)) for v in row] for row in np.asarray(A_int)]
    n = len(A)

    def matmul(X, Y):
        return [
            [sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def add_scaled_identity(X, c):
        return [
            [X[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)
        ]

    # Faddeev-LeVerrier over exact rationals
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        M = add_scaled_identity(matmul(A, M), c)
        AM = matmul(A, M)
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return coeffs


def char_poly_minors(A) -> np.ndarray:
    """det(lambda*Id - A) from the literal formula, ascending coefficients (float).

    The coefficient of lambda^k is (-1)^(n-k) times the sum of the principal
    minors of order n-k: 2^n determinants, so only for small n.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    idx = range(n)
    for k in range(n):
        total = 0.0
        for dropped in combinations(idx, k):
            keep = [j for j in idx if j not in dropped]
            total += np.linalg.det(A[np.ix_(keep, keep)])
        coeffs[k] = (-1.0) ** (n - k) * total
    return coeffs


def exact_rank(A_int) -> int:
    """Row-echelon rank over Fractions."""
    M = [[Fraction(int(v)) for v in row] for row in np.asarray(A_int)]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c] / M[r][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
        if r == rows:
            break
    return r


# ------------------------------------------------- dense multiplier oracle

def dense_id_plus_i(m) -> np.ndarray:
    """Dense N x N matrix of Id + i*A, A the operator with symbol m."""
    A = multipliers.multiplier_matrix(m)
    return np.eye(A.shape[0]) + 1j * A


def dense_rank_sigma_min(m, tol=linalg.DEFAULT_TOL) -> tuple[int, float]:
    """(rank, sigma_min) of Id + i*A from a dense SVD."""
    B = dense_id_plus_i(m)
    return linalg.rank(B, tol), float(np.linalg.svd(B, compute_uv=False)[-1])


def dense_translates(x, m) -> tuple[np.ndarray, float]:
    """Columns T^n((Id + i*A)/sqrt(2) x), one np.roll each, and their unitarity defect."""
    bx = dense_id_plus_i(m) @ np.asarray(x, dtype=complex) / np.sqrt(2.0)
    cols = np.column_stack([np.roll(bx, n) for n in range(bx.size)])
    return cols, linalg.is_unitary_defect(cols)


def count_svd_calls(monkeypatch) -> list:
    """Record every np.linalg.svd call from now on; returns the growing record."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def count_validations(monkeypatch) -> list:
    """Record every linalg.as_matrix call from now on; returns the growing record of names."""
    calls = []
    as_matrix = linalg.as_matrix

    def counting(M, name="matrix"):
        calls.append(name)
        return as_matrix(M, name)

    monkeypatch.setattr(linalg, "as_matrix", counting)
    return calls
