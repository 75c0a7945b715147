"""Dense real/complex matrix kernel with explicit tolerance semantics.

All rank, kernel and invertibility decisions in the package go through
this module so that a single threshold convention applies everywhere:
a singular value counts as nonzero when it exceeds

    rank_rel * max(rows, cols) * sigma_max.

Everything here is a pure function of its arguments; nothing mutates
its inputs and there is no module state, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, ShapeMismatch, Singular

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerance:
    """Threshold bundle used by every decision in the package.

    rank_rel     relative cutoff for singular values (rank decisions)
    eig_abs      absolute proximity threshold for eigenvalue tests
    equality_abs absolute threshold for matrix-equality assertions
    """

    rank_rel: float = 64.0 * EPS
    eig_abs: float = 1e-8
    equality_abs: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0):
            raise ValueError("rank_rel must lie in (0, 1)")
        # NaN fails every comparison, so a bare `<= 0` test would let it through
        for t in (self.eig_abs, self.equality_abs):
            if not (np.isfinite(t) and t > 0.0):
                raise ValueError(f"tolerances must be finite and strictly positive, got {t!r}")

    @classmethod
    def from_scalar(cls, t: float) -> "Tolerance":
        """Tolerance with eig_abs = equality_abs = t and the default rank cutoff."""
        return cls(eig_abs=float(t), equality_abs=float(t))


DEFAULT_TOL = Tolerance()


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return M as a finite 2-D ndarray (real or complex)."""
    A = np.asarray(M)
    if A.dtype == object or not np.issubdtype(A.dtype, np.number):
        raise InvalidMatrix(f"{name}: entries must be numeric")
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidMatrix(f"{name}: expected a 2-D array, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise InvalidMatrix(f"{name}: entries must be finite (no NaN/Inf)")
    if np.issubdtype(A.dtype, np.complexfloating):
        return A.astype(np.complex128, copy=False)
    return A.astype(np.float64, copy=False)


def require_square(M, name: str = "matrix") -> np.ndarray:
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"{name}: expected square, got {A.shape[0]}x{A.shape[1]}")
    return A


def svd(M):
    """Singular value decomposition M = U @ diag(s) @ V.conj().T.

    Returns (U, s, V) with orthonormal columns in U and V and s sorted
    in descending order.
    """
    A = as_matrix(M)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    return U, s, Vh.conj().T


def singular_values(M) -> np.ndarray:
    return np.linalg.svd(as_matrix(M), compute_uv=False)


def sigma_extremes(M) -> tuple[float, float]:
    """(sigma_min, sigma_max) of M; sigma_min refers to min(rows, cols) values."""
    s = singular_values(M)
    return float(s[-1]), float(s[0])


def rank_cutoff(M, tol: Tolerance = DEFAULT_TOL, sigma_max: float | None = None) -> float:
    """The singular-value cutoff rank_rel * max(shape) * sigma_max for M."""
    A = as_matrix(M)
    if sigma_max is None:
        sigma_max = float(singular_values(A)[0])
    return tol.rank_rel * max(A.shape) * sigma_max


def eigenvalues(M) -> np.ndarray:
    """Eigenvalue multiset of a square matrix, sorted by (real, imag).

    Real input comes back closed under complex conjugation.
    """
    A = require_square(M)
    w = np.linalg.eigvals(A)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def rank(M, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff."""
    A = as_matrix(M)
    return rank_from_singular_values(singular_values(A), max(A.shape), tol)


def rank_from_singular_values(s, size: int, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of an operator from its singular values s (any order).

    `size` is the larger dimension of the operator, so the cutoff is the
    one `rank` applies: rank_rel * size * max(s).
    """
    s = np.asarray(s)
    sigma_max = float(np.max(s)) if s.size else 0.0
    if sigma_max == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * size * sigma_max))


def kernel_basis(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the nullspace as columns (possibly zero columns).

    The basis consists of the right singular vectors whose singular values
    fall at or below the rank cutoff, so M @ K vanishes at working precision
    and K.conj().T @ K is the identity.
    """
    A = as_matrix(M)
    _, s, V = svd(A)
    r = rank(A, tol)
    n_cols = A.shape[1]
    if r >= n_cols:
        return np.zeros((n_cols, 0), dtype=V.dtype)
    # right singular vectors beyond min(rows, cols) complete the nullspace
    if A.shape[0] < n_cols:
        _, _, Vh_full = np.linalg.svd(A, full_matrices=True)
        V = Vh_full.conj().T
    return V[:, r:n_cols]


def invert(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix, or Singular when sigma_min is at/below cutoff.

    The decision and the inverse share one SVD, so `invert` succeeds exactly
    when sigma_min exceeds the rank cutoff.
    """
    A = require_square(M)
    U, s, V = svd(A)
    cutoff = rank_cutoff(A, tol, sigma_max=float(s[0]) if s.size else 0.0)
    smin = float(s[-1]) if s.size else 0.0
    if smin <= cutoff:
        raise Singular(
            f"matrix is singular at tolerance (sigma_min={smin:.3e}, cutoff={cutoff:.3e})",
            sigma_min=smin,
        )
    return (V / s) @ U.conj().T


def is_invertible(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    A = require_square(M)
    smin, smax = sigma_extremes(A)
    return smin > rank_cutoff(A, tol, sigma_max=smax)


def max_abs(M) -> float:
    A = np.asarray(M)
    return float(np.max(np.abs(A))) if A.size else 0.0


def matrices_close(A, B, tol_abs: float) -> bool:
    """Entrywise |A - B| <= tol_abs."""
    return max_abs(np.asarray(A) - np.asarray(B)) <= tol_abs


def is_orthogonal(E, tol: Tolerance = DEFAULT_TOL) -> bool:
    """E.T @ E == identity within equality_abs (real orthogonal columns)."""
    A = require_square(E)
    return matrices_close(A.conj().T @ A, np.eye(A.shape[1]), tol.equality_abs)


def is_unitary_defect(U) -> float:
    """Entrywise deviation of U*U from the identity."""
    A = as_matrix(U)
    return max_abs(A.conj().T @ A - np.eye(A.shape[1]))
