"""Rebricking of bases: pairing two real bases into one complex basis.

Columns of an invertible real matrix V carry a basis of R^n.  Two bases
V1, V2 combine into the complex candidate V1 + i*V2 = (Id + i*A) @ V1; the
candidate is a basis of C^n exactly when the transfer operator
A = V2 @ inv(V1) has no eigenvalue i.  The functions returning a
RebrickVerdict decide from the singular values of the complex candidate
and cross-check with the eigenvalues of A: singular values are
well-conditioned, eigenvalues of a non-normal matrix are not, so a
disagreement is an error only where it breaks sigma_min(B) <=
sigma_max(V1) * min|eig(A) - i|, and a warning otherwise.  The four
constructors (two here, two in `frames`) decide from sigma(Id + i*A)
alone, through `rebricking_factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    InternalConsistencyError,
    NotABasis,
    NotOrthogonal,
    NotOrthogonalSymmetric,
    NotRebrickable,
    Singular,
    TooSmall,
)
from .linalg import DEFAULT_TOL, EPS, Regularity, Tolerance


@dataclass(frozen=True, eq=False)
class RebrickVerdict:
    """Certificate for one rebricking decision.

    sigma_min_B is the smallest singular value of the complex candidate
    (V1 + i*V2, or Id + i*A); the verdict is True exactly when it clears
    the rank cutoff.  The eigenvalues of the transfer operator are its
    diagnostic companion.
    """

    rebrickable: bool
    sigma_min_B: float
    eigenvalues_A: np.ndarray
    min_dist_to_i: float
    condition_number: float
    warning: bool = False


@dataclass(frozen=True)
class RieszBoundReport:
    """Exact frame bounds of a rebricked basis plus operator-norm estimates.

    c_exact/C_exact are the squared extreme singular values of B @ V.
    The estimates sandwich them: c * ||inv(B)||^-2 <= c_exact and
    C_exact <= ||B||^2 * C, with (c, C) the bounds of V itself.
    norm_B is the operator norm of B = Id + i*A.
    """

    c_exact: float
    C_exact: float
    c_lower_estimate: float
    C_upper_estimate: float
    norm_B: float


def _verdict(reg_B: Regularity, A: np.ndarray, tol: Tolerance, norm_V1: float) -> RebrickVerdict:
    # reg_B judges B = (Id + iA) @ V1, norm_V1 = sigma_max(V1).  An eigenvector
    # x of A for lambda gives |B @ inv(V1) x| = |lambda - i| |x|, so
    # sigma_min(B) <= norm_V1 * min|lambda - i|: only a breach of that bound,
    # beyond the rounding of B, of A and of its eigenvalues, is an error; any
    # other disagreement is the ill-conditioning of the eigenvalues.
    smin_B = reg_B.sigma_min
    rebrickable = reg_B.regular
    eigs = linalg.sorted_eigvals(A)
    min_dist = float(np.min(np.abs(eigs - 1j)))
    warning = rebrickable and reg_B.near_edge(min_dist, tol)
    if rebrickable != (min_dist > tol.eig_abs):
        rounding = 64 * A.shape[0] * EPS * (reg_B.sigma_max + norm_V1 * math.hypot(*A.flat))
        bound = norm_V1 * min_dist + rounding
        if smin_B > bound:
            raise InternalConsistencyError(
                "singular-value and eigenvalue rebricking tests disagree: "
                f"sigma_min(B)={smin_B:.3e} exceeds sigma_max(V1)*min|eig-i| + rounding={bound:.3e}"
            )
        warning = True

    cond = reg_B.sigma_max / smin_B if smin_B > 0.0 else float("inf")
    return RebrickVerdict(
        rebrickable=rebrickable,
        sigma_min_B=smin_B,
        eigenvalues_A=eigs,
        min_dist_to_i=min_dist,
        condition_number=cond,
        warning=warning,
    )


def require_basis(V: np.ndarray, which: str, tol: Tolerance) -> Regularity:
    """The one basis rule: Regularity of a checked square V; NotABasis unless sigma(V) clears it."""
    reg = linalg.regularity_of(V, tol)
    if not reg.regular:
        raise NotABasis(f"columns of {which} do not form a basis", which=which)
    return reg


def transfer_operator(V1, V2, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A = V2 @ inv(V1), mapping basis V1 onto V2: sigma(V1) judges V1, then one LU solve."""
    A1, A2 = linalg.require_square_pair(V1, V2, ("V1", "V2"), real=True)
    require_basis(A1, "V1", tol)
    return linalg.formed("V2 @ inv(V1)", np.linalg.solve, A1.T, A2.T).T


def rebrick_pair(V1, V2, tol: Tolerance = DEFAULT_TOL):
    """Combine two real bases into V1 + i*V2 and certify the result.

    Raises NotABasis when either factor is singular at tolerance (V1 first),
    and InvalidMatrix when V2 @ inv(V1) leaves the float64 range.
    Returns (complex matrix, RebrickVerdict).
    """
    A1, A2 = linalg.require_square_pair(V1, V2, ("V1", "V2"), real=True)
    reg_V1 = require_basis(A1, "V1", tol)
    require_basis(A2, "V2", tol)
    B = A1 + 1j * A2
    A = linalg.formed("V2 @ inv(V1)", np.linalg.solve, A1.T, A2.T).T
    return B, _verdict(linalg.regularity_of(B, tol), A, tol, reg_V1.sigma_max)


def rebricking_factor(A: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, Regularity]:
    """B = Id + i*A for a checked real square A, with its Regularity; NotRebrickable if singular."""
    B = np.eye(A.shape[0]) + 1j * A
    reg = linalg.regularity_of(B, tol)
    if not reg.regular:
        raise NotRebrickable(f"Id + iA is singular at tolerance (sigma_min={reg.sigma_min:.3e})")
    return B, reg


def rebrick_with_operator(A, V, tol: Tolerance = DEFAULT_TOL):
    """Rebrick the basis V with the operator A: returns ((Id + i*A) @ V, verdict).

    The verdict is computed from Id + i*A alone, so it does not depend on
    which basis V is being rebricked.  InvalidMatrix when B @ V overflows.
    """
    A_, V_ = linalg.require_square_pair(A, V, ("A", "V"), real=True)
    require_basis(V_, "V", tol)
    B = np.eye(A_.shape[0]) + 1j * A_
    BV = linalg.formed("B @ V", np.matmul, B, V_)
    return BV, _verdict(linalg.regularity_of(B, tol), A_, tol, 1.0)


def non_transitivity_witness(dim: int):
    """Two rebricking operators whose product is not a rebricking operator.

    Both factors are the rotation by pi/4 on the leading 2-D block (their
    shared eigenvalue (1+i)/sqrt(2) multiplies to i in the product), padded
    with the identity.
    """
    if dim < 2:
        raise TooSmall("witness needs dimension >= 2")
    A = np.eye(dim)
    c = 1.0 / np.sqrt(2.0)
    A[:2, :2] = np.array([[c, -c], [c, c]])
    return A.copy(), A.copy()


def _orthogonal_pair(E1, E2, tol: Tolerance):
    """E1, E2 validated as real orthogonal matrices of one shape."""
    M1, M2 = linalg.require_square_pair(E1, E2, ("E1", "E2"), real=True)
    for name, M in (("E1", M1), ("E2", M2)):
        if not linalg.is_orthonormal(M, tol):
            raise NotOrthogonal(f"{name} is not orthogonal at tolerance", which=name)
    return M1, M2


@linalg.overflow_guard
def onb_rebrick_check(E1, E2, tol: Tolerance = DEFAULT_TOL):
    """Check whether two orthonormal bases combine into a complex one.

    Returns ((E1 + i*E2)/sqrt(2), is_onb, A) with A = E2 @ E1.T.  is_onb
    is decided by the definition alone: the combined matrix is unitary at
    tolerance.  The paper's equivalent form, A symmetric, is
    `symmetry_condition_check`; the tests check the two against each other.
    """
    M1, M2 = _orthogonal_pair(E1, E2, tol)
    U = (M1 + 1j * M2) / np.sqrt(2.0)
    return U, linalg.is_orthonormal(U, tol), M2 @ M1.T


@linalg.overflow_guard
def symmetry_condition_check(E1, E2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Gram-symmetry test <d_n, e_k> == <d_k, e_n> for the columns of E1, E2."""
    M1, M2 = _orthogonal_pair(E1, E2, tol)
    # G[n, k] = <d_n, e_k> with d_n, e_k the columns of E2, E1
    G = M2.T @ M1
    return linalg.is_close(G, G.T, tol)


def rebricked_dual(V, A, tol: Tolerance = DEFAULT_TOL):
    """Rebrick a basis and its dual simultaneously.

    primal = (Id + i*A) @ V, dual = inv(primal*), one LU solve once sigma judges
    Id + iA and V; the columns are biorthogonal: dual* @ primal == Id.
    InvalidMatrix when the primal or the dual leaves the float64 range.
    """
    V_, A_ = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    B, _ = rebricking_factor(A_, tol)
    require_basis(V_, "V", tol)
    primal = linalg.formed("B @ V", np.matmul, B, V_)
    return primal, linalg.formed("inv((B @ V)*)", np.linalg.solve, primal.conj().T, np.eye(len(V_)))


@linalg.overflow_guard
def real_part_preservation_lambda(A, tol: Tolerance = DEFAULT_TOL):
    """The constant lambda with Re(inv(B*) g) = lambda * g, if one exists.

    Such a lambda exists exactly when A @ A is a real multiple mu * Id with
    1 + mu != 0; then lambda = 1 / (1 + mu).  Returns None otherwise.  The
    answer comes from that algebraic rule alone: inv(B*) is not formed, and
    its real part equals lambda * Id only up to the conditioning 1/|1 + mu|.
    One SVD, which checks that A is invertible; an A @ A beyond float64 is None.
    """
    A_ = linalg.require_square(A, "A", real=True)
    if not linalg.regularity_of(A_, tol).regular:
        raise Singular("A must be invertible")
    n = A_.shape[0]
    A2 = A_ @ A_
    mu = float(np.trace(A2).real) / n
    if not linalg.is_close(A2, mu * np.eye(n), tol, max(1.0, abs(mu))):
        return None
    if linalg.is_close(mu, -1.0, tol):
        return None
    lam = 1.0 / (1.0 + mu)
    if linalg.is_close(lam, 0.0, tol) or linalg.is_close(lam, 1.0, tol):
        return None
    return lam


def rebricked_frame_bounds(V, A, tol: Tolerance = DEFAULT_TOL) -> RieszBoundReport:
    """Exact and estimated frame bounds of the rebricked basis (Id + i*A) @ V.

    InvalidMatrix when a squared singular value of V, of (Id + i*A) @ V or
    of Id + i*A leaves the float64 range.
    """
    V_, A_ = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    B, reg_B = rebricking_factor(A_, tol)
    c_V, C_V = require_basis(V_, "V", tol).squares("V")
    BV = linalg.formed("B @ V", np.matmul, B, V_)
    c, C = linalg.regularity_of(BV, tol).squares("B @ V")
    # sigma_max(Id + iA) >= 1, so a regular B has sigma_min > rank_rel * n: at the default
    # rank_rel (64 * EPS) only a sigma_max beyond the float64 square range is refused
    c_B, C_B = reg_B.squares("Id + iA")
    return RieszBoundReport(
        c_exact=c,
        C_exact=C,
        c_lower_estimate=c_V * c_B,
        C_upper_estimate=C_V * C_B,
        norm_B=reg_B.sigma_max,
    )


@linalg.overflow_guard
def spectral_factorize_orthosym(A, tol: Tolerance = DEFAULT_TOL):
    """Factor an orthogonal symmetric matrix as A = R @ D @ R.T.

    D is diagonal with entries +/-1, the +1 block first; R is orthogonal
    with each column's largest-magnitude entry made positive, so the
    output is reproducible.  No check follows eigh: once A is symmetric and
    orthogonal at equality_abs, its eigenvalues lie within about n * equality_abs of +/-1.
    """
    A_ = linalg.require_square(A, "A", real=True)
    if not linalg.is_close(A_, A_.T, tol):
        raise NotOrthogonalSymmetric("input is not symmetric at tolerance")
    if not linalg.is_orthonormal(A_, tol):
        raise NotOrthogonalSymmetric("input is not orthogonal at tolerance")
    w, R = np.linalg.eigh(A_)
    order = np.argsort(-w)  # +1 eigenvalues first
    R = R[:, order]
    # the entry of largest magnitude in each column (the first on a tie) becomes positive
    peak = R[np.argmax(np.abs(R), axis=0), np.arange(R.shape[1])]
    return np.where(peak < 0.0, -R, R), np.diag(np.where(w[order] >= 0.0, 1.0, -1.0))
