"""Rebricking of bases: pairing two real bases into one complex basis.

Columns of an invertible real matrix V carry a basis of R^n.  Two bases
V1, V2 combine into the complex candidate V1 + i*V2; the candidate is a
basis of C^n exactly when the transfer operator A = V2 @ inv(V1) has no
eigenvalue i, equivalently when Id + A@A is invertible.  The functions
returning a RebrickVerdict run all three routes, but the singular-value
test on the complex matrix is authoritative: eigenvalues of a non-normal
matrix are ill-conditioned while singular values are not.  The four
constructors (two here, two in `frames`) decide from sigma(Id + i*A)
alone, through `rebricking_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    InternalConsistencyError,
    InvalidMatrix,
    NotABasis,
    NotOrthogonal,
    NotOrthogonalSymmetric,
    NotRebrickable,
    Singular,
    TooSmall,
)
from .linalg import DEFAULT_TOL, Regularity, Tolerance

# Disagreements between the decision routes are escalated only when every
# quantity sits this far away from its own threshold.
_GUARD = 1e4


@dataclass(frozen=True, eq=False)
class RebrickVerdict:
    """Certificate for one rebricking decision.

    sigma_min_B is the smallest singular value of the complex candidate
    (V1 + i*V2, or Id + i*A); the verdict is True exactly when it clears
    the rank cutoff.  The eigenvalues of the transfer operator and the
    smallest singular value of Id + A@A are diagnostic companions.
    """

    rebrickable: bool
    sigma_min_B: float
    eigenvalues_A: np.ndarray
    min_dist_to_i: float
    idA2_sigma_min: float
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


def _verdict(reg_B: Regularity, A: np.ndarray, tol: Tolerance, idA2_scale: float) -> RebrickVerdict:
    # reg_B judges the complex candidate.  Id + A@A equals (Id + iA)(Id - iA),
    # so it is judged on the scale of its factors, idA2_scale ~ ||Id + iA||^2:
    # against its own sigma_max it would pass A@A = -Id, where Id + A@A is
    # nothing but rounding error.
    n = A.shape[0]
    smin_B, cutoff_B = reg_B.sigma_min, reg_B.cutoff
    rebrickable = reg_B.regular

    eigs = linalg.eigenvalues(A)
    min_dist = float(np.min(np.abs(eigs - 1j)))
    eig_ok = min_dist > tol.eig_abs

    reg_M = linalg.regularity(
        linalg.singular_values(np.eye(n) + A @ A), n, tol, scale=idA2_scale
    )
    smin_M, cutoff_M = reg_M.sigma_min, reg_M.cutoff
    ida2_ok = reg_M.regular

    warning = rebrickable and reg_B.near_edge(min_dist, tol)
    if rebrickable != eig_ok or rebrickable != ida2_ok:
        # A disagreement is legitimate near a decision boundary; only a
        # decisive disagreement means the implementation is inconsistent.
        decisive = (
            (smin_B > _GUARD * cutoff_B or smin_B < cutoff_B / _GUARD)
            and (min_dist > _GUARD * tol.eig_abs or min_dist < tol.eig_abs / _GUARD)
            and (smin_M > _GUARD * cutoff_M or smin_M < cutoff_M / _GUARD)
        )
        if decisive:
            raise InternalConsistencyError(
                "singular-value and eigenvalue rebricking tests disagree: "
                f"sigma_min(B)={smin_B:.3e}, min|eig-i|={min_dist:.3e}, "
                f"sigma_min(Id+A^2)={smin_M:.3e}"
            )
        warning = True

    cond = reg_B.sigma_max / smin_B if smin_B > 0.0 else float("inf")
    return RebrickVerdict(
        rebrickable=rebrickable,
        sigma_min_B=smin_B,
        eigenvalues_A=eigs,
        min_dist_to_i=min_dist,
        idA2_sigma_min=smin_M,
        condition_number=cond,
        warning=warning,
    )


def _require_basis(V: np.ndarray, which: str, tol: Tolerance) -> Regularity:
    """Regularity of a checked square V; NotABasis unless its columns form a basis."""
    reg = linalg.regularity_of(V, tol)
    if not reg.regular:
        raise NotABasis(f"columns of {which} do not form a basis", which=which)
    return reg


def invert_basis(V, which: str, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """inv(V) from one SVD, which also decides that the columns of V form a basis."""
    try:
        return linalg.invert(V, tol)
    except Singular:
        raise NotABasis(f"columns of {which} do not form a basis", which=which) from None


def _squared_norm(norm: float, what: str) -> float:
    # the scale of Id + A@A; InvalidMatrix when it is not a float64
    if norm > linalg.SQUARE_RANGE[1]:
        raise InvalidMatrix(f"||{what}|| = {norm:.3e}: its square leaves the float64 range")
    return norm * norm


def transfer_operator(V1, V2, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The operator A = V2 @ inv(V1) mapping basis V1 elementwise onto V2."""
    A1, A2 = linalg.require_square_pair(V1, V2, ("V1", "V2"), real=True)
    return A2 @ invert_basis(A1, "V1", tol)


def rebrick_pair(V1, V2, tol: Tolerance = DEFAULT_TOL):
    """Combine two real bases into V1 + i*V2 and certify the result.

    Raises NotABasis when either factor is singular at tolerance, and
    InvalidMatrix when ||V2 @ inv(V1)||^2 leaves the float64 range.
    Returns (complex matrix, RebrickVerdict).
    """
    A1, A2 = linalg.require_square_pair(V1, V2, ("V1", "V2"), real=True)
    inv1 = invert_basis(A1, "V1", tol)
    _require_basis(A2, "V2", tol)
    B = A1 + 1j * A2
    A = linalg.as_matrix(A2 @ inv1, "V2 @ inv(V1)")
    # B = (Id + iA) @ V1 carries the scale of V1, so ||Id + iA||^2 is taken
    # from A: for real A it lies in [1 + ||A||^2, 2 * (1 + ||A||^2)]
    norm_A = float(linalg.singular_values(A)[0])
    idA2_scale = 1.0 + _squared_norm(norm_A, "V2 @ inv(V1)")
    return B, _verdict(linalg.regularity_of(B, tol), A, tol, idA2_scale)


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
    which basis V is being rebricked.
    """
    A_, V_ = linalg.require_square_pair(A, V, ("A", "V"), real=True)
    _require_basis(V_, "V", tol)
    B = np.eye(A_.shape[0]) + 1j * A_
    reg = linalg.regularity_of(B, tol)  # ||Id + iA|| = sigma_max(B)
    return B @ V_, _verdict(reg, A_, tol, _squared_norm(reg.sigma_max, "Id + iA"))


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
        if not (linalg.is_unitary_defect(M) <= tol.equality_abs):
            raise NotOrthogonal(f"{name} is not orthogonal at tolerance", which=name)
    return M1, M2


def onb_rebrick_check(E1, E2, tol: Tolerance = DEFAULT_TOL):
    """Check whether two orthonormal bases combine into a complex one.

    Returns ((E1 + i*E2)/sqrt(2), is_onb, A) with A = E2 @ E1.T.  is_onb
    is decided by the definition alone: the combined matrix is unitary at
    tolerance.  The paper's equivalent form, A symmetric, is
    `symmetry_condition_check`; the tests check the two against each other.
    """
    M1, M2 = _orthogonal_pair(E1, E2, tol)
    U = (M1 + 1j * M2) / np.sqrt(2.0)
    return U, linalg.is_unitary_defect(U) <= tol.equality_abs, M2 @ M1.T


def symmetry_condition_check(E1, E2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Gram-symmetry test <d_n, e_k> == <d_k, e_n> for the columns of E1, E2."""
    M1, M2 = _orthogonal_pair(E1, E2, tol)
    # G[n, k] = <d_n, e_k> with d_n, e_k the columns of E2, E1
    G = M2.T @ M1
    return linalg.matrices_close(G, G.T, tol.equality_abs)


def rebricked_dual(V, A, tol: Tolerance = DEFAULT_TOL):
    """Rebrick a basis and its dual simultaneously.

    primal = (Id + i*A) @ V, dual = inv(B*) @ inv(V.T); the columns are
    biorthogonal: dual* @ primal == Id.
    """
    V_, A_ = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    B, _ = rebricking_factor(A_, tol)
    inv_VT = invert_basis(V_.T, "V", tol)
    # rebricking_factor has judged B (B* has the same singular values): solve by LU
    return B @ V_, np.linalg.solve(B.conj().T, inv_VT)


def real_part_preservation_lambda(A, tol: Tolerance = DEFAULT_TOL):
    """The constant lambda with Re(inv(B*) g) = lambda * g, if one exists.

    Such a lambda exists exactly when A @ A is a real multiple mu * Id with
    1 + mu != 0; then lambda = 1 / (1 + mu).  Returns None otherwise.  The
    answer comes from that algebraic rule alone: inv(B*) is not formed, and
    its real part equals lambda * Id only up to the conditioning 1/|1 + mu|.
    One SVD, which checks that A is invertible.
    """
    A_ = linalg.require_square(A, "A", real=True)
    if not linalg.regularity_of(A_, tol).regular:
        raise Singular("A must be invertible")
    n = A_.shape[0]
    A2 = A_ @ A_
    mu = float(np.trace(A2).real) / n
    if not linalg.matrices_close(A2, mu * np.eye(n), tol.equality_abs * max(1.0, abs(mu))):
        return None
    if abs(1.0 + mu) <= tol.equality_abs:
        return None
    lam = 1.0 / (1.0 + mu)
    if abs(lam) <= tol.equality_abs or abs(lam - 1.0) <= tol.equality_abs:
        return None
    return lam


def rebricked_frame_bounds(V, A, tol: Tolerance = DEFAULT_TOL) -> RieszBoundReport:
    """Exact and estimated frame bounds of the rebricked basis (Id + i*A) @ V.

    InvalidMatrix when a squared singular value of V or of (Id + i*A) @ V
    leaves the float64 range.
    """
    V_, A_ = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    B, reg_B = rebricking_factor(A_, tol)
    c_V, C_V = _require_basis(V_, "V", tol).squares("V")
    BV = linalg.as_matrix(B @ V_, "B @ V")
    c, C = linalg.regularity_of(BV, tol).squares("B @ V")
    return RieszBoundReport(
        c_exact=c,
        C_exact=C,
        c_lower_estimate=c_V * reg_B.sigma_min**2,
        C_upper_estimate=C_V * reg_B.sigma_max**2,
        norm_B=reg_B.sigma_max,
    )


def spectral_factorize_orthosym(A, tol: Tolerance = DEFAULT_TOL):
    """Factor an orthogonal symmetric matrix as A = R @ D @ R.T.

    D is diagonal with entries +/-1, the +1 block first; R is orthogonal
    with each column's largest-magnitude entry made positive, so the
    output is reproducible.
    """
    A_ = linalg.require_square(A, "A", real=True)
    if not linalg.matrices_close(A_, A_.T, tol.equality_abs):
        raise NotOrthogonalSymmetric("input is not symmetric at tolerance")
    if not (linalg.is_unitary_defect(A_) <= tol.equality_abs):
        raise NotOrthogonalSymmetric("input is not orthogonal at tolerance")
    w, R = np.linalg.eigh(A_)
    order = np.argsort(-w)  # +1 eigenvalues first
    w = w[order]
    R = R[:, order]
    d = np.where(w >= 0.0, 1.0, -1.0)
    # the entry of largest magnitude in each column (the first on a tie) becomes positive
    peak = R[np.argmax(np.abs(R), axis=0), np.arange(R.shape[1])]
    R = np.where(peak < 0.0, -R, R)
    D = np.diag(d)
    if not linalg.matrices_close(R @ D @ R.T, A_, 1e2 * tol.equality_abs):
        raise NotOrthogonalSymmetric("eigenvalues are not +/-1 at tolerance")
    return R, D
