"""Finite frames: synthesis matrices, bounds, kernels and the kernel order.

A frame of an n-dimensional space is carried by its n x m synthesis
matrix (m >= n, columns are the frame vectors).  The kernel of the
synthesis matrix orders frames: F <= G exactly when ker(F) contains
ker(G), and two frames are equivalent exactly when the kernels agree.
The ordering machinery deliberately accepts rank-deficient synthesis
matrices as well, because chains with strictly nested kernels only
exist once the spanning requirement is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis, linalg
from .errors import (
    IndexCountMismatch,
    InvalidMatrix,
    NotAFrame,
    NotParsevalInput,
    NotRebrickable,
    RankDeficientInput,
    ShapeMismatch,
)
from .linalg import DEFAULT_TOL, Tolerance


@dataclass(frozen=True, eq=False)
class FiniteFrame:
    """A family of m vectors in an n-dimensional space, columns of `synthesis`."""

    synthesis: np.ndarray
    label: str = ""

    def __post_init__(self):
        M = linalg.as_matrix(self.synthesis, "synthesis")
        if M.shape[1] < M.shape[0]:
            raise NotAFrame(
                f"need at least as many vectors as dimensions, got {M.shape[0]}x{M.shape[1]}"
            )
        object.__setattr__(self, "synthesis", M)

    @property
    def dim(self) -> int:
        return self.synthesis.shape[0]

    @property
    def count(self) -> int:
        return self.synthesis.shape[1]


@dataclass(frozen=True)
class FrameBounds:
    """Sharp frame bounds: c = sigma_min^2, C = sigma_max^2 of the synthesis."""

    c: float
    C: float

    def __post_init__(self):
        if not (0.0 < self.c <= self.C):
            raise ValueError(f"bounds must satisfy 0 < c <= C, got ({self.c}, {self.C})")


@dataclass(frozen=True)
class OrderVerdict:
    """Both directions of the kernel order plus the kernel dimensions."""

    leq: bool
    geq: bool
    equivalent: bool
    ker_dim_F: int
    ker_dim_G: int


@dataclass(frozen=True)
class FrRebrickVerdict:
    """Surjectivity of A @ (Id + i*S) plus the two ranks behind it."""

    surjective: bool
    rank_id_iS: int
    rank_product: int


def _not_spanning(F: FiniteFrame) -> NotAFrame:
    return NotAFrame(f"frame {F.label or '(unlabeled)'} does not span: rank < {F.dim}")


def _require_spanning(F: FiniteFrame, tol: Tolerance) -> linalg.Regularity:
    """Regularity of the synthesis, from one singular-value pass; NotAFrame unless it spans."""
    reg = linalg.regularity_of(F.synthesis, tol)
    if not reg.regular:
        raise _not_spanning(F)
    return reg


def frame_bounds(F: FiniteFrame, tol: Tolerance = DEFAULT_TOL) -> FrameBounds:
    """Sharp bounds c, C with c*||f||^2 <= sum |<f, f_n>|^2 <= C*||f||^2.

    NotAFrame unless F spans; InvalidMatrix when c or C leaves the float64 range.
    """
    return FrameBounds(*_require_spanning(F, tol).squares(f"frame {F.label or '(unlabeled)'}"))


def is_parseval(F: FiniteFrame, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the frame operator synthesis @ synthesis* is the identity."""
    _require_spanning(F, tol)
    S = F.synthesis
    return linalg.matrices_close(S @ S.conj().T, np.eye(F.dim), tol.equality_abs)


def frame_kernel(F: FiniteFrame, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {c : synthesis @ c = 0}, dimension m - n."""
    K = linalg.kernel_basis(F.synthesis, tol)
    if K.shape[1] != F.count - F.dim:  # the spanning check, at the same cutoff size m
        raise _not_spanning(F)
    return K


def _contains(K_big: np.ndarray, K_small: np.ndarray, tol: Tolerance) -> bool:
    # span(K_small) inside span(K_big), decided by the projection residual
    if K_small.shape[1] == 0:
        return True
    if K_big.shape[1] == 0:
        return False
    residual = linalg.max_abs(K_small - K_big @ (K_big.conj().T @ K_small))
    return residual <= tol.equality_abs


def _check_comparable(F: FiniteFrame, G: FiniteFrame):
    if F.dim != G.dim:
        raise ShapeMismatch(f"frames live in different spaces: {F.dim} vs {G.dim}")
    if F.count != G.count:
        raise IndexCountMismatch(
            f"frames have different index counts: {F.count} vs {G.count}"
        )


def frame_leq(F: FiniteFrame, G: FiniteFrame, tol: Tolerance = DEFAULT_TOL) -> OrderVerdict:
    """Kernel order verdict in both directions.

    leq means F <= G, i.e. ker(F) contains ker(G); equivalent exactly when
    both directions hold, i.e. the kernels coincide.
    """
    _check_comparable(F, G)
    K_F = linalg.kernel_basis(F.synthesis, tol)
    K_G = linalg.kernel_basis(G.synthesis, tol)
    leq = _contains(K_F, K_G, tol)
    geq = _contains(K_G, K_F, tol)
    return OrderVerdict(
        leq=leq,
        geq=geq,
        equivalent=leq and geq,
        ker_dim_F=K_F.shape[1],
        ker_dim_G=K_G.shape[1],
    )


def compatibility_operator(F: FiniteFrame, G: FiniteFrame, tol: Tolerance = DEFAULT_TOL):
    """The operator T with S_F = T @ S_G, or None when no such T exists.

    T = S_F @ pinv(S_G) works exactly when ker(G) is contained in ker(F);
    when the kernels are equal T is invertible.  The pseudo-inverse cuts
    at the rank rule that decided the kernels.
    """
    if not frame_leq(F, G, tol).leq:  # frame_leq checks that F and G are comparable
        return None
    T = F.synthesis @ linalg.pinv(G.synthesis, tol)
    if not linalg.matrices_close(T @ G.synthesis, F.synthesis, 1e2 * tol.equality_abs):
        return None
    return T


def rebrick_frames(F: FiniteFrame, G: FiniteFrame, tol: Tolerance = DEFAULT_TOL):
    """Elementwise combination f_n + i*g_n of two real frames.

    Succeeds exactly when the combined synthesis S_F + i*S_G still spans;
    no operator mapping F onto G is required, so incompatible pairs can
    still combine.  Returns (FiniteFrame, FrameBounds).  NotAFrame means
    an input does not span; NotRebrickable means the combination does not.
    """
    _check_comparable(F, G)
    for name, X in (("F", F), ("G", G)):  # frames may be complex elsewhere, not here
        if X.synthesis.dtype.kind == "c":
            raise InvalidMatrix(f"{name}: entries must be real")
    _require_spanning(F, tol)
    _require_spanning(G, tol)
    S = F.synthesis + 1j * G.synthesis
    combined = FiniteFrame(S, label=f"{F.label}+i*{G.label}" if F.label or G.label else "")
    reg = linalg.regularity_of(S, tol)
    if not reg.regular:
        raise NotRebrickable("combined synthesis does not span the complex space")
    return combined, FrameBounds(*reg.squares(f"frame {combined.label or '(unlabeled)'}"))


def operator_rebrick_frame(F: FiniteFrame, A, tol: Tolerance = DEFAULT_TOL):
    """Rebrick a frame with an operator: synthesis (Id + i*A) @ S_F.

    Succeeds exactly when Id + i*A is regular at tolerance, which agrees
    with regularity of Id + A@A.  Returns (FiniteFrame, FrameBounds).
    """
    A_ = linalg.require_square(A, "A", real=True)
    if A_.shape[0] != F.dim:
        raise ShapeMismatch(f"A is {A_.shape}, frame dimension is {F.dim}")
    _require_spanning(F, tol)
    out = FiniteFrame(basis.rebricking_factor(A_, tol)[0] @ F.synthesis, label=F.label)
    return out, frame_bounds(out, tol)


def frrebrick_check(A, S, tol: Tolerance = DEFAULT_TOL) -> FrRebrickVerdict:
    """Surjectivity of A @ (Id + i*S): can A absorb the defect of Id + i*S?

    A (n x p, full row rank) and S (p x p, invertible) are real.  The
    verdict is the rank of the product itself: surjective exactly when
    rank(A @ (Id + i*S)) == n.  The paper's equivalent form, range(Id + i*S)
    plus the complexified kernel of A filling C^p, is not computed here;
    the tests check it against this verdict.  Four SVDs.
    """
    A_ = linalg.as_matrix(A, "A", real=True)
    S_ = linalg.require_square(S, "S", real=True)
    n, p = A_.shape
    if S_.shape[0] != p:
        raise ShapeMismatch(f"A is {A_.shape}, S is {S_.shape}")
    if linalg.regularity_of(A_, tol).rank < n:
        raise RankDeficientInput("A must be surjective (full row rank)")
    if not linalg.regularity_of(S_, tol).regular:
        raise RankDeficientInput("S must be surjective (full rank)")
    BS = np.eye(p) + 1j * S_
    AB = linalg.as_matrix(A_ @ BS, "A @ (Id + iS)")
    rank_product = linalg.regularity_of(AB, tol).rank
    return FrRebrickVerdict(rank_product == n, linalg.regularity_of(BS, tol).rank, rank_product)


def surjective_factor(A, B, tol: Tolerance = DEFAULT_TOL):
    """Factor one surjection through another: T with A = B @ T, or None.

    A is n x p and B is n x q, both full row rank.  The factor exists
    exactly when dim ker(A) >= dim ker(B); then T is q x p, surjective,
    with dim ker(T) = dim ker(A) - dim ker(B).  T maps the row space of
    A through pinv(B) and sends kernel directions of A onto kernel
    directions of B, matched in index order.
    """
    A_ = linalg.as_matrix(A, "A")
    B_ = linalg.as_matrix(B, "B")
    if A_.shape[0] != B_.shape[0]:
        raise ShapeMismatch(f"A has {A_.shape[0]} rows, B has {B_.shape[0]}")
    n = A_.shape[0]
    K_A = linalg.kernel_basis(A_, tol)
    K_B = linalg.kernel_basis(B_, tol)
    k, l = K_A.shape[1], K_B.shape[1]
    # rank = column count - kernel dimension, from the kernel SVDs
    if A_.shape[1] - k < n or B_.shape[1] - l < n:
        raise RankDeficientInput("A and B must both be surjective (full row rank)")
    if k < l:
        return None
    T = linalg.pinv(B_, tol) @ A_
    if l > 0:
        T = T + K_B @ K_A[:, :l].conj().T
    return T


def parseval_rebrick(F: FiniteFrame, A, tol: Tolerance = DEFAULT_TOL):
    """Rebrick a Parseval frame: synthesis (Id + i*A) @ S_F / sqrt(2).

    Returns (FiniteFrame, bool); the bool says whether the result is again
    Parseval, which happens exactly when A is orthogonal and symmetric.
    Raises NotRebrickable when Id + i*A is singular at tolerance.
    """
    A_ = linalg.require_square(A, "A", real=True)
    if A_.shape[0] != F.dim:
        raise ShapeMismatch(f"A is {A_.shape}, frame dimension is {F.dim}")
    if not is_parseval(F, tol):
        raise NotParsevalInput("input frame is not Parseval at tolerance")
    B = basis.rebricking_factor(A_, tol)[0] / np.sqrt(2.0)
    out = FiniteFrame(B @ F.synthesis, label=F.label)
    S = out.synthesis
    still_parseval = linalg.matrices_close(S @ S.conj().T, np.eye(F.dim), tol.equality_abs)
    return out, still_parseval
