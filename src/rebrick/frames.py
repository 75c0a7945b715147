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

from dataclasses import dataclass, fields

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
        object.__setattr__(self, "synthesis", _frame_shape(M))

    @classmethod
    def _of_formed(cls, S: np.ndarray, label: str = "") -> "FiniteFrame":
        """The frame of a synthesis the package formed and checked: the shape rule, no rescan."""
        F = object.__new__(cls)
        # every field, by the class's own list: a field added later fails here, not silently
        for field, value in zip(fields(cls), (_frame_shape(S), label), strict=True):
            object.__setattr__(F, field.name, value)
        return F

    @property
    def dim(self) -> int:
        return self.synthesis.shape[0]

    @property
    def count(self) -> int:
        return self.synthesis.shape[1]


def _frame_shape(M: np.ndarray) -> np.ndarray:
    """M, a checked synthesis; NotAFrame when it has fewer columns than rows."""
    if M.shape[1] < M.shape[0]:
        raise NotAFrame(
            f"need at least as many vectors as dimensions, got {M.shape[0]}x{M.shape[1]}"
        )
    return M


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


def _require_spanning(F: FiniteFrame, reg: linalg.Regularity) -> linalg.Regularity:
    """reg, the Regularity of F's synthesis at cutoff size m; NotAFrame unless F spans."""
    if not reg.regular:
        raise NotAFrame(f"frame {F.label or '(unlabeled)'} does not span: rank < {F.dim}")
    return reg


def _require_operator(F: FiniteFrame, A) -> np.ndarray:
    A_ = linalg.require_square(A, "A", real=True)
    if A_.shape[0] != F.dim:
        raise ShapeMismatch(f"A is {A_.shape}, frame dimension is {F.dim}")
    return A_


def frame_bounds(F: FiniteFrame, tol: Tolerance = DEFAULT_TOL) -> FrameBounds:
    """Sharp bounds c, C with c*||f||^2 <= sum |<f, f_n>|^2 <= C*||f||^2.

    NotAFrame unless F spans; InvalidMatrix when c or C leaves the float64 range.
    """
    reg = _require_spanning(F, linalg.regularity_of(F.synthesis, tol))
    return FrameBounds(*reg.squares(f"frame {F.label or '(unlabeled)'}"))


@linalg.overflow_guard
def is_parseval(F: FiniteFrame, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the frame operator S @ S* is the identity: S* has orthonormal columns."""
    _require_spanning(F, linalg.regularity_of(F.synthesis, tol))
    return linalg.is_orthonormal(F.synthesis.conj().T, tol)


def frame_kernel(F: FiniteFrame, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {c : synthesis @ c = 0}, dimension m - n."""
    d = linalg.decompose(F.synthesis, tol)
    _require_spanning(F, d.reg)
    return d.kernel


def _contains(K_big: np.ndarray, K_small: np.ndarray, tol: Tolerance) -> bool:
    # span(K_small) inside span(K_big), decided by the projection residual
    if K_small.shape[1] == 0:
        return True
    if K_big.shape[1] == 0:
        return False
    return linalg.is_close(K_small, K_big @ (K_big.conj().T @ K_small), tol)


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
    K_F, K_G = (linalg.decompose(X.synthesis, tol).kernel for X in (F, G))
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

    T = S_F @ pinv(S_G) exists exactly when ker(G) lies in ker(F), and that
    containment alone decides; T is invertible when the kernels are equal.
    One SVD per frame (G's gives its kernel and pinv); InvalidMatrix if T overflows.
    """
    _check_comparable(F, G)
    d_G = linalg.decompose(G.synthesis, tol)
    if not _contains(linalg.decompose(F.synthesis, tol).kernel, d_G.kernel, tol):
        return None
    return linalg.formed("S_F @ pinv(S_G)", np.matmul, F.synthesis, d_G.pinv)


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
    _require_spanning(F, linalg.regularity_of(F.synthesis, tol))
    _require_spanning(G, linalg.regularity_of(G.synthesis, tol))
    S = F.synthesis + 1j * G.synthesis
    combined = FiniteFrame._of_formed(S, f"{F.label}+i*{G.label}" if F.label or G.label else "")
    reg = linalg.regularity_of(S, tol)
    if not reg.regular:
        raise NotRebrickable("combined synthesis does not span the complex space")
    return combined, FrameBounds(*reg.squares(f"frame {combined.label or '(unlabeled)'}"))


def operator_rebrick_frame(F: FiniteFrame, A, tol: Tolerance = DEFAULT_TOL):
    """Rebrick a frame with an operator: synthesis (Id + i*A) @ S_F.

    Succeeds exactly when Id + i*A is regular at tolerance (A has no eigenvalue i); that alone
    decides.  Returns (FiniteFrame, FrameBounds); InvalidMatrix when B @ S or a bound overflows.
    """
    A_ = _require_operator(F, A)
    _require_spanning(F, linalg.regularity_of(F.synthesis, tol))
    S = linalg.formed("B @ S", np.matmul, basis.rebricking_factor(A_, tol)[0], F.synthesis)
    bounds = linalg.regularity_of(S, tol).squares(f"frame {F.label or '(unlabeled)'}")
    return FiniteFrame._of_formed(S, F.label), FrameBounds(*bounds)


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
    AB = linalg.formed("A @ (Id + iS)", np.matmul, A_, BS)
    rank_product = linalg.regularity_of(AB, tol).rank
    return FrRebrickVerdict(rank_product == n, linalg.regularity_of(BS, tol).rank, rank_product)


def surjective_factor(A, B, tol: Tolerance = DEFAULT_TOL):
    """Factor one surjection through another: T with A = B @ T, or None.

    A is n x p and B is n x q, both full row rank.  The factor exists
    exactly when dim ker(A) >= dim ker(B); then T is q x p, surjective,
    with dim ker(T) = dim ker(A) - dim ker(B).  T maps the row space of
    A through pinv(B) and sends kernel directions of A onto kernel
    directions of B, matched in index order.  Two SVDs.
    """
    A_ = linalg.as_matrix(A, "A")
    B_ = linalg.as_matrix(B, "B")
    if A_.shape[0] != B_.shape[0]:
        raise ShapeMismatch(f"A has {A_.shape[0]} rows, B has {B_.shape[0]}")
    n = A_.shape[0]
    d_A, d_B = linalg.decompose(A_, tol), linalg.decompose(B_, tol)
    if d_A.reg.rank < n or d_B.reg.rank < n:
        raise RankDeficientInput("A and B must both be surjective (full row rank)")
    K_A, K_B = d_A.kernel, d_B.kernel
    k, l = K_A.shape[1], K_B.shape[1]
    if k < l:
        return None
    T = linalg.formed("pinv(B) @ A", np.matmul, d_B.pinv, A_)
    if l > 0:
        T = T + K_B @ K_A[:, :l].conj().T
    return T


@linalg.overflow_guard
def parseval_rebrick(F: FiniteFrame, A, tol: Tolerance = DEFAULT_TOL):
    """Rebrick a Parseval frame: synthesis (Id + i*A) @ S_F / sqrt(2).

    Returns (FiniteFrame, bool); the bool says whether the result is again
    Parseval, which happens exactly when A is orthogonal and symmetric.
    Raises NotRebrickable when Id + i*A is singular at tolerance, InvalidMatrix if B @ S overflows.
    """
    A_ = _require_operator(F, A)
    if not is_parseval(F, tol):
        raise NotParsevalInput("input frame is not Parseval at tolerance")
    B = basis.rebricking_factor(A_, tol)[0] / np.sqrt(2.0)
    out = FiniteFrame._of_formed(linalg.formed("B @ S", np.matmul, B, F.synthesis), F.label)
    return out, linalg.is_orthonormal(out.synthesis.conj().T, tol)
