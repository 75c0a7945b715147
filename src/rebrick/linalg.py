"""Dense real/complex matrix kernel with explicit tolerance semantics.

All rank, kernel and invertibility decisions in the package go through
`regularity`, so a single threshold convention applies everywhere: a
singular value counts as nonzero when it exceeds rank_rel * size *
sigma_max.  The size is max(rows, cols), set where a matrix is judged:
in `regularity_of`, and in `decompose`, which keeps the singular vectors too.
Only a caller holding singular values without their matrix names a size.
Every equality decision goes through one rule too, `is_close`, orthonormality
(`is_orthonormal`) included, under one `overflow_guard` per entry point.

Arrays are validated once, where they enter the package: each function that
rebrick exports runs `as_matrix` or `require_square(_pair)` on its arguments,
with real=True (one dtype-kind test) where its theory needs a real operand,
and every product or solve the package forms goes through one rule, `formed`,
which names it when an entry leaves float64.  Of this module, rebrick exports
only `Tolerance` and `DEFAULT_TOL`; its functions serve the other modules, and
all but `as_matrix`, `require_square` and `require_square_pair` take checked
arrays only.

Everything here is a pure function of its arguments; nothing mutates
its inputs and there is no module state, so concurrent use is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix, ShapeMismatch

EPS = float(np.finfo(np.float64).eps)
# sigma**2 is a normal float64 exactly when sigma lies in SQUARE_RANGE
SQUARE_RANGE = (float(np.sqrt(np.finfo(np.float64).tiny)), float(np.sqrt(np.finfo(np.float64).max)))
# a verdict within WARN_BAND times its threshold is flagged as near-degenerate
WARN_BAND = 100.0
# dtype kinds of np.number: signed and unsigned integers, floats, complex, timedelta64
NUMBER_KINDS = frozenset("iufcm")
# silent float64 overflow, in a new errstate per use: numpy < 2 saves the old state on it
quiet_overflow = functools.partial(np.errstate, over="ignore", invalid="ignore")


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


def finite_cast(A: np.ndarray, dtype) -> np.ndarray | None:
    """A, of a NUMBER_KINDS dtype, cast to dtype; None if an entry is not finite there.

    NaT is sought before the cast, which would hide it; NaN and Inf after
    it, which also catches a longdouble beyond the float64 range.
    """
    if A.dtype.kind == "m" and np.isnat(A).any():
        return None
    out = A.astype(dtype, copy=False)
    return None if A.dtype.kind in "fc" and not np.isfinite(out).all() else out


def as_matrix(M, name: str = "matrix", real: bool = False) -> np.ndarray:
    """Validate and return M as a finite 2-D ndarray (real, or complex unless real).

    Every np.number dtype is accepted, timedelta64 (a signed-integer
    subtype) included; bool, object, str, bytes, datetime64 and structured
    dtypes are not.
    """
    A = np.asarray(M)
    kind = A.dtype.kind
    if kind not in NUMBER_KINDS:
        raise InvalidMatrix(f"{name}: entries must be numeric")
    if real and kind == "c":
        raise InvalidMatrix(f"{name}: entries must be real")
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidMatrix(f"{name}: expected a 2-D array, got shape {A.shape}")
    if (out := finite_cast(A, np.complex128 if kind == "c" else np.float64)) is None:
        raise InvalidMatrix(f"{name}: entries must be finite (no NaN/Inf)")
    return out


def require_square(M, name: str = "matrix", real: bool = False) -> np.ndarray:
    A = as_matrix(M, name, real)
    if A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"{name}: expected square, got {A.shape[0]}x{A.shape[1]}")
    return A


def require_square_pair(M1, M2, names: tuple[str, str], real: bool = False):
    """Validate two square operands of one shape; `names` label the error messages."""
    A1, A2 = require_square(M1, names[0], real), require_square(M2, names[1], real)
    if A1.shape != A2.shape:
        raise ShapeMismatch(f"{names[0]} is {A1.shape}, {names[1]} is {A2.shape}")
    return A1, A2


class Regularity(NamedTuple):
    """One regularity decision: a singular value counts when it exceeds cutoff."""

    sigma_min: float
    sigma_max: float
    cutoff: float
    rank: int

    @property
    def regular(self) -> bool:
        """Every singular value clears the cutoff (full rank)."""
        return self.sigma_min > self.cutoff

    def near_edge(self, min_dist: float, tol: Tolerance) -> bool:
        """sigma_min within WARN_BAND of the cutoff, or min_dist (an eigenvalue to i) of eig_abs."""
        return self.sigma_min <= WARN_BAND * self.cutoff or min_dist <= WARN_BAND * tol.eig_abs

    def squares(self, what: str) -> tuple[float, float]:
        """(sigma_min^2, sigma_max^2); InvalidMatrix when either leaves the normal float64 range."""
        if not (SQUARE_RANGE[0] <= self.sigma_min and self.sigma_max <= SQUARE_RANGE[1]):
            raise InvalidMatrix(
                f"{what}: singular values in [{self.sigma_min:.3e}, {self.sigma_max:.3e}] "
                "square outside the float64 range"
            )
        return self.sigma_min**2, self.sigma_max**2


def regularity(s, size: int, tol: Tolerance = DEFAULT_TOL) -> Regularity:
    """Judge the singular values s (any order) of an operator.

    `size` is the larger dimension of the operator.  The cutoff is
    rank_rel * size * max(s); InvalidMatrix unless max(s) is finite.
    """
    s = np.asarray(s)
    smax = float(s.max())
    if not math.isfinite(smax):
        raise InvalidMatrix(f"largest singular value {smax} is beyond the float64 range")
    cutoff = tol.rank_rel * size * smax
    return Regularity(float(s.min()), smax, cutoff, int(np.count_nonzero(s > cutoff)))


def regularity_of(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Regularity:
    """Judge a checked matrix M at the cutoff size max(rows, cols); one SVD."""
    return regularity(np.linalg.svd(M, compute_uv=False), max(M.shape), tol)


def sorted_eigvals(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a checked square A, sorted by (real, imag)."""
    w = np.linalg.eigvals(A)
    return w[np.lexsort((w.imag, w.real))]


class Decomposition(NamedTuple):
    """One SVD M = U @ diag(s) @ Vh and its Regularity; the views cut at reg.rank."""

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray
    reg: Regularity

    @property
    def kernel(self) -> np.ndarray:
        """Orthonormal nullspace basis as columns: the right singular vectors past the rank."""
        return self.Vh[self.reg.rank :].conj().T

    @property
    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse, inverting exactly the singular values reg counts."""
        r = self.reg.rank
        return (self.Vh[:r].conj().T / self.s[:r]) @ self.U[:, :r].conj().T


def decompose(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Decomposition:
    """One SVD of a checked M at size max(rows, cols): every row of Vh if M is wide, else thin."""
    U, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return Decomposition(U, s, Vh, regularity(s, max(M.shape), tol))


def overflow_guard(fn):
    """Decorator: an equality operand beyond float64 is a "no" of is_close, without a warning."""
    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        with quiet_overflow():
            return fn(*args, **kwargs)
    return guarded


def formed(name: str, f, *operands) -> np.ndarray:
    """f(*operands) of checked arrays, formed with no warning; InvalidMatrix(name) unless finite."""
    with quiet_overflow():
        out = f(*operands)
    if not np.isfinite(out).all():
        raise InvalidMatrix(f"{name}: entries must be finite (no NaN/Inf)")
    return out


def is_close(A, B, tol: Tolerance, scale: float = 1.0) -> bool:
    """The equality rule: all of abs(A - B) within scale * equality_abs, as given; NaN is a no."""
    return bool(np.abs(A - B).max(initial=0.0) <= tol.equality_abs * scale)


def is_orthonormal(U: np.ndarray, tol: Tolerance) -> bool:
    """The orthonormality rule for a checked U: U*U is the identity by `is_close`."""
    return is_close(U.conj().T @ U, np.eye(U.shape[1]), tol)
