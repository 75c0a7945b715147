"""Shared constructions and exact-arithmetic oracles for the test suite."""

import json
import math
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from rebrick import basis, linalg, multipliers, permutation
from rebrick.errors import (
    InternalConsistencyError,
    InvalidMatrix,
    InvalidSize,
    MatrixParseError,
    NotOrthogonal,
    RankDeficientInput,
    SearchExhausted,
    ShapeMismatch,
)
from rebrick.frames import OrderVerdict
from rebrick.permutation import PermutationRepair


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def block_rotation(n: int, theta: float) -> np.ndarray:
    A = np.eye(n)
    A[:2, :2] = rotation(theta)
    return A


def max_abs(M) -> float:
    return float(np.max(np.abs(M))) if M.size else 0.0


def is_unitary_defect(U) -> float:
    """Entrywise deviation of U*U from the identity: the dense orthonormality defect."""
    return max_abs(U.conj().T @ U - np.eye(U.shape[1]))


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


# ------------------------------------------ the paper's second forms
# Each decision below is the paper's equivalent form of a question that the
# package answers from its definition alone; the tests compare the two.

def range_kernel_fills(A, S, tol=linalg.DEFAULT_TOL) -> bool:
    """range(Id + iS) + ker(A)_C fills C^p: A @ (Id + iS) is surjective (frrebrick_check)."""
    p = S.shape[0]
    K = linalg.decompose(A, tol).kernel  # the complex span of a real basis is ker(A) + i*ker(A)
    return linalg.regularity_of(np.hstack([np.eye(p) + 1j * S, K]), tol).rank == p


# Largest relative residual that the compatibility tests measure: 6e-15 from
# rounding over random pairs at every scale from 1e-8 to 1e8, and 5.5e-14 where
# a singular value of S_F below the rank cutoff (5e-14 of 0.9) is cut with the
# kernels.  The bound sits well above both and far below the 1e-9 on which
# kernel containment is decided, so a T off by more than that cut fails.
COMPATIBILITY_RESIDUAL = 1e-12


def solves_compatibility(T, F, G) -> bool:
    """T @ S_G = S_F within COMPATIBILITY_RESIDUAL relative to the largest entry of S_F.

    `compatibility_operator` returns T on kernel containment alone; this is
    the residual form of the same answer, scale-free where an absolute
    residual would refuse S_F = 1e8 * T @ S_G.
    """
    SF = F.synthesis
    return max_abs(T @ G.synthesis - SF) <= COMPATIBILITY_RESIDUAL * max_abs(SF)


def id_plus_a2_regularity(A, tol=linalg.DEFAULT_TOL) -> linalg.Regularity:
    """Id + A@A for a real square A, judged on the scale ||Id + iA||^2 of its factors.

    Id + A@A = (Id + iA)(Id - iA), so it is invertible exactly when A has no
    eigenvalue i, the question `rebrick_with_operator` decides from
    sigma(Id + iA).  Against its own sigma_max it would pass A@A = -Id, where
    Id + A@A is nothing but rounding error.
    """
    n = A.shape[0]
    s = np.linalg.svd(np.eye(n) + A @ A, compute_uv=False)
    cutoff = tol.rank_rel * n * float(np.linalg.svd(np.eye(n) + 1j * A, compute_uv=False)[0]) ** 2
    return linalg.Regularity(float(s[-1]), float(s[0]), cutoff, int(np.count_nonzero(s > cutoff)))


@linalg.overflow_guard
def symmetry_condition_check(E1, E2, tol=linalg.DEFAULT_TOL) -> bool:
    """The paper's form of the `onb_rebrick_check` answer: Gram symmetry <d_n, e_k> == <d_k, e_n>.

    d_n and e_k are the columns of E2 and E1, which must be orthogonal, as there.
    """
    M1, M2 = basis._orthogonal_pair(E1, E2, tol)
    G = M2.T @ M1  # G[n, k] = <d_n, e_k>
    return linalg.is_close(G, G.T, tol)


def dual_real_part(A) -> np.ndarray:
    """Re(inv(B*)) for B = Id + iA: lambda * Id exactly when A @ A = (1/lambda - 1) * Id."""
    return np.linalg.inv(np.eye(len(A)) - 1j * np.asarray(A).T).real


# ------------------------------------------------- dense oracles
# The dense matrices that the symbol and index routes of rebrick.multipliers and
# rebrick.permutation never build, kept as the reference those routes must match.

def shift_matrix(N: int) -> np.ndarray:
    """Circular right shift: (T x)[m] = x[m-1 mod N]."""
    if N < 1:
        raise InvalidSize("N must be positive")
    return np.roll(np.eye(N), 1, axis=0)


def multiplier_matrix(m) -> np.ndarray:
    """Dense N x N matrix of the operator with symbol m.

    No decision in rebrick.multipliers builds it: they all run on the symbol.
    It is the dense reference those decisions are tested against.
    """
    mv = multipliers._as_signal(m, "multiplier")
    N = mv.size
    F = np.fft.fft(np.eye(N), axis=0, norm="ortho")
    return np.fft.ifft(mv[:, None] * F, axis=0, norm="ortho")


def permutation_matrix(pi, n: int) -> np.ndarray:
    """Matrix P with P[k, pi[k]] = 1; acts on columns by right multiplication."""
    p = permutation._check_permutation(pi, n)
    return np.eye(n)[list(p)]


def dense_id_plus_i(m) -> np.ndarray:
    """Dense N x N matrix of Id + i*A, A the operator with symbol m."""
    A = multiplier_matrix(m)
    return np.eye(A.shape[0]) + 1j * A


def dense_rank_sigma_min(m, tol=linalg.DEFAULT_TOL) -> tuple[int, float]:
    """(rank, sigma_min) of Id + i*A from a dense SVD."""
    B = dense_id_plus_i(m)
    return linalg.regularity_of(B, tol).rank, float(np.linalg.svd(B, compute_uv=False)[-1])


def dense_translates(x, m) -> tuple[np.ndarray, float]:
    """Columns T^n((Id + i*A)/sqrt(2) x), one np.roll each, and their unitarity defect."""
    bx = dense_id_plus_i(m) @ np.asarray(x, dtype=complex) / np.sqrt(2.0)
    cols = np.column_stack([np.roll(bx, n) for n in range(bx.size)])
    return cols, is_unitary_defect(cols)


def count_linalg_calls(monkeypatch, name: str) -> list:
    """Record every np.linalg.<name> call from now on; returns the growing record."""
    calls = []
    fn = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def count_svd_calls(monkeypatch) -> list:
    """Record every np.linalg.svd call from now on; returns the growing record."""
    return count_linalg_calls(monkeypatch, "svd")


def refuse_inverses(monkeypatch) -> None:
    """From now on np.linalg.inv raises: a product with an inverse is a solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("an explicit inverse on a decision path; solve instead")

    monkeypatch.setattr(np.linalg, "inv", refuse)


def count_validations(monkeypatch) -> list:
    """Record every linalg.as_matrix call from now on; returns the growing record of names."""
    calls = []
    as_matrix = linalg.as_matrix

    def counting(M, name="matrix", real=False):
        calls.append(name)
        return as_matrix(M, name, real)

    monkeypatch.setattr(linalg, "as_matrix", counting)
    return calls


def count_formed(monkeypatch) -> list:
    """Record every linalg.formed call from now on; returns the growing record of names."""
    calls = []
    formed = linalg.formed

    def counting(name, f, *operands):
        calls.append(name)
        return formed(name, f, *operands)

    monkeypatch.setattr(linalg, "formed", counting)
    return calls


# ------------------------------------------------- per-call guards
# The guards that rebrick.linalg, .permutation and .basis replaced with fewer
# numpy calls, kept as the reference the new code must match: the same dtype
# and bytes, the same exception and message, the same tuples and arrays bit
# for bit.


def reference_as_matrix(M, name: str = "matrix") -> np.ndarray:
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


def _reference_require_square(M, name: str = "matrix") -> np.ndarray:
    A = reference_as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"{name}: expected square, got {A.shape[0]}x{A.shape[1]}")
    return A


def reference_regularity(s, size: int, tol=linalg.DEFAULT_TOL) -> linalg.Regularity:
    s = np.asarray(s)
    smax = float(np.max(s))
    cutoff = tol.rank_rel * size * smax
    return linalg.Regularity(float(np.min(s)), smax, cutoff, int(np.count_nonzero(s > cutoff)))


def reference_rebrick_verdict(reg_B: linalg.Regularity, A, tol, norm_V1: float) -> dict:
    """The eager verdict of rebrick_pair and rebrick_with_operator: eig(A) on every call.

    reg_B judges B = (Id + iA) @ V1 and norm_V1 = sigma_max(V1).  The six
    RebrickVerdict attributes by name; InternalConsistencyError where sigma_min(B)
    breaks sigma_min(B) <= norm_V1 * min|eig(A) - i| + rounding.
    """
    smin_B = reg_B.sigma_min
    rebrickable = reg_B.regular
    eigs = linalg.sorted_eigvals(A)
    min_dist = float(np.min(np.abs(eigs - 1j)))
    warning = rebrickable and reg_B.near_edge(min_dist, tol)
    if rebrickable != (min_dist > tol.eig_abs):
        rounding = 64 * A.shape[0] * linalg.EPS * (reg_B.sigma_max + norm_V1 * math.hypot(*A.flat))
        bound = norm_V1 * min_dist + rounding
        if smin_B > bound:
            raise InternalConsistencyError(
                "singular-value and eigenvalue rebricking tests disagree: "
                f"sigma_min(B)={smin_B:.3e} exceeds sigma_max(V1)*min|eig-i| + rounding={bound:.3e}"
            )
        warning = True

    cond = reg_B.sigma_max / smin_B if smin_B > 0.0 else float("inf")
    return {
        "rebrickable": rebrickable,
        "sigma_min_B": smin_B,
        "eigenvalues_A": eigs,
        "min_dist_to_i": min_dist,
        "condition_number": cond,
        "warning": warning,
    }


def reference_repair_permutation(A, tol=linalg.DEFAULT_TOL, seed: int = 0):
    """The identity, then the orders that random.Random shuffles into one list, in turn.

    A negative seed seeds with its decimal string, since Random(-s) repeats Random(s).
    """
    M = _reference_require_square(A)
    n = M.shape[0]
    rng = random.Random(seed if seed >= 0 else str(seed))
    pi = list(range(n))
    for trials in range(1, 1_000_001):
        if trials > 1:
            rng.shuffle(pi)
        AP = M[:, np.argsort(pi)]
        s = np.linalg.svd(np.eye(n) + 1j * AP, compute_uv=False)
        reg = reference_regularity(s, n, tol)
        if reg.regular:
            eigs = np.linalg.eigvals(AP)
            eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
            min_dist = float(np.min(np.abs(eigs - 1j)))
            return PermutationRepair(
                permutation=tuple(pi),
                trials=trials,
                min_dist_to_i_after=min_dist,
                sigma_min_after=reg.sigma_min,
                degenerate=(
                    min_dist <= linalg.WARN_BAND * tol.eig_abs
                    or reg.sigma_min <= linalg.WARN_BAND * reg.cutoff
                ),
            )
    raise AssertionError(f"no repairing permutation in {trials} trials")


def reference_repair(V, A, tol=linalg.DEFAULT_TOL, seed: int = 0):
    """The repair rule written out: (W, PermutationRepair) for the first trial
    W = V + i A V P that its own singular values call regular.

    The trials are those of `reference_repair_permutation`.  After a failed identity
    trial whose cutoff is at least sigma_max(V) / 2, Weyl refuses when sigma_min(AV) +
    sigma_max(V) lies at or below rank_rel * n * (sigma_max(AV) - sigma_max(V)), both
    sides moved by 2 * n * eps * (sigma_max(AV) + sigma_max(V)).
    """
    V, A = _reference_require_square(V, "V"), _reference_require_square(A, "A")
    n = V.shape[0]
    s_V = np.linalg.svd(V, compute_uv=False)
    if not reference_regularity(s_V, n, tol).regular:
        raise RankDeficientInput("columns of V do not form a basis")
    with np.errstate(over="ignore", invalid="ignore"):
        AV = A @ V
    if not np.all(np.isfinite(AV)):
        raise InvalidMatrix("A @ V: entries must be finite (no NaN/Inf)")
    v_max = float(np.max(s_V))
    rng = random.Random(seed if seed >= 0 else str(seed))
    pi = list(range(n))
    for trials in range(1, 1_000_001):
        if trials > 1:
            rng.shuffle(pi)
        AVP = AV[:, np.argsort(pi)]
        W = V + 1j * AVP
        reg = reference_regularity(np.linalg.svd(W, compute_uv=False), n, tol)
        if reg.regular:
            with np.errstate(over="ignore", invalid="ignore"):
                AtP = np.linalg.solve(V, AVP)
            if not np.all(np.isfinite(AtP)):
                raise InvalidMatrix("inv(V) @ A @ V @ P: entries must be finite (no NaN/Inf)")
            eigs = np.linalg.eigvals(AtP)
            eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
            min_dist = float(np.min(np.abs(eigs - 1j)))
            return W, PermutationRepair(
                permutation=tuple(pi),
                trials=trials,
                min_dist_to_i_after=min_dist,
                sigma_min_after=reg.sigma_min,
                degenerate=(
                    min_dist <= linalg.WARN_BAND * tol.eig_abs
                    or reg.sigma_min <= linalg.WARN_BAND * reg.cutoff
                ),
            )
        if trials == 1 and reg.cutoff >= v_max / 2:
            s = np.linalg.svd(AV, compute_uv=False)
            slack = 2 * n * linalg.EPS * (float(np.max(s)) + v_max)
            most = float(np.min(s)) + v_max + slack
            least = tol.rank_rel * n * (float(np.max(s)) - v_max - slack)
            if most <= least:
                raise SearchExhausted(
                    f"no permutation can repair A: every trial has sigma_min <= {most:.3e}, "
                    f"at or below its cutoff >= {least:.3e}"
                )
    raise AssertionError(f"no repairing permutation in {trials} trials")


def reference_parseval(S, tol=linalg.DEFAULT_TOL) -> bool:
    """The frame operator S @ S* is the identity, entrywise within equality_abs."""
    return max_abs(S @ S.conj().T - np.eye(S.shape[0])) <= tol.equality_abs


def _reference_kernel(S, tol) -> np.ndarray:
    """Orthonormal kernel basis of S: the rows of the full m x m Vh past the rank."""
    _, s, Vh = np.linalg.svd(S, full_matrices=True)
    return Vh[reference_regularity(s, max(S.shape), tol).rank :].conj().T


def reference_frame_leq(S_F, S_G, tol=linalg.DEFAULT_TOL) -> tuple[OrderVerdict, tuple]:
    """The kernel order decided on kernel bases, and the (leq, geq) residuals that decide it.

    F <= G when span(K_G) lies in span(K_F): an empty K_G always does
    (residual 0), a nonempty K_G never lies in an empty K_F (residual inf),
    and otherwise the projection residual is within equality_abs.
    """
    K_F, K_G = _reference_kernel(S_F, tol), _reference_kernel(S_G, tol)

    def residual(K_big, K_small) -> float:
        if K_small.shape[1] == 0:
            return 0.0
        if K_big.shape[1] == 0:
            return np.inf
        return max_abs(K_small - K_big @ (K_big.conj().T @ K_small))

    res = (residual(K_F, K_G), residual(K_G, K_F))
    leq, geq = (r <= tol.equality_abs for r in res)
    return OrderVerdict(leq, geq, K_F.shape[1], K_G.shape[1]), res


def reference_spectral_factorize_orthosym(A, tol=linalg.DEFAULT_TOL):
    A_ = _reference_require_square(A, "A")
    if np.iscomplexobj(A_):
        raise InvalidMatrix("A: entries must be real")
    if not (max_abs(A_ - A_.T) <= tol.equality_abs):
        raise NotOrthogonal("input is not symmetric at tolerance")
    if not (is_unitary_defect(A_) <= tol.equality_abs):
        raise NotOrthogonal("input is not orthogonal at tolerance")
    w, R = np.linalg.eigh(A_)
    order = np.argsort(-w)  # +1 eigenvalues first
    w = w[order]
    R = R[:, order]
    d = np.where(w >= 0.0, 1.0, -1.0)
    for j in range(R.shape[1]):
        k = int(np.argmax(np.abs(R[:, j])))
        if R[k, j] < 0.0:
            R[:, j] = -R[:, j]
    D = np.diag(d)
    if not (max_abs(R @ D @ R.T - A_) <= 1e2 * tol.equality_abs):
        raise NotOrthogonal("eigenvalues are not +/-1 at tolerance")
    return R, D


# ------------------------------------------------- per-cell matrix files
# The cell-at-a-time readers and writers that rebrick.matio replaced, kept as
# the reference its row-at-a-time code must match: the same bytes written, the
# same values read bit for bit, the same MatrixParseError on a malformed file.

_REF_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REF_CELL_RE = re.compile(
    rf"^(?P<re>{_REF_NUM})(?:(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)


def reference_parse_cell(text: str, row: int, col: int) -> complex | float:
    s = text.strip()
    m = _REF_CELL_RE.match(s)
    if not m:
        raise MatrixParseError(
            f"cannot parse cell {s!r} at row {row}, column {col}", row=row, col=col
        )
    re_part = float(m.group("re"))
    im_part = m.group("im")
    if im_part is None:
        return re_part
    return complex(re_part, float(im_part))


def _reference_format_float(x: float) -> str:
    return format(float(x), ".17g")


def reference_format_cell(value) -> str:
    v = complex(value)
    if v.imag == 0.0:
        return _reference_format_float(v.real)
    sign = "+" if v.imag >= 0.0 else "-"
    return f"{_reference_format_float(v.real)}{sign}{_reference_format_float(abs(v.imag))}i"


def reference_load_csv(path) -> np.ndarray:
    rows = []
    width = None
    text = Path(path).read_text(encoding="utf-8")
    for r, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = [reference_parse_cell(c, r, ci + 1) for ci, c in enumerate(line.split(","))]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MatrixParseError(
                f"row {r} has {len(cells)} cells, expected {width}", row=r, col=1
            )
        rows.append(cells)
    if not rows:
        raise MatrixParseError(f"{path}: no data rows", row=1, col=1)
    if any(isinstance(c, complex) for row in rows for c in row):
        return np.array(rows, dtype=complex)
    return np.array(rows, dtype=float)


def reference_save_csv(path, M) -> None:
    A = np.asarray(M)
    lines = [",".join(reference_format_cell(v) for v in row) for row in A]
    Path(path).write_text("\n".join(lines) + "\n")


def _reference_json_dim(doc: dict, key: str, default: int, path) -> int:
    value = doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MatrixParseError(f"{path}: {key!r} must be an integer, got {value!r}", row=1, col=1)
    return value


def reference_load_json(path) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"{path}: invalid JSON ({exc})", row=1, col=1) from exc
    if not isinstance(doc, dict) or "data" not in doc:
        raise MatrixParseError(f"{path}: expected an object with a 'data' field", row=1, col=1)
    data = doc["data"]
    if not (isinstance(data, list) and data and all(isinstance(r, list) and r for r in data)):
        raise MatrixParseError(
            f"{path}: 'data' must be a non-empty list of non-empty rows", row=1, col=1
        )
    rows = _reference_json_dim(doc, "rows", len(data), path)
    cols = _reference_json_dim(doc, "cols", len(data[0]), path)
    if len(data) != rows:
        raise MatrixParseError(f"{path}: 'rows'={rows} but data has {len(data)} rows", row=1, col=1)
    out = []
    has_complex = False
    for r, row in enumerate(data, start=1):
        if len(row) != cols:
            raise MatrixParseError(
                f"{path}: row {r} has {len(row)} entries, expected {cols}", row=r, col=1
            )
        parsed = []
        for c, cell in enumerate(row, start=1):
            if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                parsed.append(float(cell))
            elif (
                isinstance(cell, list)
                and len(cell) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)
            ):
                parsed.append(complex(cell[0], cell[1]))
                has_complex = True
            else:
                raise MatrixParseError(
                    f"{path}: bad cell at row {r}, column {c}: {cell!r}", row=r, col=c
                )
        out.append(parsed)
    return np.array(out, dtype=complex if has_complex else float)


def reference_save_json(path, M) -> None:
    A = np.asarray(M)
    if np.iscomplexobj(A):
        data = [[[float(v.real), float(v.imag)] for v in row] for row in A]
    else:
        data = [[float(v) for v in row] for row in A]
    doc = {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "data": data}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")
