"""Column permutations that repair a failed rebricking.

A real square matrix whose spectrum contains i cannot rebrick a basis,
but permuting its columns always can: the only eigenvalues shared by
every column permutation of a matrix are 0 and the mean of all entries,
both real.  This module holds the characteristic polynomials behind that
statement and the one search that repairs a pair (V, A), judged on W.

Permutations are 0-based image vectors throughout: pi[k] is the index
that k maps to.  Right-multiplying by the associated matrix P_pi sends
column pi_inverse(j) of the operand to position j, so for the 4x4
image (0, 2, 3, 1) the columns (a1|a2|a3|a4) become (a1|a4|a2|a3).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import random
import sys
from dataclasses import dataclass

import numpy as np

from . import basis, linalg
from .errors import NotAPermutation, NotRebrickable, SearchExhausted
from .linalg import DEFAULT_TOL, Tolerance

_TRIAL_CAP = 1_000_000


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial; coefficients[k] multiplies lambda^k."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise ValueError("need at least degree 1")
        if self.coefficients[-1] != 1.0:
            raise ValueError("leading coefficient must be exactly 1")


@dataclass(frozen=True)
class PermutationRepair:
    """A repairing permutation plus the certificate that it worked."""

    permutation: tuple[int, ...]
    trials: int
    min_dist_to_i_after: float
    sigma_min_after: float
    degenerate: bool = False


def _is_index(k) -> bool:
    """k is an integer value: 1 and 1.0 are; True, 1.9, NaN, inf and 1j are not."""
    if isinstance(k, bool):  # an int subclass, refused as np.bool_ is
        return False
    return isinstance(k, numbers.Integral) or isinstance(k, numbers.Real) and float(k).is_integer()


def _check_permutation(pi, n: int) -> tuple[int, ...]:
    p = tuple(int(k) if _is_index(k) else -1 for k in pi)  # -1 is in no bijection on 0..n-1
    if sorted(p) != list(range(n)):
        raise NotAPermutation(f"{pi!r} is not a bijection on 0..{n - 1}")
    return p


def cycle_notation(pi) -> str:
    """One-line cycle notation with 1-based indices, e.g. '(2 3 4)'."""
    p = _check_permutation(pi, len(pi))
    seen, cycles = set(), []
    for start in range(len(p)):
        cyc, k = [], start
        while k not in seen:  # the cycle through start, unless an earlier start walked it
            seen.add(k)
            cyc.append(k)
            k = p[k]
        if len(cyc) > 1:
            cycles.append("(" + " ".join(str(j + 1) for j in cyc) + ")")
    return "".join(cycles) or "id"


def _faddeev_leverrier(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    X = np.zeros_like(M)
    c = 1.0
    for k in range(1, n + 1):
        X = M @ X + c * np.eye(n)
        c = -float(np.trace(M @ X)) / k
        coeffs[n - k] = c
    return coeffs


def char_poly(A) -> CharPoly:
    """Characteristic polynomial det(lambda*Id - A), ascending coefficients.

    Faddeev-LeVerrier trace recursion: O(n^4) and no combinatorics.
    InvalidMatrix when the recursion leaves the float64 range.
    """
    M = linalg.require_square(A, real=True)
    return CharPoly(tuple(linalg.formed("char_poly(A)", _faddeev_leverrier, M)))


def _float(k: int) -> float:
    """The integer k as a float64, inf beyond its range (where float(k) raises OverflowError)."""
    return float(k) if k <= sys.float_info.max else math.inf


def _summed_closed_form(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = _float(math.factorial(n))
    coeffs[n - 1] = -_float(math.factorial(n - 1)) * float(np.sum(M))
    return coeffs


def summed_char_poly(A) -> np.ndarray:
    """Sum of char polys of A @ P_pi over all permutations, ascending coeffs.

    Closed form: n! * lambda^n - (n-1)! * (sum of all entries) * lambda^(n-1);
    every lower coefficient cancels exactly.  InvalidMatrix when a coefficient
    leaves the float64 range (n! does from n = 171).
    """
    M = linalg.require_square(A, real=True)
    return linalg.formed("summed_char_poly(A)", _summed_closed_form, M)


def invariant_eigenvalue_candidates(A) -> tuple[float, float]:
    """The only values that can be eigenvalues of A @ P_pi for every pi.

    Returns (0, mean of all entries); both are real, which is why a
    repairing permutation always exists for eigenvalue i.  InvalidMatrix
    when the sum of the entries leaves the float64 range.
    """
    M = linalg.require_square(A, real=True)
    return 0.0, float(linalg.formed("sum(A)", np.sum, M)) / M.shape[0]


def _trial(V: np.ndarray, iAV: np.ndarray, order: np.ndarray, tol: Tolerance):
    """The one repair rule: W_P = V + i * A @ V @ P_pi, for iAV = 1j * (A @ V) and order =
    argsort(pi), and its Regularity at W_P's own cutoff."""
    W = V + iAV[:, order]
    return W, linalg.regularity_of(W, tol)


def _search(V, AV, v_max: float, tol: Tolerance, seed, conjugated):
    """(W_P, PermutationRepair) of the first trial `_trial` passes; V is a basis, v_max its
    sigma_max.  conjugated maps A @ V @ P_pi to inv(V) @ A @ V @ P_pi, on that trial alone."""
    n, iAV = V.shape[0], 1j * AV
    s = operator.index(seed)  # checked before the identity trial, which draws nothing
    pi, rng = list(range(n)), None
    for trials in range(1, _TRIAL_CAP + 1):
        if trials > 1:
            # seeded once the identity has failed; Random(-s) would repeat Random(s)
            rng = rng or random.Random(s if s >= 0 else str(s))
            rng.shuffle(pi)
        order = np.argsort(pi)
        W, reg = _trial(V, iAV, order, tol)
        if reg.regular:
            eigs = linalg.sorted_eigvals(conjugated(AV[:, order]))
            min_dist = float(np.min(np.abs(eigs - 1j)))
            near = reg.near_edge(min_dist, tol)
            return W, PermutationRepair(tuple(pi), trials, min_dist, reg.sigma_min, near)
        if trials == 1 and reg.cutoff >= v_max / 2:
            # Weyl (sigma(AVP) = sigma(AV), |V| = v_max): every trial has sigma_min <= sigma_min(AV)
            # + v_max and sigma_max >= sigma_max(AV) - v_max.  A refusal puts this trial's cutoff at
            # >= v_max, so below v_max / 2 (room for rounding) AV is not decomposed.  slack: two
            # SVDs, each off by n * EPS * (sigma_max(AV) + v_max)
            a = linalg.regularity_of(AV, tol)
            slack = 2 * n * linalg.EPS * (a.sigma_max + v_max)
            most = a.sigma_min + v_max + slack
            least = tol.rank_rel * n * (a.sigma_max - v_max - slack)
            if most <= least:
                msg = f"no permutation can repair A: every trial has sigma_min <= {most:.3e}"
                raise SearchExhausted(f"{msg}, at or below its cutoff >= {least:.3e}")
    raise SearchExhausted(f"no repairing permutation found in {trials} trials")


def repair_permutation(A, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> PermutationRepair:
    """Find a column permutation pi so that Id + i * A @ P_pi is regular: `repair` at V = Id.

    Tries the identity, then permutations shuffled by random.Random(seed),
    or random.Random(str(seed)) for a negative seed, at most one million
    in all, at every n.  One exists for every real A:
    det(Id + i * A @ P_pi) averages 1 + i * sum(A) / n over all pi.  Yet at
    tolerance none may pass, and `repair`'s Weyl bound, here on sigma(A),
    refuses such an A after the identity trial (SearchExhausted).
    """
    M = linalg.require_square(A, real=True)
    return _search(np.eye(M.shape[0]), M, 1.0, tol, seed, lambda MP: MP)[1]


def repair(
    V, A, tol: Tolerance = DEFAULT_TOL, seed: int = 0
) -> tuple[np.ndarray, PermutationRepair]:
    """Repair the pair (V, A): the complex basis W = V + i * A @ V @ P_pi and its certificate.

    The route of the CLI `repair`: sigma(V) decides V (RankDeficientInput), A @ V
    is formed once (InvalidMatrix if it overflows), and the search of
    `repair_permutation` judges each trial W_P by its own SVD at its own cutoff.
    By Weyl every W_P has sigma_min <= sigma_min(A @ V) + sigma_max(V) and sigma_max
    >= sigma_max(A @ V) - sigma_max(V); when that puts all at or below the cutoff,
    SearchExhausted("no permutation can repair A ...") follows the identity trial.
    The accepted trial's inv(V) @ A @ V @ P_pi, one LU solve, gives
    min_dist_to_i_after.  Returns (W_P, PermutationRepair).
    """
    V_, A_ = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    v = basis.require_basis(V_, "V", tol)
    AV = linalg.formed("A @ V", np.matmul, A_, V_)
    conjugated = functools.partial(linalg.formed, "inv(V) @ A @ V @ P", np.linalg.solve, V_)
    return _search(V_, AV, v.sigma_max, tol, seed, conjugated)


def rebrick_with_permutation(V, A, pi, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The repaired complex basis matrix V + i * A @ V @ P_pi, for a pi that the caller supplies.

    One trial of `repair`'s rule, after sigma(V) decides V (RankDeficientInput):
    NotRebrickable when W is singular at tolerance.  At the pi of `repair(V, A)`
    it returns `repair`'s W, bit for bit.
    """
    V_, A_ = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    p = _check_permutation(pi, V_.shape[1])
    basis.require_basis(V_, "V", tol)
    AV = linalg.formed("A @ V", np.matmul, A_, V_)
    W, reg = _trial(V_, 1j * AV, np.argsort(p), tol)
    if not reg.regular:
        raise NotRebrickable(
            f"permutation {p} leaves the rebricked matrix singular (sigma_min={reg.sigma_min:.3e})"
        )
    return W
