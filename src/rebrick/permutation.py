"""Column permutations that repair a failed rebricking.

A real square matrix whose spectrum contains i cannot rebrick a basis,
but permuting its columns always can: the only eigenvalues shared by
every column permutation of a matrix are 0 and the mean of all entries,
both real.  This module provides the characteristic-polynomial machinery
behind that statement and the search for a repairing permutation.

Permutations are 0-based image vectors throughout: pi[k] is the index
that k maps to.  Right-multiplying by the associated matrix P_pi sends
column pi_inverse(j) of the operand to position j, so for the 4x4
image (0, 2, 3, 1) the columns (a1|a2|a3|a4) become (a1|a4|a2|a3).
"""

from __future__ import annotations

import math
import numbers
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
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
    """k is an integer value: 1 and 1.0 are; 1.9, NaN, inf and 1j are not."""
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


def char_poly(A) -> CharPoly:
    """Characteristic polynomial det(lambda*Id - A), ascending coefficients.

    Faddeev-LeVerrier trace recursion: O(n^4) and no combinatorics.
    """
    M = linalg.require_square(A, real=True)
    n = M.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    X = np.zeros_like(M)
    c = 1.0
    for k in range(1, n + 1):
        X = M @ X + c * np.eye(n)
        c = -float(np.trace(M @ X)) / k
        coeffs[n - k] = c
    return CharPoly(tuple(coeffs))


def summed_char_poly(A) -> np.ndarray:
    """Sum of char polys of A @ P_pi over all permutations, ascending coeffs.

    Closed form: n! * lambda^n - (n-1)! * (sum of all entries) * lambda^(n-1);
    every lower coefficient cancels exactly.
    """
    M = linalg.require_square(A, real=True)
    n = M.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = float(math.factorial(n))
    coeffs[n - 1] = -float(math.factorial(n - 1)) * float(np.sum(M))
    return coeffs


def invariant_eigenvalue_candidates(A) -> tuple[float, float]:
    """The only values that can be eigenvalues of A @ P_pi for every pi.

    Returns (0, mean of all entries); both are real, which is why a
    repairing permutation always exists for eigenvalue i.
    """
    M = linalg.require_square(A, real=True)
    return 0.0, float(np.sum(M)) / M.shape[0]


def repair_permutation(A, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> PermutationRepair:
    """Find a column permutation pi so that Id + i * A @ P_pi is regular.

    Tries the identity, then permutations shuffled by random.Random(seed),
    or random.Random(str(seed)) for a negative seed, at most one million
    in all, at every n.  One exists for every real A:
    det(Id + i * A @ P_pi) averages 1 + i * sum(A) / n over all pi.  Yet at
    tolerance none may pass: SearchExhausted("no permutation can repair A ...")
    after the identity trial when the singular values of A put every trial
    at or below its cutoff (Weyl).  That bound costs one more SVD, taken only
    when the identity trial fails with a cutoff of at least 1/2.
    """
    M = linalg.require_square(A, real=True)
    n = M.shape[0]
    # a trial is Id + (iM) @ P_pi, the same bits as Id + i * (M @ P_pi)
    Id, iM = np.eye(n), 1j * M
    s = operator.index(seed)  # checked before the identity trial, which draws nothing
    pi, rng = list(range(n)), None
    for trials in range(1, _TRIAL_CAP + 1):
        if trials > 1:
            # seeded once the identity has failed; Random(-s) would repeat Random(s)
            rng = rng or random.Random(s if s >= 0 else str(s))
            rng.shuffle(pi)
        order = np.argsort(pi)  # M[:, order] is M @ P_pi
        reg = linalg.regularity_of(Id + iM[:, order], tol)
        if reg.regular:
            eigs = linalg.sorted_eigvals(M[:, order])
            min_dist = float(np.min(np.abs(eigs - 1j)))
            return PermutationRepair(
                permutation=tuple(pi),
                trials=trials,
                min_dist_to_i_after=min_dist,
                sigma_min_after=reg.sigma_min,
                degenerate=reg.near_edge(min_dist, tol),
            )
        if trials == 1 and reg.cutoff >= 0.5:
            # Weyl (sigma(AP) = sigma(A), |Id| = 1): every trial has sigma_min <= sigma_min(A) + 1
            # and sigma_max >= sigma_max(A) - 1.  A refusal puts this trial's cutoff at >= 1, so
            # below 1/2 (room for rounding) A is not decomposed.  slack: two SVDs, each off by
            # n * EPS * (sigma_max(A) + 1)
            a = linalg.regularity_of(M, tol)
            slack = 2 * n * linalg.EPS * (a.sigma_max + 1)
            most, least = a.sigma_min + 1 + slack, tol.rank_rel * n * (a.sigma_max - 1 - slack)
            if most <= least:
                msg = f"no permutation can repair A: every trial has sigma_min <= {most:.3e}"
                raise SearchExhausted(f"{msg}, at or below its cutoff >= {least:.3e}")
    raise SearchExhausted(f"no repairing permutation found in {trials} trials")


def rebrick_with_permutation(V, A, pi, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The repaired complex basis matrix V + i * A @ V @ P_pi.

    Equals V @ (Id + i * At @ P_pi) for the conjugated operator
    At = inv(V) @ A @ V.  For a pi that the caller supplies, the SVD of the
    result is the one check: NotRebrickable when it is singular at tolerance.
    The CLI `repair` forms the same expression from the pi its search found
    and certified, and does not judge it again.
    """
    V_, A_ = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    p = _check_permutation(pi, V_.shape[1])
    AV = linalg.formed("A @ V", np.matmul, A_, V_)
    W = V_ + 1j * AV[:, np.argsort(p)]
    reg = linalg.regularity_of(W, tol)
    if not reg.regular:
        raise NotRebrickable(
            f"permutation {p} leaves the rebricked matrix singular (sigma_min={reg.sigma_min:.3e})"
        )
    return W
