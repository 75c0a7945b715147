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
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotAPermutation, NotRepaired, SearchExhausted
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

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = 0.0 + 0.0j if np.iscomplexobj(np.asarray(x)) else 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class PermutationRepair:
    """A repairing permutation plus the certificate that it worked."""

    permutation: tuple[int, ...]
    trials: int
    min_dist_to_i_after: float
    sigma_min_after: float
    degenerate: bool = False


def _check_permutation(pi, n: int) -> tuple[int, ...]:
    p = tuple(int(k) for k in pi)
    if sorted(p) != list(range(n)):
        raise NotAPermutation(f"{pi!r} is not a bijection on 0..{n - 1}")
    return p


def permutation_matrix(pi, n: int) -> np.ndarray:
    """Matrix P with P[k, pi[k]] = 1; acts on columns by right multiplication."""
    p = _check_permutation(pi, n)
    return np.eye(n)[list(p)]


def apply_column_permutation(A, pi) -> np.ndarray:
    """A @ P_pi: column pi[k] of the result is column k of A."""
    M = linalg.as_matrix(A)
    return M[:, np.argsort(_check_permutation(pi, M.shape[1]))]


def cycle_notation(pi) -> str:
    """One-line cycle notation with 1-based indices, e.g. '(2 3 4)'."""
    n = len(pi)
    p = _check_permutation(pi, n)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        k = p[start]
        while k != start:
            cyc.append(k)
            seen[k] = True
            k = p[k]
        cycles.append("(" + " ".join(str(j + 1) for j in cyc) + ")")
    return "".join(cycles) if cycles else "id"


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
    tolerance none may pass: SearchExhausted(trials=1) when the identity
    trial's singular values put every trial at or below its cutoff (Weyl).
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
        order = np.argsort(pi)  # apply_column_permutation, with M and pi known valid
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
        if trials == 1:
            # Weyl (sigma(AP) = sigma(A), |Id| = 1): each trial's sigma_min <= reg.sigma_min + 2,
            # its sigma_max >= reg.sigma_max - 2; slack: two SVDs, each n * EPS * sigma_max off
            slack = 2 * n * linalg.EPS * reg.sigma_max
            most, least = reg.sigma_min + 2 + slack, tol.rank_rel * n * (reg.sigma_max - 2 - slack)
            if most <= least:
                msg = f"no permutation can repair A: every trial has sigma_min <= {most:.3e}"
                raise SearchExhausted(f"{msg}, at or below its cutoff >= {least:.3e}", trials=1)
    raise SearchExhausted(f"no repairing permutation found in {trials} trials", trials=trials)


def rebrick_with_permutation(V, A, pi, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The repaired complex basis matrix V + i * A @ V @ P_pi.

    Equals V @ (Id + i * At @ P_pi) for the conjugated operator
    At = inv(V) @ A @ V.  Raises NotRepaired when pi does not make the
    result regular.
    """
    V_, A_ = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    p = _check_permutation(pi, V_.shape[1])
    AV = linalg.formed("A @ V", np.matmul, A_, V_)
    W = V_ + 1j * AV[:, np.argsort(p)]
    reg = linalg.regularity_of(W, tol)
    if not reg.regular:
        raise NotRepaired(
            f"permutation {p} leaves the rebricked matrix singular (sigma_min={reg.sigma_min:.3e})"
        )
    return W
