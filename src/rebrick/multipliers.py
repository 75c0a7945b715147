"""Shift-invariant rebricking on Z_N: multipliers, translates, Hilbert symbol.

Signals live on the cyclic group of even length N; the unitary DFT
(1/sqrt(N) both ways) diagonalizes every circular-shift-invariant
operator, so an operator is carried by its length-N frequency symbol.
A symbol rebricks bases of translates exactly when it is real, even and
takes only the values +-1.  The discrete Hilbert symbol fails all of
that on purpose: Id + i*H collapses the negative frequencies, which is
the classical obstruction to spanning the complex space with analytic
signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    GeneratorNotONB,
    GridTooSmall,
    InvalidMatrix,
    LengthMismatch,
    OddLength,
)
from .linalg import DEFAULT_TOL, Tolerance


def _as_signal(x, name: str = "signal") -> np.ndarray:
    v = np.asarray(x)
    if v.dtype.kind not in linalg.NUMBER_KINDS:
        raise LengthMismatch(f"{name} must be numeric")
    if v.ndim != 1 or v.size == 0:
        raise LengthMismatch(f"{name} must be a nonempty 1-D array")
    if (out := linalg.finite_cast(v, np.complex128)) is None:
        raise LengthMismatch(f"{name} must be finite")
    return out


def dft(x) -> np.ndarray:
    """Unitary forward DFT; Parseval holds exactly: ||x|| == ||dft(x)||."""
    return np.fft.fft(_as_signal(x), norm="ortho")


def idft(X) -> np.ndarray:
    """Unitary inverse DFT."""
    return np.fft.ifft(_as_signal(X, "spectrum"), norm="ortho")


def shift_matrix(N: int) -> np.ndarray:
    """Circular right shift: (T x)[m] = x[m-1 mod N]."""
    if N < 1:
        raise LengthMismatch("N must be positive")
    return np.roll(np.eye(N), 1, axis=0)


def apply_multiplier(m, x) -> np.ndarray:
    """Apply the shift-invariant operator with frequency symbol m to x."""
    mv = _as_signal(m, "multiplier")
    xv = _as_signal(x)
    if mv.shape != xv.shape:
        raise LengthMismatch(f"multiplier length {mv.size} != signal length {xv.size}")
    with linalg.quiet_overflow():  # m * X can overflow; its check names it, without a warning
        spectrum = mv * np.fft.fft(xv, norm="ortho")
    return np.fft.ifft(_as_signal(spectrum, "spectrum"), norm="ortho")


def multiplier_matrix(m) -> np.ndarray:
    """Dense N x N matrix of the operator with symbol m.

    No decision in this module builds it: they all run on the symbol.  It
    is the dense reference those decisions are tested against.
    """
    mv = _as_signal(m, "multiplier")
    N = mv.size
    F = np.fft.fft(np.eye(N), axis=0, norm="ortho")
    return np.fft.ifft(mv[:, None] * F, axis=0, norm="ortho")


def is_real_symbol_operator(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the operator with the checked symbol m maps real signals to real ones."""
    # m[k] pairs with m[N-k] for k >= 1, and m[0] with itself
    return linalg.is_close(m[1:], m[:0:-1].conj(), tol) and linalg.is_close(m[0], m[0].conj(), tol)


@linalg.overflow_guard
def validate_rebrick_multiplier(m, tol: Tolerance = DEFAULT_TOL):
    """Check the three clauses a rebricking symbol must satisfy.

    Returns (valid, reasons): real-valued, even (m[k] == m[N-k]), and
    values in {-1, +1}.  Any failed clause lands in `reasons`.
    """
    mv = _as_signal(m, "multiplier")
    reasons = []
    if not linalg.is_close(mv.imag, 0.0, tol):
        reasons.append("not real-valued")
    # m[0] is its own mirror image, so only m[1:] against m[N-1:0:-1] can differ
    if not linalg.is_close(mv[1:], mv[:0:-1], tol):
        reasons.append("not even (m[k] != m[N-k])")
    if not linalg.is_close(np.abs(mv.real), 1.0, tol):
        reasons.append("values not in {-1, +1}")
    return len(reasons) == 0, reasons


def _circulant(c: np.ndarray) -> np.ndarray:
    """N x N matrix whose column n is c shifted down by n: np.roll(c, n).

    A read-only view of the doubled signal d = [c, c], built by one ndarray
    constructor call: it holds 2N entries, not N^2.
    """
    N = c.size
    d = np.concatenate([c, c])
    d.flags.writeable = False  # the owner too, so the view cannot be made writeable again
    step = d.itemsize
    # entry (j, n) sits at d[N + j - n] = c[(j - n) mod N]: one step down a row, one back a column
    return np.ndarray((N, N), d.dtype, buffer=d, offset=N * step, strides=(step, -step))


def _circulant_gram_defect(Y: np.ndarray) -> np.ndarray:
    """First column of C*C - Id, C = _circulant(ifft(Y, norm="ortho")), in O(N log N).

    C*C is circulant too, with first column the cyclic autocorrelation of
    C's first column, ifft(N |Y|^2), so every entry of C*C - Id appears in
    this column.
    """
    gram = np.fft.ifft(Y.size * (Y.real**2 + Y.imag**2))
    gram[0] -= 1.0
    return gram


@linalg.overflow_guard
def rebrick_translates(x, m, tol: Tolerance = DEFAULT_TOL):
    """Rebrick the translate basis {T^n x} with the symbol m.

    Returns the N x N matrix whose columns are T^n((Id + i*A)/sqrt(2) x)
    with A the operator of m, and whether the columns form an orthonormal
    basis of C^N.  The generator must produce an orthonormal translate
    basis: all its DFT magnitudes within equality_abs (as given, no floor)
    of 1/sqrt(N), so an inf or NaN fails.  The matrix is circulant, so the
    same test of its columns runs on the spectrum of its first column in
    O(N log N), three FFTs in all.  The matrix is a read-only view of 2N
    entries (np.array(cols) copies it); a symbol of a non-real operator is InvalidMatrix.
    """
    xv = _as_signal(x)
    mv = _as_signal(m, "multiplier")
    if not is_real_symbol_operator(mv, tol):
        raise InvalidMatrix("multiplier: its operator is not real (m[k] != conj(m[N-k]))")
    if xv.shape != mv.shape:
        raise LengthMismatch(f"generator length {xv.size} != multiplier length {mv.size}")
    N = xv.size
    X = np.fft.fft(xv, norm="ortho")  # dft(xv), on the signal checked above
    if not linalg.is_close(np.abs(X), 1.0 / np.sqrt(N), tol):
        raise GeneratorNotONB(
            "translates of the generator are not orthonormal "
            "(DFT magnitudes deviate from 1/sqrt(N))"
        )
    Y = (1.0 + 1j * mv) / np.sqrt(2.0) * X
    unitary = linalg.is_close(_circulant_gram_defect(Y), 0.0, tol)
    return _circulant(np.fft.ifft(Y, norm="ortho")), unitary


def discrete_hilbert(N: int) -> np.ndarray:
    """Frequency symbol of the discrete Hilbert transform on Z_N.

    -i on positive frequencies, +i on negative ones, 0 at DC and Nyquist
    (the convention that keeps the operator real-valued).
    """
    if N < 2 or N % 2 != 0:
        raise OddLength(f"N must be even and >= 2, got {N}")
    m = np.zeros(N, dtype=complex)
    m[1 : N // 2] = -1j
    m[N // 2 + 1 :] = 1j
    return m


def analytic_defect(N: int, tol: Tolerance = DEFAULT_TOL):
    """Rank and kernel dimension of Id + i*H on Z_N.

    The symbol of Id + i*H is 2 on positive frequencies, 0 on negative
    ones and 1 at DC/Nyquist, so the kernel has dimension N/2 - 1 and the
    rank is N/2 + 1: analytic signals never span the complex space.
    The singular values of a shift-invariant operator are the moduli of
    its symbol, so the rank is decided on them in O(N), with the cutoff
    that `linalg.rank` applies to the dense matrix.
    """
    s = np.abs(1.0 + 1j * discrete_hilbert(N))
    r = linalg.regularity(s, N, tol).rank
    return r, N - r


@dataclass(frozen=True)
class TrigRebrickReport:
    """Deviations of the rebricked trigonometric system from pure exponentials."""

    K: int
    N: int
    max_dev_constant: float
    max_dev_exp_pos: float
    max_dev_exp_neg: float

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_constant, self.max_dev_exp_pos, self.max_dev_exp_neg)


def trig_rebrick_demo(K: int, N: int | None = None) -> TrigRebrickReport:
    """Rebrick the alternating cos/sin basis against its sin/cos reordering.

    Sampling on the uniform grid with quadrature weight 1/N, the combined
    vectors come out as unimodular multiples of complex exponentials:
    (1+i)/sqrt(2) for the constant, exp(+2*pi*i*k*x) at odd positions and
    i*exp(-2*pi*i*k*x) at even ones.  Reports the worst grid-norm
    deviation per class.
    """
    if K < 1:
        raise GridTooSmall("K must be >= 1")
    if N is None:
        N = 4 * K + 2
    if N < 4 * K + 2:
        raise GridTooSmall(f"grid N={N} too small for K={K}; need N >= {4 * K + 2}")
    t = np.arange(N) / N
    weight = 1.0 / np.sqrt(N)

    def grid_norm(v):
        return float(np.linalg.norm(v) * weight)

    dev_pos = 0.0
    dev_neg = 0.0
    root2 = np.sqrt(2.0)
    for k in range(1, K + 1):
        cos_k = root2 * np.cos(2.0 * np.pi * k * t)
        sin_k = root2 * np.sin(2.0 * np.pi * k * t)
        # odd slot: (sqrt2*cos + i*sqrt2*sin)/sqrt2 against exp(+)
        dev_pos = max(dev_pos, grid_norm((cos_k + 1j * sin_k) / root2 - np.exp(2j * np.pi * k * t)))
        # even slot: (sqrt2*sin + i*sqrt2*cos)/sqrt2 against i*exp(-)
        dev_neg = max(
            dev_neg, grid_norm((sin_k + 1j * cos_k) / root2 - 1j * np.exp(-2j * np.pi * k * t))
        )
    return TrigRebrickReport(
        K=K,
        N=N,
        # (ones + i*ones)/sqrt2 and (1+i)/sqrt2 * ones are the same floats, entry for
        # entry: both parts of each entry are 1/sqrt2, so the constant slot never deviates
        max_dev_constant=0.0,
        max_dev_exp_pos=dev_pos,
        max_dev_exp_neg=dev_neg,
    )


@dataclass(frozen=True)
class ConditioningRow:
    """One sweep entry: problem size, sigma_min of Id + i*A_N, kernel dimension."""

    N: int
    sigma_min: float
    kernel_dim: int


def _creeping_symbol(N: int) -> np.ndarray:
    # samples of i*(1 - 1/w) on the integer band w = 2..N/2-1, the flat
    # value i/2 below the band, conjugate-mirrored onto negative bins;
    # DC and Nyquist are 0 to keep the operator real
    w = np.arange(1, N // 2, dtype=float)
    m = np.zeros(N, dtype=complex)
    m[1 : N // 2] = 1j * np.where(w < 2.0, 0.5, 1.0 - 1.0 / w)
    m[N // 2 + 1 :] = np.conj(m[N // 2 - 1 : 0 : -1])
    return m


def conditioning_sweep(N_list) -> list[ConditioningRow]:
    """sigma_min of Id + i*A_N for symbols creeping toward i as N grows.

    Each operator stays injective (kernel dimension 0) while sigma_min
    decreases strictly toward zero: the conditioning worsens without the
    kernel ever opening up.  The symbol model (integer band up to N/2) is
    a modeling choice; the reported threshold behaviour depends on it.
    Each row is read off the symbol in O(N): the singular values of
    Id + i*A_N are the moduli |1 + i*m_k|.
    """
    sizes = [int(N) for N in N_list]
    if any(N < 4 or N % 2 for N in sizes):
        raise OddLength("sweep sizes must be even and >= 4")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise OddLength("sweep sizes must be strictly increasing")
    rows = []
    for N in sizes:
        s = np.abs(1.0 + 1j * _creeping_symbol(N))
        reg = linalg.regularity(s, N)
        rows.append(ConditioningRow(N=N, sigma_min=reg.sigma_min, kernel_dim=N - reg.rank))
    return rows
