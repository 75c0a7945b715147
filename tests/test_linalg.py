import re
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebrick import basis, errors, frames, linalg, multipliers, permutation
from support import (
    count_svd_calls,
    count_validations,
    exact_rank,
    is_unitary_defect,
    max_abs,
    random_invertible,
    random_orthogonal,
    reference_as_matrix,
    reference_regularity,
    rotation,
    symmetry_condition_check,
    truncating_shift,
)


def test_svd_identity():
    np.testing.assert_allclose(linalg.decompose(np.eye(3)).s, [1.0, 1.0, 1.0], atol=1e-14)


def test_svd_rotation_unit_singular_values():
    s = linalg.decompose(np.array([[0.0, -1.0], [1.0, 0.0]])).s
    np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-14)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5))
    U, s, Vh, _ = linalg.decompose(M)
    residual = np.max(np.abs(U @ np.diag(s) @ Vh - M))
    assert residual <= 1e-12 * s[0]


def test_svd_reconstruction_many_sizes():
    # the one SVD of decompose: a wide M gets every row of Vh, and its first len(s) rebuild M
    rng = np.random.default_rng(11)
    tol = linalg.DEFAULT_TOL
    for _ in range(1000):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        M = rng.standard_normal((rows, cols))
        if rng.integers(0, 2):
            M = M + 1j * rng.standard_normal((rows, cols))
        U, s, Vh, _ = linalg.decompose(M, tol)
        assert Vh.shape == ((cols, cols) if rows < cols else (s.size, cols))
        residual = np.max(np.abs(U @ np.diag(s) @ Vh[: s.size] - M))
        assert residual <= tol.equality_abs * max(s[0], 1e-300)
        assert np.all(np.diff(s) <= 0)


def test_eigenvalues_quarter_turn():
    w = linalg.sorted_eigvals(np.array([[0.0, -1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(sorted(w, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)


def test_eigenvalues_eighth_turn():
    w = linalg.sorted_eigvals(rotation(np.pi / 4))
    target = np.array([(1 - 1j) / np.sqrt(2), (1 + 1j) / np.sqrt(2)])
    np.testing.assert_allclose(sorted(w, key=lambda z: z.imag), target, atol=1e-12)


def test_eigenvalues_identity():
    w = linalg.sorted_eigvals(np.eye(4))
    np.testing.assert_allclose(w, np.ones(4), atol=1e-14)


def test_eigenvalues_conjugation_closure():
    rng = np.random.default_rng(3)
    tol = linalg.DEFAULT_TOL
    for _ in range(200):
        n = int(rng.integers(2, 9))
        w = linalg.sorted_eigvals(rng.standard_normal((n, n)))
        for lam in w:
            assert np.min(np.abs(w - np.conj(lam))) <= tol.eig_abs


def test_rank_identity():
    assert linalg.regularity_of(np.eye(4)).rank == 4


def test_rank_rank_one_complex_block():
    M = np.array([[1.0, 1j], [-1j, 1.0]])
    assert linalg.regularity_of(M).rank == 1


def test_rank_against_exact_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(rows, 9))
        M = rng.integers(-4, 5, size=(rows, cols))
        assert linalg.regularity_of(M.astype(float)).rank == exact_rank(M)


def test_kernel_identity_empty():
    K = linalg.decompose(np.eye(3)).kernel
    assert K.shape == (3, 0)


def test_kernel_row_vector():
    K = linalg.decompose(np.array([[1.0, 1.0]])).kernel
    assert K.shape == (2, 1)
    direction = K[:, 0] * np.sign(K[0, 0])
    np.testing.assert_allclose(direction, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)


def test_kernel_duplicated_first_vector():
    S = np.zeros((4, 5))
    S[0, 0] = S[0, 1] = 1.0
    S[1, 2] = S[2, 3] = S[3, 4] = 1.0
    K = linalg.decompose(S).kernel
    assert K.shape == (5, 1)
    direction = K[:, 0] * np.sign(K[0, 0].real)
    expected = np.zeros(5)
    expected[0], expected[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    np.testing.assert_allclose(direction, expected, atol=1e-12)


def test_kernel_orthonormal_and_annihilated():
    rng = np.random.default_rng(9)
    for _ in range(50):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 9))
        M = rng.standard_normal((rows, cols))
        K = linalg.decompose(M).kernel
        if K.shape[1]:
            np.testing.assert_allclose(M @ K, 0.0, atol=1e-10)
            np.testing.assert_allclose(K.conj().T @ K, np.eye(K.shape[1]), atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 7), (5, 5), (7, 3)])
def test_kernel_takes_one_svd(shape, monkeypatch):
    calls = count_svd_calls(monkeypatch)
    M = np.random.default_rng(10).standard_normal(shape)
    K = linalg.decompose(M).kernel
    assert len(calls) == 1
    assert K.shape == (shape[1], max(shape[1] - shape[0], 0))


def test_regularity_cutoff_rule():
    tol = linalg.DEFAULT_TOL
    reg = linalg.regularity([1e-15, 2.0, 1.0], 3, tol)
    assert reg == (1e-15, 2.0, tol.rank_rel * 3 * 2.0, 2)
    assert not reg.regular
    # judged on its own sigma_max, however small
    assert linalg.regularity([1e-15, 2e-15], 2, tol).regular
    # the zero operator has rank 0
    assert linalg.regularity([0.0, 0.0], 2, tol).rank == 0
    # an inf or nan sigma_max makes the cutoff inf or nan, so no rank it gives is an answer
    for s in ([np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(errors.InvalidMatrix, match="beyond the float64 range"):
            linalg.regularity(s, 2, tol)


@pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6)])
@pytest.mark.parametrize("kind", [float, complex])
def test_regularity_of_takes_the_larger_dimension(shape, kind):
    rng = np.random.default_rng(11)
    M = rng.standard_normal(shape).astype(kind)
    if kind is complex:
        M = M + 1j * rng.standard_normal(shape)
    M[:, -1] = M[:, 0]  # rank-deficient, so the cutoff decides the rank
    tol = linalg.Tolerance(rank_rel=1e-3)
    for t in (linalg.DEFAULT_TOL, tol):
        got = linalg.regularity_of(M, t)
        want = linalg.regularity(np.linalg.svd(M, compute_uv=False), max(M.shape), t)
        assert got == want and list(map(type, got)) == list(map(type, want))


def test_near_edge_band():
    tol = linalg.DEFAULT_TOL
    reg = linalg.Regularity(sigma_min=1.0, sigma_max=2.0, cutoff=0.01, rank=2)
    assert reg.near_edge(1.0, tol)  # sigma_min = WARN_BAND * cutoff
    assert not reg._replace(cutoff=0.0099).near_edge(1.0, tol)
    assert reg._replace(cutoff=0.0099).near_edge(linalg.WARN_BAND * tol.eig_abs, tol)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rank_plus_nullity(rows, cols, seed):
    rng = np.random.default_rng(seed)
    M = rng.integers(-3, 4, size=(rows, cols)).astype(float)
    assert linalg.regularity_of(M).rank + linalg.decompose(M).kernel.shape[1] == cols


def test_invert_diagonal_complex():
    d = linalg.decompose(np.diag([1.0 - 1j, 1.0 + 1j]))
    assert d.reg.regular
    np.testing.assert_allclose(d.pinv, np.diag([1 / (1 - 1j), 1 / (1 + 1j)]), atol=1e-14)


def test_invert_singular_complex_block():
    assert not linalg.decompose(np.array([[1.0, 1j], [-1j, 1.0]])).reg.regular


def test_invert_residual_random():
    rng = np.random.default_rng(13)
    M = random_invertible(rng, 6)
    d = linalg.decompose(M)
    assert d.reg.regular
    assert np.max(np.abs(M @ d.pinv - np.eye(6))) <= 1e-10


def test_invert_decision_matches_sigma_min():
    rng = np.random.default_rng(17)
    tol = linalg.DEFAULT_TOL
    for _ in range(100):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        if rng.integers(0, 3) == 0:
            M[:, -1] = M[:, 0]  # force singularity
        s = np.linalg.svd(M, compute_uv=False)
        expected = s[-1] > tol.rank_rel * n * s[0]
        assert linalg.decompose(M, tol).reg.regular == expected


def test_pinv_cuts_at_the_rank_rule():
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    W = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    s = np.array([1.0, 0.7, 2e-15])  # 2e-15 lies below rank_rel * 6 * sigma_max
    P = linalg.decompose(U @ np.diag(s) @ W.T).pinv
    np.testing.assert_allclose(P, W[:, :2] @ np.diag(1.0 / s[:2]) @ U[:, :2].T, atol=1e-12)
    M = random_invertible(rng, 4) + 1j * random_invertible(rng, 4)
    np.testing.assert_allclose(linalg.decompose(M).pinv, np.linalg.inv(M), atol=1e-9)


def test_pinv_takes_one_svd(monkeypatch):
    calls = count_svd_calls(monkeypatch)
    d = linalg.decompose(np.random.default_rng(11).standard_normal((3, 5)))
    assert d.pinv.shape == (5, 3) and d.kernel.shape == (5, 2)
    assert len(calls) == 1


def _validation_cases():
    rng = np.random.default_rng(12)
    V, E = random_invertible(rng, 4), random_orthogonal(rng, 4)
    A = 0.1 * rng.standard_normal((4, 4))
    S = rng.standard_normal((6, 6)) + 4 * np.eye(6)
    quarter_turn = rotation(np.pi / 2)
    quarter_turns = np.kron(np.eye(2), quarter_turn)
    F_V, F_E = frames.FiniteFrame(V), frames.FiniteFrame(E)
    return {
        # V1 and V2; the transfer operator A is a formed value, and its eigenvalues are not checked
        "rebrick_pair": (["V1", "V2"], lambda: basis.rebrick_pair(V, A @ V)),
        # V and A; the primal B @ V and its dual inv((B @ V)*) are formed values
        "rebricked_dual": (["V", "A"], lambda: basis.rebricked_dual(V, A)),
        "rebricked_frame_bounds": (["V", "A"], lambda: basis.rebricked_frame_bounds(V, A)),
        "onb_rebrick_check": (["E1", "E2"], lambda: basis.onb_rebrick_check(E, E)),
        "frrebrick_check": (["A", "S"], lambda: frames.frrebrick_check(truncating_shift(4, 6), S)),
        # the two syntheses, checked where the frames are built and not again
        "frame_leq": (
            ["synthesis", "synthesis"],
            lambda: frames.frame_leq(*(frames.FiniteFrame(W) for W in (V, E))),
        ),
        # the operator alone: the frames come checked, and a formed synthesis is not scanned again
        "operator_rebrick_frame": (["A"], lambda: frames.operator_rebrick_frame(F_V, A)),
        "parseval_rebrick": (["A"], lambda: frames.parseval_rebrick(F_E, A)),
        "rebrick_frames": ([], lambda: frames.rebrick_frames(F_V, F_E)),
        # 2 and 8 trials: the count does not grow with the search
        "repair_permutation 2 trials": (
            ["matrix"], lambda: permutation.repair_permutation(quarter_turn)
        ),
        "repair_permutation 8 trials": (
            ["matrix"], lambda: permutation.repair_permutation(quarter_turns)
        ),
    }


@pytest.mark.parametrize("case", sorted(_validation_cases()))
def test_validations_per_call(case, monkeypatch):
    # as_matrix runs once per argument; a product formed inside goes through linalg.formed
    expected, call = _validation_cases()[case]
    calls = count_validations(monkeypatch)
    call()
    assert calls == expected


def test_square_pair_messages():
    V, A = linalg.require_square_pair(np.eye(2), np.ones((2, 2)), ("V", "A"))
    assert V.shape == A.shape == (2, 2)
    with pytest.raises(errors.ShapeMismatch, match=r"^V is \(2, 2\), A is \(3, 3\)$"):
        linalg.require_square_pair(np.eye(2), np.eye(3), ("V", "A"))
    with pytest.raises(errors.ShapeMismatch, match="^A: expected square, got 2x3$"):
        linalg.require_square_pair(np.eye(2), np.ones((2, 3)), ("V", "A"))
    with pytest.raises(errors.InvalidMatrix, match="^V: entries must be finite"):
        linalg.require_square_pair([[np.inf]], [[1.0]], ("V", "A"))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        linalg.Tolerance(rank_rel=2.0)
    with pytest.raises(ValueError):
        linalg.Tolerance(eig_abs=-1.0)
    t = linalg.Tolerance.from_scalar(1e-7)
    assert t.eig_abs == 1e-7 and t.equality_abs == 1e-7


# ------------------------------------------------ one realness rule

_I2 = np.eye(2)
_Z = np.diag([-1j, 0.5])  # Id + Z @ Z is singular at eigenvalue -i, Id + iZ is not
_ZV = np.diag([1j, 2.0])  # V2 @ inv(ZV) = Z for V2 = Id
_F = frames.FiniteFrame(_I2)
_WIDE = truncating_shift(2, 3)
_REAL_OPERAND_CASES = {
    "transfer_operator": ("V1", lambda: basis.transfer_operator(_ZV, _I2)),
    "rebrick_pair": ("V1", lambda: basis.rebrick_pair(_ZV, _I2)),
    "rebrick_with_operator": ("A", lambda: basis.rebrick_with_operator(_Z, _I2)),
    "onb_rebrick_check": ("E1", lambda: basis.onb_rebrick_check(1j * _I2, _I2)),
    "onb_rebrick_check E2": ("E2", lambda: basis.onb_rebrick_check(_I2, 1j * _I2)),
    "rebricked_dual": ("A", lambda: basis.rebricked_dual(_I2, _Z)),
    "real_part_preservation_lambda": ("A", lambda: basis.real_part_preservation_lambda(2j * _I2)),
    "rebricked_frame_bounds": ("A", lambda: basis.rebricked_frame_bounds(_I2, _Z)),
    "spectral_factorize_orthosym": ("A", lambda: basis.spectral_factorize_orthosym(1j * _I2)),
    "char_poly": ("matrix", lambda: permutation.char_poly(_Z)),
    "summed_char_poly": ("matrix", lambda: permutation.summed_char_poly(_Z)),
    "invariant_eigenvalue_candidates": (
        "matrix", lambda: permutation.invariant_eigenvalue_candidates(_Z)
    ),
    "repair_permutation": ("matrix", lambda: permutation.repair_permutation(_Z)),
    "rebrick_with_permutation": (
        "A", lambda: permutation.rebrick_with_permutation(_I2, _Z, (1, 0))
    ),
    "frrebrick_check A": ("A", lambda: frames.frrebrick_check(1j * _WIDE, np.eye(3))),
    "frrebrick_check S": ("S", lambda: frames.frrebrick_check(_WIDE, np.diag([-1j, 0.5, 1]))),
    "operator_rebrick_frame": ("A", lambda: frames.operator_rebrick_frame(_F, _Z)),
    "parseval_rebrick": ("A", lambda: frames.parseval_rebrick(_F, _Z)),
    "rebrick_frames F": ("F", lambda: frames.rebrick_frames(frames.FiniteFrame(_ZV), _F)),
    "rebrick_frames G": ("G", lambda: frames.rebrick_frames(_F, frames.FiniteFrame(_ZV))),
}


@pytest.mark.filterwarnings("error")  # a complex operand must not be cast to real
@pytest.mark.parametrize("case", sorted(_REAL_OPERAND_CASES))
def test_complex_operand_is_refused_by_name(case):
    name, call = _REAL_OPERAND_CASES[case]
    with pytest.raises(errors.InvalidMatrix, match=f"^{name}: entries must be real$"):
        call()


def test_real_flag_is_one_dtype_kind_test():
    # a complex dtype is refused even when every imaginary part is zero; other kinds pass
    with pytest.raises(errors.InvalidMatrix, match="^X: entries must be real$"):
        linalg.as_matrix(np.eye(2, dtype=complex), "X", real=True)
    for M in (np.eye(2, dtype=np.int8), np.eye(2, dtype=np.float32), np.eye(2, dtype="m8[s]")):
        assert linalg.as_matrix(M, real=True).dtype == np.float64
    with pytest.raises(errors.ShapeMismatch):
        linalg.require_square(np.ones((2, 3)), real=True)
    with pytest.raises(errors.InvalidMatrix, match="^V: entries must be real$"):
        linalg.require_square_pair(_I2, 1j * _I2, ("U", "V"), real=True)


def test_complex_input_is_still_accepted_where_valid():
    M = np.array([[1.0, 1j], [0.0, 2.0]])
    np.testing.assert_allclose(linalg.decompose(M).pinv @ M, _I2, atol=1e-12)
    K = linalg.decompose(np.array([[1.0, 1j]])).kernel
    assert K.shape == (2, 1) and max_abs(np.array([[1.0, 1j]]) @ K) <= 1e-12
    np.testing.assert_allclose(linalg.sorted_eigvals(M), [1.0, 2.0], atol=1e-12)
    F = frames.FiniteFrame(np.hstack([_I2, np.array([[1j], [0.0]])]))
    fb = frames.frame_bounds(F)
    assert fb.c == pytest.approx(1.0) and fb.C == pytest.approx(2.0)
    v = frames.frame_leq(F, F)
    assert v.equivalent and v.ker_dim_F == 1


def test_singular_basis_is_not_a_basis():
    with pytest.raises(errors.RankDeficientInput, match="^columns of V1 do not form a basis$"):
        basis.transfer_operator(np.ones((2, 2)), _I2)


# ------------------------------------------ pinned against the parent's guards

_SPECIAL = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e300, np.nan, np.inf, -np.inf]
_PARTS = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
_SHAPES = [(), (3,), (2, 2, 2), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4)]
_INT64_MIN = np.iinfo(np.int64).min  # NaT as a timedelta64 or datetime64


def _of_dtype(re, im, ints, dtype):
    """Arrays of every dtype family, from drawn real parts, imaginary parts and integers."""
    kind = np.dtype(dtype).kind
    if kind == "c":
        z = np.empty(re.shape, dtype=np.complex128)
        z.real, z.imag = re, im
        return z.astype(dtype)
    if kind == "f":
        return re.astype(dtype)
    if kind in "iu":
        return ints.astype(dtype)  # wraps: int8 and uint64 see their whole range
    if kind in "mM":
        return ints.view(dtype)
    if kind == "b":
        return re != 0.0
    if kind == "O":
        return re.astype(object)
    return np.zeros(re.shape, dtype=dtype)  # str, bytes, structured


@st.composite
def _matrix_inputs(draw):
    shape = draw(st.sampled_from(_SHAPES))
    size = int(np.prod(shape))
    re = np.reshape(draw(st.lists(_PARTS, min_size=size, max_size=size)), shape)
    im = np.reshape(draw(st.lists(_PARTS, min_size=size, max_size=size)), shape)
    int64s = st.integers(int(_INT64_MIN), np.iinfo(np.int64).max)
    ints = np.reshape(  # NaT drawn often
        draw(st.lists(st.one_of(int64s, st.just(int(_INT64_MIN))), min_size=size, max_size=size)),
        shape,
    ).astype(np.int64)
    dtype = draw(
        st.sampled_from(
            [
                np.bool_, np.int8, np.int64, np.uint64, np.float16, np.float32, np.float64,
                np.longdouble, np.complex64, np.complex128, np.clongdouble, "m8[s]", "M8[s]",
                object, "U3", "S3", [("a", "f8")],
            ]
        )
    )
    A = _of_dtype(re, im, ints, dtype)
    return A.tolist() if draw(st.booleans()) and A.ndim == 2 else A


def _guard_outcome(check, M):
    """The dtype, shape and bytes a guard returns, or the exception it raises."""
    try:
        A = check(M, "X")
    except Exception as exc:
        return type(exc), str(exc)
    return A.dtype.str, A.shape, A.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=600, deadline=None)
@given(M=_matrix_inputs())
def test_as_matrix_matches_the_reference(M):
    assert _guard_outcome(linalg.as_matrix, M) == _guard_outcome(reference_as_matrix, M)


@pytest.mark.parametrize(
    "M",
    [
        np.array([[1, 2]], dtype="m8[s]"),
        np.array([[1, "NaT"]], dtype="m8[s]"),
        np.array([[1, 2]], dtype="M8[s]"),
        np.array([[True]]),
        np.array([[1 + 2j]], dtype=np.clongdouble),
        np.array([[complex(1.0, np.nan)]], dtype=np.complex64),
        np.array([[complex(np.inf, 0.0)]]),
        np.array([[-0.0, 0.0]]),
        np.zeros((2, 2), dtype=[("a", "f8")]),
        np.zeros((0, 2)),
        np.float64(1.0),
    ],
    ids=[
        "timedelta", "NaT", "datetime", "bool", "clongdouble", "nan-imag", "inf-real",
        "signed-zeros", "structured", "0x2", "0-d",
    ],
)
def test_as_matrix_listed_cases(M):
    assert _guard_outcome(linalg.as_matrix, M) == _guard_outcome(reference_as_matrix, M)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize(
    "M",
    [
        np.array([[np.longdouble("1e400")]]),
        np.array([[1.0, -np.longdouble("1e400")]]),
        np.array([[complex(1.0, 2.0)]], dtype=np.clongdouble) * np.longdouble("1e400"),
    ],
    ids=["longdouble", "longdouble-negative", "clongdouble"],
)
def test_finite_as_float64_or_complex128(M):
    # finite as a longdouble, infinite as a float64
    with pytest.raises(errors.InvalidMatrix, match="^X: entries must be finite"):
        linalg.as_matrix(M, "X")


_SIGMAS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-16, 1.0, 3.0, 1e300]),
    st.floats(min_value=0.0, max_value=1e300),
)


@settings(max_examples=500, deadline=None)
@given(
    s=st.lists(_SIGMAS, min_size=1, max_size=24),
    ties=st.integers(0, 8),
    size=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_regularity_matches_the_reference(s, ties, size, seed):
    rng = np.random.default_rng(seed)
    values = np.array(s + s[:1] * ties)  # ties with the first drawn value
    rng.shuffle(values)
    for arg in (values, values.tolist()):
        got = linalg.regularity(arg, size)
        want = reference_regularity(arg, size)
        assert got == want and list(map(type, got)) == list(map(type, want))


# ------------------------------------------------ one orthonormality rule


def test_orthonormality_rule_reads_the_tolerance_as_given():
    U = np.diag([1.0 + 5e-11, 1.0])
    defect = is_unitary_defect(U)  # about 1e-10
    assert linalg.is_orthonormal(U, linalg.Tolerance(equality_abs=defect))
    assert not linalg.is_orthonormal(U, linalg.Tolerance(equality_abs=defect / 2))


_I3 = np.eye(3)
_SPAN = np.array([[1.0, 0, 0, 1, 0], [0, 1, 0, 0, 1], [0, 0, 1, 1, 1]])
# at a scale s of 1e160 and above, the Gram matrix of each checked operand leaves the float64
# range; each site answers as before, and no RuntimeWarning escapes
_ORTHONORMALITY_SITES = {
    "onb_rebrick_check": (errors.NotOrthogonal, lambda s: basis.onb_rebrick_check(s * _I3, _I3)),
    "onb_rebrick_check E2": (errors.NotOrthogonal, lambda s: basis.onb_rebrick_check(_I3, s * _I3)),
    "spectral_factorize_orthosym": (
        errors.NotOrthogonal, lambda s: basis.spectral_factorize_orthosym(s * _I3)
    ),
    "is_parseval": (False, lambda s: frames.is_parseval(frames.FiniteFrame(s * _SPAN))),
    "parseval_rebrick": (
        errors.NotOrthogonal,
        lambda s: frames.parseval_rebrick(frames.FiniteFrame(s * _SPAN), _I3),
    ),
    # the rebricked frame (Id + isId)/sqrt(2), whose Gram leaves the float64 range
    "parseval_rebrick output": (
        False, lambda s: frames.parseval_rebrick(frames.FiniteFrame(_I3), s * _I3)[1]
    ),
    "rebrick_translates": (
        False, lambda s: multipliers.rebrick_translates(np.eye(1, 8)[0], s * np.ones(8))[1]
    ),
}


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
@pytest.mark.parametrize("case", sorted(_ORTHONORMALITY_SITES))
def test_an_overflowing_gram_is_a_no_without_a_warning(case, scale):
    want, call = _ORTHONORMALITY_SITES[case]
    if want is False:
        assert call(scale) is False
    else:
        with pytest.raises(want):
            call(scale)


# ------------------------------------------------ one equality rule


def _at_and_below(defect: float):
    """Tolerances that put a defect exactly at equality_abs, and one ulp above it."""
    return (
        linalg.Tolerance(equality_abs=defect),
        linalg.Tolerance(equality_abs=float(np.nextafter(defect, 0.0))),
    )


def test_equality_rule_reads_the_tolerance_as_given():
    d = 3e-10
    tol = linalg.Tolerance(equality_abs=d)
    above = float(np.nextafter(d, np.inf))
    assert linalg.is_close(np.array([[d, -d], [0.0, 1j * d]]), 0.0, tol)
    assert not linalg.is_close(np.array([[d, -above], [0.0, 0.0]]), 0.0, tol)
    assert linalg.is_close(d, 0.0, tol)
    assert not linalg.is_close(above, 0.0, tol)
    assert linalg.is_close(2 * d, 0.0, tol, 2.0) and not linalg.is_close(2 * above, 0.0, tol, 2.0)
    assert linalg.is_close(np.empty(0), 0.0, tol)  # nothing differs


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
def test_equality_rule_says_no_to_nan_and_inf(bad):
    assert not linalg.is_close(np.array([0.0, bad]), 0.0, linalg.Tolerance(equality_abs=1e300))


def test_symmetry_condition_at_the_tolerance():
    E2 = rotation(1e-6)
    G = E2.T @ np.eye(2)
    at, below = _at_and_below(float(np.abs(G - G.T).max()))
    assert symmetry_condition_check(np.eye(2), E2, at)
    assert not symmetry_condition_check(np.eye(2), E2, below)


_ONES = np.ones(8, dtype=complex)
# one clause of validate_rebrick_multiplier off by a defect, with that defect as the symbol does it
_CLAUSES = {
    "not real-valued": (_ONES + 3e-7j * np.eye(1, 8)[0], lambda m: np.abs(m.imag).max()),
    "not even (m[k] != m[N-k])": (
        np.where(np.arange(8) == 7, -1.0, 1.0), lambda m: np.abs(m[1:] - m[:0:-1]).max()
    ),
    "values not in {-1, +1}": (
        np.where(np.arange(8) == 0, 1.0 + 3e-7, 1.0), lambda m: np.abs(np.abs(m) - 1.0).max()
    ),
}


@pytest.mark.parametrize("clause", sorted(_CLAUSES))
def test_each_multiplier_clause_at_the_tolerance(clause):
    m, defect = _CLAUSES[clause]
    at, below = _at_and_below(float(defect(m)))
    assert multipliers.validate_rebrick_multiplier(m, at) == (True, [])
    assert multipliers.validate_rebrick_multiplier(m, below) == (False, [clause])


def test_kernel_containment_at_the_tolerance():
    F, G = frames.FiniteFrame(np.array([[1.0, 1.0]])), frames.FiniteFrame(np.array([[1.0, 1.001]]))
    # ker(G) in ker(F) is decided as row(F) in row(G), on the rank-1 row-space bases Q
    Q_F, Q_G = (linalg.decompose(X.synthesis.T).U[:, :1] for X in (F, G))
    at, below = _at_and_below(float(np.abs(Q_F - Q_G @ (Q_G.T @ Q_F)).max()))
    assert frames.frame_leq(F, G, at).leq
    assert not frames.frame_leq(F, G, below).leq


# entries near the float64 maximum take the operands of an equality decision beyond
# float64; each site answers as before, and no RuntimeWarning escapes to the caller
_BIG = 1.7e308
_EQUALITY_OVERFLOW_SITES = {
    **{
        f"real_part_preservation_lambda {s:.0e}": (
            None, lambda s=s: basis.real_part_preservation_lambda(s * np.eye(2))
        )
        for s in (1e160, 1e200, 1e300)
    },
    "spectral_factorize_orthosym": (
        (errors.NotOrthogonal, "input is not symmetric at tolerance"),
        lambda: basis.spectral_factorize_orthosym([[0.0, _BIG], [-_BIG, 0.0]]),
    ),
    "rebrick_translates": (
        (errors.InvalidMatrix, "multiplier: its operator is not real"),
        lambda: multipliers.rebrick_translates(
            np.eye(1, 4)[0], [1.0, _BIG * (1 + 1j), 1.0, _BIG * (-1 + 1j)]
        ),
    ),
    "validate_rebrick_multiplier": (
        (False, ["not even (m[k] != m[N-k])", "values not in {-1, +1}"]),
        lambda: multipliers.validate_rebrick_multiplier([1.0, _BIG, 1.0, -_BIG]),
    ),
}


@pytest.mark.parametrize("case", sorted(_EQUALITY_OVERFLOW_SITES))
def test_an_overflowing_difference_is_a_no_without_a_warning(case):
    want, call = _EQUALITY_OVERFLOW_SITES[case]
    if isinstance(want, tuple) and isinstance(want[0], type):
        with pytest.raises(want[0], match=f"^{re.escape(want[1])}"):
            call()
    else:
        assert call() == want


# ------------------------------------------------ one formed-value rule


@pytest.mark.parametrize(
    "f, operands",
    [
        (np.matmul, (1e200 * np.eye(2), 1e200 * np.eye(2))),  # overflow
        (np.matmul, (np.array([[1e308, 1e308]]), np.array([[1e308], [-1e308]]))),  # inf - inf
        (np.linalg.solve, (1e-310 * np.eye(2), np.eye(2))),
    ],
    ids=["overflow", "invalid", "solve"],
)
def test_a_nonfinite_formed_value_is_named_without_a_warning(f, operands):
    message = r"^X @ Y: entries must be finite \(no NaN/Inf\)$"
    with pytest.raises(errors.InvalidMatrix, match=message):
        linalg.formed("X @ Y", f, *operands)


def test_each_thread_gets_its_own_error_state_back(monkeypatch):
    # both threads are inside one guarded entry point at once; numpy < 2 kept the error state
    # that an errstate restores on the instance, so one shared instance could swap the two states
    barrier = threading.Barrier(2, timeout=30)
    is_close = linalg.is_close

    def waiting(*args, **kwargs):
        barrier.wait()
        return is_close(*args, **kwargs)

    monkeypatch.setattr(linalg, "is_close", waiting)

    def call(over):
        if over is not None:
            np.seterr(over=over)
        assert multipliers.validate_rebrick_multiplier(np.ones(4)) == (True, [])
        return np.geterr()["over"]

    with ThreadPoolExecutor(max_workers=2) as pool:
        raised, default = pool.submit(call, "raise"), pool.submit(call, None)
        assert (raised.result(), default.result()) == ("raise", "warn")
