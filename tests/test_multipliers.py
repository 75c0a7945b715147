import time
import tracemalloc

import numpy as np
import pytest

from rebrick import errors, linalg, multipliers
from support import (
    dense_rank_sigma_min,
    dense_translates,
    is_unitary_defect,
    max_abs,
    multiplier_matrix,
    shift_matrix,
)


class TestDft:
    """apply_multiplier acts in the unitary DFT domain: the symbol multiplies the spectrum."""

    def test_delta_goes_flat(self):
        # a delta has a flat spectrum, so the impulse response is the inverse DFT of the symbol
        x = np.zeros(8)
        x[0] = 1.0
        m = np.random.default_rng(0).standard_normal(8) + 1j
        np.testing.assert_allclose(np.fft.fft(multipliers.apply_multiplier(m, x)), m, atol=1e-14)

    def test_inversion(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        m = np.exp(1j * rng.random(16)) * (1.0 + rng.random(16))
        y = multipliers.apply_multiplier(1.0 / m, multipliers.apply_multiplier(m, x))
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_parseval(self):
        # a unimodular symbol is a unitary operator, since the DFT is unitary
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            m = np.exp(2j * np.pi * rng.random(32))
            assert abs(
                np.linalg.norm(x) - np.linalg.norm(multipliers.apply_multiplier(m, x))
            ) <= 1e-12 * np.linalg.norm(x)

    def test_real_signal_conjugate_symmetric(self):
        # a symbol with m[k] == conj(m[N-k]) maps a real signal to a real one
        rng = np.random.default_rng(2)
        x = rng.standard_normal(12)
        r = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        m = (r + np.conj(r[(-np.arange(12)) % 12])) / 2.0
        assert multipliers.is_real_symbol_operator(m)
        np.testing.assert_allclose(multipliers.apply_multiplier(m, x).imag, 0.0, atol=1e-12)


class TestSignalChecks:
    """Signals are checked by the dtype and finiteness rule of `linalg.as_matrix`."""

    @pytest.mark.parametrize(
        "x",
        [np.array(["a", "b"]), np.array([True, False]), np.array([1, 2], dtype=object)],
        ids=["str", "bool", "object"],
    )
    def test_non_numeric_is_refused(self, x):
        with pytest.raises(errors.InvalidMatrix, match="^signal must be numeric$"):
            multipliers.apply_multiplier(np.ones(2), x)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize(
        "x",
        [
            np.array([1.0, np.longdouble("1e400")]),
            np.array([1.0, complex(0.0, np.nan)]),
            np.array([1, "NaT"], dtype="m8[s]"),
        ],
        ids=["longdouble", "nan-imag", "NaT"],
    )
    def test_non_finite_is_refused(self, x):
        with pytest.raises(errors.InvalidMatrix, match="^multiplier must be finite$"):
            multipliers.validate_rebrick_multiplier(x)

    def test_integers_and_timedelta_are_signals(self):
        m = np.array([1.0, -1.0])
        want = multipliers.apply_multiplier(m, np.array([1.0, 2.0]))
        for x in (np.array([1, 2], dtype=np.int8), np.array([1, 2], dtype="m8[s]")):
            assert np.array_equal(multipliers.apply_multiplier(m, x), want)


class TestShiftAndMultiplier:
    def test_unit_symbol_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10)
        np.testing.assert_allclose(
            multipliers.apply_multiplier(np.ones(10), x), x, atol=1e-12
        )

    def test_shift_symbol_matches_shift_matrix(self):
        N = 12
        T = shift_matrix(N)
        # diagonalize the one-step shift through the DFT to read off its symbol
        delta = np.zeros(N)
        delta[0] = 1.0
        symbol = np.fft.fft(T @ delta, norm="ortho") / np.fft.fft(delta, norm="ortho")
        rng = np.random.default_rng(4)
        x = rng.standard_normal(N)
        np.testing.assert_allclose(
            multipliers.apply_multiplier(symbol, x), T @ x, atol=1e-10
        )

    def test_commutes_with_shift(self):
        rng = np.random.default_rng(5)
        N = 16
        T = shift_matrix(N)
        for _ in range(50):
            m = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            ATx = multipliers.apply_multiplier(m, T @ x)
            TAx = T @ multipliers.apply_multiplier(m, x)
            np.testing.assert_allclose(ATx, TAx, atol=1e-10)

    def test_matrix_route_agrees_with_fft_route(self):
        rng = np.random.default_rng(6)
        N = 8
        m = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        A = multiplier_matrix(m)
        x = rng.standard_normal(N)
        np.testing.assert_allclose(A @ x, multipliers.apply_multiplier(m, x), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            multipliers.apply_multiplier(np.ones(4), np.ones(5))

    def test_checks_each_array_once(self, monkeypatch):
        # m, x and the formed output ifft(m * X); the FFTs take the checked arrays
        names = []
        as_signal = multipliers._as_signal

        def counting(x, name="signal"):
            names.append(name)
            return as_signal(x, name)

        monkeypatch.setattr(multipliers, "_as_signal", counting)
        multipliers.apply_multiplier(np.ones(8), np.arange(8.0))
        assert names == ["multiplier", "signal", "output"]

    def test_bit_identical_to_dft_route(self):
        rng = np.random.default_rng(7)
        for N in (1, 2, 7, 16, 64):
            m = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            x = rng.standard_normal(N)
            want = np.fft.ifft(m * np.fft.fft(x, norm="ortho"), norm="ortho")
            assert np.array_equal(multipliers.apply_multiplier(m, x), want)

    def test_overflowing_spectrum_is_refused(self):
        with pytest.raises(errors.InvalidMatrix, match="^output must be finite$"):
            multipliers.apply_multiplier(np.full(4, 1e300), np.full(4, 1e300))

    def test_overflowing_inverse_dft_is_refused(self):
        # m * X is finite, but the inverse DFT of the flat 1e308 symbol overflows
        x = np.zeros(8)
        x[0] = 1.0
        with pytest.raises(errors.InvalidMatrix, match="^output must be finite$"):
            multipliers.apply_multiplier(np.full(8, 1e308), x)


class TestValidateMultiplier:
    def test_all_ones(self):
        ok, reasons = multipliers.validate_rebrick_multiplier(np.ones(8))
        assert ok and reasons == []

    def test_even_sign_pattern(self):
        N = 16
        m = np.ones(N)
        m[4 : N - 3] = -1.0  # symmetric band of -1 around Nyquist
        assert m[5] == m[(N - 5) % N]
        ok, reasons = multipliers.validate_rebrick_multiplier(m)
        assert ok, reasons

    def test_hilbert_symbol_fails_with_reasons(self):
        ok, reasons = multipliers.validate_rebrick_multiplier(
            multipliers.discrete_hilbert(16)
        )
        assert not ok
        assert any("real" in r for r in reasons)

    def test_odd_pattern_fails(self):
        N = 8
        m = np.ones(N)
        m[1] = -1.0  # not mirrored at N-1
        ok, reasons = multipliers.validate_rebrick_multiplier(m)
        assert not ok
        assert any("even" in r for r in reasons)

    def test_wrong_modulus_fails(self):
        ok, reasons = multipliers.validate_rebrick_multiplier(2 * np.ones(8))
        assert not ok
        assert any("+-1" in r or "-1, +1" in r or "{-1, +1}" in r for r in reasons)

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 9, 64])
    def test_evenness_matches_the_mirror_gather(self, N):
        rng = np.random.default_rng(N)
        tol = linalg.DEFAULT_TOL
        for m in (
            rng.standard_normal(N),
            rng.choice([-1.0, 1.0], N)[np.minimum(np.arange(N), (-np.arange(N)) % N)],
            rng.standard_normal(N) + 1j * rng.standard_normal(N),
        ):
            gathered = np.max(np.abs(m - m[(-np.arange(N)) % N]))
            _, reasons = multipliers.validate_rebrick_multiplier(m)
            assert ("not even (m[k] != m[N-k])" in reasons) == (gathered > tol.equality_abs)


class TestRebrickTranslates:
    def test_delta_with_unit_symbol(self):
        N = 8
        x = np.zeros(N)
        x[0] = 1.0
        cols, unitary = multipliers.rebrick_translates(x, np.ones(N))
        assert unitary
        np.testing.assert_allclose(
            cols, (1 + 1j) / np.sqrt(2) * np.eye(N), atol=1e-12
        )

    def test_delta_with_sign_pattern(self):
        N = 16
        m = np.ones(N)
        m[4 : N - 3] = -1.0
        x = np.zeros(N)
        x[0] = 1.0
        cols, unitary = multipliers.rebrick_translates(x, m)
        assert unitary
        assert is_unitary_defect(cols) <= 1e-10

    def test_delta_with_hilbert_symbol_not_unitary(self):
        N = 16
        x = np.zeros(N)
        x[0] = 1.0
        cols, unitary = multipliers.rebrick_translates(x, multipliers.discrete_hilbert(N))
        assert not unitary

    def test_symbol_of_a_nonreal_operator_is_input_error(self):
        x = np.eye(1, 8)[0]
        with pytest.raises(errors.InvalidMatrix, match=r"^multiplier: "):
            multipliers.rebrick_translates(x, 1j * np.ones(8))
        # a complex dtype is not the test: +-1 symbols stored as complex still get a verdict
        assert multipliers.rebrick_translates(x, np.ones(8, dtype=complex))[1] is True

    def test_nononb_generator_rejected(self):
        N = 8
        x = np.zeros(N)
        x[0] = 2.0  # translates orthogonal but not normalized
        with pytest.raises(errors.NotOrthogonal):
            multipliers.rebrick_translates(x, np.ones(N))

    def test_a_tolerance_below_1e_10_is_read_as_given(self):
        tight = linalg.Tolerance.from_scalar(1e-12)
        delta = np.eye(1, 4)[0]
        x = (1.0 + 1e-10) * delta  # every |X_k| is 1/2 + 5e-11
        assert multipliers.rebrick_translates(x, np.ones(4))[1] is True
        with pytest.raises(errors.NotOrthogonal):
            multipliers.rebrick_translates(x, np.ones(4), tight)
        m = np.full(4, 1.0 + 5e-11)  # off unit modulus by 5e-11: a unitary defect of 5e-11
        assert multipliers.rebrick_translates(delta, m)[1] is True
        assert multipliers.rebrick_translates(delta, m, tight)[1] is False

    def test_a_generator_beyond_float64_is_not_onb(self):
        # X_0 = 8e308 / sqrt(8) overflows and the FFT fills other bins with NaN: an input error
        with pytest.raises(errors.NotOrthogonal):
            multipliers.rebrick_translates(1e308 * np.ones(8), np.ones(8))

    def test_modulated_generator_accepted(self):
        # any unimodular spectrum works, not just the delta
        N = 8
        rng = np.random.default_rng(7)
        phases = np.exp(2j * np.pi * rng.random(N))
        phases[0] = 1.0
        phases[N // 2] = 1.0
        # force conjugate symmetry so the generator is real
        for k in range(1, N // 2):
            phases[N - k] = np.conj(phases[k])
        x = np.fft.ifft(phases / np.sqrt(N), norm="ortho").real
        cols, unitary = multipliers.rebrick_translates(x, np.ones(N))
        assert unitary

    @pytest.mark.parametrize("N", [1, 2, 5, 8, 33, 512, 2048])
    def test_circulant_gather_matches_rolls(self, N):
        rng = np.random.default_rng(N)
        c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        C = multipliers._circulant(c)
        assert C.shape == (N, N) and not C.flags.writeable
        assert C.base.size == 2 * N  # a view of the doubled signal, not N^2 entries
        for n in range(N):  # column by column, so no N x N copy is made
            assert C[:, n].tobytes() == np.roll(c, n).tobytes(), n

    def test_translate_matrix_is_a_read_only_view(self):
        N = 8
        cols, _ = multipliers.rebrick_translates(np.eye(1, N)[0], np.ones(N))
        assert cols.shape == (N, N) and not cols.flags.writeable
        assert np.shares_memory(cols[:, 0], cols[:, 1])  # the columns overlap: 2N entries
        assert cols.base.size == 2 * N
        with pytest.raises(ValueError):  # its owner is read-only too
            cols.flags.writeable = True

    def test_memory_is_linear_in_N(self):
        N = 2**11
        rng = np.random.default_rng(11)
        x = np.fft.ifft(np.exp(2j * np.pi * rng.random(N)) / np.sqrt(N), norm="ortho")
        m = rng.choice([-1.0, 1.0], N)[np.minimum(np.arange(N), (-np.arange(N)) % N)]
        tracemalloc.start()
        try:
            cols, unitary = multipliers.rebrick_translates(x, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert unitary and cols.shape == (N, N)
        assert peak <= 16 * 16 * N  # sixteen complex signals of length N; N^2 would be 64 MiB


class TestDiscreteHilbert:
    def test_symbol_layout(self):
        m = multipliers.discrete_hilbert(8)
        assert m[0] == 0 and m[4] == 0
        np.testing.assert_array_equal(m[1:4], [-1j, -1j, -1j])
        np.testing.assert_array_equal(m[5:], [1j, 1j, 1j])

    def test_operator_is_real(self):
        H = multiplier_matrix(multipliers.discrete_hilbert(32))
        assert np.max(np.abs(H.imag)) <= 1e-12

    def test_cosine_maps_to_sine(self):
        N = 32
        t = np.arange(N)
        x = np.cos(2 * np.pi * t / N)
        H = multiplier_matrix(multipliers.discrete_hilbert(N)).real
        np.testing.assert_allclose(H @ x, np.sin(2 * np.pi * t / N), atol=1e-10)

    def test_isometry_off_dc_and_nyquist(self):
        rng = np.random.default_rng(8)
        N = 16
        H = multiplier_matrix(multipliers.discrete_hilbert(N)).real
        for _ in range(20):
            x = rng.standard_normal(N)
            X = np.fft.fft(x, norm="ortho")
            X[0] = 0.0
            X[N // 2] = 0.0
            x = np.fft.ifft(X, norm="ortho").real
            assert abs(np.linalg.norm(H @ x) - np.linalg.norm(x)) <= 1e-10

    def test_squares_to_minus_identity_off_dc_and_nyquist(self):
        N = 16
        H = multiplier_matrix(multipliers.discrete_hilbert(N)).real
        # projector onto the DC/Nyquist-free subspace
        mask = np.ones(N)
        mask[0] = mask[N // 2] = 0.0
        P = multiplier_matrix(mask).real
        np.testing.assert_allclose(H @ H @ P, -P, atol=1e-10)

    def test_gabor_symbol_of_id_plus_ih(self):
        N = 64
        m = multipliers.discrete_hilbert(N)
        symbol = 1.0 + 1j * m
        assert np.max(np.abs(symbol[1 : N // 2] - 2.0)) <= 1e-12  # doubled
        assert np.max(np.abs(symbol[N // 2 + 1 :])) <= 1e-12  # suppressed
        assert symbol[0] == 1.0 and symbol[N // 2] == 1.0

    def test_odd_length_rejected(self):
        with pytest.raises(errors.InvalidSize):
            multipliers.discrete_hilbert(9)


class TestAnalyticDefect:
    def test_small_case(self):
        assert multipliers.analytic_defect(8) == (5, 3)

    def test_n64(self):
        assert multipliers.analytic_defect(64) == (33, 31)

    def test_kernel_contains_antianalytic_witnesses(self):
        N = 32
        rng = np.random.default_rng(9)
        H = multiplier_matrix(multipliers.discrete_hilbert(N)).real
        B = np.eye(N) + 1j * H
        for _ in range(10):
            f = rng.standard_normal(N)
            X = np.fft.fft(f, norm="ortho")
            X[0] = 0.0
            X[N // 2] = 0.0  # the convention bins carry no analytic content
            f = np.fft.ifft(X, norm="ortho").real
            witness = f - 1j * (H @ f)
            assert np.max(np.abs(B @ witness)) <= 1e-10 * max(np.linalg.norm(f), 1)


class TestTrigRebrick:
    def test_exact_identities(self):
        rep = multipliers.trig_rebrick_demo(3)
        assert rep.max_dev <= 1e-12

    def test_custom_grid(self):
        rep = multipliers.trig_rebrick_demo(8, 64)
        assert rep.N == 64
        assert rep.max_dev <= 1e-10

    def test_grid_too_small(self):
        with pytest.raises(errors.InvalidSize):
            multipliers.trig_rebrick_demo(8, 20)

    def test_verdict_is_max_dev_zero_at_equality_abs(self):
        # a deviation exactly at equality_abs matches, one ulp above it does not
        rep = multipliers.trig_rebrick_demo(5)
        assert rep.matches_exponentials and 0.0 < rep.max_dev
        for tol, want in ((rep.max_dev, True), (float(np.nextafter(rep.max_dev, 0.0)), False)):
            got = multipliers.trig_rebrick_demo(5, tol=linalg.Tolerance.from_scalar(tol))
            assert got.matches_exponentials is want and got.max_dev == rep.max_dev


class TestConditioningSweep:
    def test_strictly_decreasing_and_injective(self):
        rows = multipliers.conditioning_sweep([16, 32, 64, 128])
        sigmas = [r.sigma_min for r in rows]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
        assert all(r.kernel_dim == 0 for r in rows)

    def test_sigma_min_matches_symbol_minimum(self):
        # shift-invariance makes sigma_min exactly the smallest symbol modulus
        rows = multipliers.conditioning_sweep([16, 32])
        for row in rows:
            m = multipliers._creeping_symbol(row.N)
            predicted = np.min(np.abs(1.0 + 1j * m))
            assert row.sigma_min == pytest.approx(float(predicted), abs=1e-12)

    def test_band_edge_halves_when_doubling(self):
        rows = multipliers.conditioning_sweep([32, 64])
        ratio = rows[1].sigma_min / rows[0].sigma_min
        assert 0.4 < ratio < 0.6

    def test_rejects_bad_sizes(self):
        with pytest.raises(errors.InvalidSize):
            multipliers.conditioning_sweep([15, 32])
        with pytest.raises(errors.InvalidSize):
            multipliers.conditioning_sweep([32, 16])

    def test_creeping_symbol_operator_is_real(self):
        # the sweep reads sigma(Id + i*A_N) off a symbol that is real-operator by construction
        for N in range(4, 4097, 2):
            assert multipliers.is_real_symbol_operator(multipliers._creeping_symbol(N)), N


class TestSymbolRouteMatchesDenseOracle:
    """The symbol route against a dense SVD / Gram product of the same operator."""

    @pytest.mark.parametrize("N", range(4, 257, 2))
    def test_every_even_size(self, N):
        rank, _ = dense_rank_sigma_min(multipliers.discrete_hilbert(N))
        assert multipliers.analytic_defect(N) == (rank, N - rank)

        (row,) = multipliers.conditioning_sweep([N])
        rank, sigma_min = dense_rank_sigma_min(multipliers._creeping_symbol(N))
        assert row.kernel_dim == N - rank
        assert row.sigma_min == pytest.approx(sigma_min, abs=1e-12)

        rng = np.random.default_rng(N)
        x = np.fft.ifft(np.exp(2j * np.pi * rng.random(N)) / np.sqrt(N), norm="ortho")
        valid = rng.choice([-1.0, 1.0], N)[np.minimum(np.arange(N), (-np.arange(N)) % N)]
        invalid = valid.copy()
        k = int(rng.integers(1, N // 2))
        invalid[k] = invalid[N - k] = 0.5
        cases = ((valid, True), (invalid, False), (multipliers.discrete_hilbert(N), False))
        for m, want in cases:
            cols, unitary = multipliers.rebrick_translates(x, m)
            dense_cols, dense_defect = dense_translates(x, m)
            assert unitary == want
            assert (dense_defect <= 1e-9) == want
            np.testing.assert_allclose(cols, dense_cols, rtol=0, atol=1e-12)
            spectrum = np.fft.fft(cols[:, 0], norm="ortho")
            gram_defect = multipliers._circulant_gram_defect(spectrum)
            assert max_abs(gram_defect) == pytest.approx(is_unitary_defect(cols), abs=1e-12)


class TestScale:
    def test_analytic_defect_at_two_to_the_twenty(self):
        t0 = time.perf_counter()
        assert multipliers.analytic_defect(2**20) == (2**19 + 1, 2**19 - 1)
        assert time.perf_counter() - t0 < 1.0

    def test_translates_at_two_to_the_eighteen(self):
        N = 2**18
        x = np.eye(1, N)[0]
        t0 = time.perf_counter()
        cols, unitary = multipliers.rebrick_translates(x, np.ones(N))
        assert time.perf_counter() - t0 < 1.0
        assert unitary and cols.shape == (N, N)
        assert cols[N - 1, N - 1] == cols[0, 0]

    def test_sweep_to_two_to_the_twenty(self):
        sizes = [2**10, 2**15, 2**20]
        t0 = time.perf_counter()
        rows = multipliers.conditioning_sweep(sizes)
        assert time.perf_counter() - t0 < 1.0
        assert [r.N for r in rows] == sizes
        for r in rows:
            assert r.kernel_dim == 0
            assert r.sigma_min == pytest.approx(1.0 / (r.N / 2 - 1), rel=1e-9)
