"""The four benchmark workloads: seeded questions with expected outcomes.

Every question is built from the workload seed before any timing starts.
The program sees only the generated arrays and files.  Each question
carries a `call` (the timed call into rebrick) and a `check` that
compares the answer with an outcome known by construction or from an
independent oracle (exact Fraction arithmetic, closed forms, Parseval,
byte-identical reports across passes).

Sizes are spread log-uniformly, one from the middle of each of `count`
equal slices of the log range, so that every question kind covers its
whole range with no gap for a percentile to sit on.  The sizes and the
question order are the same for every seed; the seed draws the matrices
and files.  Random sizes made the latency percentiles move by 5-10 % from
seed to seed, because they moved which question sat at p50 and p90.  Where one question sets the peak
memory or a large share of the pass, the top of its range is always drawn.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Callable

import numpy as np

OK = "ok"


@dataclass
class Outcome:
    value: object = None
    exc: BaseException | None = None

    def describe(self) -> str:
        if self.exc is not None:
            return f"raised {type(self.exc).__name__}"
        if isinstance(self.value, CliAnswer):
            return f"exit {self.value.code}"
        return "returned"


@dataclass
class Question:
    qid: int
    kind: str
    size: int
    call: Callable[[], object]
    check: Callable[[Outcome], str]
    # outcome recorded at the seed commit for inputs that violate the
    # documented contract there; matching it is expected, not correct.
    # Such questions are asked once, untimed, outside the timed passes.
    known_defect: str | None = None
    state: dict = field(default_factory=dict)


def classify(q: Question, out: Outcome) -> str:
    """'ok', 'known' (the recorded seed defect) or 'wrong'."""
    if out.exc is None or q.known_defect is not None:
        try:
            verdict = q.check(out)
        except Exception as exc:  # a malformed answer is a wrong answer
            verdict = f"check raised {type(exc).__name__}: {exc}"
    else:
        verdict = out.describe()
    if verdict == OK:
        return "ok"
    if q.known_defect is not None and out.describe() == q.known_defect:
        return "known"
    q.state["last_failure"] = verdict
    return "wrong"


def log_sizes(lo: int, hi: int, count: int, step: int = 1, top: bool = False) -> list[int]:
    """`count` integers in [lo, hi], multiples of `step`, log-uniformly spaced.

    Size k sits at the middle of the k-th of `count` equal slices of the
    log range.  With `top`, the last one is `hi` itself:
    for a kind whose largest question sets the peak memory or a large
    share of the pass.
    """
    u = (np.arange(count) + 0.5) / count
    x = np.exp(np.log(lo) + u * (np.log(hi + step) - np.log(lo)))
    sizes = np.clip((x // step).astype(int) * step, lo, hi)
    if top:
        sizes[-1] = hi
    return [int(s) for s in sizes]


def _fixed_order(specs: list) -> None:
    # The same question order for every seed: the order decides which
    # allocations reuse freed memory and where the collector runs, and a
    # seeded order moved single questions by up to 2x from seed to seed.
    np.random.default_rng(0).shuffle(specs)


def _orth(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _well_conditioned(rng, n: int) -> np.ndarray:
    return _orth(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ _orth(rng, n)


def _contraction(rng, n: int) -> np.ndarray:
    # spectral norm 1/2: every eigenvalue lies at distance >= 1/2 from i
    G = rng.standard_normal((n, n))
    return 0.5 * G / np.linalg.norm(G, 2)


def _planted_i(rng, n: int) -> np.ndarray:
    # normal matrix with eigenvalues +-i and real eigenvalues in +-[0.5, 2]
    core = np.zeros((n, n))
    core[0, 1], core[1, 0] = -1.0, 1.0
    if n > 2:
        core[2:, 2:] = np.diag(rng.choice([-1.0, 1.0], n - 2) * rng.uniform(0.5, 2.0, n - 2))
    Q = _orth(rng, n)
    return Q @ core @ Q.T


def _close(a, b, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


def _expect(cond: bool, what: str) -> str:
    return OK if cond else what


# ------------------------------------------------------------------ dense-bases


def _nested_frames(rng, n: int, m: int):
    # ker(G) = span(Q[:, :m-n]) lies inside ker(F) = span(Q[:, :m-r])
    r = n - max(1, n // 8)
    Q = _orth(rng, m)
    G = rng.standard_normal((n, n)) @ Q[:, m - n :].T
    F = rng.standard_normal((n, r)) @ Q[:, m - r :].T
    return F, G, m - r, m - n


def build_dense_bases(rng, ctx):
    """n log-uniform in [48, 256]: the cost is SVDs and eig at n >= 48."""
    basis, frames = ctx.basis, ctx.frames
    FiniteFrame = frames.FiniteFrame
    mix = [
        ("pair_ok", 24),
        ("pair_planted", 20),
        ("with_operator", 12),
        ("dual", 10),
        ("bounds", 10),
        ("frame_leq", 16),
        ("rebrick_frames", 8),
        ("operator_frame", 8),
        ("frame_kernel", 8),
    ]
    specs = []
    for kind, count in mix:
        specs += [(kind, n, j) for j, n in enumerate(log_sizes(48, 256, count))]
    _fixed_order(specs)
    out = []
    for qid, (kind, n, j) in enumerate(specs):
        if kind in ("pair_ok", "pair_planted"):
            V1 = rng.standard_normal((n, n))
            V2 = _planted_i(rng, n) @ V1 if kind == "pair_planted" else rng.standard_normal((n, n))
            want = kind == "pair_ok"

            def call(V1=V1, V2=V2):
                return basis.rebrick_pair(V1, V2)

            def check(o, want=want, n=n):
                B, v = o.value
                return _expect(B.shape == (n, n) and v.rebrickable == want, f"rebrickable={v.rebrickable}")

        elif kind == "with_operator":
            A, V = _contraction(rng, n), rng.standard_normal((n, n))

            def call(A=A, V=V):
                return basis.rebrick_with_operator(A, V)

            def check(o, n=n):
                W, v = o.value
                return _expect(W.shape == (n, n) and v.rebrickable, "not rebrickable")

        elif kind == "dual":
            V, A = _well_conditioned(rng, n), _contraction(rng, n)
            pairs = [tuple(int(k) for k in rng.integers(0, n, 2)) for _ in range(3)]

            def call(V=V, A=A):
                return basis.rebricked_dual(V, A)

            def check(o, pairs=pairs):
                primal, dual = o.value
                for j, k in pairs:
                    g = complex(dual[:, j].conj() @ primal[:, k])
                    if abs(g - (1.0 if j == k else 0.0)) > 1e-8:
                        return f"dual*primal[{j},{k}]={g}"
                return OK

        elif kind == "bounds":
            V, A = rng.standard_normal((n, n)), _contraction(rng, n)

            def call(V=V, A=A):
                return basis.rebricked_frame_bounds(V, A)

            def check(o):
                r = o.value
                ok = (
                    0.0 < r.c_exact <= r.C_exact
                    and r.c_lower_estimate <= r.c_exact * (1 + 1e-9)
                    and r.C_exact <= r.C_upper_estimate * (1 + 1e-9)
                )
                return _expect(ok, f"bounds out of order: {r}")

        elif kind == "frame_leq":
            m = n + n // 2
            F, G, kF, kG = _nested_frames(rng, n, m)
            variant = j % 3
            if variant == 0:  # F <= G strictly
                pair, want = (F, G), (True, False, kF, kG)
            elif variant == 1:  # G >= F strictly
                pair, want = (G, F), (False, True, kG, kF)
            else:  # equal kernels
                pair, want = (G, _well_conditioned(rng, n) @ G), (True, True, kG, kG)
            FF, GG = FiniteFrame(pair[0], "F"), FiniteFrame(pair[1], "G")

            def call(FF=FF, GG=GG):
                return frames.frame_leq(FF, GG)

            def check(o, want=want):
                v = o.value
                got = (v.leq, v.geq, v.ker_dim_F, v.ker_dim_G)
                return _expect(got == want and v.equivalent == (want[0] and want[1]), f"order {got} != {want}")

        elif kind == "rebrick_frames":
            m = n + n // 2
            FF = FiniteFrame(rng.standard_normal((n, m)))
            GG = FiniteFrame(rng.standard_normal((n, m)))

            def call(FF=FF, GG=GG):
                return frames.rebrick_frames(FF, GG)

            def check(o, n=n, m=m):
                H, fb = o.value
                return _expect(H.synthesis.shape == (n, m) and 0.0 < fb.c <= fb.C, "bad combined frame")

        elif kind == "operator_frame":
            m = n + n // 2
            FF, A = FiniteFrame(rng.standard_normal((n, m))), _contraction(rng, n)

            def call(FF=FF, A=A):
                return frames.operator_rebrick_frame(FF, A)

            def check(o, n=n, m=m):
                H, fb = o.value
                return _expect(H.synthesis.shape == (n, m) and 0.0 < fb.c <= fb.C, "bad rebricked frame")

        else:  # frame_kernel
            m = n + n // 2
            S = rng.standard_normal((n, m))
            FF = FiniteFrame(S)

            def call(FF=FF):
                return frames.frame_kernel(FF)

            def check(o, S=S, n=n, m=m):
                K = o.value
                if K.shape != (m, m - n):
                    return f"kernel shape {K.shape}"
                resid = float(np.linalg.norm(S @ K[:, 0]))
                return _expect(resid <= 1e-9 * float(np.linalg.norm(S)), f"S @ k = {resid:.3e}")

        out.append(Question(qid, kind, n, call, check))
    return out


# --------------------------------------------------------------------- spectral


def _unit_generator(rng, N: int) -> np.ndarray:
    # all DFT magnitudes 1/sqrt(N): the translates form an orthonormal basis
    return np.fft.ifft(np.exp(2j * np.pi * rng.random(N)) / np.sqrt(N), norm="ortho")


def _even_sign_symbol(rng, N: int) -> np.ndarray:
    m = rng.choice([-1.0, 1.0], N).astype(complex)
    return m[np.minimum(np.arange(N), (-np.arange(N)) % N)]


def build_spectral(rng, ctx):
    """N even, log-uniform in [64, 512]: every question builds a dense operator today."""
    mult = ctx.multipliers
    mix = [
        ("analytic_defect", 30),
        ("sweep", 20),
        ("translates_valid", 20),
        ("translates_invalid", 12),
        ("validate", 18),
        ("apply", 20),
    ]
    specs = []
    for kind, count in mix:
        lo, hi = (16, 256) if kind == "sweep" else (64, 512)
        sizes = log_sizes(lo, hi, count, step=2, top=kind == "analytic_defect")
        specs += [(kind, N, j) for j, N in enumerate(sizes)]
    _fixed_order(specs)
    out = []
    for qid, (kind, N, j) in enumerate(specs):
        if kind == "analytic_defect":

            def call(N=N):
                return mult.analytic_defect(N)

            def check(o, N=N):
                return _expect(tuple(o.value) == (N // 2 + 1, N // 2 - 1), f"(rank, kernel)={o.value}")

        elif kind == "sweep":
            count = 3 + j % 3
            below = log_sizes(16, max(16, N - 2), count - 1, step=2) if N > 16 else []
            ladder = sorted(set(below) | {N})

            def call(ladder=ladder):
                return mult.conditioning_sweep(ladder)

            def check(o, ladder=ladder):
                rows = o.value
                if [r.N for r in rows] != ladder or any(r.kernel_dim != 0 for r in rows):
                    return "sweep rows or kernel dimensions wrong"
                # sigma_min of Id + iA_N is 1/(N/2 - 1) in closed form
                for r in rows:
                    if abs(r.sigma_min * (r.N / 2 - 1) - 1.0) > 1e-8:
                        return f"sigma_min({r.N})={r.sigma_min}"
                return _expect(all(b.sigma_min < a.sigma_min for a, b in zip(rows, rows[1:])), "not decreasing")

        elif kind in ("translates_valid", "translates_invalid"):
            x, m = _unit_generator(rng, N), _even_sign_symbol(rng, N)
            want = kind == "translates_valid"
            if not want:
                k = int(rng.integers(1, N // 2))
                m[k] = m[N - k] = 0.5

            def call(x=x, m=m):
                return mult.rebrick_translates(x, m)

            def check(o, want=want, N=N):
                cols, unitary = o.value
                return _expect(cols.shape == (N, N) and unitary == want, f"unitary={unitary}")

        elif kind == "validate":
            m = _even_sign_symbol(rng, N)
            k = int(rng.integers(1, N // 2))
            variant = j % 4
            if variant == 1:  # breaks only evenness
                m[k] = -m[N - k]
            elif variant == 2:  # breaks only the +-1 values
                m[k] = m[N - k] = 0.5
            elif variant == 3:  # breaks only realness (real parts stay +-1)
                m[k] = m[N - k] = m[k] + 0.25j
            clause = [None, "even", "values", "real"][variant]

            def call(m=m):
                return mult.validate_rebrick_multiplier(m)

            def check(o, clause=clause):
                valid, reasons = o.value
                if clause is None:
                    return _expect(valid and not reasons, f"valid symbol rejected: {reasons}")
                return _expect(
                    not valid and len(reasons) == 1 and clause in reasons[0], f"reasons={reasons}"
                )

        else:  # apply
            m = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            energy = float(np.sum(np.abs(m * np.fft.fft(x, norm="ortho")) ** 2))

            def call(m=m, x=x):
                return mult.apply_multiplier(m, x)

            def check(o, energy=energy):
                got = float(np.sum(np.abs(o.value) ** 2))
                return _expect(abs(got - energy) <= 1e-9 * energy, f"Parseval: {got} != {energy}")

        out.append(Question(qid, kind, N, call, check))
    return out


# ---------------------------------------------------------------------- small-n


def exact_char_poly(A) -> list[Fraction]:
    """det(lambda*Id - A) of an integer matrix, ascending coefficients, exactly.

    The polynomial is interpolated from its values at n+1 integer points,
    each an exact determinant by Gaussian elimination over Fractions, so
    the oracle shares no route with the library's minors or recursion.
    """
    n = A.shape[0]
    rows = [[int(v) for v in row] for row in A]

    def det_at(lam: int) -> Fraction:
        M = [[Fraction((lam if i == j else 0) - rows[i][j]) for j in range(n)] for i in range(n)]
        d = Fraction(1)
        for c in range(n):
            p = next((r for r in range(c, n) if M[r][c] != 0), None)
            if p is None:
                return Fraction(0)
            if p != c:
                M[c], M[p] = M[p], M[c]
                d = -d
            d *= M[c][c]
            for r in range(c + 1, n):
                f = M[r][c] / M[c][c]
                if f:
                    M[r] = [a - f * b for a, b in zip(M[r], M[c])]
        return d

    xs = list(range(n + 1))
    ys = [det_at(x) for x in xs]
    # Newton divided differences, then expand to ascending coefficients
    coef = list(ys)
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * (n + 1)
    for i in range(n, -1, -1):
        # poly = poly * (x - xs[i]) + coef[i]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - xs[i] * p for s, p in zip(shifted, poly)]
        poly[0] += coef[i]
    return poly


def _summed_char_poly_oracle(A) -> list[Fraction]:
    n = A.shape[0]
    if n <= 4:  # brute force over all column permutations
        total = [Fraction(0)] * (n + 1)
        for p in permutations(range(n)):
            AP = np.empty_like(A)
            AP[:, list(p)] = A
            total = [t + c for t, c in zip(total, exact_char_poly(AP))]
        return total
    s = int(A.sum())
    out = [Fraction(0)] * (n + 1)
    out[n] = Fraction(math.factorial(n))
    out[n - 1] = Fraction(-math.factorial(n - 1) * s)
    return out


def _coeffs_close(got, exact) -> bool:
    scale = max(1.0, max(abs(float(c)) for c in exact))
    return len(got) == len(exact) and all(
        abs(float(g) - float(e)) <= 1e-9 * scale for g, e in zip(got, exact)
    )


def build_small_n(rng, ctx):
    """n from 2 to 12: Python overhead per call, validation and the combinatorial route."""
    basis, perm = ctx.basis, ctx.permutation
    mix = [
        ("repair", 90),
        ("char_poly", 10),
        ("onb_symmetric", 16),
        ("onb_rotation", 16),
        ("factorize", 24),
        ("pair_ok", 40),
        ("pair_planted", 30),
        ("invariants", 24),
    ]
    specs = []
    for kind, count in mix:
        # char_poly at n=12 alone is a large share of the pass
        specs += [(kind, n) for n in log_sizes(2, 12, count, top=kind == "char_poly")]
    _fixed_order(specs)
    out = []
    for qid, (kind, n) in enumerate(specs):
        if kind == "repair":
            A, V = _planted_i(rng, n), _well_conditioned(rng, n)
            At = np.linalg.solve(V, A @ V)

            def call(A=A, V=V, At=At, seed=qid):
                rep = perm.repair_permutation(At, seed=seed)
                return rep, perm.rebrick_with_permutation(V, A, rep.permutation)

            def check(o, At=At, n=n):
                rep, W = o.value
                if sorted(rep.permutation) != list(range(n)) or W.shape != (n, n):
                    return f"repair {rep}"
                # the identity fails by construction; the exhaustive route tries it first
                if n <= 8 and rep.trials < 2:
                    return f"identity accepted: {rep}"
                AP = np.empty_like(At)
                AP[:, list(rep.permutation)] = At
                smin = np.linalg.svd(np.eye(n) + 1j * AP, compute_uv=False)[-1]
                return _expect(smin > 1e-8 and abs(smin - rep.sigma_min_after) <= 1e-9, f"sigma_min {smin} vs {rep}")

        elif kind == "char_poly":
            A = rng.integers(-3, 4, (n, n))
            exact = exact_char_poly(A)
            Af = A.astype(float)

            def call(Af=Af):
                return perm.char_poly(Af)

            def check(o, exact=exact):
                return _expect(_coeffs_close(o.value.coefficients, exact), "char_poly differs from the exact oracle")

        elif kind in ("onb_symmetric", "onb_rotation"):
            E1, R = _orth(rng, n), _orth(rng, n)
            core = np.diag(rng.choice([-1.0, 1.0], n))
            if kind == "onb_rotation":
                t = rng.uniform(0.3, 2.8)
                core[:2, :2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
            E2 = R @ core @ R.T @ E1
            want = kind == "onb_symmetric"

            def call(E1=E1, E2=E2):
                return basis.onb_rebrick_check(E1, E2)

            def check(o, want=want):
                return _expect(o.value[1] == want, f"is_onb={o.value[1]}")

        elif kind == "factorize":
            R = _orth(rng, n)
            plus = int(rng.integers(0, n + 1))
            A = R @ np.diag([1.0] * plus + [-1.0] * (n - plus)) @ R.T
            A = (A + A.T) / 2.0

            def call(A=A):
                return basis.spectral_factorize_orthosym(A)

            def check(o, A=A, plus=plus, n=n):
                Rf, D = o.value
                ok = list(np.diag(D)) == [1.0] * plus + [-1.0] * (n - plus)
                return _expect(ok and _close(Rf @ D @ Rf.T, A, 1e-8), "factorization wrong")

        elif kind in ("pair_ok", "pair_planted"):
            V1 = _well_conditioned(rng, n)
            A = _planted_i(rng, n) if kind == "pair_planted" else _contraction(rng, n)
            V2 = A @ V1
            want = kind == "pair_ok"

            def call(V1=V1, V2=V2):
                return basis.rebrick_pair(V1, V2)

            def check(o, want=want):
                if o.exc is not None:
                    return o.describe()
                return _expect(o.value[1].rebrickable == want, f"rebrickable={o.value[1].rebrickable}")

            if kind == "pair_planted" and n == 2:
                # A^2 = -Id, so Id + A^2 is all rounding error and its relative
                # cutoff passes it as regular: the routes disagree "decisively"
                out.append(Question(qid, kind, n, call, check, known_defect="raised InternalConsistencyError"))
                continue

        else:  # invariants
            A = rng.integers(-3, 4, (n, n))
            Af = A.astype(float)
            mean = Fraction(int(A.sum()), n)
            summed = _summed_char_poly_oracle(A)

            def call(Af=Af):
                return perm.invariant_eigenvalue_candidates(Af), perm.summed_char_poly(Af)

            def check(o, mean=mean, summed=summed):
                (zero, mu), coeffs = o.value
                ok = zero == 0.0 and abs(mu - float(mean)) <= 1e-12 * max(1.0, abs(float(mean)))
                return _expect(ok and _coeffs_close(coeffs, summed), "invariants differ from the oracle")

        out.append(Question(qid, kind, n, call, check))
    return out


# -------------------------------------------------------------------- cli-files


@dataclass
class CliAnswer:
    code: int
    stdout: str


# Malformed inputs whose documented outcome is exit 2 with a report.  The
# value is the outcome observed at the seed commit where it differs; a
# question that reproduces it counts as failed but is not a new defect.
MALFORMED = {
    "bad-cell": None,
    "missing-file": None,
    "json-empty-data": "raised IndexError",
    "json-rows-not-int": "raised ValueError",
    "tol-negative": "raised ValueError",
    "tol-nan": "exit 1",
}


def build_cli_files(rng, ctx):
    """rebrick.cli.run in process on CSV/JSON files written at setup, n in [4, 64]."""
    cli, matio = ctx.cli, ctx.matio
    work = ctx.workdir
    work.mkdir(parents=True, exist_ok=True)
    mix = [
        ("check-basis", 12),
        ("check-basis-singular", 5),
        ("rebrick", 10),
        ("rebrick-planted", 6),
        ("repair", 10),
        ("frame-bounds", 7),
        ("frame-parseval", 5),
        ("frame-not-parseval", 4),
        ("frame-order", 9),
        ("frame-rebrick", 7),
        ("frame-frrebrick", 7),
        ("mult-validate", 5),
        ("mult-invalid", 4),
        ("mult-rebrick", 6),
        ("mult-rebrick-invalid", 3),
        ("mult-hilbert", 6),
        ("mult-trig", 5),
        ("mult-sweep", 5),
    ]
    specs = []
    for kind, count in mix:
        specs += [(kind, n, j) for j, n in enumerate(log_sizes(4, 64, count))]
    specs += [(f"malformed:{name}", 4, j) for j, name in enumerate(MALFORMED)]
    _fixed_order(specs)

    def path(qid: int, tag: str, ext: str) -> str:
        return str(work / f"q{qid:03d}-{tag}.{ext}")

    def save(qid, tag, M):
        p = path(qid, tag, "json" if (j + len(tag)) % 2 else "csv")
        matio.save_matrix(p, M)
        return p

    def save_vector(qid, tag, v):
        p = path(qid, tag, "csv")
        matio.save_matrix(p, np.asarray(v).reshape(1, -1))
        return p

    out = []
    for qid, (kind, n, j) in enumerate(specs):
        files, extra, want_code, want_verdict = [], [], 0, None
        if kind == "check-basis":
            files, want_verdict = [save(qid, "M", rng.standard_normal((n, n)))], ("is_basis", True)
            argv = ["check-basis"]
        elif kind == "check-basis-singular":
            M = rng.standard_normal((n, n))
            M[:, -1] = M[:, 0]
            files, want_code, want_verdict = [save(qid, "M", M)], 1, ("is_basis", False)
            argv = ["check-basis"]
        elif kind in ("rebrick", "rebrick-planted"):
            V1 = _well_conditioned(rng, n)
            V2 = (_planted_i(rng, n) if kind == "rebrick-planted" else _contraction(rng, n)) @ V1
            files = [save(qid, "V1", V1), save(qid, "V2", V2)]
            want_code = 1 if kind == "rebrick-planted" else 0
            want_verdict = ("rebrickable", want_code == 0)
            argv, extra = ["rebrick"], ["--out", path(qid, "out", "csv")]
        elif kind == "repair":
            files = [save(qid, "V", _well_conditioned(rng, n)), save(qid, "A", _planted_i(rng, n))]
            argv, extra, want_verdict = ["repair"], ["--out", path(qid, "out", "json")], ("repaired", True)
            extra += ["--seed", str(qid)]
        elif kind == "frame-bounds":
            files = [save(qid, "F", rng.standard_normal((n, n + n // 2)))]
            argv, want_verdict = ["frame", "bounds"], ("is_frame", True)
        elif kind in ("frame-parseval", "frame-not-parseval"):
            S = _orth(rng, n + n // 2)[:n] if kind == "frame-parseval" else rng.standard_normal((n, n + 2))
            files = [save(qid, "F", S)]
            want_code = 0 if kind == "frame-parseval" else 1
            argv, want_verdict = ["frame", "parseval"], ("parseval", want_code == 0)
        elif kind == "frame-order":
            F, G, _, _ = _nested_frames(rng, n, n + n // 2)
            files = [save(qid, "F", F), save(qid, "G", G)]
            argv, want_verdict = ["frame", "order"], ("leq", True)
        elif kind == "frame-rebrick":
            m = n + n // 2
            files = [save(qid, "F", rng.standard_normal((n, m))), save(qid, "G", rng.standard_normal((n, m)))]
            argv, extra, want_verdict = ["frame", "rebrick"], ["--out", path(qid, "out", "csv")], ("rebrickable", True)
        elif kind == "frame-frrebrick":
            p = n + n // 2
            files = [save(qid, "A", rng.standard_normal((n, p))), save(qid, "S", _well_conditioned(rng, p))]
            argv, want_verdict = ["frame", "frrebrick"], ("surjective_product", True)
        elif kind in ("mult-validate", "mult-invalid"):
            N = 2 * n
            m = _even_sign_symbol(rng, N).real
            if kind == "mult-invalid":
                m[1] = m[N - 1] = 0.5
            files = [save_vector(qid, "m", m)]
            want_code = 0 if kind == "mult-validate" else 1
            argv, want_verdict = ["multiplier", "validate"], ("valid", want_code == 0)
        elif kind in ("mult-rebrick", "mult-rebrick-invalid"):
            N = 2 * n
            m = _even_sign_symbol(rng, N)
            if kind == "mult-rebrick-invalid":
                m[1] = m[N - 1] = 0.5
            files = [save_vector(qid, "x", _unit_generator(rng, N)), save_vector(qid, "m", m)]
            want_code = 0 if kind == "mult-rebrick" else 1
            argv, extra = ["multiplier", "rebrick"], ["--out", path(qid, "out", "csv")]
            want_verdict = ("onb", want_code == 0)
        elif kind == "mult-hilbert":
            argv, extra, want_verdict = ["multiplier", "hilbert"], ["--N", str(2 * (n // 2))], ("analytic_defect", True)
        elif kind == "mult-trig":
            # K is capped: trig allocates O(K) grids with no bound of its own
            argv, extra = ["multiplier", "trig"], ["--K", str(max(1, n // 4))]
            want_verdict = ("matches_exponentials", True)
        elif kind == "mult-sweep":
            top = max(10, 2 * (n // 2))
            ladder = sorted(set(log_sizes(8, top - 2, 3, step=2)) | {top})
            argv, want_verdict = ["multiplier", "sweep"] + [str(s) for s in ladder], ("strictly_decreasing", True)
        else:  # malformed inputs: the documented outcome is exit 2 with a report
            name = kind.split(":", 1)[1]
            good = save(qid, "M", _well_conditioned(rng, 4))
            want_code = 2
            if name == "bad-cell":
                bad = path(qid, "bad", "csv")
                Path(bad).write_text("1,2,3\n4,x5,6\n7,8,9\n")
                argv, files = ["check-basis"], [bad]
            elif name == "missing-file":
                argv, files = ["check-basis"], [path(qid, "missing", "csv")]
            elif name == "json-empty-data":
                bad = path(qid, "empty", "json")
                Path(bad).write_text('{"data": []}\n')
                argv, files = ["check-basis"], [bad]
            elif name == "json-rows-not-int":
                bad = path(qid, "rows", "json")
                Path(bad).write_text('{"rows": "x", "data": [[1]]}\n')
                argv, files = ["check-basis"], [bad]
            elif name == "tol-negative":
                argv, files, extra = ["check-basis"], [good], ["--tol", "-1"]
            else:  # tol-nan, on a Parseval frame so any verdict but exit 2 is wrong
                S = _orth(rng, 6)[:4]
                argv, files, extra = ["frame", "parseval"], [save(qid, "P", S)], ["--tol", "nan"]
        # format and style follow the index within the kind, so that every
        # seed asks the same mix of CSV/JSON files and report styles
        style = ("--quiet", "--format=json", "--quiet", "--format=text", "--format=json")[j % 5]
        full = argv + files + extra + [style]

        def call(full=full):
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = cli.run(full)
            return CliAnswer(code, buf.getvalue())

        def check(o, style=style, want_code=want_code, want_verdict=want_verdict, state={}):
            a = o.value
            if o.exc is not None:
                return o.describe()
            # the README promises byte-identical reports for identical inputs
            first = state.setdefault("first", a.stdout)
            if a.stdout != first:
                return "report bytes differ from the first pass"
            if a.code != want_code:
                return f"exit {a.code}, want {want_code}"
            if style == "--format=text":
                lines = a.stdout.splitlines()
                ok = f"exit_code: {want_code}" in lines
                if want_verdict is not None:
                    ok = ok and f"verdict {want_verdict[0]}: {want_verdict[1]}" in lines
                return _expect(ok, "text report lacks the verdict or exit code")
            report = json.loads(a.stdout)
            if report.get("exit_code") != want_code:
                return f"report exit_code {report.get('exit_code')}"
            if want_verdict is not None and report["verdicts"].get(want_verdict[0]) != want_verdict[1]:
                return f"verdict {report['verdicts']}"
            return OK

        known = MALFORMED.get(kind.split(":", 1)[1]) if kind.startswith("malformed:") else None
        out.append(Question(qid, kind, n, call, check, known_defect=known))
    return out


BUILDERS = {
    "dense-bases": build_dense_bases,
    "spectral": build_spectral,
    "small-n": build_small_n,
    "cli-files": build_cli_files,
}
