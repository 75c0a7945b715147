"""Spans around the calls into each rebrick module, installed from outside.

The traced run replaces the module attribute of every public function of
each rebrick module, and of the numpy.linalg / numpy.fft entry points,
with a wrapper that records a span.  The rebrick modules call each other
(and numpy) through module attributes, so internal calls are caught too.
A span is (name, start, end, parent index, question id, extra), where
`extra` is a per-call count taken at the boundary: SVD work m*n*min(m,n),
matrices in a det stack, bytes of a matrix file, dense operator size,
repair trials.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "basis", "permutation", "frames", "multipliers", "matio", "cli")
NUMPY_LINALG = ("svd", "eig", "eigvals", "eigh", "eigvalsh", "det", "inv", "pinv")
NUMPY_FFT = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft")
EIG = {f"numpy.linalg.{f}" for f in ("eig", "eigvals", "eigh", "eigvalsh")}


def _svd_work(args, kwargs, result):
    m, n = np.shape(args[0])[-2:]
    return m * n * min(m, n)


def _det_stack(args, kwargs, result):
    return int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _dense_mb(args, kwargs, result):
    return result.size * 16 / 1e6


def _trials(args, kwargs, result):
    return result.trials


EXTRA = {
    "numpy.linalg.svd": _svd_work,
    "numpy.linalg.det": _det_stack,
    "matio.load_matrix": _file_bytes,
    "matio.save_matrix": _file_bytes,
    "multipliers.multiplier_matrix": _dense_mb,
    "multipliers.shift_matrix": _dense_mb,
    "permutation.repair_permutation": _trials,
}


class Tracer:
    """Records spans while `qid` is set; inert (one test per call) otherwise."""

    def __init__(self):
        self.spans: list = []
        self.qid: int | None = None
        self._stack: list[int] = []
        self._installed: list = []

    def _wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        extra = EXTRA.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            qid = self.qid
            if qid is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, qid, None)
            if extra is not None:
                spans[idx] = (name, t0, t1, parent, qid, extra(args, kwargs, result))
            return result

        self._installed.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self, modules: dict) -> None:
        """Wrap the public functions of each rebrick module and numpy's entry points."""
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self._wrap(mod, attr, f"{layer}.{attr}")
        for attr in NUMPY_LINALG:
            self._wrap(np.linalg, attr, f"numpy.linalg.{attr}")
        for attr in NUMPY_FFT:
            self._wrap(np.fft, attr, f"numpy.fft.{attr}")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def summarize(spans, scale: dict, questions: int) -> dict:
    """Per-question layer metrics from one traced pass.

    `scale` maps question id to that question's calibration factor, so
    every time is calibrated; counts are exact and need no scaling.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, qid, extra in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    ms = defaultdict(float)  # calibrated milliseconds
    n = defaultdict(float)  # exact counts
    for i, (name, t0, t1, parent, qid, extra) in enumerate(spans):
        dur = (t1 - t0) * 1e3 * scale[qid]
        layer = layer_of(name)
        if layer in LAYERS:
            ms[f"{layer}.self"] += dur - child[i] * 1e3 * scale[qid]
        else:
            ms[layer] += dur
        if parent < 0:
            ms["root"] += dur
        n[name] += 1
        if extra is not None:
            n[name + ":extra"] += extra
        outer = parent < 0 or layer_of(spans[parent][0]) != layer
        if name == "permutation.char_poly":
            ms["char_poly"] += dur
        elif layer == "matio" and outer:
            ms["matio.read" if "load" in name else "matio.write"] += dur
            n["matio.bytes_read" if "load" in name else "matio.bytes_written"] += extra or 0
        elif name == "linalg.kernel_basis" and _has_ancestor(spans, parent, "frames"):
            n["frames.kernel_bases"] += 1

    def per_q(x):
        return x / questions

    svd = "numpy.linalg.svd"
    return {
        "linalg.svd_per_q": per_q(n[svd]),
        "linalg.eig_per_q": per_q(sum(n[e] for e in EIG)),
        "linalg.svd_work_per_q": per_q(n[svd + ":extra"]),
        "linalg.lapack_ms_per_q": per_q(ms["numpy.linalg"]),
        "linalg.self_ms_per_q": per_q(ms["linalg.self"]),
        "linalg.validations_per_q": per_q(n["linalg.as_matrix"]),
        "basis.self_ms_per_q": per_q(ms["basis.self"]),
        "basis.calls_per_q": per_q(sum(v for k, v in n.items() if k.startswith("basis.") and ":" not in k)),
        "permutation.char_poly_ms_per_q": per_q(ms["char_poly"]),
        "permutation.minor_dets_per_q": per_q(n["numpy.linalg.det:extra"]),
        "permutation.repair_trials_per_q": per_q(n["permutation.repair_permutation:extra"]),
        "permutation.self_ms_per_q": per_q(ms["permutation.self"]),
        "frames.self_ms_per_q": per_q(ms["frames.self"]),
        "frames.kernel_bases_per_q": per_q(n["frames.kernel_bases"]),
        "multipliers.dense_builds_per_q": per_q(n["multipliers.multiplier_matrix"] + n["multipliers.shift_matrix"]),
        "multipliers.dense_mb_per_q": per_q(
            n["multipliers.multiplier_matrix:extra"] + n["multipliers.shift_matrix:extra"]
        ),
        "multipliers.fft_per_q": per_q(sum(v for k, v in n.items() if k.startswith("numpy.fft.") and ":" not in k)),
        "multipliers.fft_ms_per_q": per_q(ms["numpy.fft"]),
        "multipliers.self_ms_per_q": per_q(ms["multipliers.self"]),
        "matio.read_ms_per_q": per_q(ms["matio.read"]),
        "matio.write_ms_per_q": per_q(ms["matio.write"]),
        "matio.bytes_read_per_q": per_q(n["matio.bytes_read"]),
        "matio.bytes_written_per_q": per_q(n["matio.bytes_written"]),
        "cli.self_ms_per_q": per_q(ms["cli.self"]),
        "_root_ms_per_q": per_q(ms["root"]),
    }


def _has_ancestor(spans, idx: int, layer: str) -> bool:
    while idx >= 0:
        if layer_of(spans[idx][0]) == layer:
            return True
        idx = spans[idx][3]
    return False


def counts_per_question(spans) -> dict:
    """{qid: {span name: calls}}, for checks on single questions."""
    out: dict = defaultdict(lambda: defaultdict(int))
    for name, _t0, _t1, _parent, qid, _extra in spans:
        out[qid][name] += 1
    return out
