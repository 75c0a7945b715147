"""Command-line front end.

Usage: rebrick <command> [args] [--tol T] [--seed S] [--format json|text]
                [--out PATH] [--quiet]

Every run produces a report carrying the verdict, the numeric
certificates behind it and the tolerance block that the verdict depends
on.  Exit codes are the scripting contract: 0 affirmative verdict,
1 negative verdict, 2 input error, 3 internal inconsistency (two
decision routes disagree decisively, which is a bug).  An error's exit
code is the `exit_code` of its kind in `rebrick.errors`.  --quiet
suppresses everything except the JSON report; identical inputs and seed
produce byte-identical JSON.
The REBRICK_TOL environment variable overrides the default tolerance;
an explicit --tol flag wins over the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import basis, frames, matio, multipliers, permutation
from .errors import (
    InputError,
    InternalConsistencyError,
    InvalidMatrix,
    MatrixParseError,
    NegativeVerdict,
)
from .frames import FiniteFrame
from .linalg import Tolerance
from . import linalg

SCHEMA_VERSION = 1

# Caps on sizes taken from the command line.  hilbert and sweep work on the
# length-N symbol in O(N) time and memory; trig is O(K*N).
MAX_SYMBOL_N = 2**22
MAX_SWEEP_SIZES = 64
MAX_TRIG_K = 2**12
MAX_TRIG_N = 2**16


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonable(float(value.real)), _jsonable(float(value.imag))]
    if isinstance(value, (np.floating, float)):
        f = float(value)
        if not np.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        return f
    return value


def _digest(path) -> dict:
    data = Path(path).read_bytes()
    return {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def _load(path, want_real=False, name="matrix"):
    M = matio.load_matrix(path)
    info = _digest(path)
    info["rows"], info["cols"] = int(M.shape[0]), int(M.shape[1])
    if want_real and np.iscomplexobj(M):
        raise InvalidMatrix(f"{name} ({path}): expected real entries")
    return M, info


def _load_vector(path, name="vector"):
    M, info = _load(path, name=name)
    if 1 not in M.shape:
        raise InvalidMatrix(f"{name} ({path}): expected a single row or column")
    return M.reshape(-1), info


def _resolve_tol(args) -> Tolerance:
    if args.tol is not None:
        source, value = "--tol", args.tol
    else:
        value = os.environ.get("REBRICK_TOL")
        if value is None:
            return Tolerance()
        source = "REBRICK_TOL"
    try:
        return Tolerance.from_scalar(float(value))
    except ValueError as exc:
        raise InvalidMatrix(f"{source}={value!r}: {exc}") from exc


def _check_cap(what: str, value: int, cap: int) -> None:
    """Reject a size from the command line above its cap, before any allocation."""
    if value > cap:
        raise InvalidMatrix(f"{what}={value} exceeds the cap {cap}")


def _verdict_dict(v: basis.RebrickVerdict) -> dict:
    return {
        "rebrickable": v.rebrickable,
        "sigma_min_B": v.sigma_min_B,
        "eigenvalues_A": v.eigenvalues_A,
        "min_dist_to_i": v.min_dist_to_i,
        "idA2_sigma_min": v.idA2_sigma_min,
        "condition_number": v.condition_number,
        "warning": v.warning,
    }


def _write_out(args, M) -> str | None:
    if args.out is None:
        return None
    matio.save_matrix(args.out, M)
    return str(args.out)


# ---------------------------------------------------------------- commands


def cmd_check_basis(args, tol):
    M, info = _load(args.file, want_real=False, name="matrix")
    M = linalg.require_square(M)
    reg = linalg.regularity(linalg.singular_values(M), M.shape[0], tol)
    verdicts = {"is_basis": reg.regular}
    certs = {"sigma_min": reg.sigma_min, "sigma_max": reg.sigma_max, "n": int(M.shape[0])}
    return {"file": info}, verdicts, certs, 0 if reg.regular else 1


def cmd_rebrick(args, tol):
    V1, i1 = _load(args.file_v1, want_real=True, name="V1")
    V2, i2 = _load(args.file_v2, want_real=True, name="V2")
    B, v = basis.rebrick_pair(V1, V2, tol)
    out = _write_out(args, B) if v.rebrickable else None
    certs = _verdict_dict(v)
    certs["out"] = out
    return (
        {"V1": i1, "V2": i2},
        {"rebrickable": v.rebrickable},
        certs,
        0 if v.rebrickable else 1,
    )


def cmd_repair(args, tol):
    V, iv = _load(args.file_v, want_real=True, name="V")
    A, ia = _load(args.file_a, want_real=True, name="A")
    linalg.require_square_pair(V, A, ("V", "A"))
    At = linalg.invert(V, tol) @ A @ V
    rep = permutation.repair_permutation(At, tol, seed=args.seed)
    W = permutation.rebrick_with_permutation(V, A, rep.permutation, tol)
    out = _write_out(args, W)
    certs = {
        "permutation_image": [k + 1 for k in rep.permutation],
        "permutation_cycles": permutation.cycle_notation(rep.permutation),
        "trials": rep.trials,
        "sigma_min_after": rep.sigma_min_after,
        "min_dist_to_i_after": rep.min_dist_to_i_after,
        "degenerate": rep.degenerate,
        "out": out,
    }
    return {"V": iv, "A": ia}, {"repaired": True}, certs, 0


def cmd_frame(args, tol):
    sub = args.frame_command
    if sub == "bounds":
        S, info = _load(args.files[0], name="frame")
        fb = frames.frame_bounds(FiniteFrame(S), tol)
        return {"frame": info}, {"is_frame": True}, {"c": fb.c, "C": fb.C}, 0
    if sub == "parseval":
        S, info = _load(args.files[0], name="frame")
        ok = frames.is_parseval(FiniteFrame(S), tol)
        return {"frame": info}, {"parseval": ok}, {}, 0 if ok else 1
    if sub == "order":
        SF, i1 = _load(args.files[0], name="F")
        SG, i2 = _load(args.files[1], name="G")
        v = frames.frame_leq(FiniteFrame(SF, "F"), FiniteFrame(SG, "G"), tol)
        verdicts = {"leq": v.leq, "geq": v.geq, "equivalent": v.equivalent}
        certs = {"ker_dim_F": v.ker_dim_F, "ker_dim_G": v.ker_dim_G}
        return {"F": i1, "G": i2}, verdicts, certs, 0 if (v.leq or v.geq) else 1
    if sub == "rebrick":
        SF, i1 = _load(args.files[0], want_real=True, name="F")
        SG, i2 = _load(args.files[1], want_real=True, name="G")
        F, G = FiniteFrame(SF, "F"), FiniteFrame(SG, "G")
        try:
            combined, fb = frames.rebrick_frames(F, G, tol)
        except NegativeVerdict:
            return {"F": i1, "G": i2}, {"rebrickable": False}, {}, 1
        out = _write_out(args, combined.synthesis)
        certs = {"c": fb.c, "C": fb.C, "out": out}
        return {"F": i1, "G": i2}, {"rebrickable": True}, certs, 0
    if sub == "frrebrick":
        A, i1 = _load(args.files[0], want_real=True, name="A")
        S, i2 = _load(args.files[1], want_real=True, name="S")
        v = frames.frrebrick_check(A, S, tol)
        certs = {
            "rank_id_iS": v.rank_id_iS,
            "rank_product": v.rank_product,
            "p": int(S.shape[0]),
            "n": int(A.shape[0]),
        }
        verdicts = {"surjective_product": v.surjective}
        return {"A": i1, "S": i2}, verdicts, certs, 0 if v.surjective else 1
    raise InvalidMatrix(f"unknown frame subcommand {sub!r}")  # pragma: no cover


def cmd_multiplier(args, tol):
    sub = args.multiplier_command
    if sub == "validate":
        m, info = _load_vector(args.files[0], name="multiplier")
        ok, reasons = multipliers.validate_rebrick_multiplier(m, tol)
        return {"multiplier": info}, {"valid": ok}, {"reasons": reasons}, 0 if ok else 1
    if sub == "rebrick":
        x, i1 = _load_vector(args.files[0], name="generator")
        m, i2 = _load_vector(args.files[1], name="multiplier")
        cols, unitary = multipliers.rebrick_translates(x, m, tol)
        out = _write_out(args, cols)
        certs = {"unitary": unitary, "out": out}
        return {"generator": i1, "multiplier": i2}, {"onb": unitary}, certs, 0 if unitary else 1
    if sub == "hilbert":
        if args.N is None:
            raise InvalidMatrix("hilbert needs --N")
        _check_cap("--N", args.N, MAX_SYMBOL_N)
        r, k = multipliers.analytic_defect(args.N, tol)
        certs = {"N": args.N, "rank": r, "kernel_dim": k}
        return {}, {"analytic_defect": True}, certs, 0
    if sub == "trig":
        if args.K is None:
            raise InvalidMatrix("trig needs --K")
        _check_cap("--K", args.K, MAX_TRIG_K)
        if args.N is not None:
            _check_cap("--N", args.N, MAX_TRIG_N)
        rep = multipliers.trig_rebrick_demo(args.K, args.N)
        ok = rep.max_dev <= tol.equality_abs
        certs = {
            "K": rep.K,
            "N": rep.N,
            "max_dev": rep.max_dev,
            "max_dev_constant": rep.max_dev_constant,
            "max_dev_exp_pos": rep.max_dev_exp_pos,
            "max_dev_exp_neg": rep.max_dev_exp_neg,
        }
        return {}, {"matches_exponentials": ok}, certs, 0 if ok else 1
    if sub == "sweep":
        try:
            sizes = [int(f) for f in args.files] or [16, 32, 64, 128, 256]
        except ValueError as exc:
            raise InvalidMatrix(f"sweep sizes must be integers: {exc}") from exc
        _check_cap("number of sweep sizes", len(sizes), MAX_SWEEP_SIZES)
        _check_cap("sweep size", max(sizes), MAX_SYMBOL_N)
        rows = multipliers.conditioning_sweep(sizes)
        decreasing = all(b.sigma_min < a.sigma_min for a, b in zip(rows, rows[1:]))
        injective = all(r.kernel_dim == 0 for r in rows)
        certs = {
            "rows": [
                {"N": r.N, "sigma_min": r.sigma_min, "kernel_dim": r.kernel_dim}
                for r in rows
            ],
            "note": "sigma_min values are modeling-dependent (sampled symbol band)",
        }
        verdicts = {"strictly_decreasing": decreasing, "always_injective": injective}
        return {}, verdicts, certs, 0 if (decreasing and injective) else 1
    raise InvalidMatrix(f"unknown multiplier subcommand {sub!r}")  # pragma: no cover


# ---------------------------------------------------------------- plumbing


def _tol_block(tol: Tolerance) -> dict:
    return {
        "rank_rel": tol.rank_rel,
        "eig_abs": tol.eig_abs,
        "equality_abs": tol.equality_abs,
    }


def _render_text(report: dict) -> str:
    lines = [f"command: {' '.join(report['command'])}"]
    for name, info in report.get("inputs", {}).items():
        if isinstance(info, dict) and "path" in info:
            lines.append(
                f"input {name}: {info['path']} ({info.get('rows', '?')}x{info.get('cols', '?')})"
            )
    if "error" in report:
        lines.append(f"error: {report['error']}")
    for key, val in report.get("verdicts", {}).items():
        lines.append(f"verdict {key}: {val}")
    for key, val in report.get("certificates", {}).items():
        lines.append(f"{key}: {val}")
    t = report["tolerances"]
    lines.append(
        "tolerances: rank_rel={rank_rel:.3e} eig_abs={eig_abs:.3e} "
        "equality_abs={equality_abs:.3e}".format(**t)
    )
    lines.append(f"exit_code: {report['exit_code']}")
    return "\n".join(lines)


def _emit(report: dict, args) -> None:
    if args.quiet or args.format == "json":
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
    else:
        print(_render_text(_jsonable(report)))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="absolute tolerance")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized search")
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--out", type=Path, default=None, help="write the result matrix here")
    common.add_argument("--quiet", action="store_true", help="print only the JSON report")

    p = argparse.ArgumentParser(prog="rebrick", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-basis", parents=[common], help="do the columns form a basis?")
    s.add_argument("file")
    s.set_defaults(handler=cmd_check_basis)

    s = sub.add_parser("rebrick", parents=[common], help="combine two real bases into V1 + i*V2")
    s.add_argument("file_v1")
    s.add_argument("file_v2")
    s.set_defaults(handler=cmd_rebrick)

    s = sub.add_parser("repair", parents=[common], help="permute columns until Id + i*A*P is regular")
    s.add_argument("file_v")
    s.add_argument("file_a")
    s.set_defaults(handler=cmd_repair)

    s = sub.add_parser("frame", parents=[common], help="frame bounds, order and rebricking")
    s.add_argument(
        "frame_command", choices=("bounds", "parseval", "order", "rebrick", "frrebrick")
    )
    s.add_argument("files", nargs="+")
    s.set_defaults(handler=cmd_frame)

    s = sub.add_parser("multiplier", parents=[common], help="shift-invariant rebricking on Z_N")
    s.add_argument(
        "multiplier_command", choices=("validate", "rebrick", "hilbert", "trig", "sweep")
    )
    s.add_argument("files", nargs="*", help="input files, or sweep sizes")
    s.add_argument("--N", type=int, default=None)
    s.add_argument("--K", type=int, default=None)
    s.set_defaults(handler=cmd_multiplier)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {
        "schema": SCHEMA_VERSION,
        "command": [args.command] + [str(a) for a in getattr(args, "files", [])],
        "inputs": {},
        "verdicts": {},
        "certificates": {},
        "tolerances": _tol_block(Tolerance()),
    }
    try:
        tol = _resolve_tol(args)
        report["tolerances"] = _tol_block(tol)
        report["command"] = _command_echo(args)
        inputs, verdicts, certs, code = args.handler(args, tol)
    except (InputError, NegativeVerdict, InternalConsistencyError, OSError) as exc:
        code = getattr(exc, "exit_code", 2)  # OSError: an unreadable file is bad input
        report["error"] = str(exc)
        if isinstance(exc, MatrixParseError):
            report["error_position"] = {"row": exc.row, "col": exc.col}
        if code != 1:
            print(f"error: {exc}", file=sys.stderr)
    else:
        report.update(inputs=inputs, verdicts=verdicts, certificates=certs)
    report["exit_code"] = code
    _emit(report, args)
    return code


def _command_echo(args) -> list[str]:
    echo = [args.command]
    for attr in ("frame_command", "multiplier_command"):
        if getattr(args, attr, None):
            echo.append(getattr(args, attr))
    for attr in ("file", "file_v1", "file_v2", "file_v", "file_a"):
        if getattr(args, attr, None):
            echo.append(str(getattr(args, attr)))
    echo.extend(str(f) for f in getattr(args, "files", []) or [])
    for attr, flag in (("N", "--N"), ("K", "--K")):
        if getattr(args, attr, None) is not None:
            echo.extend([flag, str(getattr(args, attr))])
    echo.extend(["--seed", str(args.seed)])
    if args.tol is not None:
        echo.extend(["--tol", repr(args.tol)])
    return echo


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
