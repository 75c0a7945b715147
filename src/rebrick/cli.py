"""Command-line front end.

Usage: rebrick <command> [<subcommand>] ARGS [FLAGS] [--format json|text] [--quiet]

Each of the 13 leaf commands is declared once in `build_parser`, with
its positionals and FLAGS, the flags that can change its answer, so
argparse alone checks the shape of a command line: --tol T (eig_abs and
equality_abs) is declared only on the seven commands that read one of
them, --seed S only on repair.  Every run produces a report carrying
the verdict, the numeric certificates behind it and the tolerance block
that the verdict depends on; a usage error gets one too, whose `command`
is the argv as given.  Exit codes are the scripting contract: 0
affirmative verdict, 1 negative verdict, 2 input error, 3 internal
inconsistency (the certificates of two decision routes break a theorem,
which is a bug).  An error's exit code is the `exit_code` of its kind in
`rebrick.errors`.  --quiet is exactly --format json (an exit 2 or 3
still writes `error:` to stderr); identical command lines and inputs
produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import basis, frames, linalg, matio, multipliers, permutation
from .errors import (
    InputError,
    InternalConsistencyError,
    InvalidMatrix,
    MatrixParseError,
    NegativeVerdict,
    UsageError,
)
from .frames import FiniteFrame
from .linalg import Tolerance

SCHEMA_VERSION = 2

# Caps on sizes taken from the command line.  hilbert and sweep work on the
# length-N symbol in O(N) time and memory; trig is O(K*N).
MAX_SYMBOL_N = 2**22
MAX_SWEEP_SIZES = 64
MAX_TRIG_K = 2**12
MAX_TRIG_N = 2**16


def _jsonable(value):
    if isinstance(value, (np.floating, float)):
        f = float(value)
        if not math.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        return f
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
    return value


def _load(path):
    digest = hashlib.sha256()
    M = matio.load_matrix(path, digest)
    info = {"path": str(path), "sha256": digest.hexdigest()}
    info["rows"], info["cols"] = int(M.shape[0]), int(M.shape[1])
    return M, info


def _load_vector(path, name="vector"):
    M, info = _load(path)
    if 1 not in M.shape:
        raise InvalidMatrix(f"{name} ({path}): expected a single row or column")
    return M.reshape(-1), info


def _resolve_tol(args) -> Tolerance:
    value = getattr(args, "tol", None)  # declared only where a tolerance is read
    if value is None:
        return Tolerance()
    try:
        return Tolerance.from_scalar(value)
    except ValueError as exc:
        raise InvalidMatrix(f"--tol={value!r}: {exc}") from exc


def _check_cap(what: str, value: int, cap: int) -> None:
    """Reject a size from the command line above its cap, before any allocation."""
    if value > cap:
        raise InvalidMatrix(f"{what}={value} exceeds the cap {cap}")


def _write_out(args, M) -> str | None:
    if args.out is None:
        return None
    matio.save_matrix(args.out, M)
    return str(args.out)


# ---------------------------------------------------------------- commands


def cmd_check_basis(args, tol):
    M, info = _load(args.file)
    M = linalg.require_square(M)
    reg = linalg.regularity_of(M, tol)
    verdicts = {"is_basis": reg.regular}
    certs = {"sigma_min": reg.sigma_min, "sigma_max": reg.sigma_max, "n": int(M.shape[0])}
    return {"file": info}, verdicts, certs, 0 if reg.regular else 1


def cmd_rebrick(args, tol):
    V1, i1 = _load(args.file_v1)
    V2, i2 = _load(args.file_v2)
    B, v = basis.rebrick_pair(V1, V2, tol)
    certs = dataclasses.asdict(v)
    certs["out"] = _write_out(args, B) if v.rebrickable else None
    return {"V1": i1, "V2": i2}, {"rebrickable": v.rebrickable}, certs, 0 if v.rebrickable else 1


def cmd_repair(args, tol):
    V, iv = _load(args.file_v)
    A, ia = _load(args.file_a)
    V, A = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    # sigma(V) decides V, then one LU solve; checked products end an overflow before the search
    basis.require_basis(V, "V", tol)
    AV = linalg.formed("A @ V", np.matmul, A, V)
    At = linalg.formed("inv(V) @ A @ V", np.linalg.solve, V, AV)
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


def cmd_frame_bounds(args, tol):
    S, info = _load(args.file_f)
    fb = frames.frame_bounds(FiniteFrame(S), tol)
    return {"frame": info}, {"is_frame": True}, {"c": fb.c, "C": fb.C}, 0


def cmd_frame_parseval(args, tol):
    S, info = _load(args.file_f)
    ok = frames.is_parseval(FiniteFrame(S), tol)
    return {"frame": info}, {"parseval": ok}, {}, 0 if ok else 1


def cmd_frame_order(args, tol):
    SF, i1 = _load(args.file_f)
    SG, i2 = _load(args.file_g)
    v = frames.frame_leq(FiniteFrame(SF, "F"), FiniteFrame(SG, "G"), tol)
    verdicts = {"leq": v.leq, "geq": v.geq, "equivalent": v.equivalent}
    certs = {"ker_dim_F": v.ker_dim_F, "ker_dim_G": v.ker_dim_G}
    return {"F": i1, "G": i2}, verdicts, certs, 0 if (v.leq or v.geq) else 1


def cmd_frame_rebrick(args, tol):
    SF, i1 = _load(args.file_f)
    SG, i2 = _load(args.file_g)
    F, G = FiniteFrame(SF, "F"), FiniteFrame(SG, "G")
    try:
        combined, fb = frames.rebrick_frames(F, G, tol)
    except NegativeVerdict:
        return {"F": i1, "G": i2}, {"rebrickable": False}, {}, 1
    out = _write_out(args, combined.synthesis)
    certs = {"c": fb.c, "C": fb.C, "out": out}
    return {"F": i1, "G": i2}, {"rebrickable": True}, certs, 0


def cmd_frame_frrebrick(args, tol):
    A, i1 = _load(args.file_a)
    S, i2 = _load(args.file_s)
    v = frames.frrebrick_check(A, S, tol)
    certs = {"rank_id_iS": v.rank_id_iS, "rank_product": v.rank_product}
    certs.update(p=S.shape[0], n=A.shape[0])
    verdicts = {"surjective_product": v.surjective}
    return {"A": i1, "S": i2}, verdicts, certs, 0 if v.surjective else 1


def cmd_multiplier_validate(args, tol):
    m, info = _load_vector(args.file_m, name="multiplier")
    ok, reasons = multipliers.validate_rebrick_multiplier(m, tol)
    return {"multiplier": info}, {"valid": ok}, {"reasons": reasons}, 0 if ok else 1


def cmd_multiplier_rebrick(args, tol):
    x, i1 = _load_vector(args.file_x, name="generator")
    m, i2 = _load_vector(args.file_m, name="multiplier")
    if args.out is not None:
        # --out writes the N x N translate matrix: bound it like a matrix file
        _check_cap("translate matrix cells N*N", x.size * x.size, matio.MAX_CELLS)
    cols, unitary = multipliers.rebrick_translates(x, m, tol)
    out = _write_out(args, cols)
    certs = {"unitary": unitary, "out": out}
    return {"generator": i1, "multiplier": i2}, {"onb": unitary}, certs, 0 if unitary else 1


def cmd_multiplier_hilbert(args, tol):
    _check_cap("--N", args.N, MAX_SYMBOL_N)
    r, k = multipliers.analytic_defect(args.N, tol)
    certs = {"N": args.N, "rank": r, "kernel_dim": k}
    return {}, {"analytic_defect": k > 0}, certs, 0 if k > 0 else 1


def cmd_multiplier_trig(args, tol):
    _check_cap("--K", args.K, MAX_TRIG_K)
    if args.N is not None:
        _check_cap("--N", args.N, MAX_TRIG_N)
    rep = multipliers.trig_rebrick_demo(args.K, args.N)
    ok = linalg.is_close(rep.max_dev, 0.0, tol)
    fields = ("K", "N", "max_dev", "max_dev_constant", "max_dev_exp_pos", "max_dev_exp_neg")
    certs = {f: getattr(rep, f) for f in fields}
    return {}, {"matches_exponentials": ok}, certs, 0 if ok else 1


def cmd_multiplier_sweep(args, tol):
    sizes = args.sizes or [16, 32, 64, 128, 256]
    _check_cap("number of sweep sizes", len(sizes), MAX_SWEEP_SIZES)
    _check_cap("sweep size", max(sizes), MAX_SYMBOL_N)
    rows = multipliers.conditioning_sweep(sizes)
    decreasing = all(b.sigma_min < a.sigma_min for a, b in zip(rows, rows[1:]))
    injective = all(r.kernel_dim == 0 for r in rows)
    certs = {
        "rows": [{"N": r.N, "sigma_min": r.sigma_min, "kernel_dim": r.kernel_dim} for r in rows],
        "note": "sigma_min values are modeling-dependent (sampled symbol band)",
    }
    verdicts = {"strictly_decreasing": decreasing, "always_injective": injective}
    return {}, verdicts, certs, 0 if (decreasing and injective) else 1


# ---------------------------------------------------------------- plumbing


def _render(report: dict, as_json: bool) -> str:
    report = _jsonable(report)
    if as_json:
        return json.dumps(report, sort_keys=True, indent=2)
    lines = [f"command: {' '.join(report['command'])}"]
    for name, info in report["inputs"].items():
        lines.append(f"input {name}: {info['path']} ({info['rows']}x{info['cols']})")
    if "error" in report:
        lines.append(f"error: {report['error']}")
    for key, val in report["verdicts"].items():
        lines.append(f"verdict {key}: {val}")
    for key, val in report["certificates"].items():
        lines.append(f"{key}: {val}")
    t = report["tolerances"]
    lines.append(
        "tolerances: rank_rel={rank_rel:.3e} eig_abs={eig_abs:.3e} "
        "equality_abs={equality_abs:.3e}".format(**t)
    )
    lines.append(f"exit_code: {report['exit_code']}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _wants_json(args, argv) -> bool:
    """--quiet or --format json, from the parsed flags or, after a usage error, from argv."""
    if args is None:
        style = _Parser(add_help=False)
        style.add_argument("--quiet", action="store_true")
        style.add_argument("--format", nargs="?")
        try:
            args = style.parse_known_args(argv)[0]
        except UsageError:
            return False
    return args.quiet or args.format == "json"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--quiet", action="store_true", help="same as --format json")

    p = _Parser(
        prog="rebrick", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    top = p.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, help, *arguments, out=False):
        # each argument is a positional name or (name or --flag, add_argument options),
        # in the order the command echo lists them
        s = group.add_parser(name, parents=[common], help=help)
        arguments = [(a, {}) if isinstance(a, str) else a for a in arguments]
        for arg, options in arguments:
            s.add_argument(arg, **options)
        if out:  # the commands that build a matrix; --out is not echoed
            s.add_argument("--out", type=Path, help="write the result matrix here")
        # prog reads "rebrick frame order": the path to this leaf
        s.set_defaults(handler=handler, path=s.prog.split()[1:], echoed=[a for a, _ in arguments])

    def group(name, help):
        return top.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    # --tol only where eig_abs or equality_abs is read, declared last so it echoes last
    tol = ("--tol", {"type": float, "help": "sets eig_abs and equality_abs"})
    seed = ("--seed", {"type": int, "default": 0, "help": "seed of the repair search"})
    leaf(top, "check-basis", cmd_check_basis, "do the columns form a basis?", "file")
    leaf(top, "rebrick", cmd_rebrick, "combine two real bases into V1 + i*V2",
         "file_v1", "file_v2", tol, out=True)
    leaf(top, "repair", cmd_repair, "permute columns until Id + iAP is regular",
         "file_v", "file_a", seed, tol, out=True)

    frame = group("frame", "frame bounds, order and rebricking")
    leaf(frame, "bounds", cmd_frame_bounds, "sharp frame bounds c, C", "file_f")
    leaf(frame, "parseval", cmd_frame_parseval, "is the frame Parseval?", "file_f", tol)
    leaf(frame, "order", cmd_frame_order, "kernel order, both directions", "file_f", "file_g", tol)
    leaf(frame, "rebrick", cmd_frame_rebrick, "combine F + i*G", "file_f", "file_g", out=True)
    leaf(frame, "frrebrick", cmd_frame_frrebrick, "is A (Id + i*S) surjective?", "file_a", "file_s")

    mult = group("multiplier", "shift-invariant rebricking on Z_N")
    N, K = ("--N", {"type": int, "required": True}), ("--K", {"type": int, "required": True})
    leaf(mult, "validate", cmd_multiplier_validate, "is m a rebricking symbol?", "file_m", tol)
    leaf(mult, "rebrick", cmd_multiplier_rebrick, "are the translates an ONB?",
         "file_x", "file_m", tol, out=True)
    leaf(mult, "hilbert", cmd_multiplier_hilbert, "rank / kernel of Id + iH", N)
    leaf(mult, "trig", cmd_multiplier_trig, "trigonometric demo", ("--N", {"type": int}), K, tol)
    sizes = {"nargs": "*", "type": int, "help": "even sizes N (default 16 32 64 128 256)"}
    leaf(mult, "sweep", cmd_multiplier_sweep, "sigma_min of Id + iA over N", ("sizes", sizes))
    return p


# built once per process: building it costs about as much as a small question
_PARSER = build_parser()


def _command_echo(args) -> list[str]:
    """The parsed command: its path, then its arguments in declared order, flags if set."""
    echo = list(args.path)
    for name in args.echoed:
        value = getattr(args, name.lstrip("-"))
        if not name.startswith("-"):
            echo += [str(v) for v in value] if isinstance(value, list) else [str(value)]
        elif value is not None:
            echo += [name, str(value)]
    return echo


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report = {
        "schema": SCHEMA_VERSION,
        "command": argv,
        "inputs": {},
        "verdicts": {},
        "certificates": {},
        "tolerances": dataclasses.asdict(Tolerance()),
    }
    args = None
    try:
        args = _PARSER.parse_args(argv)
        report["command"] = _command_echo(args)
        tol = _resolve_tol(args)
        report["tolerances"] = dataclasses.asdict(tol)
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
    print(_render(report, _wants_json(args, argv)))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
