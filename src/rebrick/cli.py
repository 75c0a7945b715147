"""Command-line front end: the `rebrick` tool as one table of leaf commands.

Each leaf command is declared once, by the `@_Leaf` row above its answer
`(args, tol, *inputs) -> (verdicts, certificates, affirmative)`, which holds
only its caps, its library call (whose result gives the verdicts) and its
report fields.  `build_parser` builds argparse from the rows.  `run` does the
rest once: loading, `inputs`, writing --out, the exit code (0 when
affirmative, else 1, or an error's `exit_code`) and the rendering.
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

# the text of `rebrick -h`: usage, flags and exit codes
_HELP = """Command-line front end.

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


def _load(path, label, vector):
    digest = hashlib.sha256()
    M = matio.load_matrix(path, digest)
    if vector and 1 not in M.shape:
        raise InvalidMatrix(f"{label} ({path}): expected a single row or column")
    info = {"path": str(path), "sha256": digest.hexdigest()}
    info["rows"], info["cols"] = int(M.shape[0]), int(M.shape[1])
    return (M.reshape(-1) if vector else M), info


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


# ---------------------------------------------------------------- the table


@dataclasses.dataclass(frozen=True)
class _Leaf:
    """A row of the table: one leaf command.  As a decorator, it declares its answer."""

    path: str
    help: str
    files: dict  # report label -> argparse dest, in command-line order
    arguments: tuple = ()  # (name or --flag, add_argument options), echoed in this order
    vectors: bool = False  # each file is read as a single row or column
    out: bool = False  # --out is declared (not echoed); certificates["out"] is the matrix to write
    answer: object = None

    def __call__(self, answer):
        _LEAVES[self.path] = dataclasses.replace(self, answer=answer)
        return answer


_LEAVES: dict[str, _Leaf] = {}  # "frame order" -> its row, in the parser's order
_GROUPS = {"frame": "frame bounds, order and rebricking",
           "multiplier": "shift-invariant rebricking on Z_N"}


# --tol only where eig_abs or equality_abs is read, declared last so it echoes last
_TOL = ("--tol", {"type": float, "help": "sets eig_abs and equality_abs"})
_SEED = ("--seed", {"type": int, "default": 0, "help": "seed of the repair search"})
_N, _K = ("--N", {"type": int, "required": True}), ("--K", {"type": int, "required": True})
_SIZES = ("sizes", {"nargs": "*", "type": int, "help": "even sizes N (default 16 32 64 128 256)"})


@_Leaf("check-basis", "do the columns form a basis?", {"file": "file"})
def _check_basis(args, tol, M):
    M = linalg.require_square(M)
    reg = linalg.regularity_of(M, tol)
    certs = {"sigma_min": reg.sigma_min, "sigma_max": reg.sigma_max, "n": int(M.shape[0])}
    return {"is_basis": reg.regular}, certs, reg.regular


@_Leaf("rebrick", "combine two real bases into V1 + i*V2",
       {"V1": "file_v1", "V2": "file_v2"}, (_TOL,), out=True)
def _rebrick(args, tol, V1, V2):
    B, v = basis.rebrick_pair(V1, V2, tol)
    certs = {**dataclasses.asdict(v), "out": B if v.rebrickable else None}
    return {"rebrickable": v.rebrickable}, certs, v.rebrickable


@_Leaf("repair", "permute columns until Id + iAP is regular",
       {"V": "file_v", "A": "file_a"}, (_SEED, _TOL), out=True)
def _repair(args, tol, V, A):
    V, A = linalg.require_square_pair(V, A, ("V", "A"), real=True)
    # sigma(V) decides V, then one LU solve; checked products end an overflow before the search
    basis.require_basis(V, "V", tol)
    AV = linalg.formed("A @ V", np.matmul, A, V)
    At = linalg.formed("inv(V) @ A @ V", np.linalg.solve, V, AV)
    # the search decides from sigma(Id + i At P); W = V @ (Id + i At P) is not judged again
    rep = permutation.repair_permutation(At, tol, seed=args.seed)
    certs = {
        "permutation_image": [k + 1 for k in rep.permutation],
        "permutation_cycles": permutation.cycle_notation(rep.permutation),
        "trials": rep.trials,
        "sigma_min_after": rep.sigma_min_after,
        "min_dist_to_i_after": rep.min_dist_to_i_after,
        "degenerate": rep.degenerate,
        "out": V + 1j * AV[:, np.argsort(rep.permutation)],
    }
    return {"repaired": True}, certs, True


@_Leaf("frame bounds", "sharp frame bounds c, C", {"frame": "file_f"})
def _frame_bounds(args, tol, S):
    fb = frames.frame_bounds(FiniteFrame(S), tol)
    return {"is_frame": True}, {"c": fb.c, "C": fb.C}, True


@_Leaf("frame parseval", "is the frame Parseval?", {"frame": "file_f"}, (_TOL,))
def _frame_parseval(args, tol, S):
    ok = frames.is_parseval(FiniteFrame(S), tol)
    return {"parseval": ok}, {}, ok


@_Leaf("frame order", "kernel order, both directions", {"F": "file_f", "G": "file_g"}, (_TOL,))
def _frame_order(args, tol, SF, SG):
    v = frames.frame_leq(FiniteFrame(SF, "F"), FiniteFrame(SG, "G"), tol)
    verdicts = {"leq": v.leq, "geq": v.geq, "equivalent": v.equivalent}
    return verdicts, {"ker_dim_F": v.ker_dim_F, "ker_dim_G": v.ker_dim_G}, v.leq or v.geq


@_Leaf("frame rebrick", "combine F + i*G", {"F": "file_f", "G": "file_g"}, out=True)
def _frame_rebrick(args, tol, SF, SG):
    F, G = FiniteFrame(SF, "F"), FiniteFrame(SG, "G")
    try:
        combined, fb = frames.rebrick_frames(F, G, tol)
    except NegativeVerdict:
        return {"rebrickable": False}, {}, False
    return {"rebrickable": True}, {"c": fb.c, "C": fb.C, "out": combined.synthesis}, True


@_Leaf("frame frrebrick", "is A (Id + i*S) surjective?", {"A": "file_a", "S": "file_s"})
def _frame_frrebrick(args, tol, A, S):
    v = frames.frrebrick_check(A, S, tol)
    certs = dict(rank_id_iS=v.rank_id_iS, rank_product=v.rank_product, p=S.shape[0], n=A.shape[0])
    return {"surjective_product": v.surjective}, certs, v.surjective


@_Leaf("multiplier validate", "is m a rebricking symbol?", {"multiplier": "file_m"}, (_TOL,),
       vectors=True)
def _multiplier_validate(args, tol, m):
    ok, reasons = multipliers.validate_rebrick_multiplier(m, tol)
    return {"valid": ok}, {"reasons": reasons}, ok


@_Leaf("multiplier rebrick", "are the translates an ONB?",
       {"generator": "file_x", "multiplier": "file_m"}, (_TOL,), vectors=True, out=True)
def _multiplier_rebrick(args, tol, x, m):
    if args.out is not None:
        # --out writes the N x N translate matrix: bound it like a matrix file
        _check_cap("translate matrix cells N*N", x.size * x.size, matio.MAX_CELLS)
    cols, unitary = multipliers.rebrick_translates(x, m, tol)
    return {"onb": unitary}, {"unitary": unitary, "out": cols}, unitary


@_Leaf("multiplier hilbert", "rank / kernel of Id + iH", {}, (_N,))
def _multiplier_hilbert(args, tol):
    _check_cap("--N", args.N, MAX_SYMBOL_N)
    r, k = multipliers.analytic_defect(args.N, tol)
    return {"analytic_defect": k > 0}, {"N": args.N, "rank": r, "kernel_dim": k}, k > 0


@_Leaf("multiplier trig", "trigonometric demo", {}, (("--N", {"type": int}), _K, _TOL))
def _multiplier_trig(args, tol):
    _check_cap("--K", args.K, MAX_TRIG_K)
    if args.N is not None:
        _check_cap("--N", args.N, MAX_TRIG_N)
    rep = multipliers.trig_rebrick_demo(args.K, args.N)
    ok = linalg.is_close(rep.max_dev, 0.0, tol)
    fields = ("K", "N", "max_dev", "max_dev_constant", "max_dev_exp_pos", "max_dev_exp_neg")
    return {"matches_exponentials": ok}, {f: getattr(rep, f) for f in fields}, ok


@_Leaf("multiplier sweep", "sigma_min of Id + iA over N", {}, (_SIZES,))
def _multiplier_sweep(args, tol):
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
    return verdicts, certs, decreasing and injective


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
        prog="rebrick", description=_HELP, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    groups = {"": p.add_subparsers(dest="command", required=True)}
    for leaf in _LEAVES.values():
        group, _, name = leaf.path.rpartition(" ")
        if group not in groups:
            sub = groups[""].add_parser(group, help=_GROUPS[group])
            groups[group] = sub.add_subparsers(dest="subcommand", required=True)
        s = groups[group].add_parser(name, parents=[common], help=leaf.help)
        for dest in leaf.files.values():
            s.add_argument(dest)
        for arg, options in leaf.arguments:
            s.add_argument(arg, **options)
        if leaf.out:
            s.add_argument("--out", type=Path, help="write the result matrix here")
    return p


# built once per process: building it costs about as much as a small question
_PARSER = build_parser()


def _command_echo(args, leaf: _Leaf) -> list[str]:
    """The parsed command: its path, then its arguments in declared order, flags if set."""
    echo = leaf.path.split()
    for name in [*leaf.files.values(), *(a for a, _ in leaf.arguments)]:
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
        leaf = _LEAVES[" ".join(filter(None, (args.command, getattr(args, "subcommand", None))))]
        report["command"] = _command_echo(args, leaf)
        tol = _resolve_tol(args)
        report["tolerances"] = dataclasses.asdict(tol)
        files = leaf.files.items()
        loaded = [_load(getattr(args, dest), label, leaf.vectors) for label, dest in files]
        verdicts, certs, affirmative = leaf.answer(args, tol, *(M for M, _ in loaded))
        if "out" in certs:  # the matrix an --out leaf built, or None where it writes none
            M, certs["out"] = certs["out"], None
            if M is not None and args.out is not None:
                matio.save_matrix(args.out, M)
                certs["out"] = str(args.out)
        code = 0 if affirmative else 1
    except (InputError, NegativeVerdict, InternalConsistencyError, OSError) as exc:
        code = getattr(exc, "exit_code", 2)  # OSError: an unreadable file is bad input
        report["error"] = str(exc)
        if isinstance(exc, MatrixParseError):
            report["error_position"] = {"row": exc.row, "col": exc.col}
        if code != 1:
            print(f"error: {exc}", file=sys.stderr)
    else:
        inputs = {label: info for label, (_, info) in zip(leaf.files, loaded)}
        report.update(inputs=inputs, verdicts=verdicts, certificates=certs)
    report["exit_code"] = code
    print(_render(report, _wants_json(args, argv)))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
