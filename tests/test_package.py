"""The package as a whole: its public surface, the README's examples, its imports."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import rebrick
from rebrick import basis, errors, linalg, matio, multipliers, permutation

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "CharPoly",
    "ConditioningRow",
    "DEFAULT_TOL",
    "FiniteFrame",
    "FrRebrickVerdict",
    "FrameBounds",
    "OrderVerdict",
    "PermutationRepair",
    "RebrickVerdict",
    "RieszBoundReport",
    "Tolerance",
    "TrigRebrickReport",
    "analytic_defect",
    "apply_multiplier",
    "char_poly",
    "check_basis",
    "compatibility_operator",
    "conditioning_sweep",
    "cycle_notation",
    "discrete_hilbert",
    "errors",
    "frame_bounds",
    "frame_kernel",
    "frame_leq",
    "frrebrick_check",
    "invariant_eigenvalue_candidates",
    "is_parseval",
    "non_transitivity_witness",
    "onb_rebrick_check",
    "operator_rebrick_frame",
    "parseval_rebrick",
    "real_part_preservation_lambda",
    "rebrick_frames",
    "rebrick_pair",
    "rebrick_translates",
    "rebrick_with_operator",
    "rebrick_with_permutation",
    "rebricked_dual",
    "rebricked_frame_bounds",
    "repair",
    "repair_permutation",
    "spectral_factorize_orthosym",
    "summed_char_poly",
    "surjective_factor",
    "transfer_operator",
    "trig_rebrick_demo",
    "validate_rebrick_multiplier",
]

# generic numpy wrappers, dense oracles and second routes that the package no longer holds,
# by old home
REMOVED = {
    basis: ("symmetry_condition_check",),
    linalg: ("svd", "rank", "kernel_basis", "invert", "eigenvalues"),
    matio: ("format_cell",),
    multipliers: ("dft", "idft", "shift_matrix", "multiplier_matrix"),
    permutation: ("permutation_matrix", "apply_column_permutation"),
}


def test_public_surface():
    assert len(rebrick.__all__) == 47 and sorted(rebrick.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(rebrick, name) is not None
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(rebrick, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # CharPoly is a record of coefficients, with no evaluation of its own
    assert not hasattr(rebrick.CharPoly, "degree")
    assert not callable(rebrick.char_poly(np.eye(2)))
    # the message names the operand or the refusal; the exception carries nothing else
    for cls in (errors.RankDeficientInput, errors.NotOrthogonal, errors.SearchExhausted):
        assert vars(cls("message")) == {}, cls.__name__


def _run_readme_blocks() -> tuple[dict, dict]:
    """Run the README's python blocks in one namespace, with every warning an error.

    Returns the namespace and the value of each bare expression, keyed by its source.
    """
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 2
    namespace, values = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            for stmt in ast.parse(block).body:
                if isinstance(stmt, ast.Expr):
                    code = compile(ast.Expression(stmt.value), "README.md", "eval")
                    values[ast.get_source_segment(block, stmt)] = eval(code, namespace)
                else:
                    exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return namespace, values


def test_readme_python_blocks_state_what_they_compute():
    namespace, values = _run_readme_blocks()
    assert values["verdict.rebrickable"] is False
    np.testing.assert_allclose(values["verdict.eigenvalues_A"], [-1j, 1j], atol=1e-12)
    assert values["rep.permutation"] == (1, 0)
    assert np.array_equal(namespace["W"], np.diag([1 - 1j, 1 + 1j]))
    assert values["rebrick.check_basis(W).regular"] is True
    bounds = values["rebrick.frame_bounds(F)"]
    assert bounds.c == 1.0 and bounds.C == pytest.approx(2.0, rel=1e-12)
    assert values["rebrick.frame_kernel(F)"].shape[1] == 1


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "rebrick").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


# what only the library may do: decompose and form products; cli.py reaches the rest of the
# library only through what rebrick exports, and reads and writes files through matio
LIBRARY_ONLY = {"np.linalg", "np.matmul"}
LIBRARY_MODULES = ("basis", "frames", "linalg", "multipliers", "permutation")


def _dotted(node) -> str | None:
    """`a.b.c` for a name or an attribute chain on one, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _names(source: str) -> set:
    """Each dotted name that a module reads (every prefix of a chain), and each import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        names.add(_dotted(node))
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {f"{node.module}.{a.name}" for a in node.names}
    return {n.replace("numpy.", "np.", 1) for n in names if n}


def _unexported(names: set) -> set:
    """`module.name` for each name of a library module among `names` that rebrick does not export."""
    found = set()
    for name in names:
        parts = name.removeprefix("rebrick.").split(".")
        if parts[0] in LIBRARY_MODULES and len(parts) > 1 and parts[1] not in rebrick.__all__:
            found.add(".".join(parts[:2]))
    return found


def test_cli_decides_nothing_itself():
    """cli.py projects library answers: it calls only what rebrick exports, and no numpy kernel."""
    names = _names((ROOT / "src" / "rebrick" / "cli.py").read_text())
    assert names & LIBRARY_ONLY == set() and _unexported(names) == set()
    # the walk sees each way of writing one
    assert _names("np.linalg.svd(M)\nnp.matmul") >= LIBRARY_ONLY
    assert _names("from numpy import linalg, matmul") >= LIBRARY_ONLY
    for source in ("linalg.regularity_of(M, tol)", "from .linalg import regularity_of"):
        assert _unexported(_names(source)) == {"linalg.regularity_of"}
    assert _unexported(_names("from .linalg import Tolerance\nbasis.check_basis(M, tol)")) == set()


# one concrete class per refused hypothesis, by kind; the kind carries the exit code
ERROR_CLASSES = {
    errors.InputError: [
        "InvalidMatrix",
        "InvalidSize",
        "MatrixParseError",
        "NotAPermutation",
        "NotOrthogonal",
        "RankDeficientInput",
        "ShapeMismatch",
        "UsageError",
    ],
    errors.NegativeVerdict: ["NotRebrickable", "SearchExhausted"],
}
CONCRETE = sorted(name for names in ERROR_CLASSES.values() for name in names)
# records that refuse invalid fields with ValueError, as Python's own types do
VALUE_ERROR_RECORDS = {"CharPoly", "FrameBounds", "Tolerance"}
SOURCES = sorted((ROOT / "src" / "rebrick").glob("*.py"))


def test_one_error_class_per_refused_hypothesis():
    assert len(CONCRETE) == 10
    defined = sorted(name for name, c in vars(errors).items() if isinstance(c, type))
    kinds = ["InputError", "InternalConsistencyError", "NegativeVerdict", "RebrickError"]
    assert defined == sorted(CONCRETE + kinds)
    for kind, names in ERROR_CLASSES.items():
        for name in names:
            assert getattr(errors, name).__bases__ == (kind,), name
    assert (errors.InputError.exit_code, errors.NegativeVerdict.exit_code) == (2, 1)
    assert errors.InternalConsistencyError.exit_code == 3


def _raises(tree: ast.Module):
    """(top-level def or class, raised name) for each raise in a module.

    The name is X in `raise X(...)`, `raise X` and `raise mod.X(...)`; a call of a
    module function stands for the class its return annotation names, and a bare
    `raise` is None.
    """
    returns = {
        f.name: f.returns.id
        for f in tree.body
        if isinstance(f, ast.FunctionDef) and isinstance(f.returns, ast.Name)
    }
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                yield getattr(top, "name", None), returns.get(name, name)


def test_every_raise_names_a_rebrick_error():
    value_error_scopes = set()
    for path in SOURCES:
        for scope, name in _raises(ast.parse(path.read_text())):
            if name == "ValueError":
                value_error_scopes.add(scope)
                continue
            cls = getattr(errors, name or "", None)
            assert isinstance(cls, type) and issubclass(cls, errors.RebrickError), (path.name, name)
    assert value_error_scopes == VALUE_ERROR_RECORDS


def test_every_error_class_is_raised():
    raised = {name for path in SOURCES for _, name in _raises(ast.parse(path.read_text()))}
    classes = [name for name, c in vars(errors).items() if isinstance(c, type)]
    # the kinds RebrickError, InputError and NegativeVerdict are caught, never raised
    assert sorted(name for name in classes if name in raised) == sorted(
        CONCRETE + ["InternalConsistencyError"]
    )
