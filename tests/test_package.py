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
    assert len(rebrick.__all__) == 45 and sorted(rebrick.__all__) == PUBLIC
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
    for cls in (errors.NotABasis, errors.NotOrthogonal, errors.SearchExhausted):
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
    assert np.array_equal(namespace["W"], np.diag([1 - 1j, 1 + 1j]))
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


def _raised_names(tree: ast.AST) -> set[str]:
    """Names raised in a module: X in `raise X(...)`, `raise X` and `raise mod.X(...)`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_error_class_is_raised():
    raised = set()
    for path in (ROOT / "src" / "rebrick").glob("*.py"):
        raised |= _raised_names(ast.parse(path.read_text()))
    classes = [c for c in vars(errors).values() if isinstance(c, type)]
    # a class is in use when it, or a class derived from it, has a raise site
    used = [c for c in classes if any(issubclass(d, c) and d.__name__ in raised for d in classes)]
    assert classes
    assert [c.__name__ for c in classes if c not in used] == []
