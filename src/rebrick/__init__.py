"""Build, repair and certify complex bases and frames from pairs of real ones.

The package decides when two real bases or frames combine columnwise
into a complex basis or frame (f_n + i*g_n), constructs the combined
system together with duals and sharp bounds, repairs failed combinations
by permuting columns, and models the shift-invariant case on Z_N where
the discrete Hilbert transform famously fails to rebrick.
"""

from . import errors
from .basis import (
    RebrickVerdict,
    RieszBoundReport,
    check_basis,
    non_transitivity_witness,
    onb_rebrick_check,
    real_part_preservation_lambda,
    rebrick_pair,
    rebrick_with_operator,
    rebricked_dual,
    rebricked_frame_bounds,
    spectral_factorize_orthosym,
    transfer_operator,
)
from .frames import (
    FiniteFrame,
    FrameBounds,
    FrRebrickVerdict,
    OrderVerdict,
    compatibility_operator,
    frame_bounds,
    frame_kernel,
    frame_leq,
    frrebrick_check,
    is_parseval,
    operator_rebrick_frame,
    parseval_rebrick,
    rebrick_frames,
    surjective_factor,
)
from .linalg import DEFAULT_TOL, Tolerance
from .multipliers import (
    ConditioningRow,
    TrigRebrickReport,
    analytic_defect,
    apply_multiplier,
    conditioning_sweep,
    discrete_hilbert,
    rebrick_translates,
    trig_rebrick_demo,
    validate_rebrick_multiplier,
)
from .permutation import (
    CharPoly,
    PermutationRepair,
    char_poly,
    cycle_notation,
    invariant_eigenvalue_candidates,
    rebrick_with_permutation,
    repair,
    repair_permutation,
    summed_char_poly,
)

__version__ = "0.1.0"

__all__ = [
    "CharPoly",
    "ConditioningRow",
    "DEFAULT_TOL",
    "FiniteFrame",
    "FrameBounds",
    "FrRebrickVerdict",
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
