"""Exact-arithmetic workbench for bounded cohomology of free groups:
decompositions, decomposable quasi-morphisms, the aligned cochain complex,
and the explicit bounded primitive of the Massey triple product
representative, with every identity checked in rational arithmetic."""

from .cochain import (
    Cochain,
    EvalContext,
    alternate,
    coboundary,
    constant,
    cup,
    evaluate,
    exhaustive_aligned_tuples,
    lincomb,
    qm_cochain,
    restrict,
    TableCochain,
)
from .decomposition import (
    DecompositionSpec,
    TriangleDecomposition,
    check_axioms,
    is_non_self_overlapping,
    measure_r_hat,
    triangle_split,
)
from .errors import ConfigError, ResourceCapError, UsageError, WorkbenchError
from .massey import (
    MasseyInstance,
    TriangleTermLedger,
    beta1,
    beta2,
    bounded_primitive,
    eta1,
    eta2,
    eta_bridge,
    massey_representative,
    three_sum_residual,
    verify_massey_triviality,
    verify_primitives,
)
from .quasimorphism import (
    LambdaTable,
    QuasiMorphism,
    defect,
    defect_from_triangle,
    defect_sup,
)
from .report import ExperimentPlan, Report, StageResult
from .words import ball_size, enumerate_ball, format_letters, parse_word, sample_word

__version__ = "0.1.0"
