"""Interlacing-family machinery for matrix discrepancy and partitioning.

Mixed characteristic polynomials of hermitian ensembles, derandomized
greedy descents with max-root certificates, discrepancy solvers with
explicit constants, Lyapunov-type subset selection, spectrally balanced
partitioning, and barrier-function diagnostics.
"""

from .barriers import (
    BarrierPoint,
    BarrierShapeReport,
    QxCertificate,
    ag_condition,
    barrier_shape_check,
    barrier_value,
    qx_certificate,
)
from .descent import (
    DescentCertificate,
    FiniteDistribution,
    MatrixDistribution,
    greedy_descent_linear,
    greedy_descent_quadratic,
)
from .discrepancy import (
    DiscrepancyInstance,
    DiscrepancyResult,
    sigma_bound,
    solve_hermitian,
    solve_kls,
    two_point_reduction,
)
from .errors import (
    BadDelta,
    BadProportions,
    EmptyMatrix,
    EpsilonOutOfRange,
    InterlaceError,
    NotAboveRoots,
    NotContraction,
    NotHermitian,
    NotMonic,
    NotPSD,
    NotRealRooted,
    NumericalFailure,
    ParseError,
    QxNormalizationViolated,
    SizeGuard,
    SumExceedsIdentity,
    ValidationError,
    ValueNotInSupport,
    WeightOutOfRange,
)
from .files import EnsembleFile, parse_ensemble, serialize_ensemble
from .generate import gen_instance
from .linalg import (
    EnsembleStats,
    HermitianMatrix,
    MatrixEnsemble,
    as_hermitian,
    absolute_value,
    eigenvalues,
    ensemble,
    ensemble_stats,
    make_hermitian,
    operator_norm,
    positive_negative_parts,
    rank_one_completion,
)
from .lyapunov import (
    LyapunovInstance,
    PartitionResult,
    SelectionResult,
    WeightedApproxResult,
    ks_r_partition,
    lyapunov_select,
    mixed_bound_reference,
    weighted_approx,
)
from .mixedchar import SubsetTable, mixed_char_poly, quadratic_mixed_char_poly, subset_derivative
from .polynomials import (
    MaxRoot,
    RealPolynomial,
    RootReport,
    maxroot_certified,
    root_report,
    root_scaling,
)
from .reference import DerivativeSpec, conditional_spec_quadratic, expected_product_poly, truncated_ring_oracle

__version__ = "0.1.0"
