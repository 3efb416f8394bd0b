"""Subset selection and spectrally balanced partitioning of PSD ensembles.

``lyapunov_select`` rounds fractional weights t_i in [0,1] to a subset I_0
with ||sum_{I_0} T_i - sum t_i T_i|| <= 2 sqrt(eps) whenever the T_i are PSD
with sum at most the identity and traces at most eps.

``ks_r_partition`` splits such an ensemble into r blocks whose sums stay
below t_k (sum A + (2 sqrt(r eps) + r eps) I) in the PSD order, hence with
norms at most t_k (1 + sqrt(r eps))^2.  The construction lifts each matrix
to an r-block diagonal slot choice (t_k^{-1} A_i in block k), completes the
identity with rank-one pieces that sit in every block, and descends the
linear family over slot choices.  All polynomial work stays at block scale:
one subset-derivative table is built over the matrices and the pieces, the
lifted determinant factors over blocks, each factor rescales that table by
per-index slot weights, and the factors are combined by ranked subset
convolution.  The branches come from ``mixedchar.ConvolutionLevels``, which
keeps the r ranked zeta transforms across the descent: ``branch(s)`` reads the
polynomial with the next index in slot s by a binomial-weighted sum
instead of a Moebius pass, taken straight off two factors (slot s's
difference and the product of the other slots) by one matrix product per
rank, so the product over all r slots is never formed; ``commit(s)``,
called once per level with the winning slot, contracts that index out of
every transform, so each level works on half the masks of the one before.
Rank arrays hold only the rows a c_S table can fill (min(n, d) + 1 per
factor, min(n, r d) + 1 for a product).  Slot s has weight t_s, which
cancels its factor 1/t_s, so the root polynomial is level 0's t-weighted
mixture of its branches.  ``reference.subset_convolve``, the direct sum over
submasks, is the convolution the branches are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .descent import (
    DescentCertificate,
    FiniteDistribution,
    _run_descent,
)
from .discrepancy import DiscrepancyInstance, DiscrepancyResult, solve_kls
from .errors import (
    BadProportions,
    EpsilonOutOfRange,
    NotPSD,
    SizeGuard,
    SumExceedsIdentity,
    ValidationError,
    WeightOutOfRange,
)
from .linalg import (
    MAX_INDICES,
    PSD_SLACK,
    EnsembleStats,
    MatrixEnsemble,
    _completion_from_spectrum,
    eigenvalues,
    ensemble as as_ensemble,
    ensemble_stats,
    make_hermitian,
    operator_norm,
    weighted_sum,
)
from .mixedchar import ConvolutionLevels, SubsetTable
# Unused: perfbench's tracer hooks it here until ROADMAP item 1 drops the hook.
from .reference import subset_convolve  # noqa: F401

MAX_LIFTED_DIM = 48
# Slack on every inequality re-checked on a returned result.
RESULT_SLACK = 1e-7


def _trace_capped(ensemble, epsilon: float | None) -> tuple[MatrixEnsemble, float, EnsembleStats]:
    """The PSD ensemble with sum at most I, its trace cap and its ``ensemble_stats``.

    The cap is the maximum trace unless ``epsilon`` declares a larger one,
    at most the dimension: 0 <= A <= I has trace at most d, so a larger cap
    bounds nothing.
    """
    ens = as_ensemble(ensemble)
    stats = ensemble_stats(ens)
    if not stats.all_psd:
        raise NotPSD("ensemble must be PSD")
    if not stats.sum_leq_identity:
        raise SumExceedsIdentity(f"||sum|| = {stats.sum_norm:.6g} exceeds 1")
    eps = stats.epsilon if epsilon is None else float(epsilon)
    if not stats.epsilon - 1e-12 <= eps <= ens.dim:  # also rejects a NaN cap
        raise ValidationError(
            f"declared trace cap {eps:.6g} must lie between the actual maximum trace"
            f" {stats.epsilon:.6g} and the dimension {ens.dim}"
        )
    return ens, eps, stats


@dataclass(frozen=True)
class LyapunovInstance:
    """Trace-capped PSD ensemble with fractional selection weights."""

    ensemble: MatrixEnsemble
    weights: tuple[float, ...]
    epsilon: float

    @classmethod
    def make(cls, matrices, weights, epsilon: float | None = None) -> "LyapunovInstance":
        ens = as_ensemble(matrices)
        weights = tuple(float(t) for t in weights)
        if len(weights) != len(ens):
            raise ValueError("one weight per matrix required")
        for t in weights:
            if not 0.0 <= t <= 1.0:
                raise WeightOutOfRange(f"weight {t} outside [0, 1]")
        ens, eps, _ = _trace_capped(ens, epsilon)
        return cls(ens, weights, eps)


@dataclass(frozen=True)
class SelectionResult:
    indices: tuple[int, ...]
    achieved: float
    bound: float
    solver: DiscrepancyResult


def lyapunov_select(inst: LyapunovInstance) -> SelectionResult:
    """Round weights to a subset with deviation at most 2 sqrt(eps).

    Runs the discrepancy solver on Bernoulli(t_i) variables; the variance
    factor t(1-t) <= 1/4 gives sigma <= sqrt(eps)/2, so the 4 sigma
    guarantee lands at 2 sqrt(eps).
    """
    dists = tuple(FiniteDistribution.bernoulli(t) for t in inst.weights)
    res = solve_kls(DiscrepancyInstance(inst.ensemble, dists))
    chosen = tuple(i for i, s in enumerate(res.outcome) if s == 1.0)
    return SelectionResult(chosen, res.achieved, 2.0 * math.sqrt(inst.epsilon), res)


@dataclass(frozen=True)
class WeightedApproxResult:
    indices: tuple[int, ...]
    achieved: float
    bound: float
    bound_alternate: float
    solver: DiscrepancyResult


def weighted_approx(ensemble, t: float) -> WeightedApproxResult:
    """Approximate t * sum T_i by a subset sum, 0 < t < 1.

    Reports both the selection bound 2 sqrt(eps) and the alternate
    two-block bound 2 sqrt(2 eps) + 2 eps for cross-reference.
    """
    if not 0.0 < t < 1.0:
        raise WeightOutOfRange(f"t = {t} outside (0, 1)")
    ens = as_ensemble(ensemble)
    inst = LyapunovInstance.make(ens, [t] * len(ens))
    sel = lyapunov_select(inst)
    alt = 2.0 * math.sqrt(2.0 * inst.epsilon) + 2.0 * inst.epsilon
    return WeightedApproxResult(sel.indices, sel.achieved, sel.bound, alt, sel.solver)


@dataclass(frozen=True)
class PartitionResult:
    """r disjoint blocks covering [m], with per-block norms and certificates.

    ``deviations[k]`` is the two-sided deviation ||sum_{I_k} A - t_k sum A||,
    bounded by 2 sqrt(r eps) + r eps.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_norms: tuple[float, ...]
    bounds: tuple[float, ...]
    upper_cert: tuple[bool, ...]
    deviations: tuple[float, ...]
    certificate: DescentCertificate
    epsilon: float
    proportions: tuple[float, ...]


def ks_r_partition(
    ensemble, proportions: Sequence[float], epsilon: float | None = None
) -> PartitionResult:
    """Partition a trace-capped PSD ensemble into r spectrally balanced blocks.

    Verifies, per block k, the PSD certificate
    sum_{I_k} A_i <= t_k (sum A + (2 sqrt(r eps) + r eps) I) and the norm
    bound ||sum_{I_k} A_i|| <= t_k (1 + sqrt(r eps))^2.
    """
    t = [float(x) for x in proportions]
    if not t or not all(x > 0 for x in t) or not abs(sum(t) - 1.0) <= 1e-12:  # NaN fails
        raise BadProportions("proportions must be positive and sum to 1")
    ens, eps, stats = _trace_capped(ensemble, epsilon)
    r = len(t)
    m = len(ens)
    d = ens.dim
    total = stats.total
    # pieces of trace at most eps fill I - sum A: at least (d - tr sum A) / eps
    # of them, less one per eigenvalue for rounding; refuse before building any
    if eps > 0 and m + (d - total.trace()) / eps - d > MAX_INDICES:
        raise SizeGuard(f"the rank-one completion at trace cap {eps:.6g} exceeds {MAX_INDICES} indices")
    if d * r > MAX_LIFTED_DIM:
        raise SizeGuard(f"lifted dimension {d * r} exceeds {MAX_LIFTED_DIM}")
    completion = _completion_from_spectrum(*stats.spectrum, eps)
    recon = total.entries + sum((B.entries for B in completion), np.zeros((d, d), dtype=np.complex128))
    if float(np.linalg.norm(recon - np.eye(d))) > 1e-8 * d:
        raise ValidationError("completion failed to reconstruct the identity")
    table = SubsetTable.build(list(ens) + completion)
    levels = ConvolutionLevels(table, [1.0 / x for x in t])
    cert = _run_descent(
        num_levels=m,
        candidates=lambda k: enumerate(t),
        branch_poly=levels.branch,
        commit=levels.commit,
    )
    blocks = tuple(
        tuple(i for i in range(m) if cert.assignment[i] == k) for k in range(r)
    )
    spread = 2.0 * math.sqrt(r * eps) + r * eps
    norms = []
    bounds = []
    upper = []
    deviations = []
    for k in range(r):
        block_sum = weighted_sum(ens, [float(i in blocks[k]) for i in range(m)])
        norms.append(operator_norm(block_sum))
        # D_k = sum_{I_k} A - t_k sum A; the PSD certificate is t_k spread I - D_k >= 0
        w = eigenvalues(make_hermitian(block_sum.entries - t[k] * total.entries, tol=np.inf))
        deviations.append(float(np.max(np.abs(w))))
        bounds.append(t[k] * (1.0 + math.sqrt(r * eps)) ** 2)
        upper.append(bool(t[k] * spread - w[-1] >= -RESULT_SLACK))
    return PartitionResult(
        blocks=blocks,
        block_norms=tuple(norms),
        bounds=tuple(bounds),
        upper_cert=tuple(upper),
        deviations=tuple(deviations),
        certificate=cert,
        epsilon=eps,
        proportions=tuple(t),
    )


def mixed_bound_reference(ensemble, rank_cap: int | None = None) -> float:
    """Reference max-root bound for trace-capped PSD ensembles.

    Without a rank cap: (1 + sqrt(eps))^2.  With all ranks at most k and
    0 < eps <= (k-1)^2/k: (sqrt(1 - eps/(k-1)) + sqrt(eps))^2.
    """
    ens, eps, _ = _trace_capped(ensemble, None)
    if rank_cap is None:
        return (1.0 + math.sqrt(eps)) ** 2
    k = int(rank_cap)
    hi = (k - 1) ** 2 / k if k >= 2 else 0.0
    if k < 2 or not 0.0 < eps <= hi + 1e-12:
        raise EpsilonOutOfRange(
            f"rank-capped bound needs k >= 2 and 0 < eps <= (k-1)^2/k; got k={k}, eps={eps:.6g}"
        )
    for i, H in enumerate(ens):
        w = eigenvalues(H)
        rank = int(np.sum(w > PSD_SLACK * (1.0 + float(np.max(np.abs(w))))))
        if rank > k:
            raise ValueError(f"matrix {i} has rank {rank} > cap {k}")
    return (math.sqrt(1.0 - eps / (k - 1)) + math.sqrt(eps)) ** 2
