"""Subset selection and spectrally balanced partitioning of PSD ensembles.

``lyapunov_select`` rounds fractional weights t_i in [0,1] to a subset I_0
with ||sum_{I_0} T_i - sum t_i T_i|| <= 2 sqrt(eps) whenever the T_i are PSD
with sum at most the identity and traces at most eps.

``ks_r_partition`` splits such an ensemble into r blocks whose sums stay
below t_k (sum A + (2 sqrt(r eps) + r eps) I) in the PSD order, hence with
norms at most t_k (1 + sqrt(r eps))^2.  The construction lifts each matrix
to an r-block diagonal slot choice, completes the identity with rank-one
pieces, and runs the linear greedy descent.  All polynomial work stays at
block scale: the lifted determinant factors over blocks, each factor only
rescales entries of one shared subset-derivative table, and the factors are
combined by a ranked subset convolution.
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
    PSD_SLACK,
    MatrixEnsemble,
    eigenvalues,
    ensemble as as_ensemble,
    ensemble_stats,
    make_hermitian,
    operator_norm,
    rank_one_completion,
    weighted_sum,
)
from .mixedchar import (
    MAX_INDICES,
    SubsetTable,
    _graded_poly,
    _ranked_mobius_collapse,
    popcounts,
    subset_products,
)
from .polynomials import RealPolynomial

MAX_LIFTED_DIM = 48
# Slack on every inequality re-checked on a returned result.
RESULT_SLACK = 1e-7


def _trace_capped(ensemble, epsilon: float | None) -> tuple[MatrixEnsemble, float]:
    """The PSD ensemble with sum at most I, and its trace cap.

    The cap is the maximum trace unless ``epsilon`` declares a larger one.
    """
    ens = as_ensemble(ensemble)
    stats = ensemble_stats(ens)
    if not stats.all_psd:
        raise NotPSD("ensemble must be PSD")
    if not stats.sum_leq_identity:
        raise SumExceedsIdentity(f"||sum|| = {stats.sum_norm:.6g} exceeds 1")
    eps = stats.epsilon if epsilon is None else float(epsilon)
    if not stats.epsilon - 1e-12 <= eps < math.inf:  # also rejects a NaN cap
        raise ValidationError(
            f"declared trace cap {eps:.6g} must be finite and at least the actual maximum"
            f" trace {stats.epsilon:.6g}"
        )
    return ens, eps


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
        ens, eps = _trace_capped(ens, epsilon)
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
    achieved = operator_norm(
        weighted_sum(inst.ensemble, [float(i in chosen) - t for i, t in enumerate(inst.weights)])
    )
    return SelectionResult(chosen, achieved, 2.0 * math.sqrt(inst.epsilon), res)


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
    """r disjoint blocks covering [m], with per-block norms and certificates."""

    blocks: tuple[tuple[int, ...], ...]
    block_norms: tuple[float, ...]
    bounds: tuple[float, ...]
    upper_cert: tuple[bool, ...]
    certificate: DescentCertificate
    epsilon: float
    proportions: tuple[float, ...]


# ---------------------------------------------------------------------------
# Ranked subset convolution over scalar tables.
# ---------------------------------------------------------------------------


def _ranked_zeta(table: np.ndarray, n: int, pc: np.ndarray) -> np.ndarray:
    R = np.zeros((n + 1, 1 << n))
    R[pc, np.arange(1 << n)] = table
    for b in range(n):
        view = R.reshape(n + 1, 1 << (n - b - 1), 2, 1 << b)
        view[:, :, 1, :] += view[:, :, 0, :]
    return R


def _rank_product(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    H = np.zeros_like(A)
    for j in range(n + 1):
        H[j] = np.einsum("is,is->s", A[: j + 1], B[j::-1])
    return H


def subset_convolve(tables: Sequence[np.ndarray], n: int) -> np.ndarray:
    """h(S) = sum over ordered disjoint decompositions S_1 | ... | S_r = S
    of prod_k tables[k][S_k]."""
    pc = popcounts(n)
    acc = _ranked_zeta(np.asarray(tables[0], dtype=np.float64), n, pc)
    for t in tables[1:]:
        acc = _rank_product(acc, _ranked_zeta(np.asarray(t, dtype=np.float64), n, pc), n)
    return _ranked_mobius_collapse(acc, n, pc)


class _BlockLiftedProblem:
    """Linear-descent evaluator for slot-choice ensembles, at block scale.

    Index i < m picks a slot k and contributes t_k^{-1} A_i to block k only;
    the remaining indices are deterministic and contribute B_j to every
    block.  The mixed characteristic polynomial of the lifted dr x dr
    ensemble is assembled from one d x d subset table: factor k sees matrix
    i rescaled by a per-index weight (t_k^{-1}, 1, or 0), the tables are
    combined by subset convolution, and the x power depends only on |S|.
    """

    def __init__(self, A: Sequence, B: Sequence, proportions: Sequence[float]):
        self.m = len(A)
        self.mp = len(B)
        self.n = self.m + self.mp
        self.r = len(proportions)
        self.t = [float(x) for x in proportions]
        mats = list(A) + list(B)
        self.d = mats[0].dim
        if self.d * self.r > MAX_LIFTED_DIM:
            raise SizeGuard(f"lifted dimension {self.d * self.r} exceeds {MAX_LIFTED_DIM}")
        if self.n > MAX_INDICES:
            raise SizeGuard(
                f"{self.n} indices after completion exceed the guard {MAX_INDICES}"
            )
        self.table = SubsetTable.build(mats)
        self.pc = self.table.sizes
        self.signed = np.where(self.pc % 2 == 1, -self.table.coeffs, self.table.coeffs)

    def conditional_poly(self, fixed: dict[int, int]) -> RealPolynomial:
        """mu with fixed indices in their slots and free indices at their means."""
        tables = []
        for k in range(self.r):
            w = np.ones(self.n)
            for i, slot in fixed.items():
                w[i] = 1.0 / self.t[k] if slot == k else 0.0
            tables.append(self.signed * subset_products(w))
        return _graded_poly(self.pc, subset_convolve(tables, self.n), self.r * self.d)


def ks_r_partition(
    ensemble, proportions: Sequence[float], epsilon: float | None = None
) -> PartitionResult:
    """Partition a trace-capped PSD ensemble into r spectrally balanced blocks.

    Verifies, per block k, the PSD certificate
    sum_{I_k} A_i <= t_k (sum A + (2 sqrt(r eps) + r eps) I) and the norm
    bound ||sum_{I_k} A_i|| <= t_k (1 + sqrt(r eps))^2.
    """
    t = [float(x) for x in proportions]
    if not t or any(x <= 0 for x in t) or abs(sum(t) - 1.0) > 1e-12:
        raise BadProportions("proportions must be positive and sum to 1")
    ens, eps = _trace_capped(ensemble, epsilon)
    r = len(t)
    m = len(ens)
    d = ens.dim
    total = ens.sum()
    completion = rank_one_completion(total, eps)
    recon = total.entries + sum((B.entries for B in completion), np.zeros((d, d), dtype=np.complex128))
    if float(np.linalg.norm(recon - np.eye(d))) > 1e-8 * d:
        raise ValidationError("completion failed to reconstruct the identity")
    problem = _BlockLiftedProblem(list(ens.matrices), completion, t)

    cert = _run_descent(
        num_levels=m,
        root_poly=lambda: problem.conditional_poly({}),
        candidates=lambda k: range(r),
        branch_poly=lambda k, fixed, slot: problem.conditional_poly({**fixed, k: slot}),
    )
    blocks = tuple(
        tuple(i for i in range(m) if cert.assignment[i] == k) for k in range(r)
    )
    spread = 2.0 * math.sqrt(r * eps) + r * eps
    norms = []
    bounds = []
    upper = []
    for k in range(r):
        block_sum = weighted_sum(ens, [float(i in blocks[k]) for i in range(m)])
        norms.append(operator_norm(block_sum))
        bounds.append(t[k] * (1.0 + math.sqrt(r * eps)) ** 2)
        gap = t[k] * (total.entries + spread * np.eye(d)) - block_sum.entries
        upper.append(bool(eigenvalues(make_hermitian(gap, tol=np.inf))[0] >= -RESULT_SLACK))
    return PartitionResult(
        blocks=blocks,
        block_norms=tuple(norms),
        bounds=tuple(bounds),
        upper_cert=tuple(upper),
        certificate=cert,
        epsilon=eps,
        proportions=tuple(t),
    )


def partition_two_sided_deviations(ens: MatrixEnsemble, result: PartitionResult) -> tuple[float, ...]:
    """Per block: ||sum_{I_k} A - t_k sum A|| (bounded by 2 sqrt(r eps) + r eps)."""
    total = ens.sum().entries
    out = []
    for k, block in enumerate(result.blocks):
        s = weighted_sum(ens, [float(i in block) for i in range(len(ens))]).entries
        out.append(operator_norm(make_hermitian(s - result.proportions[k] * total, tol=np.inf)))
    return tuple(out)


def mixed_bound_reference(ensemble, rank_cap: int | None = None) -> float:
    """Reference max-root bound for trace-capped PSD ensembles.

    Without a rank cap: (1 + sqrt(eps))^2.  With all ranks at most k and
    0 < eps <= (k-1)^2/k: (sqrt(1 - eps/(k-1)) + sqrt(eps))^2.
    """
    ens, eps = _trace_capped(ensemble, None)
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
