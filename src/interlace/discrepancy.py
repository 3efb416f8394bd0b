"""End-to-end discrepancy solvers for PSD and hermitian ensembles.

Given jointly independent finite-support variables xi_i and PSD matrices
A_i, the solver descends the centered product interlacing family of
(xi_i - E xi_i) / sigma on the given values, and returns an outcome with

    || sum_i (s_i - E[xi_i]) A_i ||  <=  4 sigma,

where sigma^2 = max(max_i var(xi_i) tr(A_i)^2, ||sum_i var(xi_i) tr(A_i) A_i||).
Hermitian inputs descend the PSD lift diag((B_i)+, (B_i)-) at the cost of a
factor 2 in the bound; its sigma and table come from the d x d parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .descent import DescentCertificate, FiniteDistribution, greedy_descent_quadratic, variance_of
from .errors import NotPSD, NumericalFailure
from .linalg import (
    MatrixEnsemble,
    ensemble as as_ensemble,
    exact_hermitian,
    is_psd,
    operator_norm,
    positive_negative_parts,
    weighted_sum,
)
from .mixedchar import SubsetTable
from .polynomials import MaxRoot


@dataclass(frozen=True)
class DiscrepancyInstance:
    """PSD ensemble paired with one finite distribution per matrix."""

    ensemble: MatrixEnsemble
    dists: tuple[FiniteDistribution, ...]

    def __post_init__(self) -> None:
        if len(self.dists) != len(self.ensemble):
            raise ValueError("one distribution per matrix required")
        for k, H in enumerate(self.ensemble):
            if not is_psd(H):
                raise NotPSD(f"matrix {k} is not PSD")

    @classmethod
    def make(cls, matrices, dists) -> "DiscrepancyInstance":
        return cls(as_ensemble(matrices), tuple(dists))


@dataclass(frozen=True)
class DiscrepancyResult:
    """Outcome values, the recomputed norm, and the certificate chain.

    ``achieved`` is always recomputed from the outcome by a direct
    eigensolve; ``bound`` is 4 sigma (8 sigma on the hermitian path).
    """

    outcome: tuple[float, ...]
    achieved: float
    sigma: float
    bound: float
    certificate: DescentCertificate


def sigma_bound(inst: DiscrepancyInstance) -> float:
    """sigma = sqrt(max(max_i var tr(A_i)^2, ||sum var tr(A_i) A_i||))."""
    return _sigma([inst.ensemble], [dist.variance() for dist in inst.dists])


def _sigma(parts: Sequence[Sequence], variances: Sequence[float]) -> float:
    """sigma of diag(parts[0][i], parts[1][i], ...): traces add, the norm is the largest block's.

    A term that is not finite (an overflow, or a NaN norm of a sum whose
    parts overflowed) raises NumericalFailure naming it."""
    tr = [sum(H.trace() for H in blocks) for blocks in zip(*parts)]
    weights = [v * t for v, t in zip(variances, tr)]
    terms = {
        "max_i var tr(A_i)^2": [v * t * t for v, t in zip(variances, tr)],
        "||sum var tr(A_i) A_i||": [operator_norm(weighted_sum(part, weights)) for part in parts],
    }
    for name, values in terms.items():
        if not all(map(math.isfinite, values)):
            raise NumericalFailure(f"sigma^2 term {name} is not finite")
    return float(np.sqrt(max(map(max, terms.values()))))


def two_point_reduction(dist: FiniteDistribution) -> FiniteDistribution:
    """Shift probability mass to the support values bracketing the mean.

    Preserves the mean, never increases the variance, and keeps values in
    the original positive-probability support.  Values are bracketed by the
    sign of their ``deviations()`` d_v; a support value with |d_v| <= 1e-12
    max |d_v| collapses the variable to the point mass there.
    """
    return _reduce(dist, dist.deviations())


def _reduce(dist: FiniteDistribution, dev: Mapping[float, float]) -> FiniteDistribution:
    """``two_point_reduction`` reading dev, the variable's ``deviations()``."""
    support = dist.support()
    if len(support) <= 2:
        if len(support) == len(dist.values):
            return dist
        keep = [(v, p) for v, p in zip(dist.values, dist.probs) if p > 0]
        return FiniteDistribution.make([v for v, _ in keep], [p for _, p in keep])
    spread = max(abs(dev[v]) for v in support)
    for v in support:
        if abs(dev[v]) <= 1e-12 * spread:
            return FiniteDistribution.point_mass(v)
    lower = max(v for v in support if dev[v] < 0.0)
    upper = min(v for v in support if dev[v] > 0.0)
    p_low = dev[upper] / (dev[upper] - dev[lower])
    return FiniteDistribution.make([lower, upper], [p_low, 1.0 - p_low])


def _degenerate_outcome(
    dists: Sequence[FiniteDistribution], devs: Sequence[Mapping[float, float]]
) -> tuple[float, ...]:
    return tuple(min(dist.support(), key=lambda v: (abs(dev[v]), v)) for dist, dev in zip(dists, devs))


def _recompute_achieved(
    matrices: Sequence, dists: Sequence[FiniteDistribution], outcome: Sequence[float]
) -> float:
    return operator_norm(weighted_sum(matrices, [s - dist.mean() for dist, s in zip(dists, outcome)]))


def _solve(
    matrices: Sequence, given: Sequence, parts: Sequence, reduce: bool, absolute: Sequence | None = None
) -> DiscrepancyResult:
    """The 4-sigma descent of the PSD family diag(parts[0][i], parts[1][i], ...),
    its outcome's norm taken on ``matrices`` and the given variables.

    With ``absolute``, the |B_i| of the hermitian path, the reported sigma is
    the given variables' on it, taken first, and the bound 8 sigma.  Each
    variable's ``deviations()`` is computed once per solve, and every
    variance, the reduction, the descent and a degenerate outcome read it.
    """
    given_devs = [dist.deviations() for dist in given]
    if absolute is not None:
        reported = _sigma([absolute], [variance_of(g, dev) for g, dev in zip(given, given_devs)])
    if reduce:
        dists = [_reduce(g, dev) for g, dev in zip(given, given_devs)]
        devs = [dev if d is g else d.deviations() for d, g, dev in zip(dists, given, given_devs)]
    else:
        dists, devs = list(given), given_devs
    variances = [variance_of(d, dev) for d, dev in zip(dists, devs)]
    sigma = _sigma(parts, variances)
    if sigma == 0.0:
        traces = [sum(H.trace() for H in blocks) for blocks in zip(*parts)]
        if any(len(dist.support()) > 1 and t != 0.0 for dist, t in zip(dists, traces)):
            raise NumericalFailure("sigma^2 underflows to 0 on a variable with two or more support values")
        outcome = _degenerate_outcome(dists, devs)
        cert = DescentCertificate(outcome, (MaxRoot(0.0, 0.0),) * (len(dists) + 1), (np.inf,) * len(dists))
    else:
        cert = greedy_descent_quadratic(SubsetTable.build(*parts), dists, sigma, devs)
    achieved = _recompute_achieved(matrices, given, cert.assignment)
    if absolute is not None:
        return DiscrepancyResult(cert.assignment, achieved, reported, 8.0 * reported, cert)
    return DiscrepancyResult(cert.assignment, achieved, sigma, 4.0 * sigma, cert)


def solve_kls(inst: DiscrepancyInstance, reduce: bool = True) -> DiscrepancyResult:
    """Constructive 4-sigma discrepancy for PSD ensembles.

    Optionally reduces every variable to two points and descends on the
    given values the family of t / sigma, on the scale of ``TIE_TOL``: the
    table is scaled by sigma^(-|S|) inside ``ProductLevels``, in one step
    with its power-of-two units.  With sigma = 0 the instance is
    deterministic (or supported on zero matrices) and the answer is
    immediate with achieved = 0; a sigma^2 that underflows to 0 on a
    varying variable raises NumericalFailure.
    """
    return _solve(inst.ensemble.matrices, inst.dists, [inst.ensemble], reduce)


def solve_hermitian(matrices, dists: Sequence[FiniteDistribution], reduce: bool = True) -> DiscrepancyResult:
    """8-sigma discrepancy for hermitian (not necessarily PSD) matrices.

    sigma is computed with |B_i| in place of A_i; the descent runs on the
    block-diagonal lift diag((B_i)+, (B_i)-), whose table is built from the
    d x d parts, and the outcome is evaluated on the original matrices.  Both
    parts, PSD by construction, and |B_i| come from one spectral split of B_i;
    the sum |B_i| = (B_i)+ + (B_i)- is exactly hermitian and kept as it is.
    """
    mats = as_ensemble(matrices)
    dists = tuple(dists)
    if len(dists) != len(mats):
        raise ValueError("one distribution per matrix required")
    pos, neg = zip(*(positive_negative_parts(B) for B in mats))
    absolute = [exact_hermitian(P.entries + N.entries) for P, N in zip(pos, neg)]
    return _solve(mats, dists, [pos, neg], reduce, absolute)
