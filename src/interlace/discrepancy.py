"""End-to-end discrepancy solvers for PSD and hermitian ensembles.

Given jointly independent finite-support variables xi_i and PSD matrices
A_i, the solver descends the centered product interlacing family of
(xi_i - E xi_i) / sigma on the given values, and returns an outcome with

    || sum_i (s_i - E[xi_i]) A_i ||  <=  4 sigma,

where sigma^2 = max(max_i var(xi_i) tr(A_i)^2, ||sum_i var(xi_i) tr(A_i) A_i||).
Hermitian inputs go through a block-diagonal PSD lift of their positive and
negative parts at the cost of a factor 2 in the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .descent import DescentCertificate, FiniteDistribution, greedy_descent_quadratic
from .errors import NotPSD, NumericalFailure
from .linalg import (
    MatrixEnsemble,
    ensemble as as_ensemble,
    is_psd,
    make_hermitian,
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
    return _sigma(inst.ensemble, inst.dists)


def _sigma(matrices: Sequence, dists: Sequence[FiniteDistribution]) -> float:
    var = [dist.variance() for dist in dists]
    tr = [H.trace() for H in matrices]
    term1 = max(v * t * t for v, t in zip(var, tr))
    term2 = operator_norm(weighted_sum(matrices, [v * t for v, t in zip(var, tr)]))
    return float(np.sqrt(max(term1, term2)))


def two_point_reduction(dist: FiniteDistribution) -> FiniteDistribution:
    """Shift probability mass to the support values bracketing the mean.

    Preserves the mean, never increases the variance, and keeps values in
    the original positive-probability support.  Values are bracketed by the
    sign of their ``deviations()`` d_v; a support value with |d_v| <= 1e-12
    max |d_v| collapses the variable to the point mass there.
    """
    support = dist.support()
    if len(support) <= 2:
        if len(support) == len(dist.values):
            return dist
        keep = [(v, p) for v, p in zip(dist.values, dist.probs) if p > 0]
        return FiniteDistribution.make([v for v, _ in keep], [p for _, p in keep])
    dev = dist.deviations()
    spread = max(abs(dev[v]) for v in support)
    for v in support:
        if abs(dev[v]) <= 1e-12 * spread:
            return FiniteDistribution.point_mass(v)
    lower = max(v for v in support if dev[v] < 0.0)
    upper = min(v for v in support if dev[v] > 0.0)
    p_low = dev[upper] / (dev[upper] - dev[lower])
    return FiniteDistribution.make([lower, upper], [p_low, 1.0 - p_low])


def _degenerate_outcome(dists: Sequence[FiniteDistribution]) -> tuple[float, ...]:
    devs = [dist.deviations() for dist in dists]
    return tuple(min(dist.support(), key=lambda v: (abs(dev[v]), v)) for dist, dev in zip(dists, devs))


def _recompute_achieved(
    matrices: Sequence, dists: Sequence[FiniteDistribution], outcome: Sequence[float]
) -> float:
    return operator_norm(weighted_sum(matrices, [s - dist.mean() for dist, s in zip(dists, outcome)]))


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
    dists = tuple(two_point_reduction(d) for d in inst.dists) if reduce else inst.dists
    sigma = _sigma(inst.ensemble, dists)
    m = len(inst.ensemble)
    if sigma == 0.0:
        if any(len(dist.support()) > 1 and H.trace() != 0.0 for dist, H in zip(dists, inst.ensemble)):
            raise NumericalFailure("sigma^2 underflows to 0 on a variable with two or more support values")
        outcome = _degenerate_outcome(dists)
        achieved = _recompute_achieved(inst.ensemble.matrices, inst.dists, outcome)
        cert = DescentCertificate(outcome, (MaxRoot(0.0, 0.0),) * (m + 1), (np.inf,) * m)
        return DiscrepancyResult(outcome, achieved, 0.0, 0.0, cert)
    cert = greedy_descent_quadratic(SubsetTable.build(inst.ensemble), dists, sigma)
    achieved = _recompute_achieved(inst.ensemble.matrices, inst.dists, cert.assignment)
    return DiscrepancyResult(cert.assignment, achieved, sigma, 4.0 * sigma, cert)


def solve_hermitian(
    matrices, dists: Sequence[FiniteDistribution], reduce: bool = True
) -> DiscrepancyResult:
    """8-sigma discrepancy for hermitian (not necessarily PSD) matrices.

    sigma is computed with |B_i| in place of A_i; the solver runs on the
    2d x 2d block-diagonal lift diag((B_i)+, (B_i)-) and the outcome is
    evaluated on the original matrices.  Both |B_i| = (B_i)+ + (B_i)- and
    the lift come from one spectral split of B_i.
    """
    mats = as_ensemble(matrices)
    dists = tuple(dists)
    if len(dists) != len(mats):
        raise ValueError("one distribution per matrix required")
    d = mats.dim
    absolute = []
    lifted = []
    for B in mats:
        pos, neg = positive_negative_parts(B)
        absolute.append(make_hermitian(pos.entries + neg.entries, tol=np.inf))
        block = np.zeros((2 * d, 2 * d), dtype=np.complex128)
        block[:d, :d] = pos.entries
        block[d:, d:] = neg.entries
        lifted.append(make_hermitian(block, tol=np.inf))
    sigma = _sigma(absolute, dists)
    inner = solve_kls(DiscrepancyInstance.make(lifted, dists), reduce=reduce)
    achieved = _recompute_achieved(mats, dists, inner.outcome)
    return DiscrepancyResult(inner.outcome, achieved, sigma, 8.0 * sigma, inner.certificate)
