"""Derandomized greedy descent over interlacing families.

Both descents walk an assignment tree level by level.  At each level the
conditional expected polynomial of every positive-probability branch is
evaluated; since the parent polynomial is their probability mixture and the
family is interlacing, some branch has max root at most the parent's.  The
argmin branch is taken (ties break to the smallest value, respectively the
lowest index) and the chain of max roots is recorded as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NotPSD, NotRealRooted, ValueNotInSupport
from .linalg import HermitianMatrix, MatrixEnsemble, as_hermitian, is_psd, weighted_sum
from .mixedchar import DerivativeSpec, SubsetTable, expected_product_poly, mixed_char_poly
# root_report is unused here but kept for perfbench's tracer, which hooks this namespace.
from .polynomials import RealPolynomial, maxroot_certified, root_report  # noqa: F401

MAXROOT_TOL = 1e-10
TIE_TOL = 1e-9
ROOTEDNESS_TOL = 1e-7


@dataclass(frozen=True)
class FiniteDistribution:
    """Finite-support real random variable (values distinct, probs sum to 1)."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be nonempty and match")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        if len(set(self.values)) != len(self.values):
            raise ValueError("support values must be distinct")

    @classmethod
    def make(cls, values, probs) -> "FiniteDistribution":
        return cls(tuple(float(v) for v in values), tuple(float(p) for p in probs))

    @classmethod
    def point_mass(cls, v: float) -> "FiniteDistribution":
        return cls.make([v], [1.0])

    @classmethod
    def fair_signs(cls) -> "FiniteDistribution":
        return cls.make([-1.0, 1.0], [0.5, 0.5])

    @classmethod
    def bernoulli(cls, t: float) -> "FiniteDistribution":
        if not 0.0 <= t <= 1.0:
            raise ValueError("bernoulli parameter must lie in [0, 1]")
        if t == 0.0:
            return cls.point_mass(0.0)
        if t == 1.0:
            return cls.point_mass(1.0)
        return cls.make([0.0, 1.0], [1.0 - t, t])

    def mean(self) -> float:
        return float(sum(p * v for v, p in zip(self.values, self.probs)))

    def second_moment(self) -> float:
        return float(sum(p * v * v for v, p in zip(self.values, self.probs)))

    def variance(self) -> float:
        m = self.mean()
        return max(self.second_moment() - m * m, 0.0)

    def support(self) -> tuple[float, ...]:
        """Values carrying positive probability, ascending."""
        return tuple(sorted(v for v, p in zip(self.values, self.probs) if p > 0))

    def shift(self, c: float) -> "FiniteDistribution":
        return FiniteDistribution.make([v + c for v in self.values], self.probs)

    def rescale(self, c: float) -> "FiniteDistribution":
        return FiniteDistribution.make([v * c for v in self.values], self.probs)


@dataclass(frozen=True)
class DescentCertificate:
    """Audit trail: chosen branch per level and the max-root chain.

    maxroots has one entry for the root polynomial followed by one per level;
    residuals[k] is the observed violation of maxroots[k+1] <= maxroots[k]
    (zero when the chain is monotone, as the theory guarantees).
    """

    assignment: tuple
    maxroots: tuple[float, ...]
    residuals: tuple[float, ...]

    def monotone_within(self, slack: float) -> bool:
        return all(r <= slack for r in self.residuals)


def conditional_spec_quadratic(
    dists: Sequence[FiniteDistribution], fixed: Mapping[int, float]
) -> DerivativeSpec:
    """Operator coefficients with a partial assignment substituted.

    Fixed index with value s: (-s, s, -s^2).  Free index: the moment version
    (-E, E, -E[xi^2]).
    """
    a, b, c = [], [], []
    for i, dist in enumerate(dists):
        if i in fixed:
            s = float(fixed[i])
            if s not in dist.support():
                raise ValueNotInSupport(f"value {s} not in support of index {i}")
            a.append(-s)
            b.append(s)
            c.append(-s * s)
        else:
            mu = dist.mean()
            a.append(-mu)
            b.append(mu)
            c.append(-dist.second_moment())
    return DerivativeSpec(tuple(a), tuple(b), tuple(c))


def _run_descent(
    num_levels: int,
    root_poly: Callable[[], RealPolynomial],
    candidates: Callable[[int], Sequence],
    branch_poly: Callable[[int, dict, object], RealPolynomial],
) -> DescentCertificate:
    """Shared greedy loop; candidates(k) must come pre-sorted in tie order.

    Every max root is certified; a polynomial that is not real-rooted
    aborts the descent with the root or branch it came from.
    """
    context = "root"
    fixed: dict = {}
    residuals = []
    try:
        maxroots = [maxroot_certified(root_poly(), MAXROOT_TOL, ROOTEDNESS_TOL)]
        for level in range(num_levels):
            best = None
            best_root = np.inf
            for cand in candidates(level):
                context = f"level {level}, branch {cand!r}"
                r = maxroot_certified(branch_poly(level, fixed, cand), MAXROOT_TOL, ROOTEDNESS_TOL)
                if r < best_root - TIE_TOL:
                    best, best_root = cand, r
            fixed[level] = best
            residuals.append(max(0.0, best_root - maxroots[-1]))
            maxroots.append(best_root)
    except NotRealRooted as exc:
        raise NotRealRooted(
            f"{context}: expected polynomial not real-rooted ({exc}); aborting descent"
        ) from exc
    return DescentCertificate(
        assignment=tuple(fixed.values()),
        maxroots=tuple(maxroots),
        residuals=tuple(residuals),
    )


def greedy_descent_quadratic(
    E: MatrixEnsemble,
    dists: Sequence[FiniteDistribution],
    table: SubsetTable | None = None,
) -> DescentCertificate:
    """Descend the product family mu[s A] * mu[-s A] over value assignments.

    The leaf reached satisfies maxroot f_(s_1..s_m) <= maxroot of the root
    expected polynomial, which by the norm transfer bound controls
    ||sum s_i A_i||.
    """
    if len(dists) != len(E):
        raise ValueError("one distribution per matrix required")
    for k, H in enumerate(E):
        if not is_psd(H):
            raise NotPSD(f"matrix {k} is not PSD")
    if table is None:
        table = SubsetTable.build(E)

    def poly_for(fixed: Mapping[int, float]) -> RealPolynomial:
        spec = conditional_spec_quadratic(dists, fixed)
        return expected_product_poly(E, spec, table)

    return _run_descent(
        num_levels=len(E),
        root_poly=lambda: poly_for({}),
        candidates=lambda k: dists[k].support(),
        branch_poly=lambda k, fixed, v: poly_for({**fixed, k: v}),
    )


@dataclass(frozen=True)
class MatrixDistribution:
    """Finite-support random PSD matrix (values with probabilities)."""

    values: tuple[HermitianMatrix, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be nonempty and match")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def make(cls, values, probs) -> "MatrixDistribution":
        return cls(tuple(as_hermitian(v) for v in values), tuple(map(float, probs)))

    @classmethod
    def deterministic(cls, value) -> "MatrixDistribution":
        return cls.make([value], [1.0])

    @property
    def dim(self) -> int:
        return self.values[0].dim

    def mean(self) -> HermitianMatrix:
        return weighted_sum(self.values, self.probs)

    def support_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)


def greedy_descent_linear(choices: Sequence[MatrixDistribution]) -> DescentCertificate:
    """Descend mu[X_1, ..., X_m] over finite-valued random PSD matrices.

    Undecided indices enter through their mean matrices (conditional
    expectation commutes with the polynomial in each argument).  The
    certificate assignment stores chosen value indices per level.
    """
    if not choices:
        raise ValueError("need at least one index")
    dim = choices[0].dim
    for k, ch in enumerate(choices):
        if ch.dim != dim:
            raise ValueError("all choices must share one dimension")
        for v in ch.values:
            if not is_psd(v):
                raise NotPSD(f"candidate value of index {k} is not PSD")
    means = [ch.mean() for ch in choices]
    ones = np.ones(len(choices))

    def poly_for(fixed: Mapping[int, int]) -> RealPolynomial:
        mats = [
            choices[i].values[fixed[i]] if i in fixed else means[i]
            for i in range(len(choices))
        ]
        ens = MatrixEnsemble(tuple(mats))
        return mixed_char_poly(ens, ones)

    return _run_descent(
        num_levels=len(choices),
        root_poly=lambda: poly_for({}),
        candidates=lambda k: choices[k].support_indices(),
        branch_poly=lambda k, fixed, idx: poly_for({**fixed, k: idx}),
    )
