"""Barrier functions of determinantal pencils and above-the-roots certificates.

For Q0(x, z) = det(xI + sum z_i A_i) with PSD coefficients, a point is above
the roots exactly when the pencil is positive definite there, and the
barrier in direction j is the resolvent trace tr(M^{-1} A_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadDelta, NotAboveRoots, NotPSD, QxNormalizationViolated
from .linalg import (
    PSD_SLACK,
    MatrixEnsemble,
    eigenvalues,
    ensemble as as_ensemble,
    is_psd,
    make_hermitian,
)

CERT_SLACK = 1e-9


@dataclass(frozen=True)
class BarrierPoint:
    """Evaluation point (x, z_1..z_m) for the pencil of a PSD ensemble."""

    ensemble: MatrixEnsemble
    x: float
    shifts: tuple[float, ...]

    @classmethod
    def make(cls, ensemble, x: float, shifts=None) -> "BarrierPoint":
        ens = as_ensemble(ensemble)
        for k, H in enumerate(ens):
            if not is_psd(H):
                raise NotPSD(f"barrier pencils require PSD matrices (index {k})")
        if shifts is None:
            shifts = (0.0,) * len(ens)
        shifts = tuple(float(s) for s in shifts)
        if len(shifts) != len(ens):
            raise ValueError("one shift per matrix required")
        return cls(ens, float(x), shifts)

    def pencil(self) -> np.ndarray:
        d = self.ensemble.dim
        M = self.x * np.eye(d, dtype=np.complex128)
        for s, H in zip(self.shifts, self.ensemble):
            M = M + s * H.entries
        return M

    def above_roots(self) -> bool:
        w = eigenvalues(make_hermitian(self.pencil(), tol=np.inf))
        return bool(w[0] > PSD_SLACK * (1.0 + abs(float(w[-1]))))


def barrier_value(pt: BarrierPoint, j: int) -> float:
    """Phi^j = d/dz_j log Q0 = tr(M^{-1} A_j); nonnegative for PSD ensembles."""
    if not 0 <= j < len(pt.ensemble):
        raise ValueError(f"index {j} out of range")
    if not pt.above_roots():
        raise NotAboveRoots("point is not above the roots of the pencil")
    M = pt.pencil()
    sol = np.linalg.solve(M, pt.ensemble[j].entries)
    return float(np.trace(sol).real)


@dataclass(frozen=True)
class BarrierShapeReport:
    grid: tuple[float, ...]
    values: tuple[float, ...]
    nonnegative: bool
    nonincreasing: bool
    convex: bool

    @property
    def passed(self) -> bool:
        return self.nonnegative and self.nonincreasing and self.convex


def barrier_shape_check(
    pt: BarrierPoint, j: int, grid: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
) -> BarrierShapeReport:
    """Sample t -> Phi^j(pt + t e_j) and check it is >= 0, decreasing, convex.

    Convexity on a (possibly non-uniform) grid is monotonicity of the
    divided-difference slopes, with CERT_SLACK of numerical headroom.
    """
    grid = tuple(sorted(float(t) for t in grid))
    if any(t < 0 for t in grid):
        raise ValueError("grid points must be nonnegative")
    vals = []
    for t in grid:
        shifts = list(pt.shifts)
        shifts[j] += t
        vals.append(barrier_value(BarrierPoint.make(pt.ensemble, pt.x, shifts), j))
    nonneg = all(v >= -CERT_SLACK for v in vals)
    noninc = all(vals[k + 1] <= vals[k] + CERT_SLACK for k in range(len(vals) - 1))
    slopes = [
        (vals[k + 1] - vals[k]) / (grid[k + 1] - grid[k]) for k in range(len(vals) - 1)
    ]
    convex = all(slopes[k + 1] >= slopes[k] - CERT_SLACK for k in range(len(slopes) - 1))
    return BarrierShapeReport(grid, tuple(vals), nonneg, noninc, convex)


def ag_condition(phi: float, c: float, delta: float) -> bool:
    """Shift admissibility c^2 (2 phi / delta + phi^2) <= 1 for (1 - c^2 d^2)."""
    if delta <= 0:
        raise BadDelta(f"delta must be positive, got {delta}")
    if c < 0 or phi < 0:
        raise ValueError("c and phi must be nonnegative")
    return c * c * (2.0 * phi / delta + phi * phi) <= 1.0


@dataclass(frozen=True)
class QxCertificate:
    """Corner certificate for the quadratic barrier at x = 4, shifts -2 tr(B_i)."""

    deltas: tuple[float, ...]
    corner_min_eig: float
    corner_above_roots: bool
    phis: tuple[float, ...]
    phi_bounds_hold: bool
    shift_conditions_hold: bool

    @property
    def passed(self) -> bool:
        return self.corner_above_roots and self.phi_bounds_hold and self.shift_conditions_hold


def qx_certificate(ensemble) -> QxCertificate:
    """Verify the alpha = 4 corner for ensembles with max tr(B_i) <= 1 and
    sum tr(B_i) B_i <= I.

    Checks (a) 4I - sum delta_i B_i >= 2I at delta_i = 2 tr(B_i); (b) every
    barrier value of the identified product pencil at the corner is at most
    tr(B_j); (c) the iterated shift condition Phi/delta_j + Phi^2/2 <= 1.
    """
    ens = as_ensemble(ensemble)
    d = ens.dim
    traces = ens.traces()
    weighted = np.zeros((d, d), dtype=np.complex128)
    for tr, H in zip(traces, ens):
        if not is_psd(H):
            raise NotPSD("ensemble must be PSD")
        weighted = weighted + tr * H.entries
    wmax = eigenvalues(make_hermitian(weighted, tol=np.inf))[-1]
    if float(np.max(traces)) > 1.0 + PSD_SLACK or wmax > 1.0 + PSD_SLACK:
        raise QxNormalizationViolated(
            f"needs max trace <= 1 and ||sum tr(B)B|| <= 1; got {float(np.max(traces)):.6g}, {wmax:.6g}"
        )
    deltas = tuple(2.0 * float(tr) for tr in traces)
    corner = 4.0 * np.eye(d) - sum(
        (dl * H.entries for dl, H in zip(deltas, ens)),
        np.zeros((d, d), dtype=np.complex128),
    )
    wmin = float(eigenvalues(make_hermitian(corner, tol=np.inf))[0])
    above = wmin >= 2.0 - CERT_SLACK
    # The corner pencil of the identified product is the same in both factors,
    # so each barrier value doubles a single resolvent trace.
    phis = []
    for j in range(len(ens)):
        sol = np.linalg.solve(corner, ens[j].entries)
        phis.append(2.0 * float(np.trace(sol).real))
    phi_ok = all(phi <= float(tr) + CERT_SLACK for phi, tr in zip(phis, traces))
    shift_ok = all(
        (phi / dl if dl > 0 else 0.0) + 0.5 * phi * phi <= 1.0 + CERT_SLACK
        for phi, dl in zip(phis, deltas)
    )
    return QxCertificate(
        deltas=deltas,
        corner_min_eig=wmin,
        corner_above_roots=above,
        phis=tuple(phis),
        phi_bounds_hold=phi_ok,
        shift_conditions_hold=shift_ok,
    )
