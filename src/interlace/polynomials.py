"""Univariate real polynomials, real-rootedness testing, certified max roots.

Coefficients are stored in ascending degree order. Roots come from the
companion matrix with one Newton polish step. The max root is then
certified as an enclosure [lo, hi]: at hi every derivative is provably
positive and at lo some derivative is provably negative, decided by one
stacked evaluation of the derivative chain per pass with a rigorous bound
on its rounding error. Using the whole chain keeps the test sound at
multiple roots, where the highest vanishing derivative has a simple zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotMonic, NotRealRooted, NumericalFailure

DEFAULT_ROOT_TOL = 1e-9
# Enclosure width at which maxroot_certified stops tightening.
MAXROOT_TOL = 1e-10
# Enclosure seeds: the companion root offset by (1 + |r|) times these
# (1e-13 up to 7.0).
_SEED_OFFSETS = 1e-13 * 4.0 ** np.arange(24)
# Interior points evaluated per tightening pass.
_PASS_POINTS = 16
# Relative coefficient distance at which a polynomial with a noisy complex
# root cluster is accepted as real-rooted (see root_report).
REALITY_RESCUE_TOL = 1e-8
# Relative imaginary part that root_report treats as macroscopic: such a
# root is never rescued as part of a noisy real cluster.
MACROSCOPIC_IMAG = 1e-3


@dataclass(frozen=True)
class RealPolynomial:
    """Real-coefficient polynomial; () is the zero polynomial (degree -1)."""

    coeffs: tuple[float, ...]

    @classmethod
    def from_coeffs(cls, seq) -> "RealPolynomial":
        c = [float(x) for x in seq]
        while c and c[-1] == 0.0:
            c.pop()
        return cls(tuple(c))

    @classmethod
    def monomial(cls, k: int, coeff: float = 1.0) -> "RealPolynomial":
        return cls.from_coeffs([0.0] * k + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> float:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        if self.is_zero:
            return False
        scale = max(1.0, max(abs(c) for c in self.coeffs))
        return abs(self.leading() - 1.0) <= 1e-9 * scale

    def __add__(self, other: "RealPolynomial") -> "RealPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] += c
        return RealPolynomial.from_coeffs(a)

    def __sub__(self, other: "RealPolynomial") -> "RealPolynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "RealPolynomial") -> "RealPolynomial":
        if self.is_zero or other.is_zero:
            return RealPolynomial(())
        return RealPolynomial.from_coeffs(np.convolve(self.coeffs, other.coeffs))

    def scale(self, t: float) -> "RealPolynomial":
        return RealPolynomial.from_coeffs([t * c for c in self.coeffs])

    def derivative(self) -> "RealPolynomial":
        if self.degree < 1:
            return RealPolynomial(())
        return RealPolynomial.from_coeffs(
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    def reflect(self) -> "RealPolynomial":
        """(-1)^d p(-x); negates every root, exactly on coefficients."""
        d = self.degree
        if d < 0:
            return self
        return RealPolynomial(
            tuple(c if (d - k) % 2 == 0 else -c for k, c in enumerate(self.coeffs))
        )


def root_scaling(p: RealPolynomial, t: float) -> RealPolynomial:
    """t^d p(x / t): multiplies every root of a monic p by a finite t > 0."""
    if not 0.0 < t < math.inf:  # also rejects a NaN t
        raise ValueError(f"t must be finite and positive; got {t}")
    if not p.is_monic():
        raise NotMonic("root scaling is defined for monic polynomials")
    d = p.degree
    return RealPolynomial.from_coeffs(
        [c * t ** (d - k) for k, c in enumerate(p.coeffs)]
    )


@dataclass(frozen=True)
class RootReport:
    """Roots of a polynomial and the residual behind the realness decision."""

    maxroot: float
    minroot: float
    real_rooted: bool
    max_imag_residual: float
    roots: tuple[complex, ...] = ()


def _newton_polish(desc: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """One Newton step per root, all roots in one polyval pass.

    A root keeps its companion value where p' is negligible against p or
    the step would exceed 1 + |root|.
    """
    p = np.polyval(desc, raw)
    dp = np.polyval(np.polyder(desc), raw)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = p / dp
    keep = (np.abs(dp) <= 1e-300) | (np.abs(dp) * 1e12 < np.abs(p)) | (np.abs(step) > 1.0 + np.abs(raw))
    return np.where(keep, raw, raw - step)


def root_report(p: RealPolynomial, tol: float = DEFAULT_ROOT_TOL) -> RootReport:
    """All roots via the companion matrix, one Newton step each.

    Real-rootedness holds when every |Im root| <= tol * (1 + max |root|).
    A polynomial whose complex parts come from a perturbed multiple root is
    still accepted when projecting the roots onto the real axis reproduces
    the coefficients to REALITY_RESCUE_TOL relative error.
    """
    if p.degree < 1:
        raise ValueError("root_report requires degree >= 1")
    asc = list(p.coeffs)
    nzeros = 0
    while asc and asc[0] == 0.0:
        asc.pop(0)
        nzeros += 1
    roots = [0.0 + 0.0j] * nzeros
    if len(asc) > 1:
        desc = np.array(asc[::-1], dtype=np.float64)
        try:
            raw = np.roots(desc)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"companion eigensolver failed: {exc}") from exc
        roots.extend(_newton_polish(desc, raw))
    roots_arr = np.array(roots, dtype=np.complex128)
    max_mod = float(np.max(np.abs(roots_arr)))
    max_imag = float(np.max(np.abs(roots_arr.imag)))
    residual = max_imag
    real_rooted = max_imag <= tol * (1.0 + max_mod)
    if not real_rooted and max_imag <= MACROSCOPIC_IMAG * (1.0 + max_mod):
        # Noisy multiple roots spread into conjugate pairs (spread grows as
        # backward_error^(1/multiplicity)); accept when the real projection
        # reproduces the input coefficients essentially as well as the
        # computed roots themselves do (the round-trip baseline, which is
        # also conditioning-limited at such clusters).  Macroscopic
        # imaginary parts never reach this branch.
        given = np.array(p.coeffs[::-1], dtype=np.float64)
        scale = max(1.0, float(np.max(np.abs(given))))
        projected = np.poly(roots_arr.real) * p.leading()
        rel = float(np.max(np.abs(projected - given))) / scale
        baseline = float(np.max(np.abs(np.poly(roots_arr) * p.leading() - given))) / scale
        if rel <= max(REALITY_RESCUE_TOL, 4.0 * baseline) and baseline <= 1e-4:
            real_rooted = True
            residual = rel
            roots_arr = roots_arr.real.astype(np.complex128)
    re = np.sort(roots_arr.real)
    return RootReport(
        maxroot=float(re[-1]),
        minroot=float(re[0]),
        real_rooted=real_rooted,
        max_imag_residual=residual,
        roots=tuple(roots_arr.tolist()),
    )


def cauchy_bound(p: RealPolynomial) -> float:
    lead = abs(p.leading())
    return 1.0 + max(abs(c) for c in p.coeffs[:-1]) / lead if p.degree >= 1 else 1.0


class MaxRoot(NamedTuple):
    """Certified enclosure lo < max root < hi."""

    lo: float
    hi: float


@functools.lru_cache(maxsize=None)
def _taylor_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather index, binomial weights and error factor of the degree-n chain.

    Row j holds p^(j)(x) / j! = sum_i C(i + j, j) c_(i+j) x^i for j < n; the
    binomials are exact in float64 up to degree 56.  Its error factor is
    4 * (n + 1 - j) * eps for its n + 1 - j terms (see _classify).
    """
    j = np.arange(n)[:, None]
    idx = np.minimum(j + np.arange(n + 1)[None, :], n + 1)
    weights = np.array(
        [[math.comb(k, jj) if k <= n else 0 for k in row] for jj, row in enumerate(idx)],
        dtype=np.float64,
    )
    factor = 4.0 * (n + 1 - np.arange(n)) * np.finfo(np.float64).eps
    for shared in (idx, weights, factor):  # cached: every caller gets these arrays
        shared.flags.writeable = False
    return idx, weights, factor


def _classify(chain: np.ndarray, factor: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point: every row provably positive, and some row provably negative.

    The chain is evaluated as one power matrix times the stacked rows.  A
    row of m terms accumulates at most 2m - 1 unit roundoffs of
    sum_i |row_i| |x|^i: the rounded coefficient, the power (m - 2
    products), the product and the sum in any order.  The bound charges
    factor = 8m unit roundoffs, enough to spare for rounding in the bound
    itself.
    """
    powers = np.vander(xs, chain.shape[1], increasing=True)
    values = powers @ chain.T
    bounds = (np.abs(powers) @ np.abs(chain).T) * factor
    return (values > bounds).all(axis=1), (values < -bounds).any(axis=1)


def maxroot_certified(p: RealPolynomial, rootedness_tol: float = DEFAULT_ROOT_TOL) -> MaxRoot:
    """Enclosure of the largest root, seeded from the companion root.

    With a positive leading coefficient, every derivative is positive above
    the max root, so ``hi`` (all of them provably positive) lies above every
    root; and since the derivatives' roots interlace, a provably negative
    derivative puts ``lo`` below the max root.  Both ends start at the
    Newton-polished companion root r, offset by (1 + |r|) 1e-13 4^k for all k
    at once, with the Cauchy bound as the last resort; passes of evenly
    spaced interior points then tighten [lo, hi] until it is MAXROOT_TOL wide
    or a pass no longer shrinks it.
    """
    report = root_report(p, rootedness_tol)
    if not report.real_rooted:
        raise NotRealRooted(
            f"residual {report.max_imag_residual:.3e} exceeds tolerance"
        )
    n = p.degree
    idx, weights, factor = _taylor_layout(n)
    sign = 1.0 if p.leading() > 0 else -1.0  # same roots, positive tail
    coeffs = np.append(np.array(p.coeffs, dtype=np.float64) * sign, 0.0)
    chain = coeffs[idx] * weights
    r = report.maxroot
    offsets = (1.0 + abs(r)) * _SEED_OFFSETS
    far = cauchy_bound(p) + 1.0
    xs = np.concatenate(([-far], r - offsets[::-1], r + offsets, [far]))
    lo, hi = -np.inf, np.inf
    while True:
        above, below = _classify(chain, factor, xs)
        new_lo = max(lo, xs[below].max(initial=-np.inf))
        new_hi = min(hi, xs[above].min(initial=np.inf))
        if (new_lo, new_hi) == (lo, hi):
            break
        lo, hi = new_lo, new_hi
        if hi - lo <= MAXROOT_TOL:
            break
        xs = np.linspace(lo, hi, _PASS_POINTS + 2)[1:-1]
    if not -np.inf < lo < hi < np.inf:
        raise NumericalFailure(f"max root enclosure [{lo!r}, {hi!r}] is not certified")
    return MaxRoot(float(lo), float(hi))
