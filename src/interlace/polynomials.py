"""Univariate real polynomials, real-rootedness testing, certified max roots.

Coefficients are stored in ascending degree order. The root finder and the
certifier take a stack of polynomials and return one result per row, each
bit for bit the result the row would get alone. Rows alike in degree, in
count of zero roots and in being exactly even share one eigensolve of
their companion matrices and one Newton polish step; each row then gets
its own realness verdict. A row whose odd coefficients are all exactly zero is x^z q(x^2),
as every branch of the quadratic product family is: its companion matrix
is q's, of half the size, and its roots come out as exact pairs +-sqrt(y)
over q's roots y. The max root is then certified as an enclosure
[lo, hi] of the row itself: at hi every derivative is provably positive
and at lo some derivative is provably negative, decided by one stacked
evaluation of the derivative chains of all rows of one degree per pass,
with a rigorous bound on its rounding error. Only the rows still shrinking
take the next pass. Using the whole chain keeps the test sound at multiple
roots, where the highest vanishing derivative has a simple zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotMonic, NotRealRooted, NumericalFailure

DEFAULT_ROOT_TOL = 1e-9
# Enclosure width at which maxroot_certified stops tightening.
MAXROOT_TOL = 1e-10
# Enclosure seeds: the companion root offset by (1 + |r|) times these
# (1e-13 up to 7.0).
_SEED_OFFSETS = 1e-13 * 4.0 ** np.arange(24)
_SEED_PATTERN = np.concatenate((-_SEED_OFFSETS[::-1], _SEED_OFFSETS))
# Interior points evaluated per tightening pass.
_PASS_POINTS = 16
_PASS_STEPS = np.arange(1.0, _PASS_POINTS + 1)
# Relative coefficient distance at which a polynomial with a noisy complex
# root cluster is accepted as real-rooted (see root_report).
REALITY_RESCUE_TOL = 1e-8
# Relative imaginary part that root_report treats as macroscopic: such a
# root is never rescued as part of a noisy real cluster.
MACROSCOPIC_IMAG = 1e-3
_EPS = float(np.finfo(np.float64).eps)


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
    """One Newton step per root; row i of raw holds points for row i of desc.

    p and p' are evaluated in one Horner pass over both stacks, in
    np.polyval's operation order; p' takes np.polyder's coefficients behind
    a zero one, which leaves every value unchanged.  A root keeps its
    companion value where p' is negligible against p or the step would
    exceed 1 + |root|.
    """
    k, n = desc.shape[0], desc.shape[1] - 1
    coeffs = np.zeros((2 * k, n + 1))
    coeffs[:k] = desc
    coeffs[k:, 1:] = desc[:, :-1] * np.arange(n, 0, -1)
    points = np.concatenate((raw, raw))
    y = np.zeros_like(points)
    for c in coeffs.T[:, :, None]:
        y = y * points + c
    p, dp = y[:k], y[k:]
    with np.errstate(divide="ignore", invalid="ignore"):
        step = p / dp
    keep = (np.abs(dp) <= 1e-300) | (np.abs(dp) * 1e12 < np.abs(p)) | (np.abs(step) > 1.0 + np.abs(raw))
    return np.where(keep, raw, raw - step)


def _companion_roots(desc: np.ndarray) -> np.ndarray:
    """Polished roots of each row of desc (descending, nonzero constant term).

    One eigensolve over the companion matrices, each built as np.roots
    builds it.  A row whose eigenvalues are all real is polished in real
    arithmetic and the others in complex, as np.roots returns them row by
    row.
    """
    k, m = desc.shape[0], desc.shape[1] - 1
    companion = np.empty((k, m, m))
    companion[:] = np.eye(m, k=-1)
    companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
    try:
        raw = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"companion eigensolver failed: {exc}") from exc
    real = ~raw.imag.any(axis=1)
    if real.all():
        return _newton_polish(desc, raw.real)
    roots = np.empty((k, m), dtype=np.complex128)
    for rows, values in ((real, raw.real), (~real, raw)):
        if rows.any():
            roots[rows] = _newton_polish(desc[rows], values[rows])
    return roots


def _realness(
    p: RealPolynomial, roots: np.ndarray, max_mod: float, max_imag: float, tol: float
) -> tuple[bool, float, np.ndarray]:
    """(real_rooted, residual, roots) of one row: the strict test, then the rescue."""
    if max_imag <= tol * (1.0 + max_mod):
        return True, max_imag, roots
    if max_imag <= MACROSCOPIC_IMAG * (1.0 + max_mod):
        # Noisy multiple roots spread into conjugate pairs (spread grows as
        # backward_error^(1/multiplicity)); accept when the real projection
        # reproduces the input coefficients essentially as well as the
        # computed roots themselves do (the round-trip baseline, which is
        # also conditioning-limited at such clusters).  Macroscopic
        # imaginary parts never reach this branch.
        given = np.array(p.coeffs[::-1], dtype=np.float64)
        scale = max(1.0, float(np.max(np.abs(given))))
        projected = np.poly(roots.real) * p.leading()
        rel = float(np.max(np.abs(projected - given))) / scale
        baseline = float(np.max(np.abs(np.poly(roots) * p.leading() - given))) / scale
        if rel <= max(REALITY_RESCUE_TOL, 4.0 * baseline) and baseline <= 1e-4:
            return True, rel, roots.real.astype(np.complex128)
    return False, max_imag, roots


def root_report(polys: Sequence[RealPolynomial], tol: float = DEFAULT_ROOT_TOL) -> list[RootReport]:
    """All roots of each polynomial of a stack, one report per row.

    Zero roots are stripped and reported exactly.  A row is exactly even
    when every odd-index coefficient is 0.0; it is then x^z q(x^2), and its
    other roots are the pairs +-sqrt(y), with the complex square root, over
    the polished companion roots y of q, which has half the degree.  Rows
    alike in degree, in count of zero roots and in being exactly even
    share one companion eigensolve and one Newton polish.  Real-rootedness holds when
    every |Im root| <= tol * (1 + max |root|).  A polynomial whose complex
    parts come from a perturbed multiple root is still accepted when
    projecting the roots onto the real axis reproduces the coefficients to
    REALITY_RESCUE_TOL relative error.
    """
    groups: dict[tuple[int, int, bool], list[int]] = {}
    for i, p in enumerate(polys):
        if p.degree < 1:
            raise ValueError("root_report requires degree >= 1")
        zeros = next(k for k, c in enumerate(p.coeffs) if c != 0.0)
        groups.setdefault((p.degree, zeros, not any(p.coeffs[1::2])), []).append(i)
    reports: list = [None] * len(polys)
    for (n, zeros, even), rows in groups.items():
        roots = np.zeros((len(rows), n), dtype=np.complex128)
        if zeros < n:
            step = 2 if even else 1
            found = _companion_roots(np.array([polys[i].coeffs[zeros::step][::-1] for i in rows]))
            if even:
                found = np.sqrt(found.astype(np.complex128))
                found = np.concatenate((found, -found), axis=1)
            roots[:, zeros:] = found
        re = np.sort(roots.real, axis=1)
        max_mod = np.abs(roots).max(axis=1)
        max_imag = np.abs(roots.imag).max(axis=1)
        for i, row, top, bottom, mod, imag in zip(
            rows, roots, re[:, -1].tolist(), re[:, 0].tolist(), max_mod.tolist(), max_imag.tolist()
        ):
            real_rooted, residual, row = _realness(polys[i], row, mod, imag, tol)
            reports[i] = RootReport(top, bottom, real_rooted, residual, tuple(row.tolist()))
    return reports


def evaluate_bounded(coeffs: Sequence[float], x: float) -> tuple[float, float]:
    """(p(x), bound) by Horner's rule in Python floats, coefficients ascending.

    For p of degree n the computed p(x) is within
    bound = 4 (n + 1) eps sum |c_i| |x|^i + (n + 1) 2^-1074 max(1, |x|)^(n + 1)
    of the exact value of the given coefficients at the given x.  Horner's
    rule errs by at most gamma_2n = 2n u / (1 - 2n u) <= (n + 1) eps
    relative to sum |c_i| |x|^i (Higham, Accuracy and Stability of Numerical
    Algorithms, 5.1), u = eps / 2 being the unit roundoff; the factor 4
    spares room for the rounding of the sum itself, as ``_classify`` does.
    A product that underflows errs by at most 2^-1075 more, which the later
    steps multiply by at most max(1, |x|) each: the second term, taken with
    max(1, |x|) rounded up to a power of two.  A NaN or infinite value or
    bound proves nothing.
    """
    value = size = 0.0
    ax = abs(x)
    for c in reversed(coeffs):
        value = value * x + c
        size = size * ax + abs(c)
    terms = len(coeffs)
    shift = terms * max(0, math.frexp(ax)[1]) - 1074
    floor = math.ldexp(terms, shift) if shift < 1000 else math.inf
    return value, 4.0 * terms * _EPS * size + floor


class MaxRoot(NamedTuple):
    """Certified enclosure lo < max root < hi."""

    lo: float
    hi: float


@functools.lru_cache(maxsize=None)
def _taylor_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather index, binomial weights and error factor of the degree-n chain.

    Row j holds p^(j)(x) / j! = sum_i C(i + j, j) c_(i+j) x^i for j < n; the
    binomials are exact in float64 up to degree 56.  Terms past c_n gather
    c_n with weight zero, which gives +0 for the positive c_n the chain is
    built from.  Its error factor is 4 * (n + 1 - j) * eps for its n + 1 - j
    terms (see _classify).
    """
    j = np.arange(n)[:, None]
    full = j + np.arange(n + 1)[None, :]
    idx = np.minimum(full, n)
    weights = np.array(
        [[math.comb(k, jj) if k <= n else 0 for k in row] for jj, row in enumerate(full)],
        dtype=np.float64,
    )
    factor = 4.0 * (n + 1 - np.arange(n)) * np.finfo(np.float64).eps
    for shared in (idx, weights, factor):  # cached: every caller gets these arrays
        shared.flags.writeable = False
    return idx, weights, factor


def _classify(
    chain: np.ndarray, abs_chain: np.ndarray, factor: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row and point: every chain row provably positive, and some provably negative.

    Row i's chain is evaluated at row i's points as one power matrix (built
    as np.vander builds it) times the stacked chain rows.  A chain row of m
    terms accumulates at most 2m - 1 unit roundoffs of
    sum_i |row_i| |x|^i: the rounded coefficient, the power (m - 2
    products), the product and the sum in any order.  The bound charges
    factor = 8m unit roundoffs, enough to spare for rounding in the bound
    itself.
    """
    powers = np.empty((*xs.shape, chain.shape[2]))
    powers[..., 0] = 1.0
    powers[..., 1:] = xs[..., None]
    np.multiply.accumulate(powers[..., 1:], axis=2, out=powers[..., 1:])
    values = powers @ chain.transpose(0, 2, 1)
    bounds = (np.abs(powers) @ abs_chain.transpose(0, 2, 1)) * factor
    return (values > bounds).all(axis=2), (values < -bounds).any(axis=2)


def _enclose(polys: Sequence[RealPolynomial], seeds: Sequence[float]) -> list[MaxRoot]:
    """Enclosures of the max roots of polynomials of one degree, seeded at seeds.

    One stacked pass evaluates the chains of every row still shrinking;
    each row's ends are then updated in floats, as a lone row's would be.  A
    row leaves the stack once a pass no longer shrinks it or it is
    MAXROOT_TOL wide.
    """
    idx, weights, factor = _taylor_layout(polys[0].degree)
    coeffs = np.array([p.coeffs for p in polys])
    chain = (coeffs * np.copysign(1.0, coeffs[:, -1:]))[:, idx] * weights  # same roots, positive c_n
    abs_chain = np.abs(chain)
    r = np.array(seeds)[:, None]
    # one past the Cauchy bound 1 + max |c_i| / |c_n| on every root
    far = (1.0 + np.abs(coeffs[:, :-1]).max(axis=1, keepdims=True) / np.abs(coeffs[:, -1:])) + 1.0
    xs = np.concatenate((-far, (1.0 + np.abs(r)) * _SEED_PATTERN + r, far), axis=1)
    lo, hi = [-math.inf] * len(polys), [math.inf] * len(polys)
    rows = list(range(len(polys)))
    while True:
        above, below = _classify(chain, abs_chain, factor, xs)
        # the ufuncs' own reductions: np.max's wrapper costs as much again here
        highest_below = np.maximum.reduce(xs, axis=1, where=below, initial=-np.inf).tolist()
        lowest_above = np.minimum.reduce(xs, axis=1, where=above, initial=np.inf).tolist()
        shrinking = []
        for j, (i, below_x, above_x) in enumerate(zip(rows, highest_below, lowest_above)):
            new = (max(lo[i], below_x), min(hi[i], above_x))
            if new != (lo[i], hi[i]) and not new[1] - new[0] <= MAXROOT_TOL:
                shrinking.append(j)
            lo[i], hi[i] = new
        if not shrinking:
            return [MaxRoot(a, b) for a, b in zip(lo, hi)]
        if len(shrinking) < len(rows):
            rows = [rows[j] for j in shrinking]
            chain, abs_chain = chain[shrinking], abs_chain[shrinking]
        ends = np.array([(lo[i], hi[i]) for i in rows])
        # np.linspace(lo, hi, _PASS_POINTS + 2)[1:-1] row by row, in its operation order
        xs = _PASS_STEPS * ((ends[:, 1:] - ends[:, :1]) / (_PASS_POINTS + 1)) + ends[:, :1]


def maxroot_certified(
    polys: Sequence[RealPolynomial],
    rootedness_tol: float = DEFAULT_ROOT_TOL,
    reports: Sequence[RootReport] | None = None,
) -> list[MaxRoot]:
    """Enclosure of the largest root of each polynomial of a stack.

    With a positive leading coefficient, every derivative is positive above
    the max root, so ``hi`` (all of them provably positive) lies above every
    root; and since the derivatives' roots interlace, a provably negative
    derivative puts ``lo`` below the max root.  Both ends start at the
    Newton-polished companion root r, offset by (1 + |r|) 1e-13 4^k for all k
    at once, with the Cauchy bound as the last resort; passes of evenly
    spaced interior points then tighten [lo, hi] until it is MAXROOT_TOL wide
    or a pass no longer shrinks it.  Rows of one degree share each pass, and
    every row's enclosure is the one it would get alone.  ``reports`` are
    the rows' ``root_report`` results when the caller already holds them, so
    that none is computed twice.  The first row that is not real-rooted
    raises NotRealRooted, and the first uncertified enclosure
    NumericalFailure, each carrying its row's index.
    """
    if reports is None:
        reports = root_report(polys, rootedness_tol)
    for row, report in enumerate(reports):
        if not report.real_rooted:
            raise NotRealRooted(f"residual {report.max_imag_residual:.3e} exceeds tolerance", row=row)
    by_degree: dict[int, list[int]] = {}
    for i, p in enumerate(polys):
        by_degree.setdefault(p.degree, []).append(i)
    out: list = [None] * len(polys)
    for rows in by_degree.values():
        for i, root in zip(rows, _enclose([polys[i] for i in rows], [reports[i].maxroot for i in rows])):
            out[i] = root
    for row, (lo, hi) in enumerate(out):
        if not -math.inf < lo < hi < math.inf:
            raise NumericalFailure(f"max root enclosure [{lo!r}, {hi!r}] is not certified", row=row)
    return out
