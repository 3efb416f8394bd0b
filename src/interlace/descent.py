"""Derandomized greedy descent over interlacing families.

Every descent walks an assignment tree level by level.  At each level the
conditional expected polynomial of every positive-probability branch is
evaluated; since the parent polynomial is their probability mixture and the
family is interlacing, some branch has max root at most the parent's.  The
branch with the least max root is taken, winning only by more than TIE_TOL
(ties break to the smallest value, respectively the lowest index).  Level
0's mixture is the root polynomial; each later level's must match the branch
committed before it.  Every level is decided by one rule, at a point r at
or above its branches' common interlacer: the parent's max root past level
0, and at level 0, whose parent is the root polynomial, the largest
Laguerre-Samuelson bound of its branches.  Each branch has exactly one
root at or above the interlacer, so its max root lies below r exactly when
its value at r is positive, and Newton's method from r then falls to that
root; ``_rank``, the one tie rule, counts a root above r as infinite.  A
level the sign test cannot decide, or whose ranking would need a root
above r, falls back to its own ``root_report``.  After the last level one
``root_report`` gives every remaining row's realness verdict and seed, the
root polynomial's among them, so a solve without a fallback takes one
report; one stacked ``maxroot_certified`` call encloses every level's rows,
and the chain of enclosures is recorded as a certificate; a decision that
the certified ends contradict raises NumericalFailure naming its level.
Branches travel as arrays of ascending coefficients from the level engines
to the mixture check and the sign test; each becomes a ``RealPolynomial``
once, for the reports and the certifier.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import NotPSD, NotRealRooted, NumericalFailure, ValueNotInSupport
from .linalg import HermitianMatrix, MatrixEnsemble, as_hermitian, is_psd, weighted_sum
# expected_product_poly is unused here but kept for perfbench's tracer,
# which hooks this namespace.
from .mixedchar import DerivativeSpec, ProductLevels, SubsetTable, expected_product_poly, mixed_char_poly  # noqa: F401
from .polynomials import MaxRoot, RealPolynomial, RootReport, evaluate_bounded, maxroot_certified, root_report

TIE_TOL = 1e-9
ROOTEDNESS_TOL = 1e-7
# A level's mixture may miss the branch committed before it by this much of
# sum w max |coeff|: rounding gaps reached 7.7e-15 (partition), 100x below.
# Weights summing to 1 + delta (|delta| <= 1e-12 is admitted) shift it by
# delta times the branch without the index, so |delta| joins the budget.
MIXTURE_TOL = 1e-12
# Newton steps allowed from a level's r (a parent's max root, or level 0's
# bound) down to a branch's max root.
NEWTON_STEPS = 200


def _check_probs(values: Sequence, probs: Sequence[float]) -> None:
    """One probability per value, nonnegative and summing to 1; NaN fails."""
    if len(values) != len(probs) or not values:
        raise ValueError("values and probs must be nonempty and match")
    if not all(p >= 0.0 for p in probs):
        raise ValueError("probabilities must be nonnegative")
    if not abs(sum(probs) - 1.0) <= 1e-12:
        raise ValueError("probabilities must sum to 1")


@dataclass(frozen=True)
class FiniteDistribution:
    """Finite-support real random variable (values distinct, probs sum to 1);
    ``deviations()`` centers it for the variance, the specs and the engine."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_probs(self.values, self.probs)
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("support values must be finite")
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

    def deviations(self) -> dict[float, float]:
        """v -> v - E xi in two passes, v - mu and then minus the residual sum p (v - mu):
        they average to 0 within their own ulps however far mu lies from 0,
        |sum p d_v| <= 8 eps max |d_v| + len(values) 2^-1074, the floor for
        deviations below the smallest normal double."""
        mu = self.mean()
        first = [v - mu for v in self.values]
        residual = sum(p * t for t, p in zip(first, self.probs))
        return {v: t - residual for v, t in zip(self.values, first)}

    def variance(self) -> float:
        """sum p d_v^2 over the deviations d_v."""
        return variance_of(self, self.deviations())

    def support(self) -> tuple[float, ...]:
        """Values carrying positive probability, ascending."""
        return tuple(sorted(v for v, p in zip(self.values, self.probs) if p > 0))

    def shift(self, c: float) -> "FiniteDistribution":
        return FiniteDistribution.make([v + c for v in self.values], self.probs)

    def rescale(self, c: float) -> "FiniteDistribution":
        return FiniteDistribution.make([v * c for v in self.values], self.probs)


def variance_of(dist: FiniteDistribution, deviations: Mapping[float, float]) -> float:
    """``dist.variance()`` read off ``deviations``, the ``dist.deviations()`` a solve already holds."""
    return float(sum(p * t * t for t, p in zip(deviations.values(), dist.probs)))


@dataclass(frozen=True)
class DescentCertificate:
    """Audit trail: chosen branch per level and the max-root enclosures.

    enclosures has one entry for the root polynomial (level 0's mixture)
    followed by the chosen branch's per level, all from one stacked
    ``maxroot_certified`` call after the descent.  margins[k] is the least
    rival hi minus the chosen hi at level k (inf when the level has one
    candidate).  The branch was chosen by its max root, a companion root at
    the fallback_levels, else one found from the level's r (an upper bound
    on level 0's max roots, the parent's max root past it), winning only by
    more than TIE_TOL, so a tie goes to the earlier candidate and a margin
    may be negative within TIE_TOL; a chosen lo more than TIE_TOL above a
    rival's hi is refused with NumericalFailure.  fallback_levels lists,
    ascending, the levels that a ``root_report`` of their own decided: those
    whose sign test at r failed to prove a sign, whose Newton walk did not
    descend, that found no root below r, or that had a root above r while a
    found root lay within TIE_TOL of r, and level 0 when a branch gives no
    bound.
    """

    assignment: tuple
    enclosures: tuple[MaxRoot, ...]
    margins: tuple[float, ...]
    fallback_levels: tuple[int, ...] = ()

    @property
    def maxroots(self) -> tuple[float, ...]:
        """Certified upper ends of the chain."""
        return tuple(e.hi for e in self.enclosures)

    @property
    def bands(self) -> tuple[float, ...]:
        """Per level, the width hi - lo of the chosen branch's enclosure."""
        return tuple(e.hi - e.lo for e in self.enclosures[1:])

    @property
    def residuals(self) -> tuple[float, ...]:
        """Per level, the certified violation max(0, lo[k+1] - hi[k]) of the
        monotone chain (zero, as the theory guarantees)."""
        return tuple(max(0.0, b.lo - a.hi) for a, b in zip(self.enclosures, self.enclosures[1:]))

    def monotone_within(self, slack: float) -> bool:
        return all(r <= slack for r in self.residuals)


def conditional_spec_quadratic(
    dists: Sequence[FiniteDistribution], fixed: Mapping[int, float]
) -> DerivativeSpec:
    """Operator coefficients of the centered family with a partial
    assignment substituted.

    Index i enters as xi_i - E xi_i.  Fixed index with value s and deviation
    t = ``deviations()[s]``: (-t, t, -t^2).  Free index: (0, 0, -``variance()``).
    A free kernel is diagonal, so ``ProductLevels``, fed the same deviations
    and variances, reads the same polynomials as Gram products of one
    contracted table; ``expected_product_poly`` with this spec is its reference.
    """
    triples = []
    for i, dist in enumerate(dists):
        if i in fixed:
            s = float(fixed[i])
            if s not in dist.support():
                raise ValueNotInSupport(f"value {s} not in support of index {i}")
            t = dist.deviations()[s]
            triples.append((-t, t, -t * t))
        else:
            triples.append((0.0, 0.0, -dist.variance()))
    return DerivativeSpec.from_triples(triples)


def _rank(roots: Sequence[float]) -> int:
    """The tie rule: the first least root, a later one winning only by more than TIE_TOL."""
    best = 0
    for row, root in enumerate(roots):
        if root < roots[best] - TIE_TOL:
            best = row
    return best


def _descend_to_root(coeffs: Sequence[float], x: float) -> float | None:
    """Newton's method from x > max root down to it, or None when it does not descend.

    Above the max root of a real-rooted p with positive leading coefficient,
    p, p' and p'' are all positive, so every step falls and none passes the
    root.  The walk ends at the first step that no longer lowers x (rounding
    has made p(x) <= 0 or the step less than x's ulp); a slope that is not
    positive or NEWTON_STEPS steps without an end give None.
    """
    descending = coeffs[::-1]
    for _ in range(NEWTON_STEPS):
        value = slope = 0.0
        for c in descending:  # Horner's rule for p and p'
            slope = slope * x + value
            value = value * x + c
        if not slope > 0.0:  # NaN fails
            return None
        lower = x - value / slope
        if not lower < x:
            return x if lower >= x else None  # a NaN step gives None
        x = lower
    return None


def _max_root_bound(coeffs: Sequence[float]) -> float | None:
    """An upper bound on the max root of a real-rooted row, or None.

    coeffs are ascending, without trailing zeros.  The n roots of a
    real-rooted p of degree n, with mean mu and variance v, all lie at or
    below mu + sqrt((n - 1) v) (Laguerre-Samuelson), and both are read off
    its top three coefficients: with a = c_(n-1) / c_n and b = c_(n-2) / c_n
    (b = 0 at n = 1), mu = -a / n and n v = (1 - 1/n) a^2 - 2 b.  The
    computed n v is raised by 8 eps times the sum of its terms' magnitudes,
    more than their rounding errors, plus 2^-1060 for those of terms that
    underflow.  The bound is raised by 2^-40 times |mu| plus its root term:
    far more than the rounding of mu, the root and their sum (16 eps), so
    that a row whose max root meets the bound, as a degree-1 row's does,
    is provably positive at it, and by the smallest normal double, so that
    a row whose max root and bound are 0, such as x, is too.  None, so that
    the level falls back, for a leading coefficient that is not positive, a
    coefficient that is not finite, a raised n v below 0 (no real-rooted row
    gives one) or a bound that is not finite.
    """
    n = len(coeffs) - 1
    if n < 1 or not coeffs[-1] > 0.0 or not all(map(math.isfinite, coeffs)):
        return None
    eps = sys.float_info.epsilon
    a = coeffs[-2] / coeffs[-1]
    b = coeffs[-3] / coeffs[-1] if n > 1 else 0.0
    mu, shrink = -a / n, (n - 1) / n
    square = shrink * (a * a)
    spread = square - 2.0 * b + (8.0 * eps * (square + abs(2.0 * b)) + math.ldexp(1.0, -1060))
    if not spread >= 0.0:  # NaN fails
        return None
    root = math.sqrt(shrink * spread)
    bound = mu + root + (2.0**-40 * (abs(mu) + root) + sys.float_info.min)
    return bound if math.isfinite(bound) else None


def _decide_at_parent_root(rows: Sequence[Sequence[float]], r: float) -> tuple[int, list] | None:
    """(best, roots) of a level decided at r, at or above its branches' common interlacer.

    rows holds each branch's coefficients, ascending, without trailing zeros;
    r is the max root of the branch committed before the level, or at level
    0 the largest ``_max_root_bound`` of its rows.

    The branches share a common interlacer whose max root is at most r, so
    each has exactly one root at or above it: p_i(r) provably > 0 puts branch
    i's max root below r, where Newton's method from r finds it, and p_i(r)
    provably < 0 puts it above r (roots[i] is then None).  best is ``_rank``
    of the roots, a root above r counted as +inf: with every found root more
    than TIE_TOL below r, that is the branch the tie rule picks on the roots
    themselves, whatever the roots above r are.  None falls back to the
    level's ``root_report``: a value inside its ``evaluate_bounded`` error
    bound, a constant or a leading coefficient that is not positive, a
    Newton walk that does not descend, no root found below r, or a root
    above r while a found root lies within TIE_TOL of r.
    """
    roots = []
    for coeffs in rows:
        if len(coeffs) < 2 or not coeffs[-1] > 0.0:
            return None
        value, bound = evaluate_bounded(coeffs, r)
        if value < -bound:
            roots.append(None)
        elif value > bound:
            root = _descend_to_root(coeffs, r)
            if root is None:
                return None
            roots.append(root)
        else:
            return None
    known = [root for root in roots if root is not None]
    if not known or (len(known) < len(roots) and max(known) >= r - TIE_TOL):
        return None
    return _rank([math.inf if root is None else root for root in roots]), roots


def _real_rooted_or_raise(level: int, cands: Sequence, reports: Sequence[RootReport]) -> None:
    """NotRealRooted naming the first branch of a level, or the root row after them, that is not real-rooted."""
    for row, report in enumerate(reports):
        if not report.real_rooted:
            context = "root" if row == len(cands) else f"level {level}, branch {cands[row]!r}"
            raise NotRealRooted(
                f"{context}: expected polynomial not real-rooted (residual "
                f"{report.max_imag_residual:.3e} exceeds tolerance); aborting descent"
            )


def _trimmed(row: list) -> list:
    """row without its trailing zeros, which are not part of its degree (as in ``RealPolynomial.from_coeffs``)."""
    end = len(row)
    while end and row[end - 1] == 0.0:
        end -= 1
    return row if end == len(row) else row[:end]


def _run_descent(
    num_levels: int,
    candidates: Callable[[int], Iterable[tuple[Any, float]]],
    branch_poly: Callable[[Any], Sequence[float]],
    commit: Callable[[Any], None],
) -> DescentCertificate:
    """Shared greedy loop; candidates(k) yields (candidate, probability) in tie order.

    Level k reads branch_poly(cand) for each candidate, the coefficients,
    ascending, of the polynomial with the committed levels, k set to cand
    and the rest free (an array, or any sequence of floats; trailing zeros
    are not part of its degree), decides the level and then calls
    commit(best) once.  The mixture check, on the level's rows padded to
    one array, and the decision at r read these rows; each row becomes a
    ``RealPolynomial`` once, in the stack the reports and the certifier
    read.  A branch wins only when its max root is lower by more than
    TIE_TOL.  The branches mix to their parent: level 0's mixture is the
    root polynomial, which closes level 0's stack, and a later level whose
    mixture misses the branch committed before it by more than MIXTURE_TOL
    raises NumericalFailure before it is decided.

    Every level is decided by one rule.  Its r is, past level 0, the max
    root of the branch committed before it, and at level 0 the largest
    ``_max_root_bound`` of its branches.  A later level with one candidate
    carries r over; any other level is decided at r by
    ``_decide_at_parent_root``, which ranks the roots it finds below r with
    each root above r counted as +inf.  The level falls back to ranking its
    own ``root_report`` (level 0's with the root polynomial) when a branch
    of level 0 gives no bound, when a sign at r is not proven or a Newton
    walk does not descend, when no root lies below r, or when a root lies
    above r while a found root lies within TIE_TOL of r; it is then listed
    in the certificate's fallback_levels, and checked for realness before
    its commit.  After the last level one ``root_report`` of the rows not
    yet reported, the root polynomial's among them, gives their realness
    verdicts, NotRealRooted naming the first failing level and branch, or
    ``root``; a solve without a fallback takes this one report.  One
    ``maxroot_certified`` call, seeded from every report, encloses every
    level's rows; each enclosure is the one its level's stack would get
    alone.  The chain and the margins are read from the certified ends.
    NumericalFailure names the level of an uncertified enclosure, of a
    decision the enclosures contradict (a chosen lo more than TIE_TOL above
    a rival's hi), or of a root decided at r that lies more than TIE_TOL
    outside its branch's enclosure.
    """
    assignment, stack, reports, levels, fallbacks, decided = [], [], [], [], [], []
    for level in range(num_levels):
        cands, weights = zip(*candidates(level))
        branches = [_trimmed(np.asarray(branch_poly(cand), dtype=np.float64).tolist()) for cand in cands]
        width = max(map(len, branches))
        coeffs = np.array([row + [0.0] * (width - len(row)) for row in branches])
        weights = np.array(weights)
        mixture = weights @ coeffs
        rows = [RealPolynomial(tuple(row)) for row in branches]
        if level == 0:
            rows.append(RealPolynomial.from_coeffs(mixture))
            bounds = [_max_root_bound(row) for row in branches]
            r = None if None in bounds else max(bounds)
        else:
            gap = float(np.abs(mixture - committed).max()) if committed.shape == mixture.shape else np.inf
            scale = float(weights @ np.abs(coeffs).max(axis=1))
            if not gap <= (MIXTURE_TOL + abs(1.0 - weights.sum())) * scale:  # NaN fails
                raise NumericalFailure(
                    f"level {level}: mixture {gap:.3e} off the branch committed at level {level - 1}"
                )
            r = parent_root
        carried = level > 0 and len(cands) == 1
        if carried:
            found = (0, [r])
        else:
            found = None if r is None else _decide_at_parent_root(branches, r)
        if found is None:
            fallbacks.append(level)
            level_reports = root_report(rows, ROOTEDNESS_TOL)
            _real_rooted_or_raise(level, cands, level_reports)
            roots = [report.maxroot for report in level_reports[: len(cands)]]
            best = _rank(roots)
        else:
            (best, roots), level_reports = found, None
            if not carried:
                decided.append((level, len(stack), roots, r))
        commit(cands[best])
        committed = coeffs[best]
        parent_root = roots[best]
        assignment.append(cands[best])
        levels.append((len(stack), cands, best))
        stack += rows
        reports += level_reports or [None] * len(rows)
    missing = [row for row, report in enumerate(reports) if report is None]
    if missing:
        for row, report in zip(missing, root_report([stack[row] for row in missing], ROOTEDNESS_TOL)):
            reports[row] = report
        for level, (start, cands, _) in enumerate(levels):  # level 0's stack ends with the root row
            _real_rooted_or_raise(level, cands, reports[start : start + len(cands) + (level == 0)])
    try:
        enclosures = maxroot_certified(stack, rootedness_tol=ROOTEDNESS_TOL, reports=reports)
    except NumericalFailure as exc:
        if exc.row is None:
            raise
        level = max(k for k, (start, _, _) in enumerate(levels) if start <= exc.row)
        raise NumericalFailure(f"level {level}: {exc}", row=exc.row) from exc
    for level, start, roots, r in decided:
        for enclosure, root in zip(enclosures[start:], roots):
            lo, hi = (r, math.inf) if root is None else (root, root)
            if lo > enclosure.hi + TIE_TOL or hi < enclosure.lo - TIE_TOL:
                raise NumericalFailure(
                    f"level {level}: a max root decided at the parent's root lies outside its certified enclosure"
                )
    chain, margins = [enclosures[len(levels[0][1])]] if levels else [], []  # the root row closes level 0's stack
    for level, (start, cands, best) in enumerate(levels):
        roots = enclosures[start : start + len(cands)]
        chosen, rivals = roots[best], roots[:best] + roots[best + 1 :]
        if any(chosen.lo > rival.hi + TIE_TOL for rival in rivals):
            raise NumericalFailure(
                f"level {level}: the chosen branch's certified max root lies above a rival's"
            )
        chain.append(chosen)
        margins.append(min((rival.hi for rival in rivals), default=np.inf) - chosen.hi)
    return DescentCertificate(tuple(assignment), tuple(chain), tuple(margins), tuple(fallbacks))


def greedy_descent_quadratic(
    table: SubsetTable,
    dists: Sequence[FiniteDistribution],
    scale: float = 1.0,
    deviations: Sequence[Mapping[float, float]] | None = None,
) -> DescentCertificate:
    """Descend the centered product family mu[t A] * mu[-t A], t_i = (s_i - E xi_i) / scale,
    over value assignments s.

    ``table`` must come from PSD matrices, as ``DiscrepancyInstance``
    validates; the hermitian lift's parts are PSD by construction.
    c_S lambda^|S| is the family of lambda t.  ``ProductLevels``
    serves the branches from it, the ``deviations()``, the variances and
    scale; ``deviations`` is the ``deviations()`` of dists when the caller
    already holds them, so that none is computed twice, and the variances
    are read off them.  The leaf reached
    satisfies maxroot f_(s_1..s_m) <= maxroot of the root expected
    polynomial, which by the norm transfer bound controls
    ||sum (s_i - E xi_i) A_i||.  The assignment holds the given values s_i.
    """
    if deviations is None:
        deviations = [d.deviations() for d in dists]
    variances = [variance_of(d, dev) for d, dev in zip(dists, deviations)]
    levels = ProductLevels(table, deviations, variances, scale)
    return _run_descent(
        num_levels=table.n,
        candidates=lambda k: sorted((v, p) for v, p in zip(dists[k].values, dists[k].probs) if p > 0),
        branch_poly=levels.branch,
        commit=levels.commit,
    )


@dataclass(frozen=True)
class MatrixDistribution:
    """Finite-support random PSD matrix (values with probabilities)."""

    values: tuple[HermitianMatrix, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_probs(self.values, self.probs)

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
    fixed: list[int] = []  # chosen value index per committed level

    def branch_poly(v: int) -> tuple[float, ...]:
        mats = [choices[i].values[u] for i, u in enumerate(fixed + [v])] + means[len(fixed) + 1 :]
        return mixed_char_poly(MatrixEnsemble(tuple(mats)), ones).coeffs

    return _run_descent(
        num_levels=len(choices),
        candidates=lambda k: ((i, p) for i, p in enumerate(choices[k].probs) if p > 0),
        branch_poly=branch_poly,
        commit=fixed.append,
    )
