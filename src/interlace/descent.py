"""Derandomized greedy descent over interlacing families.

Every descent walks an assignment tree level by level.  At each level the
conditional expected polynomial of every positive-probability branch is
evaluated; since the parent polynomial is their probability mixture and the
family is interlacing, some branch has max root at most the parent's.  The
branch with the least max root is taken, winning only by more than TIE_TOL
(ties break to the smallest value, respectively the lowest index).  Level
0's mixture is the root polynomial; each later level's must match the branch
committed before it.  Level 0 ranks the polished companion max roots of one
``root_report``.  A later level is decided at r, its parent's max root: the
branches share a common interlacer, so a branch's max root lies below r
exactly when its value at r is positive, and Newton's method from r then
falls to that root.  A level the sign test cannot decide falls back to its
own ``root_report``.  After the last level one more ``root_report`` gives
the remaining rows' realness verdicts and seeds, one stacked
``maxroot_certified`` call encloses every level's rows, and the chain of
enclosures is recorded as a certificate; a decision that the certified ends
contradict raises NumericalFailure naming its level.
"""

from __future__ import annotations

import math
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
# Newton steps allowed from a parent's max root down to a branch's.
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
        return float(sum(p * t * t for t, p in zip(self.deviations().values(), self.probs)))

    def support(self) -> tuple[float, ...]:
        """Values carrying positive probability, ascending."""
        return tuple(sorted(v for v, p in zip(self.values, self.probs) if p > 0))

    def shift(self, c: float) -> "FiniteDistribution":
        return FiniteDistribution.make([v + c for v in self.values], self.probs)

    def rescale(self, c: float) -> "FiniteDistribution":
        return FiniteDistribution.make([v * c for v in self.values], self.probs)


@dataclass(frozen=True)
class DescentCertificate:
    """Audit trail: chosen branch per level and the max-root enclosures.

    enclosures has one entry for the root polynomial (level 0's mixture)
    followed by the chosen branch's per level, all from one stacked
    ``maxroot_certified`` call after the descent.  margins[k] is the least
    rival hi minus the chosen hi at level k (inf when the level has one
    candidate).  The branch was chosen by its max root, a companion root at
    level 0 and at the fallback_levels, else one found from the parent's max
    root, winning only by more than TIE_TOL, so a tie goes to the earlier
    candidate and a margin may be negative within TIE_TOL; a chosen lo more
    than TIE_TOL above a rival's hi is refused with NumericalFailure.
    fallback_levels lists, ascending, the levels past 0 that the sign test
    at the parent's max root left open and that a ``root_report`` of their
    own decided.
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


def _decide_at_parent_root(polys: Sequence[RealPolynomial], r: float) -> tuple[int, list] | None:
    """(best, roots) of a level decided at r, the max root of the branch committed before it.

    The branches share a common interlacer whose max root is at most r, so
    each has exactly one root at or above it: p_i(r) provably > 0 puts branch
    i's max root below r, where Newton's method from r finds it, and p_i(r)
    provably < 0 puts it above r (roots[i] is then None).  best is the
    branch the tie rule picks on the roots themselves, whatever the roots
    above r are.  None falls back to the level's ``root_report``: a value
    inside its ``evaluate_bounded`` error bound, a constant or a leading
    coefficient that is not positive, a Newton walk that does not descend, or a tie rule the
    roots above r leave open.
    """
    roots = []
    for p in polys:
        if p.degree < 1 or not p.coeffs[-1] > 0.0:
            return None
        value, bound = evaluate_bounded(p.coeffs, r)
        if value < -bound:
            roots.append(None)
        elif value > bound:
            root = _descend_to_root(p.coeffs, r)
            if root is None:
                return None
            roots.append(root)
        else:
            return None
    # the tie rule over every value the roots above r may take: a later
    # branch beats the best so far when its root is lower by more than
    # TIE_TOL for every such value, keeps it when for none, and else both
    # stay possible; one possible winner decides the level
    possible = {0}
    for row, root in enumerate(roots[1:], 1):
        stay = set()
        for best in possible:
            rival = roots[best]
            if root is None:
                beats = False if rival is not None else None
            elif rival is None:
                beats = True if root < r - TIE_TOL else None
            else:
                beats = root < rival - TIE_TOL
            if beats is not False:
                stay.add(row)
            if beats is not True:
                stay.add(best)
        possible = stay
    if len(possible) > 1:
        return None
    best = possible.pop()  # a branch with its root above r never stands alone
    return best, roots


def _real_rooted_or_raise(level: int, cands: Sequence, reports: Sequence[RootReport]) -> None:
    """NotRealRooted naming the first branch of a level, or the root row after them, that is not real-rooted."""
    for row, report in enumerate(reports):
        if not report.real_rooted:
            context = "root" if row == len(cands) else f"level {level}, branch {cands[row]!r}"
            raise NotRealRooted(
                f"{context}: expected polynomial not real-rooted (residual "
                f"{report.max_imag_residual:.3e} exceeds tolerance); aborting descent"
            )


def _run_descent(
    num_levels: int,
    candidates: Callable[[int], Iterable[tuple[Any, float]]],
    branch_poly: Callable[[Any], RealPolynomial],
    commit: Callable[[Any], None],
) -> DescentCertificate:
    """Shared greedy loop; candidates(k) yields (candidate, probability) in tie order.

    Level k reads branch_poly(cand) for each candidate, the polynomial with
    the committed levels, k set to cand and the rest free, decides the
    level and then calls commit(best) once.  A branch wins only when its max
    root is lower by more than TIE_TOL.  The branches mix to their parent:
    level 0's mixture is the root polynomial, and a later level whose
    mixture misses the branch committed before it by more than MIXTURE_TOL
    raises NumericalFailure before it is decided.

    Level 0 ranks its branches by their polished companion max roots, from
    one ``root_report`` of its branches and the root polynomial as one
    stack; a branch or root that is not real-rooted aborts the descent
    before the commit.  A later level with one candidate carries its
    parent's max root r over; one with more is decided at r by
    ``_decide_at_parent_root``, and falls back to ranking its own
    ``root_report`` where that cannot decide (the level is then listed in
    the certificate's fallback_levels, and checked for realness before its
    commit).  After the last level one ``root_report`` of the rows not yet
    reported gives their realness verdicts, NotRealRooted naming the first
    failing level and branch, and one ``maxroot_certified`` call, seeded
    from every report, encloses every level's rows; each enclosure is the
    one its level's stack would get alone.  The chain and the margins are
    read from the certified ends.  NumericalFailure names the level of an
    uncertified enclosure, of a decision the enclosures contradict (a chosen
    lo more than TIE_TOL above a rival's hi), or of a root decided at r that
    lies more than TIE_TOL outside its branch's enclosure.
    """
    assignment, stack, reports, levels, fallbacks, decided = [], [], [], [], [], []
    for level in range(num_levels):
        cands, weights = zip(*candidates(level))
        polys = [branch_poly(cand) for cand in cands]
        width = max(len(p.coeffs) for p in polys)
        coeffs = np.array([p.coeffs + (0.0,) * (width - len(p.coeffs)) for p in polys])
        weights = np.array(weights)
        mixture = weights @ coeffs
        rows, level_reports, found = polys, None, None
        if level == 0:
            rows = polys + [RealPolynomial.from_coeffs(mixture)]
        else:
            gap = float(np.abs(mixture - committed).max()) if committed.shape == mixture.shape else np.inf
            scale = float(weights @ np.abs(coeffs).max(axis=1))
            if not gap <= (MIXTURE_TOL + abs(1.0 - weights.sum())) * scale:  # NaN fails
                raise NumericalFailure(
                    f"level {level}: mixture {gap:.3e} off the branch committed at level {level - 1}"
                )
            found = (0, [parent_root]) if len(cands) == 1 else _decide_at_parent_root(polys, parent_root)
            if found is None:
                fallbacks.append(level)
        if found is None:
            level_reports = root_report(rows, ROOTEDNESS_TOL)
            _real_rooted_or_raise(level, cands, level_reports)
            roots = [report.maxroot for report in level_reports[: len(cands)]]
            best = _rank(roots)
        else:
            best, roots = found
            if len(cands) > 1:
                decided.append((level, len(stack), roots, parent_root))
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
        for level, (start, cands, _) in enumerate(levels):
            _real_rooted_or_raise(level, cands, reports[start : start + len(cands)])
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
    table: SubsetTable, dists: Sequence[FiniteDistribution], scale: float = 1.0
) -> DescentCertificate:
    """Descend the centered product family mu[t A] * mu[-t A], t_i = (s_i - E xi_i) / scale,
    over value assignments s.

    ``table`` must come from PSD matrices, as ``DiscrepancyInstance``
    validates; the hermitian lift's parts are PSD by construction.
    c_S lambda^|S| is the family of lambda t.  ``ProductLevels``
    serves the branches from it, the ``deviations()`` and scale.  The leaf reached
    satisfies maxroot f_(s_1..s_m) <= maxroot of the root expected
    polynomial, which by the norm transfer bound controls
    ||sum (s_i - E xi_i) A_i||.  The assignment holds the given values s_i.
    """
    levels = ProductLevels(table, [d.deviations() for d in dists], [d.variance() for d in dists], scale)
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

    def branch_poly(v: int) -> RealPolynomial:
        mats = [choices[i].values[u] for i, u in enumerate(fixed + [v])] + means[len(fixed) + 1 :]
        return mixed_char_poly(MatrixEnsemble(tuple(mats)), ones)

    return _run_descent(
        num_levels=len(choices),
        candidates=lambda k: ((i, p) for i, p in enumerate(choices[k].probs) if p > 0),
        branch_poly=branch_poly,
        commit=fixed.append,
    )
