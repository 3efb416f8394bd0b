import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from interlace import (
    DiscrepancyInstance,
    FiniteDistribution,
    MatrixDistribution,
    NumericalFailure,
    RealPolynomial,
    ValueNotInSupport,
    conditional_spec_quadratic,
    ensemble,
    greedy_descent_linear,
    greedy_descent_quadratic,
    operator_norm,
    solve_hermitian,
    solve_kls,
)
from interlace import descent, lyapunov
from interlace.descent import ROOTEDNESS_TOL
from interlace.generate import covering_ensemble, random_psd, random_two_valued, trace_capped_ensemble
from interlace.linalg import rank_one_completion
from interlace.lyapunov import LyapunovInstance, ks_r_partition, lyapunov_select
from interlace.mixedchar import SubsetTable, _graded_poly, mixed_char_poly
from interlace.polynomials import MaxRoot, evaluate_bounded, maxroot_certified, root_report
from interlace.reference import expected_product_poly, subset_convolve

FD = FiniteDistribution


def diag(*vals):
    return np.diag(np.array(vals, dtype=float))


def test_conditional_spec_free_fair_signs():
    spec = conditional_spec_quadratic([FD.fair_signs()], {})
    assert spec.a == (0.0,) and spec.b == (0.0,) and spec.c == (-1.0,)


def test_conditional_spec_fixed_value():
    spec = conditional_spec_quadratic([FD.fair_signs()], {0: 1.0})
    assert (spec.a[0], spec.b[0], spec.c[0]) == (-1.0, 1.0, -1.0)


def test_conditional_spec_centered_bernoulli():
    t = 0.3
    d = FD.make([-t, 1 - t], [1 - t, t])
    spec = conditional_spec_quadratic([d], {})
    assert spec.a[0] == pytest.approx(0.0, abs=1e-15)
    assert spec.c[0] == pytest.approx(-t * (1 - t))


def test_conditional_spec_centers_every_index():
    # mean 2.5, Var = 0.25 * 1.5^2 + 0.75 * 0.5^2 = 0.75
    d = FD.make([1.0, 3.0], [0.25, 0.75])
    assert (d.mean(), d.deviations(), d.variance()) == (2.5, {1.0: -1.5, 3.0: 0.5}, 0.75)
    spec = conditional_spec_quadratic([d, d], {0: 1.0})
    assert (spec.a, spec.b, spec.c) == ((1.5, 0.0), (-1.5, 0.0), (-2.25, -0.75))
    point = FD.point_mass(0.7)
    assert (point.mean(), point.deviations(), point.variance()) == (0.7, {0.7: 0.0}, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    offset=st.floats(-1e12, 1e12),
    spread=st.floats(1e-3, 10.0),
    units=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    cuts=st.lists(st.integers(1, 2**16 - 1), min_size=4, max_size=4, unique=True),
)
# exact variances below the smallest double, which variance() rounds to 0.0
@example(offset=0.0, spread=1.0, units=[0.0, 8.07e-185], cuts=[2**15, 1, 2, 3])
@example(offset=0.0, spread=1.0, units=[0.0, 2.23e-308], cuts=[2**15, 1, 2, 3])
@example(offset=0.0, spread=1.0, units=[0.0, 2.63e-291], cuts=[2**15, 1, 2, 3])
# deviations below the smallest normal double, where 8 eps max |d_v| is
# about 2e-324, below the spacing 2^-1074 of any rounded sum
@example(offset=0.0, spread=0.5, units=[0.0, 2.225073858507203e-309], cuts=[1, 2, 3, 4])
def test_deviations_center_values_far_from_zero(offset, spread, units, cuts):
    # probabilities on a 2^-16 grid sum to exactly 1, so the exact mean is
    # the rational sum p v; E xi^2 - mu^2 cancels here by up to 3.7e14 relative.
    # Each term p d_v^2 or p d_v that underflows is off by at most 2^-1074
    # absolute, a floor that is negligible once the variance exceeds about
    # 1e-307, respectively the deviations about 1e-292.
    values = [offset + spread * u for u in units]
    assume(len(set(values)) == len(values))
    edges = [0, *sorted(cuts[: len(values) - 1]), 2**16]
    probs = [(b - a) / 2**16 for a, b in zip(edges, edges[1:])]
    dist = FD.make(values, probs)
    exact = [(Fraction(v), Fraction(p)) for v, p in zip(values, probs)]
    mu = sum(p * v for v, p in exact)
    var = sum(p * (v - mu) ** 2 for v, p in exact)
    eps = np.finfo(float).eps
    floor = len(values) * Fraction(math.ulp(0.0))
    assert abs(Fraction(dist.variance()) - var) <= 16 * eps * var + floor  # 3.6e-15; 5.7e-16 seen
    dev = dist.deviations()
    assert list(dev) == list(dist.values)  # keyed by the given values
    residual = sum(p * Fraction(dev[float(v)]) for v, p in exact)
    assert abs(residual) <= 8 * eps * max(abs(t) for t in dev.values()) + floor  # 2.2e-16 seen


def test_conditional_spec_rejects_foreign_value():
    with pytest.raises(ValueNotInSupport):
        conditional_spec_quadratic([FD.fair_signs()], {0: 0.5})


def test_quadratic_descent_single_fair_sign():
    cert = greedy_descent_quadratic(SubsetTable.build(ensemble([diag(1.0)])), [FD.fair_signs()])
    assert cert.assignment == (-1.0,)  # tie breaks to the smaller value
    np.testing.assert_allclose(cert.maxroots, [1.0, 1.0], atol=1e-9)
    assert cert.monotone_within(1e-7)


def test_quadratic_descent_point_mass():
    cert = greedy_descent_quadratic(SubsetTable.build(ensemble([diag(1.0)])), [FD.point_mass(0.0)])
    assert cert.assignment == (0.0,)
    np.testing.assert_allclose(cert.maxroots, [0.0, 0.0], atol=1e-9)


def test_quadratic_descent_identity_partition_norm():
    E = ensemble([diag(1, 0), diag(0, 1)])
    cert = greedy_descent_quadratic(SubsetTable.build(E), [FD.fair_signs(), FD.fair_signs()])
    signed = sum(s * M.entries for s, M in zip(cert.assignment, E))
    from interlace import make_hermitian

    assert operator_norm(make_hermitian(signed, tol=np.inf)) <= cert.maxroots[0] + 1e-7
    # the root polynomial (x^2 - 1)^2 has a double max root at 1
    lo, hi = cert.enclosures[0]
    assert lo <= 1.0 <= hi <= 1.0 + 1e-7


def test_linear_descent_deterministic_value():
    cert = greedy_descent_linear([MatrixDistribution.deterministic(diag(2.0))])
    assert cert.assignment == (0,)
    np.testing.assert_allclose(cert.maxroots, [2.0, 2.0], atol=1e-9)


def test_linear_descent_picks_smaller_branch():
    md = MatrixDistribution.make([diag(0.0), diag(2.0)], [0.5, 0.5])
    cert = greedy_descent_linear([md])
    assert cert.assignment == (0,)
    np.testing.assert_allclose(cert.maxroots, [1.0, 0.0], atol=1e-9)


def test_linear_descent_forced_chain():
    choices = [
        MatrixDistribution.deterministic(diag(1, 0)),
        MatrixDistribution.deterministic(diag(0, 1)),
    ]
    cert = greedy_descent_linear(choices)
    assert cert.assignment == (0, 0)
    np.testing.assert_allclose(cert.maxroots, [1.0, 1.0, 1.0], atol=1e-7)


def test_descent_monotone_on_random_instances():
    rng = np.random.default_rng(10)
    for _ in range(15):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(2, 9))
        E = trace_capped_ensemble(rng, d, m, 1.0)
        dists = [random_two_valued(rng) for _ in range(m)]
        cert = greedy_descent_quadratic(SubsetTable.build(E), dists)
        assert cert.monotone_within(1e-7)
        assert len(cert.maxroots) == m + 1
        assert len(cert.residuals) == m


def test_residuals_are_the_chain_violations():
    from interlace import ks_r_partition
    from interlace.generate import covering_ensemble

    rng = np.random.default_rng(13)
    E = trace_capped_ensemble(rng, 3, 5, 1.0)
    quadratic = greedy_descent_quadratic(SubsetTable.build(E), [random_two_valued(rng) for _ in range(5)])
    partition = ks_r_partition(covering_ensemble(rng, 2, 5, 0.9), [0.4, 0.6]).certificate
    for cert in (quadratic, partition):
        chain = cert.enclosures
        assert cert.residuals == tuple(max(0.0, chain[k + 1].lo - chain[k].hi) for k in range(len(chain) - 1))
        assert len(cert.residuals) == 5


@pytest.mark.parametrize("seed", range(3))
def test_quadratic_descent_is_shift_invariant(seed):
    # the family reads only xi - E xi, so shifting every variable shifts
    # the assignment and leaves the chain as it was, up to the rounding of
    # the shifted means
    rng = np.random.default_rng(40 + seed)
    E = trace_capped_ensemble(rng, 3, 6, 1.0)
    dists = [random_two_valued(rng) for _ in range(6)]
    shifts = rng.uniform(-4.0, 4.0, 6)
    cert = greedy_descent_quadratic(SubsetTable.build(E), dists)
    moved = greedy_descent_quadratic(SubsetTable.build(E), [dist.shift(c) for dist, c in zip(dists, shifts)])
    assert np.allclose(np.subtract(moved.assignment, shifts), cert.assignment, rtol=0.0, atol=1e-12)
    assert np.allclose(moved.maxroots, cert.maxroots, rtol=0.0, atol=1e-9)


def test_descent_assignment_values_lie_in_support():
    rng = np.random.default_rng(11)
    E = trace_capped_ensemble(rng, 3, 4, 1.0)
    dists = [random_two_valued(rng) for _ in range(4)]
    cert = greedy_descent_quadratic(SubsetTable.build(E), dists)
    for s, dd in zip(cert.assignment, dists):
        assert s in dd.support()


@pytest.mark.parametrize(
    "values, probs",
    [
        ([0.0, 1.0], [math.nan, math.nan]),
        ([0.0, 1.0], [math.nan, 1.0]),
        ([0.0, 1.0], [0.5, math.inf]),
        ([math.nan, 1.0], [0.5, 0.5]),
        ([0.0, -math.inf], [0.5, 0.5]),
    ],
)
def test_finite_distribution_rejects_nan_and_non_finite(values, probs):
    with pytest.raises(ValueError):
        FD.make(values, probs)


@pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0], [0.5, math.inf]])
def test_matrix_distribution_rejects_nan_and_non_finite_probs(probs):
    with pytest.raises(ValueError):
        MatrixDistribution.make([diag(0.0), diag(2.0)], probs)


def test_descent_aborts_on_non_real_rooted_branch():
    # a broken evaluator must abort, not guess, and commit nothing.  The
    # root is level 0's mixture: x^2 and (x - 10)^2 are real-rooted, but at
    # 1/2 each they mix to x^2 - 10x + 50, whose roots are 5 +- 5i
    from interlace import NotRealRooted, RealPolynomial
    from interlace.descent import _run_descent

    bad = RealPolynomial.from_coeffs([2.0, 0.0, 1.0])  # roots +-i sqrt(2)
    square = RealPolynomial.from_coeffs([0.0, 0.0, 1.0])
    shifted = RealPolynomial.from_coeffs([100.0, -20.0, 1.0])
    for branches, context in (([square, shifted], "root"), ([bad, square], "level 0, branch 0")):
        committed = []
        with pytest.raises(NotRealRooted, match=rf"^{context}: .*residual .*; aborting descent$"):
            _run_descent(
                num_levels=1,
                candidates=lambda k: [(0, 0.5), (1, 0.5)],
                branch_poly=lambda cand: branches[cand].coeffs,
                commit=committed.append,
            )
        assert committed == []


def test_descent_commits_each_level_once_with_its_winner():
    # A recording fake: branch v at a level has the single root
    # maxroots[level][v], and each level mixes to the branch committed
    # before it.  Level 0 is won by candidate 1; at level 1 candidates 0 and
    # 2 tie within TIE_TOL, so the earlier one is committed even though its
    # root is higher by TIE_TOL / 2.
    from interlace.descent import TIE_TOL, _run_descent

    weights = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]
    level1 = [2.0, 5.0, 2.0 - TIE_TOL / 2]
    maxroots = [[4.0, sum(w * x for w, x in zip(weights[1], level1)), 5.0], level1]
    calls = []

    def run(num_levels, broken=None):
        def branch_poly(cand):
            level = sum(1 for call in calls if call[0] == "commit")
            calls.append(("branch", level, cand))
            if (level, cand) == broken:
                return [1.0, 0.0, 1.0]  # roots +-i
            return [-maxroots[level][cand], 1.0]

        calls.clear()
        return _run_descent(
            num_levels=num_levels,
            candidates=lambda k: enumerate(weights[k]),
            branch_poly=branch_poly,
            commit=lambda v: calls.append(("commit", v)),
        )

    cert = run(2)
    assert [call for call in calls if call[0] == "commit"] == [("commit", 1), ("commit", 0)]
    assert calls.index(("commit", 1)) == 3  # after all three branches of level 0
    assert cert.assignment == (1, 0)
    assert cert.maxroots == pytest.approx((4.125, 3.5, 2.0), abs=1e-9)
    assert -TIE_TOL < cert.margins[1] < 0.0
    # level 1 is decided at level 0's root 3.5: branches 0 and 2 lie below
    # it and tie, branch 1 lies above it, and no report of its own is taken
    assert cert.fallback_levels == ()
    # a branch that is not real-rooted here also breaks its level's mixture,
    # which refuses the level before it is decided or committed; every
    # branch of the level is read first
    with pytest.raises(NumericalFailure, match=r"^level 1: mixture .* off the branch committed at level 0$"):
        run(2, broken=(1, 1))
    assert calls == [("branch", 0, 0), ("branch", 0, 1), ("branch", 0, 2), ("commit", 1), ("branch", 1, 0), ("branch", 1, 1), ("branch", 1, 2)]


@pytest.mark.parametrize("drift_at", [1, 2, 3])
def test_descent_names_the_level_whose_mixture_leaves_the_committed_branch(drift_at):
    # A fake engine for the walk x_k = x_(k-1) + v 2^-k, v = +-1 at 1/2 each:
    # branch v at level k has the single root x + v 2^-k, so every level
    # mixes to the branch committed before it.  Commit number drift_at also
    # moves x by `drift`; past the rounding budget, the next level must
    # refuse before its own commit.
    from interlace import NumericalFailure
    from interlace.descent import _run_descent

    def run(drift, commits):
        x = [0.0]

        def commit(v):
            commits.append(v)
            x[0] += v * 2.0 ** -(len(commits) - 1) + (drift if len(commits) == drift_at else 0.0)

        return _run_descent(
            num_levels=4,
            candidates=lambda k: [(-1.0, 0.5), (1.0, 0.5)],
            branch_poly=lambda v: [-(x[0] + v * 2.0 ** -len(commits)), 1.0],
            commit=commit,
        )

    commits = []
    assert run(1e-16, commits).assignment == (-1.0,) * 4
    assert len(commits) == 4
    commits = []
    with pytest.raises(NumericalFailure, match=rf"^level {drift_at}: mixture .* off the branch committed at level {drift_at - 1}$"):
        run(1e-9, commits)
    assert len(commits) == drift_at


def test_certificate_records_enclosures_bands_and_margins():
    md = MatrixDistribution.make([diag(0.0), diag(2.0)], [0.5, 0.5])
    cert = greedy_descent_linear([md, MatrixDistribution.deterministic(diag(1.0))])
    assert cert.assignment == (0, 0)
    assert cert.maxroots == tuple(e.hi for e in cert.enclosures)
    for (lo, hi), exact in zip(cert.enclosures, (2.0, 1.0, 1.0)):
        assert lo <= exact <= hi
    assert cert.bands == tuple(e.hi - e.lo for e in cert.enclosures[1:])
    assert max(cert.bands) <= 1e-10
    # level 0: the runner-up (value 2) has max root 3; level 1 has one value
    assert cert.margins[0] == pytest.approx(2.0, abs=1e-9)
    assert cert.margins[1] == np.inf
    assert cert.residuals == (0.0, 0.0)


@pytest.mark.parametrize("seed", [0, 2, 5])
@pytest.mark.parametrize("defect", [-9.9e-13, 9.9e-13])
def test_level_check_admits_probabilities_that_validation_admits(seed, defect):
    # probabilities may sum to 1 within 1e-12, which moves each mixture by
    # that defect times the branch without the index: the budget must admit
    # it (at these seeds a budget of 1e-12 of the scale alone is exceeded)
    rng = np.random.default_rng(seed)
    E = trace_capped_ensemble(rng, 3, 5, 1.0)
    dists = []
    for _ in range(5):
        a = float(rng.uniform(-3, 1))
        b = a + float(rng.uniform(0.1, 3))
        p = float(rng.uniform(0.01, 0.99))
        dists.append(FD((a, b), (p, 1 - p + defect)))
    assert len(greedy_descent_quadratic(SubsetTable.build(E), dists).assignment) == 5


def _quadratic_root(rng):
    # uncentered two-valued variables: the descent and the reference spec center them
    E = trace_capped_ensemble(rng, 4, 9, 1.0)
    dists = [random_two_valued(rng) for _ in range(9)]
    root = expected_product_poly(E, conditional_spec_quadratic(dists, {}))
    return greedy_descent_quadratic(SubsetTable.build(E), dists), root


def _partition_root(rng):
    d, m, t = 3, 8, [0.2, 0.3, 0.5]
    E = covering_ensemble(rng, d, m, 0.9)
    res = ks_r_partition(E, t)
    table = SubsetTable.build(list(E) + rank_one_completion(E.sum(), res.epsilon))
    signed = np.where(table.sizes % 2, -table.coeffs, table.coeffs)
    return res.certificate, _graded_poly(table.sizes, subset_convolve([signed] * len(t), table.n), len(t) * d)


def _linear_root(rng):
    d, m = 4, 7
    choices = []
    for _ in range(m):
        nv = int(rng.integers(1, 4))
        probs = rng.uniform(0.1, 1.0, size=nv)
        values = [random_psd(rng, d, trace=float(rng.uniform(0.05, 0.5))) for _ in range(nv)]
        choices.append(MatrixDistribution.make(values, probs / probs.sum()))
    reference = mixed_char_poly(ensemble([ch.mean().entries for ch in choices]), np.ones(m))
    return greedy_descent_linear(choices), reference


@pytest.mark.parametrize("solve", [_quadratic_root, _partition_root, _linear_root], ids=["quadratic", "partition", "linear"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_root_enclosure_matches_the_reference_root_polynomial(solve, seed):
    # the root is read off level 0 as the mixture of its branches; each
    # family's full reference pass must give the same max root
    cert, reference = solve(np.random.default_rng(seed))
    want = maxroot_certified([reference], rootedness_tol=ROOTEDNESS_TOL)[0]
    assert cert.enclosures[0].hi == pytest.approx(want.hi, abs=1e-9)
    assert cert.enclosures[0].lo == pytest.approx(want.lo, abs=1e-9)


def _kls_cert(rng):
    E = trace_capped_ensemble(rng, 3, 6, 1.0)
    return solve_kls(DiscrepancyInstance(E, tuple(random_two_valued(rng) for _ in range(6)))).certificate


def _hermitian_cert(rng):
    mats = [random_psd(rng, 2) - random_psd(rng, 2) for _ in range(5)]
    return solve_hermitian(mats, [random_two_valued(rng) for _ in range(5)]).certificate


def _select_cert(rng):
    weights = [0.3, 1.0, 0.5, 0.0, 0.7, 0.2]  # 0 and 1 are point masses: one branch each
    return lyapunov_select(LyapunovInstance.make(trace_capped_ensemble(rng, 2, 6, 0.25), weights)).solver.certificate


def _partition_cert(rng):
    return ks_r_partition(covering_ensemble(rng, 3, 8, 0.9), [0.2, 0.3, 0.5]).certificate


SOLVERS = {"solve_kls": _kls_cert, "solve_hermitian": _hermitian_cert, "lyapunov_select": _select_cert, "ks_r_partition": _partition_cert}


def _recording_reports(monkeypatch):
    # the stack of every root_report the descent takes, through the name it calls
    stacks = []

    def recording(polys, tol):
        stacks.append(list(polys))
        return root_report(polys, tol)

    monkeypatch.setattr(descent, "root_report", recording)
    return stacks


def _recording_levels(monkeypatch):
    # every level's branch polynomials in candidate order, through both
    # names the solvers call the descent by
    levels = []
    run = descent._run_descent

    def recording(num_levels, candidates, branch_poly, commit):
        def listed(k):
            levels.append([])
            return candidates(k)

        def read(cand):
            row = branch_poly(cand)
            levels[-1].append(RealPolynomial.from_coeffs(row))
            return row

        return run(num_levels, listed, read, commit)

    monkeypatch.setattr(descent, "_run_descent", recording)
    monkeypatch.setattr(lyapunov, "_run_descent", recording)
    return levels


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("solver", SOLVERS)
def test_stacked_enclosure_is_each_level_certified_alone(monkeypatch, solver, seed):
    # one report per descent, after the last level: level 0's branches, the
    # root polynomial, then every later row, none of them reported twice.
    # The one enclosure over every level's rows gives each row the enclosure
    # of its level's stack alone, bit for bit, and so the same margins
    stacks = _recording_reports(monkeypatch)
    levels = _recording_levels(monkeypatch)
    cert = SOLVERS[solver](np.random.default_rng(seed))
    assert len(levels) == len(cert.margins) == len(cert.enclosures) - 1
    assert cert.fallback_levels == ()
    assert len(stacks) == 1
    root = stacks[0][len(levels[0])]
    assert stacks[0] == levels[0] + [root] + [p for rows in levels[1:] for p in rows]
    for level, (rows, chosen, margin) in enumerate(zip(levels, cert.enclosures[1:], cert.margins)):
        alone = maxroot_certified(rows + [root] if level == 0 else rows, rootedness_tol=ROOTEDNESS_TOL)
        if level == 0:
            *alone, root_enclosure = alone
            assert root_enclosure == cert.enclosures[0]
        rivals = list(alone)
        rivals.remove(chosen)
        assert margin == min((rival.hi for rival in rivals), default=math.inf) - chosen.hi


def _inject_decision(monkeypatch, at, edit):
    # rewrite the at-th decision taken at a level's r (0-based)
    decide, calls = descent._decide_at_parent_root, []

    def injected(rows, r):
        found = decide(rows, r)
        calls.append(r)
        return edit([RealPolynomial(tuple(row)) for row in rows], *found) if len(calls) - 1 == at else found

    monkeypatch.setattr(descent, "_decide_at_parent_root", injected)
    return calls


def _widest_decided_level(inst):
    # the level past 0 decided with the widest margin; every level of these
    # two-valued variables has two branches, so level k is decision k
    cert = solve_kls(inst).certificate
    assert cert.fallback_levels == ()
    level = 1 + int(np.argmax(cert.margins[1:]))
    assert cert.margins[level] > 1e-3
    return level


def _kls_instance(seed):
    rng = np.random.default_rng(seed)
    E = trace_capped_ensemble(rng, 3, 6, 1.0)
    return DiscrepancyInstance(E, tuple(random_two_valued(rng) for _ in range(6)))


def test_descent_refuses_a_decision_its_enclosures_contradict(monkeypatch):
    # a decision that takes the branch with the higher max root, naming
    # every branch's true root, passes the check on its roots; the certified
    # ends must refuse it
    inst = _kls_instance(4)
    level = _widest_decided_level(inst)

    def wrong_way_round(polys, best, roots):
        true = [report.maxroot for report in root_report(polys, ROOTEDNESS_TOL)]
        return int(np.argmax(true)), true

    _inject_decision(monkeypatch, level, wrong_way_round)
    with pytest.raises(NumericalFailure, match=rf"^level {level}: the chosen branch's certified max root"):
        solve_kls(inst)


def test_descent_refuses_a_decided_root_outside_its_enclosure(monkeypatch):
    # the right branch with a max root 1e-6 too high: the next level is
    # decided at that root, and the certified enclosure must refuse it
    inst = _kls_instance(4)
    level = _widest_decided_level(inst)

    def off_root(polys, best, roots):
        roots = list(roots)
        roots[best] += 1e-6
        return best, roots

    calls = _inject_decision(monkeypatch, level, off_root)
    with pytest.raises(NumericalFailure, match=rf"^level {level}: a max root decided at the parent's root lies outside"):
        solve_kls(inst)
    assert len(calls) == len(inst.dists)  # the descent ran to its end


def test_descent_names_the_level_of_an_uncertified_enclosure(monkeypatch):
    # two levels of single-root branches at v, then at v - 1/2, each level
    # mixing to the branch committed before it: 3 + 1 root rows and then 2,
    # so the stacked enclosure's row 4 is level 1's first branch
    from interlace import polynomials
    from interlace.descent import _run_descent

    enclose = polynomials._enclose

    def spoiled(polys, seeds):
        out = enclose(polys, seeds)
        out[4] = MaxRoot(out[4].hi, out[4].hi)
        return out

    monkeypatch.setattr(polynomials, "_enclose", spoiled)
    committed = []
    with pytest.raises(NumericalFailure, match=r"^level 1: max root enclosure .* is not certified$") as exc:
        _run_descent(
            num_levels=2,
            candidates=lambda k: [(0, 1 / 3), (1, 1 / 3), (2, 1 / 3)] if k == 0 else [(0, 0.5), (1, 0.5)],
            branch_poly=lambda v: [0.5 * len(committed) - v, 1.0],
            commit=committed.append,
        )
    assert exc.value.row == 4
    assert committed == [0, 0]


def _synthetic_levels(tops, weights, low_roots):
    # level 0 has the one branch P = (x - sum w a) g, level 1 the branches
    # p_i = (x - a_i) g that mix to it; g's roots lie below every a_i, so the
    # branches interlace and p_i has the max root a_i
    g = np.poly(low_roots)[::-1] if low_roots else np.ones(1)
    mean = float(np.dot(weights, tops))
    level0 = [RealPolynomial.from_coeffs(np.convolve([-mean, 1.0], g))]
    level1 = [RealPolynomial.from_coeffs(np.convolve([-a, 1.0], g)) for a in tops]
    return [level0, level1], [[1.0], list(weights)]


def _run_levels(levels, weights):
    committed = []
    cert = descent._run_descent(
        num_levels=len(levels),
        candidates=lambda k: list(enumerate(weights[k])),
        branch_poly=lambda v: levels[len(committed)][v].coeffs,
        commit=committed.append,
    )
    return cert, committed


_NEAR_TIES = [0.0, 0.5, 0.999, 1.0, 1.001, 2.0]


@settings(max_examples=400, deadline=None)
@given(
    base=st.floats(-2.0, 2.0),
    offsets=st.lists(
        st.one_of(
            st.sampled_from(_NEAR_TIES).map(lambda t: t * descent.TIE_TOL),
            st.sampled_from(_NEAR_TIES).map(lambda t: -t * descent.TIE_TOL),
            st.floats(-1.0, 1.0),
        ),
        min_size=2,
        max_size=4,
    ),
    raw_weights=st.lists(st.sampled_from([1e-12, 1e-10, 1e-6, 0.01, 0.3, 0.5, 1.0]), min_size=4, max_size=4),
    gaps=st.lists(st.floats(0.1, 2.0), max_size=3),
)
@example(base=0.0, offsets=[0.0, 0.0, 0.0], raw_weights=[1.0, 1.0, 1.0, 1.0], gaps=[1.0])  # exact tie at r
@example(base=0.0, offsets=[1.0, 0.999e-9, 0.0], raw_weights=[1e-10, 1.0, 1.0, 1.0], gaps=[0.5])
# r from level 0's walk, a few ulps off its companion root: level 1 is
# decided at the one and falls back at the other
@example(base=-1.375, offsets=[0.0, 2e-9, 0.0, 0.0], raw_weights=[1e-12, 0.01, 1e-12, 0.01], gaps=[1.0, 1.0])
@example(base=-0.5, offsets=[0.0, 2e-9], raw_weights=[1e-12, 1e-12, 1e-12, 1e-12], gaps=[1.0625])
def test_parent_root_decision_picks_the_companion_winner(base, offsets, raw_weights, gaps):
    # exact ties, ties within and just past TIE_TOL, and roots far above r,
    # with weights down to 1e-12 that put r within TIE_TOL of a branch root:
    # a level decided at r must commit the branch that ranking the polished
    # companion roots commits, or fall back to that ranking.  Two roots
    # TIE_TOL apart to within rounding rank either way in either method
    tops = [base + t for t in offsets]
    assume(all(abs(abs(a - b) - descent.TIE_TOL) > 1e-12 for a in tops for b in tops))
    weights = np.array(raw_weights[: len(tops)]) / sum(raw_weights[: len(tops)])
    low = [min(tops) - sum(gaps[: k + 1]) for k in range(len(gaps))]
    levels, probs = _synthetic_levels(tops, weights, low)
    cert, committed = _run_levels(levels, probs)
    companion = descent._rank([report.maxroot for report in root_report(levels[1], ROOTEDNESS_TOL)])
    assert committed == [0, companion]
    # level 1's r as the descent takes it: level 0's root decided at its
    # bound, or its companion root when level 0 falls back
    root_row = levels[0][0].coeffs
    bound = descent._max_root_bound(root_row)
    walked = None if bound is None else descent._decide_at_parent_root([root_row], bound)
    parent = walked[1][0] if walked else root_report(levels[0], ROOTEDNESS_TOL)[0].maxroot
    found = descent._decide_at_parent_root([p.coeffs for p in levels[1]], parent)
    assert cert.fallback_levels == (() if found else (1,))
    if found:
        best, roots = found
        assert best == companion
        for root, top in zip(roots, tops):
            # a root decided below r is the branch's; one left open lies above r
            assert abs(root - top) <= 1e-12 if root is not None else top > parent


def test_a_found_root_within_tie_tol_of_the_parent_root_falls_back_beside_an_open_one():
    # branch 0's root 0 lies TIE_TOL / 2 below r = 5e-10 and branch 1's root
    # 1 lies above r: the tie rule ranks them only once the roots above r
    # are known, so the level ranks a report of its own, which commits 0
    weights = [1.0 - 0.5 * descent.TIE_TOL, 0.5 * descent.TIE_TOL]
    levels, probs = _synthetic_levels([0.0, 1.0], weights, [-1.0])
    parent = root_report(levels[0], ROOTEDNESS_TOL)[0].maxroot
    assert parent == pytest.approx(0.5 * descent.TIE_TOL, rel=1e-6)
    assert descent._decide_at_parent_root([p.coeffs for p in levels[1]], parent) is None
    cert, committed = _run_levels(levels, probs)
    assert committed == [0, 0]
    assert cert.fallback_levels == (1,)


def test_a_found_root_after_two_open_ones_is_decided_at_the_parent_root():
    # roots 1 and 2 lie above r = 0.3 and root 0 below it by far more than
    # TIE_TOL: each root above r counts as +inf, so branch 2 wins at r
    levels, probs = _synthetic_levels([1.0, 2.0, 0.0], [0.1, 0.1, 0.8], [-1.0])
    parent = root_report(levels[0], ROOTEDNESS_TOL)[0].maxroot
    best, roots = descent._decide_at_parent_root([p.coeffs for p in levels[1]], parent)
    assert best == 2 and roots[:2] == [None, None] and abs(roots[2]) <= 1e-12
    cert, committed = _run_levels(levels, probs)
    assert committed == [0, 2]
    assert cert.fallback_levels == ()


def test_a_branch_root_at_the_parent_root_takes_one_fallback_report(monkeypatch):
    # level 1's branches (x - 1)(x + 1/2) and (x - 1)(x + 3/2) both vanish
    # at the parent's root 1, inside any error bound, so the level ranks a
    # report of its own; level 2, (x - 1/2)(x + 1/2) against (x - 3/2)(x + 1/2)
    # at 1, is decided without one, and its rows enter the last report
    # after level 0's branch and the root polynomial, both x^2 - 1
    stacks = _recording_reports(monkeypatch)
    poly = RealPolynomial.from_coeffs
    levels = [
        [poly([-1.0, 0.0, 1.0])],
        [poly(np.convolve([-1.0, 1.0], [0.5, 1.0])), poly(np.convolve([-1.0, 1.0], [1.5, 1.0]))],
        [poly(np.convolve([-0.5, 1.0], [0.5, 1.0])), poly(np.convolve([-1.5, 1.0], [0.5, 1.0]))],
    ]
    cert, committed = _run_levels(levels, [[1.0], [0.5, 0.5], [0.5, 0.5]])
    assert committed == [0, 0, 0]
    assert cert.fallback_levels == (1,)
    assert [len(stack) for stack in stacks] == [2, 4]
    assert stacks[0] == levels[1] and stacks[1] == levels[0] * 2 + levels[2]
    np.testing.assert_allclose(cert.maxroots, [1.0, 1.0, 1.0, 0.5], atol=1e-9)


@pytest.mark.parametrize(
    "bad, fallbacks",
    [
        # (x - 1/2)(x^2 + 1/100) is positive at the parent's root 1 and Newton
        # falls from there to 1/2: the level is decided, the last report
        # finds the complex pair and names the branch after the descent
        ([-0.005, 0.01, -0.5, 1.0], ()),
        # x^2 + 1 at 1: Newton stalls at the minimum 0, so the level falls
        # back to its own report, which names the branch before the commit
        ([1.0, 0.0, 1.0], None),
    ],
    ids=["decided", "fallback"],
)
def test_descent_names_a_branch_past_level_0_that_is_not_real_rooted(bad, fallbacks):
    # the parent x(x - 1)(x + 1), or (x - 1)(x + 1), is the equal mixture of
    # the bad branch and its complement 2 P - bad
    from interlace import NotRealRooted

    parent = np.array([0.0, -1.0, 0.0, 1.0]) if len(bad) == 4 else np.array([-1.0, 0.0, 1.0])
    bad = np.array(bad)
    levels = [[RealPolynomial.from_coeffs(parent)], [RealPolynomial.from_coeffs(bad), RealPolynomial.from_coeffs(2 * parent - bad)]]
    assert root_report(levels[1][1:], ROOTEDNESS_TOL)[0].real_rooted
    found = descent._decide_at_parent_root([p.coeffs for p in levels[1]], 1.0)
    assert (found is None) == (fallbacks is None)
    committed = []
    with pytest.raises(NotRealRooted, match=r"^level 1, branch 0: expected polynomial not real-rooted .*; aborting descent$"):
        descent._run_descent(
            num_levels=2,
            candidates=lambda k: [(0, 1.0)] if k == 0 else [(0, 0.5), (1, 0.5)],
            branch_poly=lambda v: levels[len(committed)][v].coeffs,
            commit=committed.append,
        )
    assert committed == ([0] if fallbacks is None else [0, 0])


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("solver", SOLVERS)
def test_sign_test_at_the_parent_root_stays_inside_its_error_budget(monkeypatch, solver, seed):
    # every p_i(r) a solve's decisions read, against the same float
    # coefficients and r evaluated in 50-digit mpmath
    seen = []

    def recording(coeffs, x):
        out = evaluate_bounded(coeffs, x)
        seen.append((coeffs, x, out))
        return out

    monkeypatch.setattr(descent, "evaluate_bounded", recording)
    SOLVERS[solver](np.random.default_rng(seed))
    assert seen
    with mpmath.workdps(50):
        for coeffs, x, (value, bound) in seen:
            exact = mpmath.polyval([mpmath.mpf(c) for c in coeffs[::-1]], mpmath.mpf(x))
            assert abs(mpmath.mpf(value) - exact) <= bound


def _integer_poly(roots):
    """Ascending integer coefficients of prod (x - k) over the integer roots k."""
    coeffs = [1]
    for k in roots:
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


@st.composite
def _exact_real_rooted_rows(draw):
    """(row, max root): 2^lead x^zeros prod (x - k 2^scale), with integer k,
    whose float64 coefficients are exact, so the row has exactly these roots.

    The nonzero roots are a cluster c + {0..3} at c up to 64, a root
    c = +-2^t (t <= 40) of multiplicity up to 40 beside one more near it,
    where the bound is tight and its n v cancels down to rounding, a
    multiple root +-1, +-2 or +-4 of multiplicity up to 40, a few spread
    roots, or the pairs +-k of an even row x^z q(x^2)."""
    kind = draw(st.sampled_from(["clustered", "tight", "multiple", "spread", "even"]))
    if kind == "tight":  # mu + sqrt((n - 1) v) is the max root itself
        center = draw(st.sampled_from([-1, 1])) << draw(st.integers(0, 40))
        ks = [center] * draw(st.integers(1, 40)) + [center + draw(st.sampled_from([-3, -1, 1, 2]))]
    elif kind == "clustered":
        center = draw(st.integers(-64, 64))
        ks = [center + draw(st.integers(0, 3)) for _ in range(draw(st.integers(1, 6)))]
    elif kind == "multiple":
        ks = [draw(st.sampled_from([-4, -2, -1, 1, 2, 4]))] * draw(st.integers(1, 40))
        ks += draw(st.lists(st.integers(-3, 3), max_size=3))
    elif kind == "spread":
        ks = draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=5))
    else:
        pairs = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
        ks = [k for p in pairs for k in (p, -p)]
    zeros = 0 if kind == "tight" else draw(st.integers(0, 48 - len(ks)))  # zero roots would loosen it
    # the coefficients' exponents span |scale| per root: keep them normal
    reach = min(300, 1900 // len(ks))
    scale = draw(st.integers(-reach, reach))
    lead = draw(st.integers(-40, 40)) - scale * len(ks) // 2
    exact = [Fraction(0)] * zeros + [
        Fraction(c) * Fraction(2) ** (scale * (len(ks) - i) + lead) for i, c in enumerate(_integer_poly(ks))
    ]
    row = [_exact_float(c) for c in exact]
    assume(None not in row)
    top = Fraction(max(ks + [0] * zeros)) * Fraction(2) ** scale
    return row, top


def _exact_float(value):
    """value as a finite float64 when that is exact, else None."""
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) and Fraction(x) == value else None


@settings(max_examples=300, deadline=None)
@given(case=_exact_real_rooted_rows())
@example(case=([-3.0, 1.0], Fraction(3)))  # degree 1: its own root plus the slack
@example(case=([0.0, 1.0], Fraction(0)))  # degree 1 at 0: the smallest normal above it
@example(case=([0.0, 0.0, 1.0], Fraction(0)))  # x^2: n v is 0, raised by its underflow floor
def test_max_root_bound_lies_at_or_above_the_max_root(case):
    # clustered, multiple and zero roots, even rows, degrees 1-48 and scales
    # 2^+-300, with every coefficient exact: the bound is at least the max
    # root, exactly, and the row is positive there unless the bound is a root
    row, top = case
    bound = descent._max_root_bound(row)
    assert bound is not None and math.isfinite(bound)
    assert Fraction(bound) >= top
    value = sum(Fraction(c) * Fraction(bound) ** i for i, c in enumerate(row))
    assert value > 0 or Fraction(bound) == top
    if len(row) == 2:  # a degree-1 row's bound is its root plus the slack
        assert Fraction(bound) <= top + abs(top) * Fraction(2) ** -39 + Fraction(sys.float_info.min) * 2


@settings(max_examples=200, deadline=None)
@given(
    case=_exact_real_rooted_rows(),
    edit=st.one_of(
        st.tuples(st.just("lead"), st.sampled_from([-1.0, -0.5, -2.0**-1074])),
        st.tuples(st.integers(0, 48), st.sampled_from([math.nan, math.inf, -math.inf])),
    ),
)
def test_max_root_bound_refuses_a_row_it_cannot_bound(case, edit):
    # a leading coefficient that is not positive, or a coefficient that is
    # not finite anywhere in the row, gives no bound, so the level falls back
    row, _ = case
    where, value = edit
    if where == "lead":
        row = row[:-1] + [value * abs(row[-1]) if value != -2.0**-1074 else value]
    else:
        row = list(row)
        row[where % len(row)] = value
    assert descent._max_root_bound(row) is None


def test_max_root_bound_refuses_a_row_whose_roots_spread_below_zero():
    # x^2 + 2 has n v = -4: no real-rooted row gives a negative variance, and
    # neither does a row whose raised n v overflows to NaN
    assert descent._max_root_bound([2.0, 0.0, 1.0]) is None
    assert descent._max_root_bound([1e300, 1e300, 1e-300]) is None


@st.composite
def _interlacing_families(draw):
    """Monic branches p_i = (x - a_i) g - sum_j b_ij g / (x - m_j) over one
    common interlacer g with roots m_j, b_ij > 0, and positive weights.

    Each p_i changes sign between consecutive roots of g and above its max
    root, so g interlaces every branch and every mixture is real-rooted;
    some branches repeat an earlier one, which ties exactly."""
    low = draw(st.floats(-5.0, 5.0))
    gaps = draw(st.lists(st.floats(0.1, 2.0), max_size=6))
    inner = [low + sum(gaps[:k]) for k in range(len(gaps) + 1)] if gaps else []
    g = np.poly(inner)[::-1] if inner else np.ones(1)
    count = draw(st.integers(2, 4))
    branches = []
    for _ in range(count):
        if branches and draw(st.booleans()):
            branches.append(branches[draw(st.integers(0, len(branches) - 1))])
            continue
        p = np.convolve([-draw(st.floats(-6.0, 6.0)), 1.0], g)
        for j, m in enumerate(inner):
            rest = np.poly(inner[:j] + inner[j + 1 :])[::-1] if len(inner) > 1 else np.ones(1)
            p[: len(rest)] -= draw(st.floats(0.05, 2.0)) * rest
        branches.append(p)
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count)))
    return branches, weights / weights.sum()


@settings(max_examples=200, deadline=None)
@given(family=_interlacing_families())
def test_level_0_decided_at_its_bound_picks_the_companion_winner(family):
    # level 0 is decided at the largest bound of its branches: it commits
    # the branch that ranking the polished companion max roots commits
    # whenever that winner beats every other branch by more than TIE_TOL,
    # without a report of its own, and its roots are the companion roots
    branches, weights = family
    stacks = []

    def recording(polys, tol):
        stacks.append(len(polys))
        return root_report(polys, tol)

    committed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(descent, "root_report", recording)
        cert = descent._run_descent(
            num_levels=1,
            candidates=lambda k: list(zip(range(len(branches)), weights)),
            branch_poly=lambda v: branches[v],
            commit=committed.append,
        )
    companion = [report.maxroot for report in root_report([RealPolynomial.from_coeffs(p) for p in branches], ROOTEDNESS_TOL)]
    winner = descent._rank(companion)
    rivals = [abs(root - companion[winner]) for p, root in zip(branches, companion) if p is not branches[winner]]
    assert cert.fallback_levels == ()
    assert stacks == [len(branches) + 1]  # the last report: the branches and the root row
    if all(gap > descent.TIE_TOL for gap in rivals):
        assert committed == [winner]
    rows = [descent._trimmed(np.asarray(p).tolist()) for p in branches]
    best, roots = descent._decide_at_parent_root(rows, max(map(descent._max_root_bound, rows)))
    assert best == committed[0]
    for root, want in zip(roots, companion):
        assert abs(root - want) <= 1e-9 * (1.0 + abs(want))


def test_level_0_whose_walk_stalls_on_a_double_root_falls_back():
    # x^2 beside x(x - 10), over the common interlacer x: the walk from the
    # bound, about 10, halves its distance to x^2's double root 0 at every
    # step and has not ended after NEWTON_STEPS, so level 0 ranks a report
    # of its own (the branches and the root row), lists 0 as a fallback
    # level and commits the companion winner, x^2; no row is left for a
    # second report
    branches = [[0.0, 0.0, 1.0], [0.0, -10.0, 1.0]]
    stacks = []

    def recording(polys, tol):
        stacks.append(len(polys))
        return root_report(polys, tol)

    bound = max(map(descent._max_root_bound, branches))
    assert 10.0 < bound < 10.0 + 1e-9
    assert descent._decide_at_parent_root(branches, bound) is None
    committed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(descent, "root_report", recording)
        cert = descent._run_descent(
            num_levels=1,
            candidates=lambda k: [(0, 0.5), (1, 0.5)],
            branch_poly=lambda v: branches[v],
            commit=committed.append,
        )
    companion = [report.maxroot for report in root_report([RealPolynomial.from_coeffs(p) for p in branches], ROOTEDNESS_TOL)]
    assert committed == [descent._rank(companion)] == [0]
    assert cert.fallback_levels == (0,)
    assert stacks == [3]
    np.testing.assert_allclose(cert.maxroots, [5.0, 0.0], atol=1e-9)


def test_a_root_polynomial_not_real_rooted_is_named_after_a_decided_level_0():
    # (x - 1)(x - 2) and (x - 3)(x - 4) share no interlacer: at 1/2 each they
    # mix to x^2 - 5x + 7, roots (5 +- i sqrt 3) / 2.  Each branch is
    # real-rooted and walks down from the bound, so level 0 is decided and
    # committed; the last report then names the root row
    from interlace import NotRealRooted

    branches = [np.convolve([-1.0, 1.0], [-2.0, 1.0]), np.convolve([-3.0, 1.0], [-4.0, 1.0])]
    committed = []
    with pytest.raises(NotRealRooted, match=r"^root: expected polynomial not real-rooted .*; aborting descent$"):
        descent._run_descent(
            num_levels=1,
            candidates=lambda k: [(0, 0.5), (1, 0.5)],
            branch_poly=lambda v: branches[v],
            commit=committed.append,
        )
    assert committed == [0]
