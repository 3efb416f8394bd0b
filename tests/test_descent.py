import math

import numpy as np
import pytest

from interlace import (
    FiniteDistribution,
    MatrixDistribution,
    NotPSD,
    ValueNotInSupport,
    conditional_spec_quadratic,
    ensemble,
    greedy_descent_linear,
    greedy_descent_quadratic,
    operator_norm,
)
from interlace.generate import random_two_valued, trace_capped_ensemble

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


def test_conditional_spec_rejects_foreign_value():
    with pytest.raises(ValueNotInSupport):
        conditional_spec_quadratic([FD.fair_signs()], {0: 0.5})


def test_quadratic_descent_single_fair_sign():
    cert = greedy_descent_quadratic(ensemble([diag(1.0)]), [FD.fair_signs()])
    assert cert.assignment == (-1.0,)  # tie breaks to the smaller value
    np.testing.assert_allclose(cert.maxroots, [1.0, 1.0], atol=1e-9)
    assert cert.monotone_within(1e-7)


def test_quadratic_descent_point_mass():
    cert = greedy_descent_quadratic(ensemble([diag(1.0)]), [FD.point_mass(0.0)])
    assert cert.assignment == (0.0,)
    np.testing.assert_allclose(cert.maxroots, [0.0, 0.0], atol=1e-9)


def test_quadratic_descent_identity_partition_norm():
    E = ensemble([diag(1, 0), diag(0, 1)])
    cert = greedy_descent_quadratic(E, [FD.fair_signs(), FD.fair_signs()])
    signed = sum(s * M.entries for s, M in zip(cert.assignment, E))
    from interlace import make_hermitian

    assert operator_norm(make_hermitian(signed, tol=np.inf)) <= cert.maxroots[0] + 1e-7
    # the root polynomial (x^2 - 1)^2 has a double max root at 1
    lo, hi = cert.enclosures[0]
    assert lo <= 1.0 <= hi <= 1.0 + 1e-7


def test_quadratic_descent_rejects_non_psd():
    with pytest.raises(NotPSD):
        greedy_descent_quadratic(ensemble([diag(1, -1)]), [FD.fair_signs()])


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
        cert = greedy_descent_quadratic(E, dists)
        assert cert.monotone_within(1e-7)
        assert len(cert.maxroots) == m + 1
        assert len(cert.residuals) == m


def test_residuals_are_the_chain_violations():
    from interlace import ks_r_partition
    from interlace.generate import covering_ensemble

    rng = np.random.default_rng(13)
    E = trace_capped_ensemble(rng, 3, 5, 1.0)
    quadratic = greedy_descent_quadratic(E, [random_two_valued(rng) for _ in range(5)])
    partition = ks_r_partition(covering_ensemble(rng, 2, 5, 0.9), [0.4, 0.6]).certificate
    for cert in (quadratic, partition):
        chain = cert.enclosures
        assert cert.residuals == tuple(max(0.0, chain[k + 1].lo - chain[k].hi) for k in range(len(chain) - 1))
        assert len(cert.residuals) == 5


def test_descent_assignment_values_lie_in_support():
    rng = np.random.default_rng(11)
    E = trace_capped_ensemble(rng, 3, 4, 1.0)
    dists = [random_two_valued(rng) for _ in range(4)]
    cert = greedy_descent_quadratic(E, dists)
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
    # a broken evaluator must abort, not guess, and commit nothing
    from interlace import NotRealRooted, RealPolynomial
    from interlace.descent import _run_descent

    bad = RealPolynomial.from_coeffs([2.0, 0.0, 1.0])  # roots +-i sqrt(2)
    good = RealPolynomial.from_coeffs([-1.0, 0.0, 1.0])
    for root, context in ((bad, "root"), (good, "level 0, branch 0")):
        committed = []
        with pytest.raises(NotRealRooted, match=rf"^{context}: .*residual .*; aborting descent$"):
            _run_descent(
                num_levels=1,
                root_poly=lambda: root,
                candidates=lambda k: [0],
                branch_poly=lambda cand: bad,
                commit=committed.append,
            )
        assert committed == []


def test_descent_commits_each_level_once_with_its_winner():
    # A recording fake: branch v at a level has the single root
    # maxroots[level][v].  Level 0 is won by candidate 1; at level 1
    # candidates 0 and 2 tie within TIE_TOL, so the earlier one is committed
    # even though its root is higher by TIE_TOL / 2.
    from interlace import NotRealRooted, RealPolynomial
    from interlace.descent import TIE_TOL, _run_descent

    maxroots = [[3.0, 1.0, 2.0], [2.0, 5.0, 2.0 - TIE_TOL / 2]]
    calls = []

    def run(num_levels, broken=None):
        def branch_poly(cand):
            level = sum(1 for call in calls if call[0] == "commit")
            calls.append(("branch", level, cand))
            if (level, cand) == broken:
                return RealPolynomial.from_coeffs([1.0, 0.0, 1.0])  # roots +-i
            return RealPolynomial.from_coeffs([-maxroots[level][cand], 1.0])

        calls.clear()
        return _run_descent(
            num_levels=num_levels,
            root_poly=lambda: RealPolynomial.from_coeffs([-4.0, 1.0]),
            candidates=lambda k: range(len(maxroots[k])),
            branch_poly=branch_poly,
            commit=lambda v: calls.append(("commit", v)),
        )

    cert = run(2)
    assert [call for call in calls if call[0] == "commit"] == [("commit", 1), ("commit", 0)]
    assert calls.index(("commit", 1)) == 3  # after all three branches of level 0
    assert cert.assignment == (1, 0)
    assert cert.maxroots == pytest.approx((4.0, 1.0, 2.0), abs=1e-9)
    assert -TIE_TOL < cert.margins[1] < 0.0
    # a branch that is not real-rooted aborts its level before the commit;
    # every branch of the level is read before the level is certified
    with pytest.raises(NotRealRooted, match=r"^level 1, branch 1: "):
        run(2, broken=(1, 1))
    assert calls == [("branch", 0, 0), ("branch", 0, 1), ("branch", 0, 2), ("commit", 1), ("branch", 1, 0), ("branch", 1, 1), ("branch", 1, 2)]


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
