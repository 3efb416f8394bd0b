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
    assert cert.maxroots[0] == pytest.approx(1.0, abs=1e-8)


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


def test_descent_assignment_values_lie_in_support():
    rng = np.random.default_rng(11)
    E = trace_capped_ensemble(rng, 3, 4, 1.0)
    dists = [random_two_valued(rng) for _ in range(4)]
    cert = greedy_descent_quadratic(E, dists)
    for s, dd in zip(cert.assignment, dists):
        assert s in dd.support()


def test_descent_aborts_on_non_real_rooted_branch():
    # a broken evaluator must abort, not guess
    from interlace import NotRealRooted, RealPolynomial
    from interlace.descent import _run_descent

    bad = RealPolynomial.from_coeffs([2.0, 0.0, 1.0])  # roots +-i sqrt(2)
    good = RealPolynomial.from_coeffs([-1.0, 0.0, 1.0])
    for root, context in ((bad, "root"), (good, "level 0, branch 0")):
        with pytest.raises(NotRealRooted, match=rf"^{context}: .*residual .*; aborting descent$"):
            _run_descent(
                num_levels=1,
                root_poly=lambda: root,
                candidates=lambda k: [0],
                branch_poly=lambda k, fixed, c: bad,
            )
