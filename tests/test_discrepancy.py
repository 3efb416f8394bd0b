import time

import numpy as np
import pytest

from interlace import (
    DiscrepancyInstance,
    FiniteDistribution,
    NotPSD,
    NumericalFailure,
    ensemble,
    greedy_descent_quadratic,
    sigma_bound,
    solve_hermitian,
    solve_kls,
    two_point_reduction,
)
from interlace.generate import random_psd, random_two_valued, trace_capped_ensemble
from interlace.mixedchar import SubsetTable

FD = FiniteDistribution


def diag(*vals):
    return np.diag(np.array(vals, dtype=float))


def inst(mats, dists):
    return DiscrepancyInstance.make(mats, dists)


def test_sigma_bernoulli_single():
    # sigma^2 = max(1/4 * 1, ||1/4 A||) = 1/4
    i = inst([diag(1, 0)], [FD.make([0.0, 1.0], [0.5, 0.5])])
    assert sigma_bound(i) == pytest.approx(0.5)


def test_sigma_two_disjoint_bernoulli():
    i = inst(
        [diag(0.5, 0.0), diag(0.0, 0.5)],
        [FD.make([0.0, 1.0], [0.5, 0.5])] * 2,
    )
    assert sigma_bound(i) == pytest.approx(0.25)


def test_sigma_zero_for_point_masses():
    i = inst([diag(1, 0)], [FD.point_mass(3.0)])
    assert sigma_bound(i) == 0.0


def test_instance_rejects_non_psd():
    with pytest.raises(NotPSD):
        inst([diag(1, -1)], [FD.fair_signs()])


def test_two_point_fixed_point():
    d = FD.make([0.0, 3.0], [2 / 3, 1 / 3])
    r = two_point_reduction(d)
    assert r.values == d.values and r.probs == d.probs


def test_two_point_three_values():
    # mean 4/3; nearest bracket {1, 3}; p solves p + 3(1-p) = 4/3
    r = two_point_reduction(FD.make([0.0, 1.0, 3.0], [1 / 3, 1 / 3, 1 / 3]))
    assert r.values == (1.0, 3.0)
    assert r.probs[0] == pytest.approx(5 / 6)
    assert r.variance() == pytest.approx(5 / 9)


def test_two_point_mean_on_support():
    r = two_point_reduction(FD.make([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3]))
    assert r.values == (1.0,)


def test_two_point_collapses_by_the_spread_not_the_offset():
    # mean 1e8 + 2.5e-5 lies 2.5e-5 from 1e8 + 5e-5: within 1e-12 of the
    # offset, yet far from it on the spread, so the bracket stays
    dist = FD.make([1e8 - 1.0, 1e8 + 5e-5, 1e8 + 1.0], [0.25, 0.5, 0.25])
    r = two_point_reduction(dist)
    assert r.values == (1e8 - 1.0, 1e8 + 5e-5)
    assert r.mean() == pytest.approx(dist.mean(), rel=0.0, abs=1e-7)
    assert r.variance() == pytest.approx(2.5e-5, rel=1e-3)  # 1e8 + 5e-5 is stored to 1.5e-8
    E = trace_capped_ensemble(np.random.default_rng(1), 3, 2, 1.0)
    res = solve_kls(inst(E, [dist] * 2))
    assert res.sigma == pytest.approx(sigma_bound(inst(E, [r] * 2)), rel=1e-12)
    assert 0.0 < res.achieved <= res.bound


def test_two_point_drops_zero_probability_values():
    r = two_point_reduction(FD.make([0.0, 5.0, 1.0], [0.25, 0.0, 0.75]))
    assert r.values == (0.0, 1.0) and r.probs == (0.25, 0.75)


def test_solve_kls_fair_signs_identity_partition():
    res = solve_kls(inst([diag(1, 0), diag(0, 1)], [FD.fair_signs()] * 2))
    assert res.sigma == pytest.approx(1.0)
    assert res.achieved == pytest.approx(1.0)
    assert res.achieved <= res.bound + 1e-7


def test_solve_kls_bernoulli():
    res = solve_kls(inst([diag(1, 0)], [FD.make([0.0, 1.0], [0.5, 0.5])]))
    assert res.sigma == pytest.approx(0.5)
    assert res.outcome[0] in (0.0, 1.0)
    assert res.achieved == pytest.approx(0.5)


def test_solve_kls_all_point_masses():
    res = solve_kls(inst([diag(1, 0), diag(0, 1)], [FD.point_mass(2.0), FD.point_mass(-1.0)]))
    assert res.sigma == 0.0
    assert res.achieved == 0.0
    assert res.outcome == (2.0, -1.0)
    assert res.certificate.residuals == (0.0, 0.0)


def test_solve_kls_zero_matrices_keep_the_degenerate_answer():
    res = solve_kls(inst([np.zeros((2, 2)), diag(1, 0)], [FD.fair_signs(), FD.point_mass(0.5)]))
    assert (res.sigma, res.bound, res.achieved, res.outcome) == (0.0, 0.0, 0.0, (-1.0, 0.5))


def test_solve_kls_raises_when_sigma_underflows():
    # the exact variance 1.6e-369 lies below the smallest double
    E = trace_capped_ensemble(np.random.default_rng(1), 3, 3, 1.0)
    with pytest.raises(NumericalFailure):
        solve_kls(inst(E, [FD.make([0.0, 8.072794129396667e-185], [0.5, 0.5])] * 3))


@pytest.mark.parametrize(
    "part, scale, d, n",
    [
        pytest.param(part, scale, 4, 14, id=f"{part}-{scale:g}")
        for part in ("values", "matrices")
        for scale in (1e-30, 1e30)
    ]
    + [pytest.param("matrices", scale, 10, 12, id=f"matrices-{scale:g}-d10") for scale in (1e-28, 1e28)],
)
def test_solve_kls_reads_any_scale_of_values_and_matrices(part, scale, d, n):
    # the engine reads each index in units near its standard deviation and
    # scales the table by sigma^-|S| in the same step, so neither the table
    # nor the products of the free variances leave the double range.  At
    # d = 10 the table's top rank is the determinant of a scaled subset sum,
    # and it still serves matrices scaled by 1e+-28.
    E = trace_capped_ensemble(np.random.default_rng(3), d, n, 1.0)
    values, mats = (scale, 1.0) if part == "values" else (1.0, scale)

    def solve(v, c):
        return solve_kls(inst([c * H.entries for H in E], [FD.make([-v, 2 * v], [2 / 3, 1 / 3])] * n))

    want, got = solve(1.0, 1.0), solve(values, mats)
    assert np.array_equal(np.sign(got.outcome), np.sign(want.outcome))
    assert np.allclose(got.certificate.maxroots, want.certificate.maxroots, rtol=0.0, atol=1e-9)
    assert got.sigma == pytest.approx(values * mats * want.sigma, rel=1e-12)
    assert got.achieved <= got.bound


@pytest.mark.parametrize("scale", [1e-32, 1e32, 2.0**-106, 2.0**106])
def test_solve_kls_folds_sigma_into_the_units_at_full_depth(scale):
    # at d = 10 a table scaled by sigma^-|S| alone held sigma^-10: 1e320,
    # a NaN in the companion matrix, and 1e-320, subnormal, a false
    # NotRealRooted.  Scaled by 2^k, the values leave every unit of the
    # engine where it was, so the enclosures and margins are bit for bit the
    # unit ones.
    E = trace_capped_ensemble(np.random.default_rng(3), 10, 12, 1.0)

    def solve(v):
        return solve_kls(inst(E, [FD.make([-v, 2 * v], [2 / 3, 1 / 3])] * 12))

    want, got = solve(1.0), solve(scale)
    assert 0.0 < got.achieved <= got.bound
    assert got.achieved == pytest.approx(scale * want.achieved, rel=1e-9)
    assert np.array_equal(np.sign(got.outcome), np.sign(want.outcome))
    if scale == 2.0 ** round(np.log2(scale)):
        assert (got.certificate.enclosures, got.certificate.margins) == (
            want.certificate.enclosures,
            want.certificate.margins,
        )
    else:
        assert np.allclose(got.certificate.maxroots, want.certificate.maxroots, rtol=0.0, atol=1e-9)


def test_solve_kls_outcomes_have_positive_probability():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        E = trace_capped_ensemble(rng, 3, m, 1.0)
        dists = [random_two_valued(rng) for _ in range(m)]
        res = solve_kls(DiscrepancyInstance(E, tuple(dists)))
        for s, dd in zip(res.outcome, dists):
            assert s in dd.support()


def test_solve_kls_multivalued_raw_path():
    # reduce=False exercises general moment specs
    rng = np.random.default_rng(1)
    E = trace_capped_ensemble(rng, 3, 3, 1.0)
    dists = [
        FD.make([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25]),
        FD.make([0.0, 1.0], [0.7, 0.3]),
        FD.make([-2.0, -1.0, 0.5, 1.0], [0.1, 0.4, 0.3, 0.2]),
    ]
    res_raw = solve_kls(DiscrepancyInstance(E, tuple(dists)), reduce=False)
    res_red = solve_kls(DiscrepancyInstance(E, tuple(dists)), reduce=True)
    assert res_raw.achieved <= res_raw.bound + 1e-7
    assert res_red.achieved <= res_red.bound + 1e-7
    assert res_red.sigma <= res_raw.sigma + 1e-12


def test_solve_kls_at_guard_limit_is_fast():
    # d = 10, n = 14 is the largest instance the fast path accepts.  A whole
    # solve takes under a second with O(n 2^n d) assembly; an O(4^n)
    # assembly takes over a minute, so the 20 s ceiling catches it.
    rng = np.random.default_rng(14)
    mats = [random_psd(rng, 10) for _ in range(14)]
    t0 = time.perf_counter()
    res = solve_kls(inst(mats, [FD.fair_signs()] * 14))
    elapsed = time.perf_counter() - t0
    assert res.achieved <= res.bound + 1e-7
    assert res.certificate.monotone_within(1e-7)
    assert elapsed < 20.0, elapsed


def test_solve_hermitian_psd_reduces_to_kls():
    rng = np.random.default_rng(2)
    mats = [random_psd(rng, 3, trace=0.5) for _ in range(3)]
    dists = [random_two_valued(rng) for _ in range(3)]
    res = solve_hermitian(mats, dists)
    assert res.achieved <= res.bound + 1e-7


def test_solve_hermitian_sign_matrix():
    res = solve_hermitian([diag(1, -1)], [FD.fair_signs()])
    # |B| = I so sigma^2 = max(1 * 4, 2) = 4
    assert res.sigma == pytest.approx(2.0)
    assert res.achieved == pytest.approx(1.0)
    assert res.bound == pytest.approx(16.0)


def test_solve_hermitian_point_masses():
    res = solve_hermitian([diag(1, -1)], [FD.point_mass(0.7)])
    assert res.achieved == 0.0


def test_solve_hermitian_rejects_an_empty_ensemble():
    with pytest.raises(ValueError, match="ensemble must be nonempty"):
        solve_hermitian([], [])


def test_solve_hermitian_rejects_matrices_of_different_sizes():
    with pytest.raises(ValueError, match="matrix 1 has dim 3, expected 2"):
        solve_hermitian([diag(1, -1), diag(1, 0, -1)], [FD.fair_signs()] * 2)


def test_hermitian_sigma_dominates_lifted_sigma():
    # the block-diagonal lift diag(B+, B-) can only shrink sigma
    from interlace import positive_negative_parts

    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        mats = [
            random_psd(rng, d, trace=1.0) - random_psd(rng, d, trace=float(rng.uniform(0.3, 1.2)))
            for _ in range(m)
        ]
        dists = [random_two_valued(rng) for _ in range(m)]
        res = solve_hermitian(mats, dists)
        lifted = []
        for B in mats:
            pos, neg = positive_negative_parts(B)
            block = np.zeros((2 * d, 2 * d), dtype=complex)
            block[:d, :d] = pos.entries
            block[d:, d:] = neg.entries
            lifted.append(block)
        lifted_sigma = sigma_bound(DiscrepancyInstance.make(lifted, dists))
        assert lifted_sigma <= res.sigma + 1e-10


def test_hermitian_sigma_is_sigma_bound_of_absolute_values():
    from interlace import absolute_value

    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        mats = [random_psd(rng, d, trace=1.0) - random_psd(rng, d, trace=0.7) for _ in range(m)]
        dists = [random_two_valued(rng) for _ in range(m)]
        absolute = DiscrepancyInstance.make([absolute_value(B) for B in mats], dists)
        assert solve_hermitian(mats, dists).sigma == sigma_bound(absolute)


def _indices(values, dists):
    return [dist.values.index(v) for v, dist in zip(values, dists)]


@pytest.mark.parametrize("c", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_solve_far_from_zero_matches_the_centered_solve(c):
    # the stored values move by up to ulp(c), about 2e-6 at 1e10; a
    # single-pass centering fails the level-1 mixture check from c = 1e6 on
    E = trace_capped_ensemble(np.random.default_rng(1), 3, 5, 1.0)
    near = [FD.make([-1.3, 0.9], [0.3, 0.7])] * 5
    far = [FD.make([c - 1.3, c + 0.9], [0.3, 0.7])] * 5
    want, got = solve_kls(inst(E, near)), solve_kls(inst(E, far))
    assert _indices(got.outcome, far) == _indices(want.outcome, near)
    assert got.sigma == pytest.approx(want.sigma, rel=1e-5)
    assert got.achieved <= got.bound
    leaf = greedy_descent_quadratic(SubsetTable.build(E), far).assignment
    assert _indices(leaf, far) == _indices(greedy_descent_quadratic(SubsetTable.build(E), near).assignment, near)


def test_sigma_of_values_far_from_zero_is_the_centered_sigma():
    # uniform on {1e8 - 1, 1e8 + 1}: E xi^2 - mu^2 cancels to 0 here
    E = trace_capped_ensemble(np.random.default_rng(1), 3, 5, 1.0)
    res = solve_kls(inst(E, [FD.make([1e8 - 1.0, 1e8 + 1.0], [0.5, 0.5])] * 5))
    assert res.sigma == pytest.approx(solve_kls(inst(E, [FD.fair_signs()] * 5)).sigma, rel=1e-12)
    assert res.sigma == pytest.approx(0.6788205, abs=1e-7)
    assert res.achieved <= res.bound


def test_deviations_keep_values_that_center_alike():
    # 0 and 1e-20 are distinct values with equal centered values up to
    # rounding; the deviations stay keyed by the given values
    E = trace_capped_ensemble(np.random.default_rng(1), 3, 3, 1.0)
    dists = [FD.make([0.0, 1e-20, 1.0], [0.3, 0.3, 0.4]), FD.fair_signs(), FD.fair_signs()]
    assert solve_kls(inst(E, dists), reduce=False).outcome == (0.0, 1.0, -1.0)


def test_solve_keeps_values_that_scale_alike():
    # the two first values divided by sigma = 0.62299 round to one double;
    # the descent reads the given values, so they stay distinct
    E = trace_capped_ensemble(np.random.default_rng(1), 3, 3, 1.0)
    close = FD.make([-0.7015088565858767, -0.7015088565858766, 1.0], [0.3, 0.3, 0.4])
    res = solve_kls(inst(E, [close, FD.fair_signs(), FD.fair_signs()]), reduce=False)
    assert res.sigma == pytest.approx(0.62299, abs=1e-5)
    assert res.outcome[0] in close.support()
    assert res.achieved <= res.bound
