import time

import numpy as np
import pytest

from interlace import (
    DiscrepancyInstance,
    FiniteDistribution,
    NotPSD,
    ensemble,
    sigma_bound,
    solve_hermitian,
    solve_kls,
    two_point_reduction,
)
from interlace.generate import random_psd, random_two_valued, trace_capped_ensemble

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
