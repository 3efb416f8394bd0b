import itertools
import math

import numpy as np
import pytest

from interlace import (
    BadProportions,
    EpsilonOutOfRange,
    LyapunovInstance,
    NotPSD,
    SumExceedsIdentity,
    ValidationError,
    WeightOutOfRange,
    ensemble,
    ks_r_partition,
    lyapunov_select,
    make_hermitian,
    mixed_bound_reference,
    operator_norm,
    rank_one_completion,
    weighted_approx,
)
from interlace.descent import ROOTEDNESS_TOL
from interlace.generate import covering_ensemble, trace_capped_ensemble
from interlace.mixedchar import mixed_char_poly, popcounts, subset_convolve
from interlace.polynomials import maxroot_certified


def diag(*vals):
    return np.diag(np.array(vals, dtype=float))


def test_lyapunov_single_matrix():
    sel = lyapunov_select(LyapunovInstance.make([diag(0.25, 0.0)], [0.5]))
    assert sel.indices in ((), (0,))
    assert sel.achieved == pytest.approx(0.125)
    assert sel.bound == pytest.approx(1.0)


def test_lyapunov_forced_inclusion_and_exclusion():
    E = [diag(0.3, 0.0), diag(0.0, 0.2)]
    sel = lyapunov_select(LyapunovInstance.make(E, [1.0, 1.0]))
    assert sel.indices == (0, 1)
    assert sel.achieved == pytest.approx(0.0)
    sel = lyapunov_select(LyapunovInstance.make(E, [0.0, 0.0]))
    assert sel.indices == ()
    assert sel.achieved == pytest.approx(0.0)


def test_lyapunov_validation():
    with pytest.raises(WeightOutOfRange):
        LyapunovInstance.make([diag(0.25, 0.0)], [1.5])


# Every trace-capped entry point, called with an optional declared cap.
TRACE_CAPPED = {
    "lyapunov": lambda E, eps=None: LyapunovInstance.make(E, [0.5] * len(E), epsilon=eps),
    "partition": lambda E, eps=None: ks_r_partition(E, [1.0], epsilon=eps),
    "reference": lambda E, eps=None: mixed_bound_reference(E),
}


@pytest.mark.parametrize("entry", sorted(TRACE_CAPPED))
@pytest.mark.parametrize(
    "mats, error",
    [([diag(0.25, -0.1)], NotPSD), ([diag(1.5, 0.0)], SumExceedsIdentity), ([diag(0.6, 0.0)] * 2, SumExceedsIdentity)],
)
def test_trace_capped_entry_points_reject(entry, mats, error):
    with pytest.raises(error):
        TRACE_CAPPED[entry](mats)


@pytest.mark.parametrize("entry", ["lyapunov", "partition"])
def test_declared_trace_cap_must_be_finite_and_cover_the_maximum(entry):
    E = [diag(0.25, 0.0), diag(0.0, 0.125)]
    for cap in (0.2, math.nan, math.inf):
        with pytest.raises(ValidationError, match="declared trace cap"):
            TRACE_CAPPED[entry](E, cap)
    assert TRACE_CAPPED[entry](E, 0.25).epsilon == 0.25
    assert TRACE_CAPPED[entry](E, 0.5).epsilon == 0.5


def test_weighted_approx_boundary_rejection():
    with pytest.raises(WeightOutOfRange):
        weighted_approx([diag(0.25, 0.0)], 0.0)
    with pytest.raises(WeightOutOfRange):
        weighted_approx([diag(0.25, 0.0)], 1.0)


def test_weighted_approx_reports_both_bounds():
    E = [diag(0.25, 0.0), diag(0.0, 0.25)]
    res = weighted_approx(E, 0.5)
    assert res.bound == pytest.approx(1.0)
    assert res.bound_alternate == pytest.approx(2 * math.sqrt(0.5) + 0.5)
    assert res.achieved <= min(res.bound, res.bound_alternate) + 1e-7


def test_weighted_approx_identity_partition():
    # eps = 1, so the selection bound is 2
    E = [diag(1, 0), diag(0, 1)]
    res = weighted_approx(E, 0.5)
    assert res.bound == pytest.approx(2.0)
    assert res.achieved <= 2.0 + 1e-7


def _convolve_by_enumeration(tables, n):
    """sum over every slot assignment of the bits of S of prod_k tables[k][S_k]."""
    out = np.zeros(1 << n)
    for S in range(1 << n):
        bits = [i for i in range(n) if S >> i & 1]
        for asg in itertools.product(range(len(tables)), repeat=len(bits)):
            masks = [0] * len(tables)
            for b, a in zip(bits, asg):
                masks[a] |= 1 << b
            out[S] += math.prod(t[mask] for t, mask in zip(tables, masks))
    return out


def test_subset_convolve_matches_enumeration():
    rng = np.random.default_rng(0)
    n = 5
    tables = [rng.standard_normal(1 << n) for _ in range(3)]
    fast = subset_convolve(tables, n)
    assert fast == pytest.approx(_convolve_by_enumeration(tables, n), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("ranks", [(1, 2, 3), (2, 2, 2), (0, 3, 1), (3,)])
def test_subset_convolve_keeps_every_rank_a_table_fills(ranks):
    # Each table is zero above its rank, as a c_S table is above min(n, d),
    # and one has scattered zeros below it; the convolution reads only the
    # rows such tables can fill, so a row cut one short shows here.
    rng = np.random.default_rng(sum(ranks))
    n = 7
    sizes = popcounts(n)
    tables = [np.where(sizes <= k, rng.standard_normal(1 << n), 0.0) for k in ranks]
    tables[-1][rng.random(1 << n) < 0.3] = 0.0
    fast = subset_convolve(tables, n)
    assert np.max(np.abs(fast - _convolve_by_enumeration(tables, n))) <= 1e-12
    assert np.all(fast[sizes > sum(ranks)] == 0.0)


def test_ks_r_single_block():
    E = ensemble([diag(0.5, 0.0), diag(0.0, 0.5)])
    res = ks_r_partition(E, [1.0])
    assert res.blocks == ((0, 1),)
    assert res.block_norms[0] == pytest.approx(0.5)
    assert res.upper_cert == (True,)
    eps = res.epsilon
    assert res.bounds[0] == pytest.approx((1 + math.sqrt(eps)) ** 2)


def test_ks_r_identity_partition_all_splits_valid():
    # every partition of {diag(1,0), diag(0,1)} has block norms <= 1
    E = ensemble([diag(1, 0), diag(0, 1)])
    res = ks_r_partition(E, [0.5, 0.5])
    for nm, bd, ok in zip(res.block_norms, res.bounds, res.upper_cert):
        assert ok and nm <= bd + 1e-7
    assert res.bounds[0] == pytest.approx(0.5 * (1 + math.sqrt(2.0)) ** 2)


def test_ks_r_random_rank_one_instance():
    rng = np.random.default_rng(5)
    vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(8)]
    mats = [np.outer(v, v.conj()) for v in vecs]
    mats = [M / (4.0 * float(np.trace(M).real)) for M in mats]  # traces 1/4
    total = sum(mats[1:], mats[0].copy())
    nrm = operator_norm(make_hermitian(total, tol=np.inf))
    mats = [M / max(1.0, nrm) for M in mats]
    res = ks_r_partition(ensemble(mats, tol=np.inf), [0.5, 0.5])
    for k, block in enumerate(res.blocks):
        s = sum((mats[i] for i in block), np.zeros((3, 3), dtype=complex))
        # independent eigensolve of the block sum
        direct = operator_norm(make_hermitian(s, tol=np.inf))
        assert direct == pytest.approx(res.block_norms[k], abs=1e-10)
        assert direct <= res.bounds[k] + 1e-7


def test_ks_r_blocks_always_partition():
    rng = np.random.default_rng(6)
    E = covering_ensemble(rng, 3, 6, 0.85)
    res = ks_r_partition(E, [0.3, 0.3, 0.4])
    assert sorted(i for b in res.blocks for i in b) == list(range(6))
    spread = 2 * math.sqrt(3 * res.epsilon) + 3 * res.epsilon
    assert all(x <= spread + 1e-7 for x in res.deviations)


def test_ks_r_exact_cover_needs_no_completion():
    # sum A_i = I exactly: the residual completion is empty
    rng = np.random.default_rng(8)
    E = covering_ensemble(rng, 2, 4, 1.0)
    res = ks_r_partition(E, [0.5, 0.5])
    assert sorted(i for b in res.blocks for i in b) == list(range(4))
    assert all(res.upper_cert)


def test_ks_r_size_guard_after_completion():
    from interlace import SizeGuard

    # 12 matrices plus a multi-piece completion exceeds the index guard
    rng = np.random.default_rng(9)
    E = trace_capped_ensemble(rng, 4, 12, 0.08)
    with pytest.raises(SizeGuard):
        ks_r_partition(E, [0.5, 0.5])


@pytest.mark.parametrize("trace", [1e-5, 0.06])
def test_ks_r_size_guard_fires_before_the_completion_is_built(monkeypatch, trace):
    from interlace import SizeGuard, lyapunov

    # 1 - 2 trace is filled by ceil((1 - 2 trace) / trace) pieces: about
    # 2 * 10^5 (building them took 4 s before the index guard fired), and
    # 15 at 0.06, one more than the 12 left beside the two matrices
    def fail(*args):
        raise AssertionError("the completion was built")

    monkeypatch.setattr(lyapunov, "_completion_from_spectrum", fail)
    with pytest.raises(SizeGuard, match="rank-one completion"):
        ks_r_partition([diag(trace), diag(trace)], [0.5, 0.5])


def test_ks_r_refuses_the_zero_trace_cap_of_an_all_zero_ensemble():
    # the completion built from the kept spectrum checks its cap as
    # rank_one_completion does
    with pytest.raises(ValueError, match="epsilon must be positive; got 0.0"):
        ks_r_partition([np.zeros((2, 2)), np.zeros((2, 2))], [0.5, 0.5])


def test_ks_r_eigensolves_the_ensemble_sum_once(monkeypatch):
    # one eigh of sum A serves the <= I check of ensemble_stats and the
    # rank-one completion, whose pieces are those of its own eigh
    from interlace import linalg, lyapunov

    E = covering_ensemble(np.random.default_rng(5), 3, 6, 0.9)
    total = sum(H.entries for H in E)
    want = rank_one_completion(E.sum(), max(H.trace() for H in E))
    solved = []

    def recording(name, real):
        def solve(H):
            solved.append((name, np.array(getattr(H, "entries", H))))
            return real(H)

        return solve

    for module, name in ((linalg, "eigh"), (linalg, "eigenvalues"), (lyapunov, "eigenvalues")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    built = []
    completion = lyapunov._completion_from_spectrum
    monkeypatch.setattr(lyapunov, "_completion_from_spectrum", lambda *args: built.append(completion(*args)) or built[-1])
    ks_r_partition(E, [0.5, 0.5])
    assert [name for name, M in solved if np.allclose(M, total, rtol=0.0, atol=1e-15)] == ["eigh"]
    assert len(built) == 1 and all(np.array_equal(B.entries, C.entries) for B, C in zip(built[0], want))
    assert len(built[0]) == len(want)


def test_ks_r_admits_a_completion_that_fills_the_index_guard():
    # 12 pieces of trace 0.85 / 12 beside the two matrices: 14 indices
    res = ks_r_partition([diag(0.075), diag(0.075)], [0.5, 0.5])
    assert sorted(res.blocks[0] + res.blocks[1]) == [0, 1]


def test_ks_r_size_guard_on_lifted_dimension():
    from interlace import SizeGuard

    E = covering_ensemble(np.random.default_rng(14), 10, 3, 0.9)
    with pytest.raises(SizeGuard, match="lifted dimension 50 exceeds 48"):
        ks_r_partition(E, [0.2] * 5)


def test_ks_r_lifted_dimension_guard_fires_before_the_completion_is_built(monkeypatch):
    from interlace import SizeGuard, lyapunov

    def fail(*args):
        raise AssertionError("the completion was built")

    monkeypatch.setattr(lyapunov, "_completion_from_spectrum", fail)
    E = covering_ensemble(np.random.default_rng(14), 10, 3, 0.9)
    with pytest.raises(SizeGuard, match="lifted dimension 50 exceeds 48"):
        ks_r_partition(E, [0.2] * 5)


def test_ks_r_validation():
    E = ensemble([diag(0.5, 0.0)])
    with pytest.raises(BadProportions):
        ks_r_partition(E, [0.7, 0.7])
    with pytest.raises(BadProportions):
        ks_r_partition(E, [])
    for bad in ([math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.5]):
        with pytest.raises(BadProportions):
            ks_r_partition(E, bad)


def _block_diagonal(blocks) -> np.ndarray:
    d = blocks[0].shape[0]
    out = np.zeros((d * len(blocks), d * len(blocks)), dtype=np.complex128)
    for k, B in enumerate(blocks):
        out[k * d : (k + 1) * d, k * d : (k + 1) * d] = B
    return out


@pytest.mark.parametrize("d, m, r", [(2, 5, 3), (3, 6, 3), (2, 6, 4), (5, 5, 2)])
def test_partition_chain_matches_the_explicit_lifted_ensemble(d, m, r):
    # At every level, rebuild the d r x d r slot-choice ensemble: a fixed
    # index i as A_i / t_k in its block k, a free index as its mean A_i in
    # every block, and each completion piece in every block.  Its mixed
    # characteristic polynomial, evaluated without the block-scale table,
    # must reproduce the certified chain.
    rng = np.random.default_rng(100 * d + 10 * m + r)
    E = covering_ensemble(rng, d, m, 0.9)
    props = [k / (r * (r + 1) / 2) for k in range(1, r + 1)]
    props[-1] = 1.0 - sum(props[:-1])
    res = ks_r_partition(E, props)
    completion = [B.entries for B in rank_one_completion(E.sum(), res.epsilon)]
    zero = np.zeros((d, d))
    for level, expected in enumerate(res.certificate.maxroots):
        lifted = []
        for i, A in enumerate(E):
            if i < level:
                k = res.certificate.assignment[i]
                lifted.append(_block_diagonal([A.entries / props[j] if j == k else zero for j in range(r)]))
            else:
                lifted.append(_block_diagonal([A.entries] * r))
        lifted += [_block_diagonal([B] * r) for B in completion]
        poly = mixed_char_poly(ensemble(lifted), np.ones(len(lifted)))
        assert maxroot_certified([poly], rootedness_tol=ROOTEDNESS_TOL)[0].hi == pytest.approx(expected, abs=1e-9)


def test_mixed_bound_reference_values():
    E = ensemble([diag(0.25, 0.0)])
    assert mixed_bound_reference(E) == pytest.approx(2.25)
    assert mixed_bound_reference(E, 2) == pytest.approx((math.sqrt(0.75) + 0.5) ** 2)
    with pytest.raises(EpsilonOutOfRange):
        mixed_bound_reference(E, 1)


def test_mixed_bound_reference_epsilon_range():
    # (k-1)^2/k = 1/2 for k = 2; eps = 0.6 is out of range
    E = ensemble([diag(0.6, 0.0)])
    with pytest.raises(EpsilonOutOfRange):
        mixed_bound_reference(E, 2)


def test_mixed_bound_reference_rank_check():
    rng = np.random.default_rng(7)
    E = trace_capped_ensemble(rng, 4, 3, 0.4)  # full-rank matrices
    with pytest.raises(ValueError):
        mixed_bound_reference(E, 2)
