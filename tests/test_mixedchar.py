import contextlib
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    DerivativeSpec,
    DiscrepancyInstance,
    LyapunovInstance,
    NumericalFailure,
    SizeGuard,
    SubsetTable,
    ensemble,
    expected_product_poly,
    ks_r_partition,
    lyapunov_select,
    mixed_char_poly,
    quadratic_mixed_char_poly,
    root_report,
    solve_hermitian,
    solve_kls,
    subset_derivative,
    truncated_ring_oracle,
)
from interlace import mixedchar, reference
from interlace.descent import FiniteDistribution
from interlace.generate import covering_ensemble, random_psd, random_two_valued, trace_capped_ensemble
from interlace.linalg import ensemble_stats, rank_one_completion
from interlace.mixedchar import (
    ConvolutionLevels,
    ProductLevels,
    _binomial_weights,
    _fused_read,
    _graded_poly,
    _rank_product,
    _ranked_zeta,
    popcounts,
    subset_products,
)
from interlace.reference import _ring_determinant, conditional_spec_quadratic, subset_convolve
from interlace.verification import TOL_COEFF


def diag(*vals):
    return np.diag(np.array(vals, dtype=float))


# TRIDIAGONAL_MIN_SUMS that sends every batch below the top rank down one
# route of SubsetTable.build, whatever its size.
ROUTES = {"spectra": 1 << 62, "tridiagonal": 0}


@contextlib.contextmanager
def table_route(route):
    """Build every table inside the block on ``route``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixedchar, "TRIDIAGONAL_MIN_SUMS", ROUTES[route])
        yield


def test_subset_derivative_empty_set():
    E = ensemble([diag(1, -1), diag(-1, 1)])
    assert subset_derivative(E, []).coeffs == (0.0, 0.0, 1.0)


def test_subset_derivative_single_is_trace_times_x():
    # det(xI + z A) with A = diag(a1, a2) expands to (x + z a1)(x + z a2);
    # the z coefficient at z = 0 is (a1 + a2) x
    E = ensemble([diag(2.0, 3.0)])
    assert subset_derivative(E, [0]).coeffs == (0.0, 5.0)


def test_subset_derivative_pair_identity_partition():
    # coefficient of z1 z2 in (x + z1)(x + z2) is 1
    E = ensemble([diag(1, 0), diag(0, 1)])
    assert subset_derivative(E, [0, 1]).coeffs == (1.0,)


def test_subset_derivative_oversize_is_zero():
    E = ensemble([diag(1.0), diag(2.0)])
    assert subset_derivative(E, [0, 1]).is_zero


def test_mixed_char_poly_non_real_rooted_pair():
    E = ensemble([diag(1, -1), diag(-1, 1)])
    p = mixed_char_poly(E, [1.0, 1.0])
    assert p.coeffs == (2.0, 0.0, 1.0)
    assert not root_report([p])[0].real_rooted


def test_mixed_char_poly_single_matrix_trace():
    assert mixed_char_poly(ensemble([diag(2.0)]), [1.0]).coeffs == (-2.0, 1.0)


def test_mixed_char_poly_identity_partition():
    # x^2 - D_1 - D_2 + D_12 = (x - 1)^2
    p = mixed_char_poly(ensemble([diag(1, 0), diag(0, 1)]), [1.0, 1.0])
    assert p.coeffs == (1.0, -2.0, 1.0)


def test_expected_product_centered_single():
    # pairs: (empty, empty) -> x^2 and ({1},{1}) -> -1
    E = ensemble([diag(1.0)])
    p = expected_product_poly(E, DerivativeSpec((0.0,), (0.0,), (-1.0,)))
    assert p.coeffs == (-1.0, 0.0, 1.0)


def test_expected_product_centered_identity_2x2():
    # (x+z)^2 (x+w)^2 with the cross term 2x * 2x
    E = ensemble([np.eye(2)])
    p = expected_product_poly(E, DerivativeSpec((0.0,), (0.0,), (-1.0,)))
    assert p.coeffs == (0.0, 0.0, -4.0, 0.0, 1.0)


def test_expected_product_fixed_value_is_two_sided_product():
    # spec (-s, s, -s^2) with s = 1 on diag(1): mu[A] mu[-A] = (x-1)(x+1)
    E = ensemble([diag(1.0)])
    p = expected_product_poly(E, DerivativeSpec((-1.0,), (1.0,), (-1.0,)))
    A = mixed_char_poly(E, [1.0])
    B = mixed_char_poly(E, [-1.0])
    assert p.coeffs == (A * B).coeffs == (-1.0, 0.0, 1.0)


def test_quadratic_examples():
    assert quadratic_mixed_char_poly(ensemble([diag(1.0)])).coeffs == (-1.0, 0.0, 1.0)
    p = quadratic_mixed_char_poly(ensemble([np.eye(2)]))
    assert p.coeffs == (0.0, 0.0, -4.0, 0.0, 1.0)
    assert root_report([p])[0].maxroot == pytest.approx(2.0, abs=1e-9)
    assert quadratic_mixed_char_poly(ensemble([np.zeros((2, 2))])).coeffs == (0, 0, 0, 0, 1.0)


def test_oracle_examples():
    E = ensemble([diag(1, -1), diag(-1, 1)])
    assert truncated_ring_oracle(E, scalars=[1.0, 1.0]).coeffs == (2.0, 0.0, 1.0)
    E2 = ensemble([diag(1, 0), diag(0, 1)])
    assert truncated_ring_oracle(E2, scalars=[1.0, 1.0]).coeffs == (1.0, -2.0, 1.0)
    E3 = ensemble([diag(1.0)])
    spec = DerivativeSpec((0.0,), (0.0,), (-1.0,))
    assert truncated_ring_oracle(E3, spec=spec).coeffs == (-1.0, 0.0, 1.0)


def test_oracle_guards():
    big = ensemble([np.eye(5)])
    with pytest.raises(SizeGuard):
        truncated_ring_oracle(big, scalars=[1.0])
    with pytest.raises(ValueError):
        truncated_ring_oracle(ensemble([diag(1.0)]))


def test_fast_path_guard():
    with pytest.raises(SizeGuard):
        SubsetTable.build(ensemble([np.eye(11)]))


def _indefinite(rng, d):
    R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (R + R.conj().T) / 2


def _singular(rng, d):
    """PSD of rank d - 1 (the zero matrix when d = 1)."""
    V = rng.standard_normal((d, d - 1)) + 1j * rng.standard_normal((d, d - 1))
    return V @ V.conj().T


def _rank_one(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return np.outer(v, v.conj())


def _error_scale(mats) -> np.ndarray:
    """Per mask S: (sum_{i in S} ||A_i||_*)^|S|.

    Every e_|S| value in the alternating sum for c_S is at most this (in
    nuclear norm), so it sets the size of the rounding error in c_S.
    """
    n = len(mats)
    nuc = np.array([np.abs(np.linalg.eigvalsh(M)).sum() for M in mats])
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return (bits @ nuc) ** bits.sum(axis=1)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("kind", ["indefinite", "singular", "rank-one", "mixed"])
def test_table_matches_ring_oracle_terms(kind, route):
    # The coefficient of z^S in the oracle's det(xI + sum z_i A_i) is
    # c_S x^(d - |S|); masks with no oracle term have c_S = 0.
    makers = {"indefinite": _indefinite, "singular": _singular, "rank-one": _rank_one}
    rng = np.random.default_rng(11)
    for d, n in itertools.product(range(1, 5), range(1, 5)):
        pick = list(makers.values()) if kind == "mixed" else [makers[kind]]
        mats = [pick[int(rng.integers(len(pick)))](rng, d) for _ in range(n)]
        with table_route(route):
            table = SubsetTable.build(mats)
        want = np.zeros(1 << n, dtype=np.complex128)
        for mask, poly in _ring_determinant(mats, d, 0).terms.items():
            k = bin(mask).count("1")
            if len(poly) > d - k:
                want[mask] = poly[d - k]
        scale = _error_scale(mats)
        assert np.max(np.abs(want.imag)) <= 1e-12 * np.max(scale)
        gap = np.abs(table.coeffs - want.real)
        assert np.all(gap <= 1e-12 * scale), (d, n, float(np.max(gap)))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("d, n", [(7, 9), (10, 14)])
def test_table_matches_cauchy_binet_for_rank_one(d, n, route):
    # With A_i = v_i v_i^*, c_S = det(V_S V_S^*) (Cauchy-Binet), and
    # Hadamard's bound prod_{i in S} |v_i|^2 caps it.
    rng = np.random.default_rng(5)
    V = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) * rng.uniform(0.3, 3.0, (n, 1))
    with table_route(route):
        table = SubsetTable.build([np.outer(v, v.conj()) for v in V])
    sizes = popcounts(n)
    want = np.zeros(1 << n)
    want[0] = 1.0
    for k in range(1, d + 1):
        masks = np.flatnonzero(sizes == k)
        rows = np.nonzero((masks[:, None] >> np.arange(n)) & 1)[1].reshape(-1, k)
        VS = V[rows]
        want[masks] = np.linalg.det(VS @ VS.conj().swapaxes(1, 2)).real
    hadamard = subset_products(np.linalg.norm(V, axis=1) ** 2)
    gap = np.abs(table.coeffs - want)
    assert np.all(gap <= 1e-12 * hadamard), float(np.max(gap / hadamard))


@pytest.mark.parametrize("d, n", [(1, 4), (2, 5), (3, 6), (4, 7)])
def test_table_empty_set_and_oversize_subsets(d, n):
    rng = np.random.default_rng(d)
    table = SubsetTable.build([_indefinite(rng, d) for _ in range(n)])
    assert table.coeffs[0] == 1.0
    assert np.all(table.coeffs[table.sizes > d] == 0.0)
    assert np.all(table.coeffs[table.sizes <= d] != 0.0)


def _lift(P, N):
    d = len(P)
    block = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    block[:d, :d], block[d:, d:] = P, N
    return block


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("kind", ["indefinite", "rank-deficient", "mixed"])
@pytest.mark.parametrize("d, n", [(1, 3), (2, 6), (3, 8), (4, 10), (5, 12)])
def test_block_build_matches_the_dense_lift_and_the_convolved_parts(kind, d, n, route):
    # The table of diag(P_i, N_i) from its d x d parts equals the table of
    # the assembled 2d x 2d lifts and, since det of a block-diagonal matrix
    # factors, the subset convolution of the two parts' tables.
    makers = {"indefinite": [_indefinite], "rank-deficient": [_singular, _rank_one]}
    makers["mixed"] = makers["indefinite"] + makers["rank-deficient"]
    rng = np.random.default_rng(d * 100 + n)
    pick = makers[kind]
    P, N = ([pick[int(rng.integers(len(pick)))](rng, d) for _ in range(n)] for _ in range(2))
    lifts = [_lift(A, B) for A, B in zip(P, N)]
    with table_route(route):
        table = SubsetTable.build(P, N)
        wants = (
            SubsetTable.build(lifts).coeffs,
            subset_convolve([SubsetTable.build(P).coeffs, SubsetTable.build(N).coeffs], n),
        )
    assert (table.dim, table.n) == (2 * d, n)
    scale = _error_scale(lifts)
    for want in wants:
        gap = np.abs(table.coeffs - want)
        assert np.all(gap <= 1e-12 * scale), (kind, d, n, float(np.max(gap / scale)))


@pytest.mark.parametrize(
    "parts, d, n", [(1, 3, 6), (1, 3, 3), (1, 4, 3), (2, 2, 6), (2, 3, 4), (1, 4, 10), (2, 2, 8), (1, 10, 10)]
)
def test_table_eigensolves_below_the_top_rank_and_takes_dets_at_it(monkeypatch, parts, d, n):
    # At n >= dim a subset sum with dim indices is read only at its own c_U,
    # as e_dim: one batched det takes all of them and the eigensolve only the
    # sums below.  At n < dim no kept sum reaches dim and no det is taken.
    # A batch below the top rank whose sums times parts reach
    # TRIDIAGONAL_MIN_SUMS (the two-part (2, 6) case, 42 sums as in
    # small-mix's hermitian builds, and the last three cases) is reduced to
    # tridiagonal form and not eigensolved.
    calls = {"eigvalsh": [], "det": [], "_tridiagonal_coefficients": []}
    for name, log in calls.items():
        owner = mixedchar if name.startswith("_") else np.linalg
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda a, *args, f=f, log=log: log.append(np.shape(a)) or f(a, *args))
    rng = np.random.default_rng(parts * 100 + n)
    SubsetTable.build(*([_indefinite(rng, d) for _ in range(n)] for _ in range(parts)))
    dim = parts * d
    below = sum(math.comb(n, k) for k in range(min(n + 1, dim)))
    solved = below * parts < mixedchar.TRIDIAGONAL_MIN_SUMS
    assert solved == (n * parts <= 8)
    assert calls["eigvalsh"] == ([(below, parts, d, d)] if solved else [])
    assert calls["_tridiagonal_coefficients"] == ([] if solved else [(below, parts, d, d)])
    assert calls["det"] == ([(math.comb(n, dim), parts, d, d)] if n >= dim else [])


def test_table_reduces_a_large_batch_in_chunks_with_the_same_bits(monkeypatch):
    # The reduction treats every sum on its own, so the chunk size moves no
    # bit of the table; with chunks of 100, the 1093 sums below the top rank
    # at (d, n) = (5, 13) take 11 calls.
    rng = np.random.default_rng(13)
    mats = [_indefinite(rng, 5) for _ in range(13)]
    whole = SubsetTable.build(mats).coeffs
    chunks = []
    reduce = mixedchar._tridiagonal_coefficients
    monkeypatch.setattr(mixedchar, "_CHUNK", 100)
    monkeypatch.setattr(mixedchar, "_tridiagonal_coefficients", lambda a, top: chunks.append(len(a)) or reduce(a, top))
    assert SubsetTable.build(mats).coeffs.tobytes() == whole.tobytes()
    assert chunks == [100] * 10 + [93]


def _ranked_mobius_collapse(R, n, pc):
    """In-place Moebius transform of every rank row of R, strided over all
    2^n masks; row pc[S] at mask S, and 0 where pc[S] is past the last row."""
    for b in range(n):
        view = R.reshape(len(R), 1 << (n - b - 1), 2, 1 << b)
        view[:, :, 1, :] -= view[:, :, 0, :]
    top = len(R) - 1
    return np.where(pc <= top, R[np.minimum(pc, top), np.arange(1 << n)], 0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_kept_mobius_is_the_ranked_collapse_bit_for_bit(n, seed):
    # The pass over the kept masks does the strided pass's subtractions on
    # every mask it keeps, in the same order; a mask without bit b takes
    # x - 0.0, which is x even for -0.0.
    rng = np.random.default_rng(seed)
    pc = popcounts(n)
    for top in range(n + 1):
        masks, _, _, _, partners = mixedchar._kept_masks(n, top)
        X = np.zeros((len(masks) + 1, top + 1))
        X[:-1] = rng.standard_normal((len(masks), top + 1)) * 2.0 ** rng.integers(-60, 60, (len(masks), top + 1))
        X[:-1][rng.random((len(masks), top + 1)) < 0.1] = -0.0
        R = np.zeros((top + 1, 1 << n))
        R[:, masks] = X[:-1].T
        want = _ranked_mobius_collapse(R, n, pc)
        mixedchar._kept_mobius(X, partners)
        got = np.zeros(1 << n)
        got[masks] = X[np.arange(len(masks)), pc[masks]]
        assert got.tobytes() == want.tobytes(), (n, top)


def _top_rank_exact(parts, S):
    """c_S at |S| = dim to 50 digits: the alternating sum over U subset S of
    the product over blocks of det(sum_{i in U} A_i)."""
    idx = [i for i in range(len(parts[0])) if S >> i & 1]
    total = mpmath.mpf(0)
    for r in range(len(idx) + 1):
        for U in itertools.combinations(idx, r):
            term = mpmath.mpf((-1) ** (len(idx) - r))
            for part in parts:
                M = mpmath.matrix(len(part[0]))
                for i in U:
                    M += mpmath.matrix(part[i].tolist())
                term *= mpmath.re(mpmath.det(M))
            total += term
    return total


def _budget_inputs(kind, rng):
    """The parts of one build: d = 3 blocks, or two d = 2 parts."""
    if kind == "completion":  # as a partition builds them: two copies of each piece
        E = covering_ensemble(rng, 3, 2, 0.8)
        return [[H.entries for H in list(E) + rank_one_completion(E.sum(), 0.1)]]
    if kind == "rank-capped":
        return [[random_psd(rng, 3, rank=int(rng.integers(1, 3))) for _ in range(7)]]
    if kind == "near-singular":  # every sum nearly annihilates v
        v = rng.standard_normal(3)
        P = np.eye(3) - np.outer(v, v) / (v @ v)
        return [[P @ random_psd(rng, 3) @ P + 1e-10 * np.outer(v, v) for _ in range(7)]]
    if kind == "trace-spread":
        return [[10.0 ** rng.uniform(-6, 6) * (_indefinite(rng, 3) if i % 2 else random_psd(rng, 3)) for i in range(7)]]
    return [[_rank_one(rng, 2) for _ in range(6)], [_indefinite(rng, 2) for _ in range(6)]]


@pytest.mark.parametrize("kind", ["completion", "rank-capped", "near-singular", "trace-spread", "two-part"])
def test_top_rank_coefficients_stay_inside_their_error_budget(kind):
    # SubsetTable.build states this budget: a top-rank c_S, read off LU
    # determinants, within 4 u (sum_{i in S} ||A_i||_*)^|S| of its 50-digit
    # value, where ||A_i||_* is the nuclear norm of the whole block-diagonal
    # matrix.
    worst = 0.0
    with mpmath.workdps(50):
        for seed in range(3):
            parts = _budget_inputs(kind, np.random.default_rng(seed))
            table = SubsetTable.build(*parts)
            nuclear = sum(np.array([np.abs(np.linalg.eigvalsh(M)).sum() for M in part]) for part in parts)
            for S in np.flatnonzero(table.sizes == table.dim):
                scale = float(nuclear[(S >> np.arange(table.n)) & 1 == 1].sum()) ** table.dim
                err = abs(mpmath.mpf(float(table.coeffs[S])) - _top_rank_exact(parts, int(S)))
                worst = max(worst, float(err) / (2.0**-53 * scale))
    assert worst <= 4.0, worst


def _elementary_symmetric(values, k):
    """e_k of ``values`` by the usual recurrence, in the values' own type."""
    e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
    for x in values:
        for j in range(k, 0, -1):
            e[j] += x * e[j - 1]
    return e[k]


def _below_top_exact(parts, S, spectra):
    """c_S at |S| < dim to 50 digits: the alternating sum over U subset S of
    e_|S| of the eigenvalues of sum_{i in U} A_i, every block's together,
    each spectrum from ``mpmath.eigh`` and kept in ``spectra`` by mask."""
    idx = [i for i in range(len(parts[0])) if S >> i & 1]
    total = mpmath.mpf(0)
    for r in range(len(idx) + 1):
        for U in itertools.combinations(idx, r):
            mask = sum(1 << i for i in U)
            if mask not in spectra:
                spectra[mask] = []
                for part in parts:
                    M = mpmath.matrix(len(part[0]))
                    for i in U:
                        M += mpmath.matrix(part[i].tolist())
                    spectra[mask] += list(mpmath.eigh(M, eigvals_only=True))
            total += (-1) ** (len(idx) - r) * _elementary_symmetric(spectra[mask], len(idx))
    return total


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("kind", ["completion", "rank-capped", "near-singular", "trace-spread", "two-part"])
def test_coefficients_below_the_top_rank_stay_inside_their_error_budget(kind, route):
    # SubsetTable.build states this budget: a c_S with 1 <= |S| < dim, on
    # either route, within 16 u (sum_{i in S} ||A_i||_*)^|S| of its 50-digit
    # value, in the top rank's norm.  Largest error seen at these seeds: 5.8 u
    # from the tridiagonal, 5.5 u from the spectra; over seeds 0-19, 5.8 u
    # and 8.4 u.
    worst = 0.0
    with mpmath.workdps(50):
        for seed in range(3):
            parts = _budget_inputs(kind, np.random.default_rng(seed))
            with table_route(route):
                table = SubsetTable.build(*parts)
            nuclear = sum(np.array([np.abs(np.linalg.eigvalsh(M)).sum() for M in part]) for part in parts)
            spectra = {}
            for S in np.flatnonzero((table.sizes >= 1) & (table.sizes < table.dim)):
                size = int(table.sizes[S])
                scale = float(nuclear[(S >> np.arange(table.n)) & 1 == 1].sum()) ** size
                err = abs(mpmath.mpf(float(table.coeffs[S])) - _below_top_exact(parts, int(S), spectra))
                worst = max(worst, float(err) / (2.0**-53 * scale))
    assert worst <= 16.0, worst


def _edge_sums(d):
    """d x d sums the tridiagonal reduction must get right, by name."""
    rng = np.random.default_rng(d)
    Q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    sprinkled = _indefinite(rng, d)
    sprinkled[-1, 0], sprinkled[0, -1] = 3e-320 + 5e-324j, 3e-320 - 5e-324j
    sprinkled[1 % d, 0], sprinkled[0, 1 % d] = 5e-324 - 1e-323j, 5e-324 + 1e-323j  # the first reflector's x_0
    sprinkled[0, 0] = 4e-321
    return {
        "zero": np.zeros((d, d)),
        "scalar": -0.7 * np.eye(d),  # every column below the diagonal is 0
        "diagonal": np.diag(rng.standard_normal(d)),
        "rank-one": np.outer(v, v.conj()),
        "repeated": (Q * np.repeat([1.5, -0.25], [d - d // 2, d // 2])) @ Q.conj().T,
        "subnormal": np.outer(v, v.conj()) * 2.0**-1060,
        "sprinkled": sprinkled,  # normal entries beside subnormal ones
    }


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
def test_tridiagonal_coefficients_match_mpmath_on_edge_sums(d, blocks):
    # Each e_k within 16 u ||M||_*^k of its value from the 50-digit spectrum
    # (the build's budget for one sum), plus half the smallest subnormal for
    # the rounding of an e_k below the normal range.  With two blocks the
    # second is the repeated-eigenvalue sum, behind a zero coupling.
    sums = _edge_sums(d)
    names = list(sums)
    batch = np.stack([[sums[k]] + [sums["repeated"]] * (blocks - 1) for k in names])
    top = blocks * d
    E, exps = mixedchar._tridiagonal_coefficients(batch, top)
    got = np.ldexp(E, exps[:, None] * np.arange(top + 1))
    if blocks == 1:
        assert got[names.index("zero")].tolist() == [1.0] + [0.0] * top
    with mpmath.workdps(50):
        for row, name in enumerate(names):
            values = []
            for M in batch[row]:
                values += list(mpmath.eigh(mpmath.matrix(M.tolist()), eigvals_only=True))
            nuclear = sum(abs(x) for x in values)
            for k in range(top + 1):
                err = abs(mpmath.mpf(float(got[row, k])) - _elementary_symmetric(values, k))
                assert err <= 16 * mpmath.mpf(2) ** -53 * nuclear**k + mpmath.mpf(2) ** -1075, (name, k, float(err))


@pytest.mark.parametrize("j", [-1000, 1000])
def test_tridiagonal_coefficients_scale_by_powers_of_two_bit_for_bit(j):
    # e_k(2^j M) = 2^(jk) e_k(M): the reduction sees the same scaled sums
    # and returns the same E with exps shifted by j, however far e_k itself
    # lies outside the float range.  The entries are multiples of 1/2 below
    # 2^10, so 2^j M has no subnormal entry and is exact.
    R = np.random.default_rng(7).integers(-1024, 1024, (40, 2, 6, 6, 2)).astype(np.float64).view(np.complex128)[..., 0]
    batch = (R + R.conj().swapaxes(-1, -2)) / 2
    E, exps = mixedchar._tridiagonal_coefficients(batch, 12)
    E2, exps2 = mixedchar._tridiagonal_coefficients(batch * 2.0**j, 12)
    assert E2.tobytes() == E.tobytes()
    assert np.array_equal(exps2, exps + j)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("route", ROUTES)
def test_a_table_that_overflows_raises_numerical_failure(route):
    # e_2 of three 2 x 2 PSD matrices at 1e300 is about 1e600: the table
    # fails where it is built, naming the overflow, and 1e150 still builds.
    rng = np.random.default_rng(3)
    mats = [random_psd(rng, 2) for _ in range(3)]
    with table_route(route):
        E = ensemble([1e300 * M for M in mats], tol=np.inf)
        for call in (SubsetTable.build, lambda E: mixed_char_poly(E, [1.0, -1.0, 1.0]), quadratic_mixed_char_poly):
            with pytest.raises(NumericalFailure, match="overflow"):
                call(E)
        table = SubsetTable.build(ensemble([1e150 * M for M in mats], tol=np.inf))
    assert np.isfinite(table.coeffs).all() and table.coeffs[7] == 0.0 and table.coeffs[3] != 0.0


def _mixed_distributions(rng, n):
    """Point masses, two-point and three-point variables, in random order."""
    dists = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        dists.append(FiniteDistribution.make(rng.uniform(-2.0, 2.0, k), rng.dirichlet(np.ones(k))))
    return dists


def _levels(table, dists):
    """The engine a quadratic descent builds for these variables."""
    return ProductLevels(table, [dist.deviations() for dist in dists], [dist.variance() for dist in dists])


def _centered_bound(dists):
    """Per index, max(1, t^2) over its deviations t: it bounds |a|, |b| and
    |c| of every centered kernel, fixed or free."""
    return np.array([max(1.0, max(t * t for t in dist.deviations().values())) for dist in dists])


@pytest.mark.parametrize("route", ROUTES)
@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    j=st.integers(0, 5),
    alpha=st.floats(-4.0, 4.0, allow_nan=False),
)
def test_table_scaling_one_matrix_scales_its_masks(route, d, n, seed, j, alpha):
    # c_S is multilinear: scaling A_j by alpha scales c_S by alpha when
    # j is in S and leaves every other entry, bit for bit, as it was.
    j %= n
    rng = np.random.default_rng(seed)
    mats = [_indefinite(rng, d) for _ in range(n)]
    scaled_mats = list(mats)
    scaled_mats[j] = alpha * mats[j]
    with table_route(route):
        base = SubsetTable.build(mats).coeffs
        scaled = SubsetTable.build(scaled_mats).coeffs
    has_j = (np.arange(1 << n) >> j) & 1 == 1
    np.testing.assert_array_equal(scaled[~has_j], base[~has_j])
    scale = np.maximum(_error_scale(mats), _error_scale(scaled_mats))
    gap = np.abs(scaled - alpha * base)[has_j]
    assert np.all(gap <= 1e-12 * scale[has_j]), float(np.max(gap))


def _pair_loop(coeffs, n, d, spec):
    """The product operator by a plain double loop over mask pairs (S, T).

    Returns the ascending coefficients and, per coefficient, the sum of the
    absolute values of its terms.  That sum, times a small multiple of the
    unit roundoff, bounds the rounding error of this loop and of the
    Kronecker pass, so tolerances are set relative to it.
    """
    want = np.zeros(2 * d + 1)
    absum = np.zeros(2 * d + 1)
    nonzero = [S for S in range(1 << n) if coeffs[S] != 0.0]
    for S in nonzero:
        for T in nonzero:
            term = coeffs[S] * coeffs[T]
            for i in range(n):
                in_s, in_t = (S >> i) & 1, (T >> i) & 1
                if in_s and in_t:
                    term *= spec.c[i]
                elif in_s:
                    term *= spec.a[i]
                elif in_t:
                    term *= spec.b[i]
            k = 2 * d - bin(S).count("1") - bin(T).count("1")
            want[k] += term
            absum[k] += abs(term)
    return want, absum


def _ascending(by_rank, d):
    """Entry j of by_rank belongs to x^(2d - j); return ascending coefficients."""
    out = np.zeros(2 * d + 1)
    k = min(len(by_rank), 2 * d + 1)
    out[2 * d - np.arange(k)] = by_rank[:k]
    return out


def _product_scale(table, d, weights):
    """Per coefficient: sum over |S| + |T| = j of |c_S||c_T| prod_{S}w prod_{T}w.

    With w_i bounding |a_i|, |b_i| and |c_i| and w_i >= 1 this caps the sum
    of absolute pair terms, which scales the rounding error.
    """
    u = np.bincount(table.sizes, weights=np.abs(table.coeffs) * subset_products(weights))
    return _ascending(np.convolve(u, u), d)


@pytest.mark.parametrize("d", range(1, 6))
def test_expected_product_matches_pair_loop(d):
    # n runs below and above d; specs are general, have zero entries, or
    # come from a distribution (-mu, mu, -E xi^2).
    rng = np.random.default_rng(20 + d)
    for n in range(1, 7):
        E = ensemble([_indefinite(rng, d) for _ in range(n)], tol=np.inf)
        table = SubsetTable.build(E)
        general = rng.standard_normal((3, n))
        sparse = general * (rng.random((3, n)) < 0.6)
        mu, m2 = rng.uniform(-1, 1, n), rng.uniform(1, 2, n)
        for a, b, c in (general, sparse, (-mu, mu, -m2)):
            spec = DerivativeSpec(tuple(a), tuple(b), tuple(c))
            got = np.array(expected_product_poly(E, spec, table).coeffs)
            want, absum = _pair_loop(table.coeffs, n, d, spec)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * absum), (d, n, got - want)


@pytest.mark.parametrize("d, n", [(4, 12), (7, 9), (10, 14)])
def test_expected_product_all_fixed_is_two_sided_product(d, n):
    # Every index fixed to s_i, spec (-s_i, s_i, -s_i^2): the operator
    # factors into mu[s A](x) mu[-s A](x).
    rng = np.random.default_rng(d * n)
    E = ensemble([random_psd(rng, d) for _ in range(n)], tol=np.inf)
    table = SubsetTable.build(E)
    s = rng.uniform(-1.5, 1.5, n)
    got = np.array(expected_product_poly(E, DerivativeSpec(tuple(-s), tuple(s), tuple(-s * s)), table).coeffs)
    want = np.array((mixed_char_poly(E, s, table) * mixed_char_poly(E, -s, table)).coeffs)
    scale = _product_scale(table, d, np.maximum(np.abs(s), 1.0))
    assert np.all(np.abs(got - want) <= 1e-12 * scale), float(np.max(np.abs(got - want) / scale))


def test_quadratic_closed_form_equals_the_product_pass():
    # The closed form must stay the (0, 0, -1) product pass: bit for bit on
    # the table, and within TOL_COEFF of the symbolic oracle where it runs.
    rng = np.random.default_rng(12)
    for d, n in itertools.product((1, 2, 3, 4, 6, 8, 10), (1, 2, 3, 4, 7, 12)):
        ranks = rng.integers(1, d + 1, size=n)
        E = ensemble([random_psd(rng, d, int(k), trace=rng.uniform(0.2, 1.0)) for k in ranks], tol=np.inf)
        table = SubsetTable.build(E)
        spec = DerivativeSpec((0.0,) * n, (0.0,) * n, (-1.0,) * n)
        got = quadratic_mixed_char_poly(E, table)
        assert got.coeffs == expected_product_poly(E, spec, table).coeffs, (d, n)
        if d <= 4 and n <= 4:
            want = truncated_ring_oracle(E, spec=spec).coeffs
            assert np.max(np.abs(np.subtract(got.coeffs, want))) <= TOL_COEFF, (d, n)


def test_quadratic_mixed_char_poly_is_signed_sum_of_squares_at_guard_limit():
    # Spec (0, 0, -1) keeps only the pairs S = T:
    # sum_S (-1)^|S| c_S^2 x^(2(d - |S|)).
    d, n = 10, 14
    rng = np.random.default_rng(9)
    E = ensemble([random_psd(rng, d) for _ in range(n)], tol=np.inf)
    table = SubsetTable.build(E)
    got = np.array(quadratic_mixed_char_poly(E, table).coeffs)
    squares = np.bincount(table.sizes, weights=table.coeffs**2)
    signed, absum = np.zeros(2 * len(squares) - 1), np.zeros(2 * len(squares) - 1)
    signed[::2] = (-1.0) ** np.arange(len(squares)) * squares
    absum[::2] = squares
    want, scale = _ascending(signed, d), _ascending(absum, d)
    assert np.all(np.abs(got - want) <= 1e-12 * scale), float(np.max(np.abs(got - want) / scale))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    i=st.integers(0, 5),
    fixed_bits=st.integers(0, 63),
)
def test_free_index_is_mixture_of_its_children(d, n, seed, i, fixed_bits):
    # The descent relies on this: with index i free, the conditional
    # polynomial is the probability mixture of the polynomials with i fixed
    # to each support value.
    i %= n
    rng = np.random.default_rng(seed)
    E = ensemble([_indefinite(rng, d) for _ in range(n)], tol=np.inf)
    table = SubsetTable.build(E)
    dists = _mixed_distributions(rng, n)
    fixed = {
        j: dists[j].support()[int(rng.integers(len(dists[j].support())))]
        for j in range(n)
        if j != i and (fixed_bits >> j) & 1
    }

    def poly(assignment):
        spec = conditional_spec_quadratic(dists, assignment)
        return np.array(expected_product_poly(E, spec, table).coeffs)

    parent = poly(fixed)
    mixture = sum(p * poly({**fixed, i: v}) for v, p in zip(dists[i].values, dists[i].probs))
    bound = np.array([max(1.0, max(v * v for v in dist.values)) for dist in dists])
    scale = _product_scale(table, d, bound)
    assert np.all(np.abs(parent - mixture) <= 1e-12 * scale), float(np.max(np.abs(parent - mixture) / scale))


@pytest.mark.parametrize("d, n", [(1, 1), (2, 4), (6, 3), (3, 7), (4, 12), (7, 9), (3, 13), (10, 14)])
def test_product_levels_match_the_full_pass_on_every_branch(d, n):
    # Walk a random path: at every level each support value's polynomial
    # from the engine equals the full kernel pass with that prefix fixed.
    rng = np.random.default_rng(100 * d + n)
    E = ensemble([random_psd(rng, d) for _ in range(n)], tol=np.inf)
    table = SubsetTable.build(E)
    dists = _mixed_distributions(rng, n)
    scale = _product_scale(table, d, _centered_bound(dists))
    levels = _levels(table, dists)
    fixed = {}
    for k in range(n):
        support = dists[k].support()
        for v in support:
            got = np.array(levels.branch(v))
            want = np.array(expected_product_poly(E, conditional_spec_quadratic(dists, {**fixed, k: v}), table).coeffs)
            assert got.shape == want.shape == (2 * d + 1,)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (k, v, float(np.max(np.abs(got - want) / scale)))
        fixed[k] = support[int(rng.integers(len(support)))]
        levels.commit(fixed[k])
    with pytest.raises(ValueError):
        levels.branch(fixed[n - 1])


@pytest.mark.parametrize("seed", range(6))
def test_product_levels_match_the_ring_oracle(seed):
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    E = ensemble([_indefinite(rng, d) for _ in range(n)], tol=np.inf)
    dists = _mixed_distributions(rng, n)
    levels = _levels(SubsetTable.build(E), dists)
    fixed = {}
    for k in range(n):
        for v in dists[k].support():
            want = truncated_ring_oracle(E, spec=conditional_spec_quadratic(dists, {**fixed, k: v})).coeffs
            got = levels.branch(v)
            assert len(got) == len(want)
            assert np.max(np.abs(np.subtract(got, want))) <= TOL_COEFF, (d, n, k, v)
        fixed[k] = dists[k].support()[-1]
        levels.commit(fixed[k])


def _counting_kernel_passes(monkeypatch):
    """A list that gains one entry per ``_apply_kernels`` call."""
    calls = []
    real = reference._apply_kernels

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(reference, "_apply_kernels", counting)
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_product_levels_hold_the_contract_on_uncentered_walks(seed):
    # The descent centers every variable, so a mean about 100 times the
    # spread must not cost accuracy.  A point mass with probability
    # 1 - 2^-53 has a centered value and a variance that are rounding
    # residues, and an exact point mass a variance of 0.
    rng = np.random.default_rng(300 + seed)
    d, n = 3, 9
    E = ensemble([random_psd(rng, d) for _ in range(n)], tol=np.inf)
    table = SubsetTable.build(E)
    dists = []
    for _ in range(n):
        mean = rng.uniform(50.0, 150.0) * rng.choice([-1.0, 1.0])
        spread = rng.uniform(0.5, 1.0)
        dists.append(FiniteDistribution.make([mean - spread, mean + spread], [0.5, 0.5]))
    near, exact = rng.choice(n, size=2, replace=False)
    dists[near] = FiniteDistribution.make([rng.uniform(50.0, 150.0)], [1.0 - 2.0**-53])
    dists[exact] = FiniteDistribution.point_mass(rng.uniform(-150.0, -50.0))
    scale = _product_scale(table, d, _centered_bound(dists))
    levels = _levels(table, dists)
    fixed = {}
    for k in range(n):
        support = dists[k].support()
        for v in support:
            got = np.array(levels.branch(v))
            want = np.array(expected_product_poly(E, conditional_spec_quadratic(dists, {**fixed, k: v}), table).coeffs)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (k, v, float(np.max(np.abs(got - want) / scale)))
        fixed[k] = support[int(rng.integers(len(support)))]
        levels.commit(fixed[k])


def test_product_levels_reject_a_level_past_the_last_index():
    rng = np.random.default_rng(4)
    E = ensemble([random_psd(rng, 3) for _ in range(4)], tol=np.inf)
    dists = [FiniteDistribution.fair_signs()] * 4
    levels = _levels(SubsetTable.build(E), dists)
    for v in (-1.0, 1.0, 1.0):
        levels.commit(v)
    want = expected_product_poly(E, conditional_spec_quadratic(dists, {0: -1.0, 1: 1.0, 2: 1.0, 3: -1.0})).coeffs
    assert np.max(np.abs(np.subtract(levels.branch(-1.0), want))) <= 1e-12 * np.max(np.abs(want))
    levels.commit(-1.0)
    leaf = levels._R.copy()
    for call in (levels.branch, levels.commit):
        with pytest.raises(ValueError):
            call(1.0)
    # the rejected calls leave the fully contracted table as it was
    assert np.array_equal(levels._R, leaf)


@pytest.mark.parametrize("seed", range(50))
def test_product_levels_branches_are_exactly_even(seed):
    # The (S, T) and (T, S) terms of an odd coefficient cancel, so the
    # engine sums only the even anti-diagonals of its Gram product, and its
    # branches and their mixture are exactly even.  The full pass keeps its
    # rounding noise there and stays the reference for the unchanged
    # coefficient contract.
    rng = np.random.default_rng(700 + seed)
    d, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
    E = ensemble([random_psd(rng, d) for _ in range(n)], tol=np.inf)
    table = SubsetTable.build(E)
    dists = _mixed_distributions(rng, n)
    scale = _product_scale(table, d, _centered_bound(dists))
    levels = _levels(table, dists)
    fixed = {}
    for k in range(n):
        support = dists[k].support()
        branches = []
        for v in support:
            got = np.array(levels.branch(v))
            assert np.all(got[1::2] == 0.0), (k, v, got[1::2])
            want = np.array(expected_product_poly(E, conditional_spec_quadratic(dists, {**fixed, k: v}), table).coeffs)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (k, v, float(np.max(np.abs(got - want) / scale)))
            branches.append(got)
        probs = dict(zip(dists[k].values, dists[k].probs))
        mixture = np.array([probs[v] for v in support]) @ np.array(branches)
        assert np.all(mixture[1::2] == 0.0), k
        fixed[k] = support[int(rng.integers(len(support)))]
        levels.commit(fixed[k])


def _counting_contractions(monkeypatch):
    """A list that gains one entry per ``_contract_low_bit`` call."""
    calls = []
    real = mixedchar._contract_low_bit

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(mixedchar, "_contract_low_bit", counting)
    return calls


def test_centered_solves_make_no_kernel_pass(monkeypatch):
    # Centered kernels need no kernel pass: a branch contracts its value out
    # of the committed table once, and the commit keeps the winner's table.
    # Point masses (the weights 0 and 1) are branches like any other.
    passes = _counting_kernel_passes(monkeypatch)
    calls = _counting_contractions(monkeypatch)
    branches = []
    real_branch = ProductLevels.branch
    monkeypatch.setattr(ProductLevels, "branch", lambda self, v: branches.append(v) or real_branch(self, v))
    rng = np.random.default_rng(17)
    solve_kls(DiscrepancyInstance(trace_capped_ensemble(rng, 3, 8, 1.0), tuple(random_two_valued(rng) for _ in range(8))))
    solve_hermitian([_indefinite(rng, 2) for _ in range(6)], [FiniteDistribution.fair_signs()] * 6)
    weights = rng.uniform(0.1, 0.9, 7)
    weights[[2, 5]] = 0.0, 1.0
    lyapunov_select(LyapunovInstance.make(trace_capped_ensemble(rng, 3, 7, 1.0), weights))
    assert passes == []
    # two values for each two-point variable, one for each point mass
    assert len(branches) == 2 * 8 + 2 * 6 + (2 * 5 + 2)
    assert len(calls) == len(branches)


def test_product_levels_contract_once_per_branch_and_never_per_commit(monkeypatch):
    # a branch contracts its value out of the committed table once; the
    # commit keeps the winner's table, so a two-candidate level makes 2
    rng = np.random.default_rng(9)
    table = SubsetTable.build([random_psd(rng, 3) for _ in range(7)])
    dists = _mixed_distributions(rng, 7)
    calls = _counting_contractions(monkeypatch)
    levels, blind = _levels(table, dists), _levels(table, dists)
    for dist in dists:
        support = dist.support()
        for v in support:
            before = len(calls)
            levels.branch(v)
            assert len(calls) - before == 1
        before = len(calls)
        levels.commit(support[0])
        assert len(calls) == before
        # a value committed without a branch contracts once itself, to the
        # same table the branch kept
        blind.commit(support[0])
        assert len(calls) - before == 1
        assert np.array_equal(blind._R, levels._R)


def _partition_table(rng, d, m, coverage):
    """The table ks_r_partition builds: the matrices and their rank-one
    completion.  Without a coverage, m PSD matrices whose sum is not a
    multiple of the identity and no completion."""
    if coverage is None:
        return SubsetTable.build([random_psd(rng, d) for _ in range(m)])
    E = covering_ensemble(rng, d, m, coverage)
    return SubsetTable.build(list(E) + rank_one_completion(E.sum(), ensemble_stats(E).epsilon))


def _slot_tables(table, t, fixed):
    """Slot k's table c_S prod_{i in S} (-w_ki): w = 1 free, 1/t_k in the
    index's own slot and 0 in the others."""
    w = np.ones((len(t), table.n))
    for i, slot in fixed.items():
        w[:, i] = 0.0
        w[slot, i] = 1.0 / t[slot]
    return table.coeffs * subset_products(-w)


def _convolution_scale(tables, n, deg):
    """Per coefficient: the graded read of the rank product of the zetas of
    |tables|, with |weights|.  It bounds sum_U |H[j, U] W[j, U]| for the
    signed tables, the sum that scales the engine's rounding, and the sum
    of |terms| of the reference's direct sum over submasks."""
    pc = popcounts(n)
    H = np.ones((1, 1, 1 << n))
    for t in tables:
        H = _rank_product(H, _ranked_zeta(np.abs(t), pc, n)[:, None], n)
    H = H[:, 0]
    g = (H * np.abs(_binomial_weights(n, len(H)))[:, pc]).sum(axis=-1)
    out = np.zeros(deg + 1)
    out[deg - np.arange(min(len(g), deg + 1))] = g[: deg + 1]
    return out


@pytest.mark.parametrize(
    "d, m, r, coverage, n",
    [
        (2, 4, 1, 0.9, 6),  # one slot
        (2, 4, 2, 1.0, 4),  # exact cover: no completion pieces, every index is a level
        (1, 6, 3, 0.8, 7),
        (2, 8, 4, 0.9, 10),
        (3, 9, 3, 0.9, 12),
        (3, 8, 4, 0.9, 11),
        (4, 10, 2, 0.9, 14),  # the index guard
        (3, 9, 3, None, 9),  # a sum that is not isotropic
    ],
)
def test_convolution_levels_match_the_ranked_convolution_on_every_branch(d, m, r, coverage, n):
    # Walk a random path: at every level each slot's polynomial from the
    # engine equals a ranked subset convolution of the slot tables with
    # that prefix fixed, followed by a Moebius collapse.
    rng = np.random.default_rng(10 * d + m + r)
    table = _partition_table(rng, d, m, coverage)
    assert table.n == n
    t = rng.dirichlet(np.full(r, 3.0))
    levels = ConvolutionLevels(table, 1.0 / t)
    fixed = {}
    for k in range(m):
        for s in range(r):
            tables = _slot_tables(table, t, {**fixed, k: s})
            want = np.array(_graded_poly(table.sizes, subset_convolve(tables, n), r * d).coeffs)
            got = np.array(levels.branch(s))
            scale = _convolution_scale(tables, n, r * d)
            assert got.shape == want.shape == (r * d + 1,)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (k, s, float(np.max(np.abs(got - want) / scale)))
        fixed[k] = int(rng.integers(r))
        levels.commit(fixed[k])


def test_convolution_levels_reject_a_missing_slot_or_a_level_past_the_last_index():
    rng = np.random.default_rng(6)
    table = _partition_table(rng, 2, 4, 1.0)
    t = [0.3, 0.7]
    levels = ConvolutionLevels(table, [1 / x for x in t])
    levels.commit(1)
    levels.commit(0)
    for call in (levels.branch, levels.commit):
        for slot in (2, -1, True, 1.0):  # no such slot, or not an integer
            with pytest.raises(ValueError):
                call(slot)
    # the rejected calls changed nothing: the next levels still read the ranked convolution
    fixed = {0: 1, 1: 0}
    for k, slot in ((2, 0), (3, 1)):
        fixed[k] = slot
        tables = _slot_tables(table, t, fixed)
        want = np.array(_graded_poly(table.sizes, subset_convolve(tables, 4), 4).coeffs)
        got = np.array(levels.branch(slot))
        assert np.all(np.abs(got - want) <= 1e-12 * _convolution_scale(tables, 4, 4))
        levels.commit(slot)
    for call in (levels.branch, levels.commit):  # past the last index
        with pytest.raises(ValueError):
            call(0)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 6),
    r=st.integers(1, 4),
    coverage=st.one_of(st.none(), st.floats(0.8, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_convolution_levels_match_the_ranked_convolution_along_any_path(d, m, r, coverage, seed):
    # Every level up to the last index, completion pieces included, along a
    # random commit path.
    rng = np.random.default_rng(seed)
    table = _partition_table(rng, d, m, coverage)
    n = table.n
    t = rng.dirichlet(np.full(r, 3.0))
    levels = ConvolutionLevels(table, 1.0 / t)
    fixed = {}
    for k in range(n):
        for s in range(r):
            tables = _slot_tables(table, t, {**fixed, k: s})
            want = np.array(_graded_poly(table.sizes, subset_convolve(tables, n), r * d).coeffs)
            got = np.array(levels.branch(s))
            assert np.all(np.abs(got - want) <= 1e-12 * _convolution_scale(tables, n, r * d)), (k, s)
        fixed[k] = int(rng.integers(r))
        levels.commit(fixed[k])


@pytest.mark.parametrize("d, m, r, coverage", [(1, 6, 2, 1.0), (2, 8, 4, 0.9), (3, 9, 3, 0.9), (4, 10, 2, 0.9)])
def test_convolution_levels_contract_each_committed_index_out_of_the_masks(d, m, r, coverage):
    # After k commits every slot spans the 2^(n-k) masks of the free indices,
    # its ranks stop at min(top, n - k) and its count axis at min(top,
    # indices committed to that slot).
    rng = np.random.default_rng(d + m + r)
    table = _partition_table(rng, d, m, coverage)
    n, top = table.n, min(table.n, d)
    levels = ConvolutionLevels(table, [float(r)] * r)
    counts = [0] * r
    for k in range(n + 1):
        for s, Y in enumerate(levels._slots):
            assert Y.shape[-1] == 1 << (n - k)
            assert len(Y) - 1 <= min(top, n - k)
            assert Y.shape[1] - 1 <= min(top, counts[s])
        if k < n:
            s = int(rng.integers(r))
            levels.commit(s)
            counts[s] += 1
    assert max(counts) > top  # some slot's count axis saturated


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_partition_descent_forms_only_the_leave_one_out_rank_products(monkeypatch, r):
    # Each read is fused with its last rank product, so a level forms only
    # the products of the other slots' low halves: none at r <= 2, and
    # r - 2 prefix, r - 2 suffix and r - 2 middle ones at r >= 3.
    products, starts = [], []
    real_product, real_start = mixedchar._rank_product, ConvolutionLevels._start_level
    monkeypatch.setattr(mixedchar, "_rank_product", lambda *a: products.append(None) or real_product(*a))
    monkeypatch.setattr(ConvolutionLevels, "_start_level", lambda self: starts.append(None) or real_start(self))
    rng = np.random.default_rng(40 + r)
    m = 8
    res = ks_r_partition(covering_ensemble(rng, 2, m, 0.9), rng.dirichlet(np.full(r, 3.0)))
    assert len(res.blocks) == r
    assert len(starts) == m
    assert len(products) == 3 * max(r - 2, 0) * m


def _exact_fused_read(A, B, W, shift, deg):
    """Per grade j: the exact sum of A[i, e, U] B[l, f, U] W[i + l, U] over
    i + l + e + f + shift = j and i + l < len(W), its sum of absolute
    values, and its number of terms, in rationals."""
    exact, absolute, count = [Fraction(0)] * (deg + 1), [Fraction(0)] * (deg + 1), [0] * (deg + 1)
    for i, e, l, f in itertools.product(range(len(A)), range(A.shape[1]), range(len(B)), range(B.shape[1])):
        j = i + l + e + f + shift
        if i + l >= len(W) or j > deg:
            continue
        w = [int(x) for x in W[i + l]]
        terms = [Fraction(float(a)) * Fraction(float(b)) * x for a, b, x in zip(A[i, e], B[l, f], w)]
        exact[j] += sum(terms)
        absolute[j] += sum(abs(x) for x in terms)
        count[j] += len(terms)
    return exact, absolute, count


@pytest.mark.parametrize("n", [4, 7, 10])
def test_fused_read_stays_inside_its_error_bound(n):
    # The fused read against exact rational arithmetic on the same float
    # inputs: a signed zeta times the rank product of two, as the engine
    # reads a level, and plain noise of mixed signs with count axes.  BLAS
    # sums a matrix product in its own order, so the bound is the one that
    # holds for any order: gamma_(K+1) sum |terms| for the K terms of g[j]
    # (two roundings per term).  Largest error seen, in u sum |terms|: 0.77
    # on the zeta products (n = 4) and 6.2 on the noise (n = 10).
    rng = np.random.default_rng(n)
    pc = popcounts(n)
    signed = np.where(pc <= 3, rng.standard_normal(1 << n), 0.0) * (-1.0) ** pc
    zeta = _ranked_zeta(signed, pc, 3)[:, None]
    noise = [
        rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape) for shape in ((3, 2, 1 << n), (n + 1, 3, 1 << n))
    ]
    u = 2.0**-53
    W = _binomial_weights(n, n + 1)[:, pc]
    for A, B in [(zeta, _rank_product(zeta, zeta, n)), noise]:
        deg = len(A) + A.shape[1] + len(B) + B.shape[1] - 4
        got = _fused_read(A, B, W, 0, deg)
        assert got.shape == (deg + 1,)
        # a shift moves the same sums up, and drops the grade past deg
        shifted = _fused_read(A, B, W, 1, deg)
        assert shifted[0] == 0.0 and shifted[1:].tobytes() == got[:-1].tobytes()
        for j, (exact, absolute, K) in enumerate(zip(*_exact_fused_read(A, B, W, 0, deg))):
            err = abs(Fraction(float(got[j])) - exact)
            gamma = (K + 1) * u / (1 - (K + 1) * u)
            assert err <= gamma * absolute, (j, float(err), float(gamma * absolute))


def test_expected_product_rejects_spec_of_wrong_length():
    E = ensemble([diag(1.0), diag(2.0)])
    for m in (1, 3):
        spec = DerivativeSpec((0.0,) * m, (0.0,) * m, (-1.0,) * m)
        with pytest.raises(ValueError, match="spec length"):
            expected_product_poly(E, spec)


@pytest.mark.parametrize("route", ROUTES)
def test_oracle_equivalence_complex_hermitian(route):
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        E = ensemble([random_psd(rng, d, trace=float(rng.uniform(0.2, 1.5))) for _ in range(m)], tol=np.inf)
        scalars = rng.uniform(-1.5, 1.5, size=m)
        with table_route(route):
            fast = mixed_char_poly(E, scalars)
        slow = truncated_ring_oracle(E, scalars=scalars)
        np.testing.assert_allclose(fast.coeffs, slow.coeffs, rtol=1e-8, atol=1e-10)


def test_table_is_shared_and_consistent():
    rng = np.random.default_rng(6)
    E = ensemble([random_psd(rng, 3) for _ in range(3)], tol=np.inf)
    table = SubsetTable.build(E)
    a = mixed_char_poly(E, [1.0, -1.0, 1.0], table)
    b = mixed_char_poly(E, [1.0, -1.0, 1.0])
    assert a.coeffs == b.coeffs


def test_mixed_operator_below_diagonal_operator_single_index():
    # For one matrix B the two second-order restrictions have closed forms in
    # the elementary symmetric functions e_k of the spectrum:
    #   (1 - dz dw)          -> x^(2d) - e1^2 x^(2d-2)
    #   (1 - (1/2) dz^2)|w=z -> x^(2d) - (e1^2 + 2 e2) x^(2d-2)
    # so the mixed restriction never has the larger max root (e2 >= 0).
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        B = random_psd(rng, d, trace=float(rng.uniform(0.2, 2.0)))
        w = np.linalg.eigvalsh(B)
        e1 = float(np.sum(w))
        e2 = float(sum(w[i] * w[j] for i in range(d) for j in range(i + 1, d)))
        mixed = quadratic_mixed_char_poly(ensemble([B], tol=np.inf))
        diag_coeffs = np.zeros(2 * d + 1)
        diag_coeffs[2 * d] = 1.0
        diag_coeffs[2 * d - 2] = -(e1 * e1 + 2 * e2)
        diag_poly = [float(c) for c in diag_coeffs]
        mr_mixed = root_report([mixed], 1e-7)[0].maxroot
        from interlace import RealPolynomial

        mr_diag = root_report([RealPolynomial.from_coeffs(diag_poly)], 1e-7)[0].maxroot
        assert mr_diag > 0  # the diagonal max-root point is above x^(2d)'s roots
        assert mr_mixed <= mr_diag + 1e-7
        assert mr_mixed == pytest.approx(e1, abs=1e-8)
