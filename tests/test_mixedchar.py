import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    DerivativeSpec,
    SizeGuard,
    SubsetTable,
    ensemble,
    expected_product_poly,
    mixed_char_poly,
    quadratic_mixed_char_poly,
    root_report,
    subset_derivative,
    truncated_ring_oracle,
)
from interlace.descent import FiniteDistribution, conditional_spec_quadratic
from interlace.generate import random_psd
from interlace.mixedchar import _ring_determinant, popcounts, subset_products


def diag(*vals):
    return np.diag(np.array(vals, dtype=float))


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
    assert not root_report(p).real_rooted


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
    assert root_report(p).maxroot == pytest.approx(2.0, abs=1e-9)
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


@pytest.mark.parametrize("kind", ["indefinite", "singular", "rank-one", "mixed"])
def test_table_matches_ring_oracle_terms(kind):
    # The coefficient of z^S in the oracle's det(xI + sum z_i A_i) is
    # c_S x^(d - |S|); masks with no oracle term have c_S = 0.
    makers = {"indefinite": _indefinite, "singular": _singular, "rank-one": _rank_one}
    rng = np.random.default_rng(11)
    for d, n in itertools.product(range(1, 5), range(1, 5)):
        pick = list(makers.values()) if kind == "mixed" else [makers[kind]]
        mats = [pick[int(rng.integers(len(pick)))](rng, d) for _ in range(n)]
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


@pytest.mark.parametrize("d, n", [(7, 9), (10, 14)])
def test_table_matches_cauchy_binet_for_rank_one(d, n):
    # With A_i = v_i v_i^*, c_S = det(V_S V_S^*) (Cauchy-Binet), and
    # Hadamard's bound prod_{i in S} |v_i|^2 caps it.
    rng = np.random.default_rng(5)
    V = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) * rng.uniform(0.3, 3.0, (n, 1))
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


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    j=st.integers(0, 5),
    alpha=st.floats(-4.0, 4.0, allow_nan=False),
)
def test_table_scaling_one_matrix_scales_its_masks(d, n, seed, j, alpha):
    # c_S is multilinear: scaling A_j by alpha scales c_S by alpha when
    # j is in S and leaves every other entry, bit for bit, as it was.
    j %= n
    rng = np.random.default_rng(seed)
    mats = [_indefinite(rng, d) for _ in range(n)]
    base = SubsetTable.build(mats).coeffs
    scaled_mats = list(mats)
    scaled_mats[j] = alpha * mats[j]
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
    dists = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        dists.append(FiniteDistribution.make(rng.uniform(-2.0, 2.0, k), rng.dirichlet(np.ones(k))))
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


def test_expected_product_rejects_spec_of_wrong_length():
    E = ensemble([diag(1.0), diag(2.0)])
    for m in (1, 3):
        spec = DerivativeSpec((0.0,) * m, (0.0,) * m, (-1.0,) * m)
        with pytest.raises(ValueError, match="spec length"):
            expected_product_poly(E, spec)


def test_oracle_equivalence_complex_hermitian():
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        E = ensemble([random_psd(rng, d, trace=float(rng.uniform(0.2, 1.5))) for _ in range(m)], tol=np.inf)
        scalars = rng.uniform(-1.5, 1.5, size=m)
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


def test_stability_safe_flag():
    spec = DerivativeSpec((-1.0, 0.0), (1.0, 0.0), (-1.0, -0.5))
    assert spec.stability_safe == (True, True)
    # a = -b but a^2 > -c
    spec = DerivativeSpec((-2.0,), (2.0,), (-1.0,))
    assert spec.stability_safe == (False,)


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
        mr_mixed = root_report(mixed, 1e-7).maxroot
        from interlace import RealPolynomial

        mr_diag = root_report(RealPolynomial.from_coeffs(diag_poly), 1e-7).maxroot
        assert mr_diag > 0  # the diagonal max-root point is above x^(2d)'s roots
        assert mr_mixed <= mr_diag + 1e-7
        assert mr_mixed == pytest.approx(e1, abs=1e-8)
