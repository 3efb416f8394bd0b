import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    EmptyMatrix,
    EnsembleStats,
    FiniteDistribution,
    LyapunovInstance,
    NotContraction,
    NotHermitian,
    NotPSD,
    SizeGuard,
    eigenvalues,
    ensemble,
    ensemble_stats,
    lyapunov_select,
    make_hermitian,
    operator_norm,
    positive_negative_parts,
    rank_one_completion,
    solve_hermitian,
)
from interlace.generate import random_psd, trace_capped_ensemble
from interlace.linalg import MAX_INDICES, HermitianMatrix, MatrixEnsemble, absolute_value, is_psd, weighted_sum


def test_make_hermitian_identity_case():
    H = make_hermitian([[1.0]])
    assert H.dim == 1
    assert H.entries[0, 0] == 1.0


def test_make_hermitian_conjugate_symmetry():
    H = make_hermitian([[0.0, 1j], [-1j, 0.0]])
    np.testing.assert_allclose(H.entries, [[0, 1j], [-1j, 0]])


def test_make_hermitian_rejects_asymmetry():
    with pytest.raises(NotHermitian):
        make_hermitian([[0.0, 1.0], [0.0, 0.0]])


def test_make_hermitian_rejects_nan():
    for M in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
        with pytest.raises(NotHermitian):
            make_hermitian(M)


def _exactly_hermitian(upper, diagonal, exponent):
    """A HermitianMatrix whose lower triangle is the conjugate of its upper one
    and whose diagonal has imaginary parts +-0, scaled by 2^exponent."""
    d = len(diagonal)
    M = np.zeros((d, d), dtype=np.complex128)
    rows, cols = np.triu_indices(d, 1)
    M[rows, cols] = [complex(re, im) for re, im in upper[: len(rows)]]
    M[cols, rows] = M[rows, cols].conj()
    M[np.arange(d), np.arange(d)] = [complex(re, im) for re, im in diagonal]
    M *= 2.0**exponent
    M.flags.writeable = False
    return HermitianMatrix(M)


_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3, allow_subnormal=False))
_hermitian_inputs = st.integers(1, 4).flatmap(
    lambda d: st.lists(
        st.builds(
            _exactly_hermitian,
            st.lists(st.tuples(_parts, _parts), min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2),
            st.lists(st.tuples(_parts, st.sampled_from([0.0, -0.0])), min_size=d, max_size=d),
            st.integers(-500, 500),
        ),
        min_size=1,
        max_size=5,
    )
)
_coefficients = st.builds(
    lambda c, e: c * 2.0**e,
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)),
    st.integers(-500, 500),
)


def _same_bits(A, B) -> bool:
    return np.array_equal(np.asarray(A).view(np.uint64), np.asarray(B).view(np.uint64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(mats=_hermitian_inputs, data=st.data())
def test_weighted_sum_equals_explicit_loops_bit_for_bit(mats, data):
    # Exactly hermitian inputs, scaled by 2^-500 .. 2^500, with zero and
    # negative coefficients at the same scales: the sum kept as it is equals
    # the symmetrised one bit for bit, so no sign differs, not even that of
    # a zero imaginary part on the diagonal (which LAPACK's hermitian solvers
    # do not read): the sum starts from +0 and so holds no -0.  Parts of
    # 2^1023 or more take the symmetrising pass, where M + M* overflows.
    coeffs = data.draw(st.lists(_coefficients, min_size=len(mats), max_size=len(mats)))
    d = mats[0].dim
    total = np.zeros((d, d), dtype=np.complex128)
    for c, H in zip(coeffs, mats):
        total = total + c * H.entries
    if not np.isfinite(total).all():
        with pytest.raises(NotHermitian):
            make_hermitian(total, tol=np.inf)
        with pytest.raises(NotHermitian):
            weighted_sum(mats, coeffs)
        return
    assert _same_bits(weighted_sum(mats, coeffs).entries, make_hermitian(total, tol=np.inf).entries)
    # 0/1 coefficients equal the sum over the members of a block, even an
    # empty one; all ones is the ensemble's sum
    members = data.draw(st.lists(st.booleans(), min_size=len(mats), max_size=len(mats)))
    block_sum = np.zeros((d, d), dtype=np.complex128)
    for H, member in zip(mats, members):
        if member:
            block_sum = block_sum + H.entries
    if np.isfinite(block_sum).all():
        fast = weighted_sum(mats, [float(member) for member in members])
        assert _same_bits(fast.entries, make_hermitian(block_sum, tol=np.inf).entries)
        if all(members):
            assert _same_bits(MatrixEnsemble(tuple(mats)).sum().entries, fast.entries)


def test_weighted_sum_with_a_complex_coefficient_takes_the_symmetrising_pass():
    # i H is not hermitian: its asymmetry passes tol=inf, and (M + M*)/2
    # returns the hermitian part, zero here
    H = make_hermitian([[1.0, 2.0j], [-2.0j, 3.0]])
    assert np.array_equal(weighted_sum([H], [1j]).entries, np.zeros((2, 2)))
    assert np.array_equal(weighted_sum([H, H], [np.complex128(1.0), 1.0]).entries, 2.0 * H.entries)


def _non_finite_cases():
    H = make_hermitian([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    for bad in (np.nan, np.inf, -np.inf):
        yield pytest.param([H, H], [1.0, bad], id=f"coefficient-{bad}")
        for where, name in (((0, 0), "diagonal"), ((0, 1), "off-diagonal")):
            M = np.array(H.entries)
            M[where] = bad
            M[where[::-1]] = np.conj(M[where])
            yield pytest.param([H, HermitianMatrix(M)], [1.0, 1.0], id=f"{name}-entry-{bad}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mats, coeffs", list(_non_finite_cases()))
def test_a_non_finite_coefficient_or_entry_still_raises_not_hermitian(mats, coeffs):
    # the sums kept as they are run one finiteness check, which hands a NaN or
    # infinite entry to make_hermitian, which refuses it
    with pytest.raises(NotHermitian):
        weighted_sum(mats, coeffs)
    if coeffs == [1.0, 1.0]:
        with pytest.raises(NotHermitian):
            MatrixEnsemble(tuple(mats)).sum()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_part_still_raises_not_hermitian_in_the_absolute_value(monkeypatch, bad):
    # |B| = B+ + B- is kept as it is; a NaN or infinite entry in a part is refused
    from interlace import linalg

    def parts(H):
        P = np.diag([bad, 1.0]).astype(np.complex128)
        return HermitianMatrix(P), HermitianMatrix(np.zeros((2, 2), dtype=np.complex128))

    monkeypatch.setattr(linalg, "positive_negative_parts", parts)
    with pytest.raises(NotHermitian):
        absolute_value(np.eye(2))


def test_make_hermitian_rejects_empty():
    with pytest.raises(EmptyMatrix):
        make_hermitian(np.zeros((0, 0)))


def test_make_hermitian_symmetrizes_within_tol():
    M = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
    H = make_hermitian(M)
    np.testing.assert_allclose(H.entries, H.entries.conj().T)


def test_eigenvalues_examples():
    np.testing.assert_allclose(eigenvalues(np.diag([3.0, 1.0])), [1, 3])
    np.testing.assert_allclose(eigenvalues([[0.0, 1.0], [1.0, 0.0]]), [-1, 1])
    np.testing.assert_allclose(eigenvalues(np.zeros((2, 2))), [0, 0])


def test_operator_norm_examples():
    assert operator_norm(np.diag([1.0, -2.0])) == pytest.approx(2)
    assert operator_norm(np.eye(3)) == pytest.approx(1)
    assert operator_norm(np.diag([1.0, -1.0]) + np.diag([-1.0, 1.0])) == 0


def test_parts_diagonal():
    pos, neg = positive_negative_parts(np.diag([2.0, -3.0]))
    np.testing.assert_allclose(pos.entries, np.diag([2.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(neg.entries, np.diag([0.0, 3.0]), atol=1e-12)


def test_parts_psd_input():
    P = np.diag([1.0, 0.5])
    pos, neg = positive_negative_parts(P)
    np.testing.assert_allclose(pos.entries, P, atol=1e-12)
    np.testing.assert_allclose(neg.entries, 0 * P, atol=1e-12)


def test_parts_offdiagonal_hand_case():
    # eigenvectors (1, +-1)/sqrt(2) for [[0,1],[1,0]]: each part is a half
    # projector and |H| is the identity
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    pos, neg = positive_negative_parts(H)
    np.testing.assert_allclose(sorted(eigenvalues(pos)), [0, 1], atol=1e-9)
    np.testing.assert_allclose(sorted(eigenvalues(neg)), [0, 1], atol=1e-9)
    np.testing.assert_allclose(absolute_value(H).entries, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(pos.entries - neg.entries, H, atol=1e-12)
    np.testing.assert_allclose(pos.entries @ neg.entries, np.zeros((2, 2)), atol=1e-9)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_parts_spectra_random(d):
    rng = np.random.default_rng(d)
    H = random_psd(rng, d) - random_psd(rng, d)
    w = eigenvalues(H)
    pos, neg = positive_negative_parts(H)
    np.testing.assert_allclose(eigenvalues(pos), np.sort(np.maximum(w, 0)), atol=1e-8)
    np.testing.assert_allclose(eigenvalues(neg), np.sort(np.maximum(-w, 0)), atol=1e-8)


def test_rank_one_completion_of_identity_is_empty():
    assert rank_one_completion(np.eye(3), 0.5) == []


def test_rank_one_completion_single_direction():
    # I - A = diag(1/2, 0); one eigenvalue 1/2 <= eps
    out = rank_one_completion(np.diag([0.5, 1.0]), 0.5)
    assert len(out) == 1
    np.testing.assert_allclose(out[0].entries, np.diag([0.5, 0.0]), atol=1e-9)


def test_rank_one_completion_zero_matrix():
    out = rank_one_completion(np.zeros((2, 2)), 1.0)
    assert len(out) == 2
    total = sum(B.entries for B in out)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-9)
    for B in out:
        assert B.trace() == pytest.approx(1.0)


def test_rank_one_completion_properties_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        eps = float(rng.uniform(0.15, 0.6))
        A = random_psd(rng, d)
        A = A / max(1.0, operator_norm(A) * 1.01)
        # I - A has no eigenvalue below 0.0099, so each takes ceil(lam / eps) pieces
        need = int(np.sum(np.ceil((1.0 - eigenvalues(A)) / eps)))
        if need > MAX_INDICES:  # more pieces than a table can index are refused
            with pytest.raises(SizeGuard):
                rank_one_completion(A, eps)
            continue
        out = rank_one_completion(A, eps)
        assert len(out) == need <= d * int(np.ceil(1 / eps))
        total = np.zeros((d, d), dtype=complex)
        for B in out:
            w = eigenvalues(B)
            assert w[0] >= -1e-9
            if d >= 2:
                assert w[-2] <= 1e-8  # rank one
            assert B.trace() <= eps + 1e-10
            total += B.entries
        np.testing.assert_allclose(total, np.eye(d) - A, atol=1e-8 * d)


def test_rank_one_completion_counts_its_pieces_before_building_any(monkeypatch):
    # I - 0 = I at trace cap 1e-5 needs 2 * 10^5 pieces; building them took 4.5 s
    A = make_hermitian(np.zeros((2, 2)))

    def fail(*args, **kwargs):
        raise AssertionError("a piece was built")

    monkeypatch.setattr("interlace.linalg.make_hermitian", fail)
    for eps in (1e-5, 2.0 / (MAX_INDICES + 1), 5e-324):
        with pytest.raises(SizeGuard, match="pieces"):
            rank_one_completion(A, eps)


def test_rank_one_completion_admits_exactly_the_index_guard():
    # two unit eigenvalues at cap 2 / MAX_INDICES take MAX_INDICES / 2 pieces each
    out = rank_one_completion(np.zeros((2, 2)), 2.0 / MAX_INDICES)
    assert len(out) == MAX_INDICES


def test_rank_one_completion_rejections():
    with pytest.raises(NotPSD):
        rank_one_completion(np.diag([-0.5, 0.5]), 0.5)
    with pytest.raises(NotContraction):
        rank_one_completion(np.diag([2.0]), 0.5)


def test_rank_one_completion_takes_the_psd_verdict_from_its_own_eigh(monkeypatch):
    # the completion eigensolves A once: its PSD check reads the same spectrum
    rng = np.random.default_rng(8)
    A = random_psd(rng, 4)
    A = A / (operator_norm(A) * 1.05)
    want = rank_one_completion(A, 0.3)

    def no_eigensolve(H):
        raise AssertionError("second eigensolve")

    monkeypatch.setattr("interlace.linalg.eigenvalues", no_eigensolve)
    got = rank_one_completion(A, 0.3)
    assert len(got) == len(want) > 0
    for B, C in zip(got, want):
        np.testing.assert_array_equal(B.entries, C.entries)


def test_psd_verdict_is_computed_once_per_matrix(monkeypatch):
    # every check site still asks is_psd, but a matrix is eigensolved for its
    # verdict only once, on first use
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(np.shape(a)) or eigvalsh(a, *args))
    H = make_hermitian(np.diag([1.0, -1e-3]))
    assert not is_psd(H) and not is_psd(H) and len(calls) == 1
    assert not is_psd(np.diag([1.0, -1e-3])) and len(calls) == 2  # a plain array has no verdict to keep
    inst = LyapunovInstance.make(trace_capped_ensemble(np.random.default_rng(0), 3, 6, 0.5).matrices, [0.5] * 6)
    calls.clear()
    lyapunov_select(inst)
    assert len(calls) == 3  # sigma, the table's one batched solve and the achieved norm
    mats = [np.diag([1.0, -0.5]) + 0.1 * k * np.array([[0.0, 1.0], [1.0, 0.0]]) for k in range(4)]
    dets = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(np.shape(a)) or det(a))
    calls.clear()
    solve_hermitian(mats, [FiniteDistribution.fair_signs()] * 4)
    # sigma of |B|, one block norm per part for sigma of the lift, the table's
    # one batched solve over both parts and the achieved norm: the lift is
    # never assembled, so nothing re-checks it for PSD or takes a norm on it.
    # The lift has dim 4 = n, so the table eigensolves the 15 subset sums
    # below the top rank and takes the full sum's e_4 as one batched det.
    assert calls == [(2, 2), (2, 2), (2, 2), (15, 2, 2, 2), (2, 2)]
    assert dets == [(1, 2, 2, 2)]


def test_ensemble_stats_examples():
    st = ensemble_stats(ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    assert st.epsilon == pytest.approx(1)
    assert st.sum_norm == pytest.approx(1)
    assert st.sum_leq_identity and st.all_psd

    st = ensemble_stats(ensemble([np.diag([2.0])]))
    assert st.epsilon == pytest.approx(2)
    assert not st.sum_leq_identity

    st = ensemble_stats(ensemble([np.diag([1.0, -1.0])]))
    assert not st.all_psd


def test_ensemble_stats_compare_and_print_by_their_four_scalars():
    # the kept sum and its eigh ride along but take no part in ==, hash or
    # repr, and the four-field constructor still works
    E = ensemble([np.diag([0.5, 0.0]), np.diag([0.0, 0.25])])
    st, again = ensemble_stats(E), ensemble_stats(E)
    assert st == again and hash(st) == hash(again)
    assert st == EnsembleStats(0.5, 0.5, True, True)
    assert "spectrum" not in repr(st) and "total" not in repr(st)
    w, V = st.spectrum
    np.testing.assert_array_equal(st.total.entries, np.diag([0.5, 0.25]))
    np.testing.assert_allclose((V * w) @ V.conj().T, st.total.entries, atol=1e-15)


def test_operator_norm_symmetry_and_subadditivity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        A = random_psd(rng, d) - random_psd(rng, d)
        B = random_psd(rng, d) - random_psd(rng, d)
        assert operator_norm(A) == pytest.approx(operator_norm(-A))
        assert operator_norm(A + B) <= operator_norm(A) + operator_norm(B) + 1e-10
