import numpy as np
import pytest

from interlace import (
    BadSlot,
    EmptyMatrix,
    NotContraction,
    NotHermitian,
    NotPSD,
    block_diagonal_lift,
    eigenvalues,
    ensemble,
    ensemble_stats,
    make_hermitian,
    operator_norm,
    positive_negative_parts,
    rank_one_completion,
)
from interlace.generate import random_psd
from interlace.linalg import absolute_value, weighted_sum


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


def test_weighted_sum_equals_explicit_loops_bit_for_bit():
    rng = np.random.default_rng(12)
    E = ensemble([random_psd(rng, 3) for _ in range(4)], tol=np.inf)
    coeffs = rng.standard_normal(4)
    total = np.zeros((3, 3), dtype=np.complex128)
    for c, H in zip(coeffs, E):
        total = total + c * H.entries
    assert np.array_equal(weighted_sum(E, coeffs).entries, make_hermitian(total, tol=np.inf).entries)
    # 0/1 coefficients equal the sum over the members of a block, even an empty one
    for block in [(), (2,), (0, 3), (0, 1, 2, 3)]:
        block_sum = np.zeros((3, 3), dtype=np.complex128)
        for i in block:
            block_sum = block_sum + E[i].entries
        fast = weighted_sum(E, [float(i in block) for i in range(4)])
        assert np.array_equal(fast.entries, make_hermitian(block_sum, tol=np.inf).entries)


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
        out = rank_one_completion(A, eps)
        assert len(out) <= d * int(np.ceil(1 / eps))
        total = np.zeros((d, d), dtype=complex)
        for B in out:
            w = eigenvalues(B)
            assert w[0] >= -1e-9
            if d >= 2:
                assert w[-2] <= 1e-8  # rank one
            assert B.trace() <= eps + 1e-10
            total += B.entries
        np.testing.assert_allclose(total, np.eye(d) - A, atol=1e-8 * d)


def test_rank_one_completion_rejections():
    with pytest.raises(NotPSD):
        rank_one_completion(np.diag([-0.5, 0.5]), 0.5)
    with pytest.raises(NotContraction):
        rank_one_completion(np.diag([2.0]), 0.5)


def test_block_diagonal_lift_examples():
    L = block_diagonal_lift(np.diag([1.0]), 2, 1, 2.0)
    np.testing.assert_allclose(L.entries, np.diag([2.0, 0.0]))
    L = block_diagonal_lift(np.eye(2), 1, 1, 1.0)
    np.testing.assert_allclose(L.entries, np.eye(2))
    L = block_diagonal_lift(np.diag([1.0, 0.0]), 2, 2, 0.5)
    np.testing.assert_allclose(L.entries, np.diag([0.0, 0.0, 0.5, 0.0]))
    with pytest.raises(BadSlot):
        block_diagonal_lift(np.eye(2), 2, 3, 1.0)


def test_block_diagonal_lift_trace_and_norm():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        A = make_hermitian(random_psd(rng, d), tol=np.inf)
        s = float(rng.uniform(0.2, 3.0))
        L = block_diagonal_lift(A, 3, 2, s)
        assert L.trace() == pytest.approx(s * A.trace())
        assert operator_norm(L) == pytest.approx(s * operator_norm(A))


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


def test_operator_norm_symmetry_and_subadditivity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        A = random_psd(rng, d) - random_psd(rng, d)
        B = random_psd(rng, d) - random_psd(rng, d)
        assert operator_norm(A) == pytest.approx(operator_norm(-A))
        assert operator_norm(A + B) <= operator_norm(A) + operator_norm(B) + 1e-10
