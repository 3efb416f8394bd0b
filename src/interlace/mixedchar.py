"""Mixed characteristic polynomials and the level engines of the descents.

The mixed characteristic polynomial of matrices A_1..A_m applies the
operator prod_i (1 - d/dz_i) to det(xI + sum_i z_i A_i) and sets z = 0.
Because each variable is differentiated at most once, only the multilinear
part of the determinant matters.  Writing

    D_S(x) = (prod_{i in S} d/dz_i) det(xI + sum z_i A_i) |_{z=0}
           = c_S * x^(d - |S|),

every evaluation in this module is a weighted sum over the scalar table
{c_S}.  The product variant applies prod_i (1 + a_i d/dz_i + b_i d/dw_i +
c_i d/dz_i d/dw_i) to a product of two such determinants, and its weight
on a subset pair (S, T) factors over indices into 2x2 kernels.  The
descents' quadratic family is centered: a free variable's kernel is
diag(1, -Var), which keeps only the pairs that agree on its index, and a
fixed value's kernel has rank one.  So ``ProductLevels`` contracts each
index a descent commits out of one rank-graded table R for good and reads a
branch as a Gram product of R with itself, weighted by the products of the
free variances: level k costs O(2^(n-k) d), with no kernel pass.  The
(S, T) and (T, S) terms of an odd coefficient cancel exactly, so it sums
only the even anti-diagonals, and its branches are polynomials in x^2 whose
odd coefficients are exactly 0.0 (``root_report`` solves them at half the
degree).  Both level engines answer a descent's ``branch(v)`` (next index
set to v, returned as an array of ascending coefficients) and ``commit(v)``
(fix it), and its root polynomial is level 0's mixture.  The full passes
that check them, for any kernels and any slot tables, are in
``interlace.reference``, which shares no code with the engines.

The table is built once per ensemble by polarization: c_S is the
squarefree coefficient of e_{|S|}(sum_{i in S} z_i A_i), so

    c_S = sum_{U subset S} (-1)^(|S|-|U|) e_{|S|}(sum_{i in U} A_i).

Only the subsets U with |U| <= min(n, d) enter a sum that the table reads,
and one with |U| = d enters only c_U, through e_d = det.  So one batched
determinant over the subset sums at the top rank, the e_k of the sums below
it, and one ranked Moebius pass over the kept masks give every c_S.  Those
e_k come from a batched Householder tridiagonalization and the three-term
recurrence of det(I + tT), with no eigensolve; a batch too small to repay
numpy's fixed cost per call is eigensolved instead, and the
elementary-symmetric recurrence runs on its eigenvalues.
Signs, scalar multiples and operator coefficients enter only through
per-subset weights, since c_S is multilinear in the matrix arguments.  A
block-diagonal family such as the hermitian lift is built from its blocks.

``ConvolutionLevels`` serves the branches of a partition descent, whose
lifted determinant factors over blocks into weighted copies of the table
combined by subset convolution.  It keeps r ranked zeta transforms across
levels, graded twice, by the rank of the free part and the count of indices
already in the slot, each holding only the rows a table can fill (min(n, d)
for a c_S table, and a product of ranked arrays the sum of their depths,
capped at n): putting an index into a slot contracts it out of every mask
axis, so level k works on the 2^(n-k) masks of the indices still free, and
a branch's coefficients are binomial-weighted sums of the rank product over
slots, with no Moebius pass.  Each such sum is read straight off the
product's last two factors (``_fused_read``: one matrix product per rank of
one factor), so the full product is never formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalFailure, SizeGuard
from .linalg import MAX_INDICES, MatrixEnsemble, as_hermitian
from .polynomials import RealPolynomial

MAX_DIM = 10


def popcounts(n: int) -> np.ndarray:
    """Bit-count table for all masks below 2^n."""
    pc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        pc[1 << i : 1 << (i + 1)] = pc[: 1 << i] + 1
    return pc


def subset_products(weights) -> np.ndarray:
    """w[..., mask] = prod_{i in mask} weights[..., i]; one row per weight row."""
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[-1]
    out = np.ones(weights.shape[:-1] + (1 << n,))
    for i in range(n):
        step = 1 << i
        out[..., step : 2 * step] = out[..., :step] * weights[..., i, None]
    return out


@dataclass(frozen=True)
class SubsetTable:
    """Scalar coefficients c_S indexed by subset bitmask (bit i <-> index i)."""

    dim: int
    n: int
    coeffs: np.ndarray
    sizes: np.ndarray

    @classmethod
    def build(cls, *parts) -> "SubsetTable":
        """The table of diag(parts[0][i], parts[1][i], ...), i < n, from the
        d x d blocks: a subset sum's eigenvalues are its block sums' together,
        and its determinant is the product of theirs.  ``MAX_DIM`` bounds d.

        With D = blocks * d and n >= D, a subset sum with D indices is read
        only at the top rank and is not eigensolved: e_D is the real part of
        its blocks' determinants (LU), multiplied.  Against 50-digit values,
        each top-rank c_S stays within 4 u (sum_{i in S} ||A_i||_*)^|S|,
        u = 2^-53, with ||.||_* the nuclear norm of the whole matrix, on
        rank-one completion pieces, rank-capped, near-singular and 1e+-6
        trace-spread inputs at d = 3, n = 7 or 8, and on two-part builds
        (tests/test_mixedchar.py).  Over 40 seeds of such inputs the largest
        error seen was 2.0 u, and 1.4 u with e_D taken from the spectrum.
        Below the top rank, a batch whose sums times blocks reach
        ``TRIDIAGONAL_MIN_SUMS`` takes its e_k from
        ``_tridiagonal_coefficients`` in chunks of
        ``_CHUNK`` sums, and a smaller one from the spectra of one batched
        eigensolve; the two routes differ in the last bits.  On the same
        inputs each c_S with 1 <= |S| < D stays within
        16 u (sum_{i in S} ||A_i||_*)^|S| of its 50-digit value, the
        e_|S| of every subset sum taken from ``mpmath.eigh``, on either
        route: over seeds 0-19 the largest error seen was 5.8 u from the
        tridiagonal and 8.4 u from the spectra, which the top rank's 4 u
        does not cover.  A table that overflows (a c_S that is not finite)
        raises NumericalFailure.
        """
        A = np.stack([[as_hermitian(M).entries for M in part] for part in parts], axis=1)
        n, blocks, d = A.shape[:3]
        if n > MAX_INDICES or d > MAX_DIM:
            raise SizeGuard(
                f"fast path limited to {MAX_INDICES} indices and dim {MAX_DIM}; "
                f"got n={n}, d={d}"
            )
        dim = blocks * d
        sizes = popcounts(n)
        top = min(n, dim)
        masks, starts, parents, high, partners = _kept_masks(n, top)
        # Only subsets U with |U| <= top enter an alternating sum that the
        # table reads.  Their sums are formed rank by rank, each from the sum
        # without its highest index, and freed once they are solved.
        sums = np.zeros((len(masks),) + A.shape[1:], dtype=A.dtype)
        for k in range(1, top + 1):
            lo, hi = starts[k], starts[k + 1]
            np.add(sums[parents[lo:hi]], A[high[lo:hi]], out=sums[lo:hi])
        # X[U, k] = e_k(eigenvalues of sum_{i in U} A_i) for k <= top, one
        # row per kept mask and a zero row after them.  A mask U with
        # |U| = dim is read only at c_U, as e_dim: one det per block.  The
        # masks below the top rank need every e_k.
        X = np.zeros((len(masks) + 1, top + 1))
        low = starts[dim] if n >= dim else len(masks)
        if n >= dim:
            X[low:-1, dim] = np.linalg.det(sums[low:]).real.prod(axis=-1)
        if low * blocks < TRIDIAGONAL_MIN_SUMS:
            X[:low] = _spectral_coefficients(sums[:low], top)
        else:
            powers = np.arange(top + 1)
            for lo in range(0, low, _CHUNK):
                hi = min(lo + _CHUNK, low)
                E, exps = _tridiagonal_coefficients(sums[lo:hi], top)
                X[lo:hi] = np.ldexp(E, exps[:, None] * powers)
        del sums
        _kept_mobius(X, partners)
        coeffs = np.zeros(1 << n)
        coeffs[masks] = X[np.arange(len(masks)), sizes[masks]]
        if not np.isfinite(coeffs).all():
            raise NumericalFailure(
                "subset-derivative table is not finite: the subset sums' "
                f"elementary symmetric functions overflow (largest |entry| {np.abs(A).max():.3g})"
            )
        return cls(dim=dim, n=n, coeffs=coeffs, sizes=sizes)


# Batches below the top rank whose subset sums times blocks reach this take
# ``_tridiagonal_coefficients``; smaller ones are eigensolved, where numpy's
# fixed cost per call in the reduction outweighs LAPACK's per matrix.  A
# two-part batch counts twice: the eigensolve takes each of its blocks as
# a matrix of its own.  The rule need not read the dtype: a real two-part
# batch of 32-63 sums would gain nothing from the reduction, but every
# public path hands the build complex128 entries (``make_hermitian``, and
# ``exact_hermitian`` on the complex sums of ``weighted_sum``,
# ``MatrixEnsemble.sum`` and the hermitian lift's parts).
TRIDIAGONAL_MIN_SUMS = 64
# The reduction works on this many subset sums at a time, so its
# temporaries do not grow with n.
_CHUNK = 1024
# A column below this norm, in units of 2^exps (above half the sum's largest
# entry), is not reflected: its coupling is still |x|^2, and the part of it
# the reduction then drops is below 2^-499 of the sum's norm.
_NEGLIGIBLE = 2.0**-500


def _spectral_coefficients(sums: np.ndarray, top: int) -> np.ndarray:
    """E[U, k] = e_k of the eigenvalues of sums[U], every block's together,
    for k <= top: one batched eigensolve and the recurrence on its values."""
    lam = np.linalg.eigvalsh(sums).reshape(len(sums), -1)
    E = np.zeros((top + 1, len(sums)))
    E[0] = 1.0
    for j, col in enumerate(lam.T):
        for k in range(min(j + 1, top), 0, -1):
            E[k] += col * E[k - 1]
    return E.T


def _tridiagonal_coefficients(sums: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """E, exps with e_k(sums[U]) = E[U, k] 2^(k exps[U]) for k <= top, the
    eigenvalues of every block of sums[U] taken together, without an
    eigensolve.

    Each sum is divided by 2^exps[U], a power of two near its largest entry,
    which keeps the reduction clear of overflow and of subnormals and is
    exact but for entries under 2^-1021 of the largest.  The whole batch is then Householder-tridiagonalized, d - 2
    vectorised steps with the batch on the last axis, and e_k is read off
    det(I + tT) = sum_k e_k t^k by its three-term recurrence over the
    diagonal a and the squared couplings b (La Budde's method; Rehman and
    Ipsen, 2011):

        p_k(t) = (1 + a_k t) p_(k-1)(t) - b_(k-1) t^2 p_(k-2)(t).

    A sum's blocks are one tridiagonal, joined by a zero coupling, so their
    polynomials are never multiplied.  e_1 is the trace of the scaled sum,
    which is more accurate than the reduced diagonal's sum.
    """
    N, blocks, d = sums.shape[:3]
    B = N * blocks
    A = np.ascontiguousarray(sums, dtype=np.complex128).reshape(B, d * d)
    # 2^exps is within a factor 2 of the largest real or imaginary part; a
    # sum whose entries are all subnormal is multiplied by 2^1022 only.
    exps = np.maximum(np.frexp(np.abs(A.view(np.float64)).reshape(N, -1).max(axis=1, initial=0.0))[1], -1022)
    A = A.T.copy()  # the batch on the last axis
    A.view(np.float64)[...] *= np.repeat(np.ldexp(1.0, -exps), 2 * blocks)
    diagonal = A[:: d + 1].real
    A = A.reshape(d, d, B)
    trace = diagonal.sum(axis=0).reshape(N, blocks).sum(axis=1)
    b = np.zeros((d, B))  # b[k] = |T[k + 1, k]|^2; b[d - 1] = 0 joins the blocks
    for k in range(d - 2):
        x = A[k + 1 :, k]
        b[k] = (x.real**2 + x.imag**2).sum(axis=0)
        norm, head = np.sqrt(b[k]), np.abs(x[0])
        # u = x + sign(x_0) |x| e_1 and H = I - tau u u^*, which maps x to
        # -sign(x_0) |x| e_1: |u|^2 = 2 |x| (|x| + |x_0|).  An |x_0| of
        # at most 2^-560, under 2^-60 of any reflected column's norm, takes
        # sign 1, which keeps H unitary to well within u and 1 / |x_0| finite.
        tau = np.divide(1.0, norm * (norm + head), out=np.zeros(B), where=norm > _NEGLIGIBLE)
        u = x.copy()
        u[0] += np.divide(x[0], head, out=np.ones(B, dtype=np.complex128), where=head > _NEGLIGIBLE * 2.0**-60) * norm
        C = A[k + 1 :, k + 1 :]
        p = (C * u).sum(axis=1)
        p *= tau
        w = p - (0.5 * tau * (u.real * p.real + u.imag * p.imag).sum(axis=0)) * u
        M = u[:, None] * w.conj()
        C -= M  # H C H = C - u w^* - w u^*
        C -= M.conj().transpose(1, 0, 2)
    if d > 1:
        x = A[d - 1, d - 2]
        b[d - 2] = x.real**2 + x.imag**2
    a = diagonal.reshape(d, N, blocks).transpose(2, 0, 1).reshape(blocks * d, N)
    b = b.reshape(d, N, blocks).transpose(2, 0, 1).reshape(blocks * d, N)
    before, last = np.zeros((top + 1, N)), np.zeros((top + 1, N))
    last[0] = 1.0
    for k in range(blocks * d):
        P = last.copy()
        P[1:] += a[k] * last[:-1]
        if k:
            P[2:] -= b[k - 1] * before[:-2]
        before, last = last, P
    if top:
        last[1] = trace
    return last.T, exps


@functools.lru_cache(maxsize=16)
def _kept_masks(n: int, top: int):
    """The masks below 2^n with at most ``top`` bits, ordered by bit count
    and then by value, and their index arrays (all read-only):

    masks, starts: the masks, and rank k's slice starts[k]:starts[k + 1];
    parents, high: per mask, the position of the mask without its highest
        bit, and that bit's index;
    partners[b]: per mask, the position of the mask without bit b, or
        len(masks), a zero row, when bit b is clear.
    """
    sizes = popcounts(n)
    masks = np.flatnonzero(sizes <= top)
    masks = masks[np.argsort(sizes[masks], kind="stable")]
    starts = np.searchsorted(sizes[masks], np.arange(top + 2))
    at = np.zeros(1 << n, dtype=np.int64)
    at[masks] = np.arange(len(masks))
    high = np.zeros(len(masks), dtype=np.int64)
    for i in range(n):
        high[masks >= 1 << i] = i
    parents = at[masks - (1 << high)]
    parents[0] = 0  # the empty mask's sum is never formed
    bits = 1 << np.arange(n)[:, None]
    partners = np.where(masks & bits, at[masks ^ bits], len(masks))
    for a in (masks, starts, parents, high, partners):
        a.flags.writeable = False
    return masks, starts, parents, high, partners


def _kept_mobius(X: np.ndarray, partners: np.ndarray) -> None:
    """In-place Moebius transform over the kept masks of a mask-major X, one
    row per mask of ``_kept_masks`` and a zero last row: for b = 0..n-1,
    X[U] -= X[U without b] where U has bit b.  Every mask's subsets are
    kept, so each row ends as the strided pass over all 2^n masks of a
    rank-graded array would leave that mask, bit for bit."""
    buf = np.empty_like(X[:-1])
    for idx in partners:
        np.take(X, idx, axis=0, out=buf)
        X[:-1] -= buf


def _ranked_zeta(t: np.ndarray, pc: np.ndarray, depth: int) -> np.ndarray:
    """Z[rho, U] = sum of t[S] over S subset U with |S| = rho, rows 0..depth;
    t must vanish on masks with more than ``depth`` bits."""
    n = len(pc).bit_length() - 1
    Z = np.zeros((depth + 1, len(pc)))
    Z[np.minimum(pc, depth), np.arange(len(pc))] = t
    for b in range(n):
        view = Z.reshape(depth + 1, 1 << (n - b - 1), 2, 1 << b)
        view[:, :, 1, :] += view[:, :, 0, :]
    return Z


def _rank_product(A: np.ndarray, B: np.ndarray, cap: int) -> np.ndarray:
    """C[j, c] = sum A[i, e] * B[j - i, c - e] for ranks j <= cap, mask by
    mask, on arrays of shape (rank, count, mask): the ranked zeta transform
    of the subset convolution of two tables, graded by count too.  The loop
    runs over the entries of A, so A should be the one with fewer.
    """
    C = np.zeros((min(len(A) + len(B) - 2, cap) + 1, A.shape[1] + B.shape[1] - 1, B.shape[2]))
    for i, e in np.ndindex(min(len(A), len(C)), A.shape[1]):
        C[i : i + len(B), e : e + B.shape[1]] += A[i, e] * B[: len(C) - i]
    return C


def _graded_coeffs(sizes: np.ndarray, weights: np.ndarray, deg: int) -> np.ndarray:
    """Ascending coefficients of sum_S weights[S] x^(deg - sizes[S]) over masks S with sizes[S] <= deg."""
    sums = np.bincount(sizes, weights=weights)
    top = min(len(sums) - 1, deg)
    coeffs = np.zeros(deg + 1)
    coeffs[deg - top :] = sums[top::-1]
    return coeffs


def _graded_poly(sizes: np.ndarray, weights: np.ndarray, deg: int) -> RealPolynomial:
    """sum_S weights[S] x^(deg - sizes[S]) over masks S with sizes[S] <= deg."""
    return RealPolynomial.from_coeffs(_graded_coeffs(sizes, weights, deg))


def _require_table(E: MatrixEnsemble, table: SubsetTable | None) -> SubsetTable:
    if table is None:
        return SubsetTable.build(E)
    if table.n != len(E) or table.dim != E.dim:
        raise ValueError("table does not match ensemble")
    return table


def subset_derivative(
    E: MatrixEnsemble, S, table: SubsetTable | None = None
) -> RealPolynomial:
    """D_S(x) = c_S x^(d-|S|); identically zero when |S| > d."""
    table = _require_table(E, table)
    S = sorted(set(S))
    if S and (S[0] < 0 or S[-1] >= len(E)):
        raise ValueError("subset indices out of range")
    if len(S) > E.dim:
        return RealPolynomial(())
    mask = 0
    for i in S:
        mask |= 1 << i
    return RealPolynomial.monomial(E.dim - len(S), float(table.coeffs[mask]))


def mixed_char_poly(
    E: MatrixEnsemble, scalars, table: SubsetTable | None = None
) -> RealPolynomial:
    """Mixed characteristic polynomial of (eps_1 A_1, ..., eps_m A_m).

    Equals sum_S prod_{i in S}(-eps_i) D_S(x); monic of degree d.
    """
    table = _require_table(E, table)
    scalars = np.asarray(scalars, dtype=np.float64)
    if scalars.shape != (len(E),):
        raise ValueError(f"expected {len(E)} scalars")
    return _graded_poly(table.sizes, subset_products(-scalars) * table.coeffs, E.dim)


def _ranked_table(table: SubsetTable) -> np.ndarray:
    """V[|T|, T] = c_T on rows 0..min(n, d); every other entry is zero."""
    top = min(table.n, table.dim)
    V = np.zeros((top + 1, 1 << table.n))
    V[np.minimum(table.sizes, top), np.arange(1 << table.n)] = table.coeffs
    return V


def _contract_low_bit(R: np.ndarray, s: float) -> np.ndarray:
    """Fix the lowest mask bit to s: R[., U] + s R[., U | bit], over the
    masks without that bit."""
    view = R.reshape(len(R), -1, 2)
    out = s * view[:, :, 1]
    out += view[:, :, 0]
    return out


class ProductLevels:
    """Branch polynomials of the centered quadratic family along a descent
    that fixes indices 0, 1, ... in order.

    Index i at value v enters as t / scale, with t = deviations[i][v] from
    ``FiniteDistribution.deviations()``: the family of the table
    c_S scale^(-|S|).  Each index is read in units 2^e_i, a power of two
    near its standard deviation, so the table carries
    c_S 2^(sum_(i in S) e_i) scale^(-|S|).  With scale = m 2^f, 1/2 <= m < 1,
    that is c_S m^(-|S|) rounded once and then multiplied exactly by
    2^(sum_(i in S) (e_i - f)): each branch is bit for bit the unscaled one
    wherever that stays in range, and the table, the deviations and the
    products of the free variances stay in range however far the spread of
    the values lies from scale and from the matrices' trace.
    ``branch(v)`` is the polynomial with the committed values, the next index
    k set to v and the indices after k free, which
    ``reference.expected_product_poly`` gives for the spec of
    ``reference.conditional_spec_quadratic``;
    ``commit(v)`` fixes index k to v for good, and the next level is k + 1.  A fixed index has the rank-one
    kernel [1, -t]^T [1, t], so a commit contracts it out of one rank-graded
    table R[sigma, U]: sigma is the total rank |T| and U runs over the masks
    of the indices still free.  The S side is (-1)^(rho - |U|) R, and a free
    index's kernel diag(1, -variances[i]) keeps only the pairs that agree on
    it, with a sign that cancels the S side's.  So with R_v, R contracted with [1, t] at index k, and
    q_U = prod_{i in U} variances[i], a branch is the Gram product

        sum_{rho, sigma} (-1)^rho (R_v q R_v^T)[rho, sigma] x^(2d - rho - sigma).

    The (rho, sigma) and (sigma, rho) terms of an odd rank cancel exactly,
    so only the even anti-diagonals are summed, and every branch is a
    polynomial in x^2 with odd coefficients exactly 0.0.  Level k works on
    the 2^(n-k) masks still free, with one contraction per branch value; a
    commit keeps that value's R_v.  A branch is returned as its ascending
    coefficients, an array of length 2d + 1.
    """

    def __init__(
        self,
        table: SubsetTable,
        deviations: Sequence[Mapping[float, float]],
        variances: Sequence[float],
        scale: float = 1.0,
    ):
        if not len(deviations) == len(variances) == table.n:
            raise ValueError(f"need {table.n} deviations and variances, got {len(deviations)} and {len(variances)}")
        self._deg = 2 * table.dim
        self._table = table
        exps = [math.frexp(v)[1] // 2 for v in variances]  # 2^e_i: sqrt(variances[i]) within a factor 2
        mantissa, f = math.frexp(scale)
        shift = np.zeros(1 << table.n, dtype=np.int64)  # sum of e_i - f over each mask
        for i, e in enumerate(exps):
            shift[1 << i : 2 << i] = shift[: 1 << i] + (e - f)
        self._deviations = [{v: math.ldexp(t, -e) for v, t in dev.items()} for dev, e in zip(deviations, exps)]
        self._q = subset_products([math.ldexp(v, -2 * e) for v, e in zip(variances, exps)])  # at stride 2^(k+1)
        self._next = 0  # the index the next level fixes
        rows = np.arange(min(table.n, table.dim) + 1)
        ranks = rows[:, None] + rows
        self._even = (ranks % 2 == 0).ravel()
        self._ranks = ranks.ravel()[self._even]
        self._row_sign = np.where(rows % 2, -1.0, 1.0)[:, None]
        power = mantissa ** -np.arange(table.n + 1.0)  # at most 2^|S|
        self._R = _ranked_table(replace(table, coeffs=np.ldexp(table.coeffs * power[table.sizes], shift)))
        self._branched: dict[float, np.ndarray] = {}  # this level's R_v per branched v

    def _check_open(self) -> None:
        if self._next >= self._table.n:
            raise ValueError(f"all {self._table.n} indices are committed")

    def _contract(self, v: float) -> np.ndarray:
        """R with the next index set to v."""
        if v not in self._branched:
            self._branched[v] = _contract_low_bit(self._R, self._deviations[self._next][v])
        return self._branched[v]

    def branch(self, v: float) -> np.ndarray:
        """Ascending coefficients of the polynomial with the next index set to v."""
        self._check_open()
        R = self._contract(v)
        gram = (R * self._q[:: 2 << self._next]) @ R.T
        return _graded_coeffs(self._ranks, (gram * self._row_sign).ravel()[self._even], self._deg)

    def commit(self, v: float) -> None:
        """Fix the next index to v."""
        self._check_open()
        self._R = self._contract(v)
        self._branched.clear()
        self._next += 1


def _binomial_weights(n: int, rows: int) -> np.ndarray:
    """W[j, p] = (-1)^(j - p) C(n - p, j - p) for p <= j, else 0: the sum
    over |S| = j of the Moebius transform of a rank row H[j] is
    sum_U H[j, U] W[j, |U|]."""
    return np.array(
        [[(-1) ** (j - p) * math.comb(n - p, j - p) if p <= j else 0 for p in range(n + 1)] for j in range(rows)],
        dtype=np.float64,
    )


@functools.lru_cache(maxsize=32)
def _level_weights(free: int, rows: int) -> np.ndarray:
    """``_binomial_weights(free, rows)`` at the size of each mask below
    2^free (read-only): W[j, U] weighs rank row j at mask U."""
    W = np.ascontiguousarray(_binomial_weights(free, rows)[:, popcounts(free)])  # row-major for B W
    W.flags.writeable = False
    return W


def _fused_read(A: np.ndarray, B: np.ndarray, W: np.ndarray, shift: int, deg: int) -> np.ndarray:
    """g[i + l + e + f + shift] = sum_U A[i, e, U] B[l, f, U] W[i + l, U]
    over i + l < len(W), for grades up to ``deg``: the graded read of the
    rank product of A and B (``_rank_product``) without forming it.

    Per rank i of A, B's rank rows are scaled by W[i : i + nl] and the mask
    axis is contracted by one matrix product A[i] @ (B W)^T; the (e, l, f)
    block is then added into g by grade.  Every weight is an exact integer,
    so each term is rounded at most twice, and a g[j] of K terms summed in
    any order (BLAS picks its own) meets at most K - 1 additions:

        |g[j] - exact| <= gamma_(K+1) sum |terms|,  gamma_k = k u / (1 - k u),

    u = 2^-53, which tests/test_mixedchar.py checks against exact
    rationals: the largest error seen was 0.77 u times that sum on rank
    products of signed zetas and 6.2 u on noise spread over 1e+-3.  The loop
    runs over the ranks of A, so A should be the factor with fewer.
    """
    A = np.ascontiguousarray(A)  # a strided A[i] would miss BLAS
    rows = len(W)
    ranks, nl = min(len(A), rows), min(len(B), rows)
    (ca, M), cb = A.shape[1:], B.shape[1]
    G = np.zeros((ranks, ca, nl, cb))
    for i in range(ranks):
        k = min(nl, rows - i)
        BW = B[:k] * W[i : i + k, None]
        G[i, :, :k] = (A[i] @ BW.reshape(-1, M).T).reshape(ca, k, cb)
    sums = np.bincount(_grades(G.shape), weights=G.ravel())[: deg + 1 - shift]
    g = np.zeros(deg + 1)
    g[shift : shift + len(sums)] = sums
    return g


@functools.lru_cache(maxsize=256)
def _grades(shape: tuple[int, ...]) -> np.ndarray:
    """i + e + l + f over the entries of an array of this (i, e, l, f)
    shape, flattened (read-only)."""
    grades = sum(np.arange(size).reshape((-1,) + (1,) * (len(shape) - axis - 1)) for axis, size in enumerate(shape))
    grades = grades.ravel()
    grades.flags.writeable = False
    return grades


class ConvolutionLevels:
    """Branch polynomials of the r-fold subset convolution along a descent
    that puts indices 0, 1, ... into slots in order.

    ``branch(s)`` is the polynomial with the committed slots, the next index
    k in slot s and the indices after k free, returned as its ascending
    coefficients, an array of length r d + 1; ``commit(s)`` puts index k into
    slot s for good, and the next level is k + 1.  Slot s's table is
    c_S prod_{i in S} f_{s,i}, with factor -1 for a free index, -scales[s]
    for an index put in slot s and 0 for an index put in another slot.

    The engine keeps, per slot, Y_s[rho, c, U]: U runs over the masks of the
    free indices k..n-1 (bit 0 for index k), rho is the rank of the free part
    and c counts the indices already put in slot s, rho + c <= min(n, d).  It
    is the ranked zeta transform over the free indices of the slot table
    summed over the committed part of each size c; at the root c = 0 and
    every Y_s is the ranked zeta of (-1)^|S| c_S.  Putting index k into slot
    s zeroes its factor elsewhere, so the other slots keep their low half
    (the masks without bit 0), and slot s becomes

        lo[rho, c] + scales[s] (hi[rho + 1, c - 1] - lo[rho + 1, c - 1]):

    index k leaves every mask axis and stays only as a shift of c.  Level k
    works on 2^(n-k) masks.  The coefficient of x^(r d - j) is the graded
    read over the 2^(n-k-1) masks after the level

        g_j = sum_{rho + c = j} sum_U H[rho, c, U] (-1)^(rho - |U|) C(n' - |U|, rho - |U|)

    of the rank product H over slots (in rho and in c), with n' = n - k - 1
    free indices; no Moebius pass is run.  The update is linear in the
    shifted difference D_s (the bracket above), so with L_s the product of
    the other slots' low halves, a branch is a + scales[s] b_s, where a reads
    the product of every low half and b_s reads D_s L_s.  Both reads are
    fused with the last rank product (``_fused_read``): a = read(lo_(r-1),
    L_(r-1)) and b_s = read(D_s, L_s), so the product of all the low halves
    is never formed.  The L_s come from prefix and suffix products of the
    low halves, so r = 2 forms no rank product and r >= 3 forms only these
    leave-one-out ones; at r = 1, L_0 is the empty product, 1 at rank 0 and
    count 0.
    """

    def __init__(self, table: SubsetTable, scales: Sequence[float]):
        self._table = table
        self._scales = [float(s) for s in scales]
        self._next = 0  # the index the next level puts into a slot
        self._top = min(table.n, table.dim)
        self._deg = len(self._scales) * table.dim
        # this level's weights, read of the low-half product and leave-one-out products
        self._level: tuple[np.ndarray, np.ndarray, list] | None = None
        # commits build new arrays, so the slots share the root's transform
        Z = _ranked_zeta(np.where(table.sizes % 2, -table.coeffs, table.coeffs), table.sizes, self._top)
        self._slots = [Z[:, None]] * len(self._scales)

    def _check_open(self, s: int) -> None:
        n, r = self._table.n, len(self._scales)
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
            raise ValueError(f"slot {s!r} is not an integer")
        if self._next >= n:
            raise ValueError(f"all {n} indices are committed")
        if not 0 <= s < r:
            raise ValueError(f"slot {s} outside 0..{r - 1}")

    def _free_after(self) -> int:
        return self._table.n - self._next - 1

    def _difference(self, s: int) -> np.ndarray:
        """D[rho, c - 1] = hi[rho + 1, c - 1] - lo[rho + 1, c - 1] of slot s:
        its all-zero column c = 0 is not stored."""
        Y = self._slots[s]
        return Y[1:, :, 1::2] - Y[1:, :, ::2]

    def _start_level(self) -> tuple[np.ndarray, np.ndarray, list]:
        cap = self._free_after()
        lows = [Y[:, :, ::2] for Y in self._slots]

        def times(A, B):  # None is the empty product
            return B if A is None else A if B is None else _rank_product(A, B, cap)

        before = [None]  # before[s]: the product of lows[:s], s < r
        for Y in lows[:-1]:
            before.append(times(Y, before[-1]))
        after = [None]  # after[s]: the product of the last s lows, s < r
        for Y in lows[:0:-1]:
            after.append(times(Y, after[-1]))
        others = [times(A, B) for A, B in zip(before, after[::-1])]
        if len(lows) == 1:  # no other slot: the empty product, 1 at rank 0 and count 0
            others = [np.ones((1, 1, 1 << cap))]
        W = _level_weights(cap, min(cap, sum(len(Y) - 1 for Y in lows)) + 1)
        return W, _fused_read(lows[-1], others[-1], W, 0, self._deg), others

    def branch(self, s: int) -> np.ndarray:
        """Ascending coefficients of the polynomial with the next index in slot s."""
        self._check_open(s)
        if self._level is None:
            self._level = self._start_level()
        W, a, others = self._level
        b = _fused_read(self._difference(s), others[s], W, 1, self._deg)
        return (a + self._scales[s] * b)[::-1]

    def commit(self, s: int) -> None:
        """Put the next index into slot s."""
        self._check_open(s)
        rows = min(self._top, self._free_after()) + 1
        slots = []
        for slot, Y in enumerate(self._slots):
            low = Y[:rows, :, ::2]
            if slot == s:
                D = self._difference(s)
                cols = min(self._top, Y.shape[1]) + 1
                new = np.zeros((rows, cols, low.shape[2]))
                new[:, : Y.shape[1]] = low
                new[: len(D), 1:] += self._scales[s] * D[:, : cols - 1]
                slots.append(new)
            else:
                slots.append(np.ascontiguousarray(low))
        self._slots = slots
        self._next += 1
        self._level = None


def quadratic_mixed_char_poly(
    E: MatrixEnsemble, table: SubsetTable | None = None
) -> RealPolynomial:
    """Quadratic mixed characteristic polynomial: spec (0, 0, -1) everywhere.

    Collapses to sum_S (-1)^|S| c_S^2 x^(2(d-|S|)).
    """
    table = _require_table(E, table)
    c, sizes = table.coeffs, table.sizes
    return _graded_poly(2 * sizes, np.where(sizes % 2, -c, c) * c, 2 * table.dim)
