"""Reference evaluators, which the level engines are checked against.

No solve calls this module; tests and ``interlace.verification`` read it.
``expected_product_poly`` applies any product operator to a subset table,
``subset_convolve`` combines tables by the direct sum over submasks, and
``truncated_ring_oracle`` expands small determinants symbolically, with no
table at all.  None of them shares code with ``mixedchar.ProductLevels`` or
``mixedchar.ConvolutionLevels``: this module reads only the public table and
keeps its own rank grading, so a defect in an engine cannot pass its own
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import SizeGuard, ValueNotInSupport
from .linalg import MatrixEnsemble
from .mixedchar import SubsetTable
from .polynomials import RealPolynomial


@dataclass(frozen=True)
class DerivativeSpec:
    """Coefficients of prod_i (1 + a_i d/dz_i + b_i d/dw_i + c_i d/dz_i d/dw_i).

    A fixed value s corresponds to (-s, s, -s^2).  The descents' centered
    family (``conditional_spec_quadratic``) fixes the deviation t of s from
    the mean and gives a free variable (0, 0, -Var).
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    c: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.a) == len(self.b) == len(self.c)):
            raise ValueError("spec coefficient lists must have equal length")

    def __len__(self) -> int:
        return len(self.a)

    @classmethod
    def from_triples(cls, triples) -> "DerivativeSpec":
        a, b, c = zip(*triples) if triples else ((), (), ())
        return cls(tuple(map(float, a)), tuple(map(float, b)), tuple(map(float, c)))


def conditional_spec_quadratic(dists: Sequence, fixed: Mapping[int, float]) -> DerivativeSpec:
    """Operator coefficients of the centered family of the
    ``FiniteDistribution`` list ``dists`` with a partial assignment
    substituted.

    Index i enters as xi_i - E xi_i.  Fixed index with value s and deviation
    t = ``deviations()[s]``: (-t, t, -t^2).  Free index: (0, 0, -``variance()``).
    A free kernel is diagonal, so ``mixedchar.ProductLevels``, fed the same
    deviations and variances, reads the same polynomials as Gram products of
    one contracted table; ``expected_product_poly`` with this spec is its
    reference.  A fixed index outside 0..len(dists) - 1 raises ValueError.
    """
    outside = sorted(i for i in fixed if not 0 <= i < len(dists))
    if outside:
        raise ValueError(f"fixed indices {outside} outside 0..{len(dists) - 1}")
    triples = []
    for i, dist in enumerate(dists):
        if i in fixed:
            s = float(fixed[i])
            if s not in dist.support():
                raise ValueNotInSupport(f"value {s} not in support of index {i}")
            t = dist.deviations()[s]
            triples.append((-t, t, -t * t))
        else:
            triples.append((0.0, 0.0, -dist.variance()))
    return DerivativeSpec.from_triples(triples)


def _table_for(E: MatrixEnsemble, table: SubsetTable | None) -> SubsetTable:
    if table is None:
        return SubsetTable.build(E)
    if table.n != len(E) or table.dim != E.dim:
        raise ValueError("table does not match ensemble")
    return table


def _apply_kernels(V: np.ndarray, kernels) -> None:
    """Apply the j-th kernel (a, b, c), K = [[1, b], [a, c]], in place along
    bit j of V's masks (row: bit in S, column: bit in T)."""
    rows, bits = len(V), V.shape[1].bit_length() - 1
    for j, (a, b, c) in enumerate(kernels):
        view = V.reshape(rows, 1 << (bits - j - 1), 2, 1 << j)
        lo, hi = view[:, :, 0, :], view[:, :, 1, :]
        new_hi = a * lo
        new_hi += c * hi
        lo += b * hi
        hi[...] = new_hi


def expected_product_poly(
    E: MatrixEnsemble, spec: DerivativeSpec, table: SubsetTable | None = None
) -> RealPolynomial:
    """Apply a product differential operator to det(xI+sum z A) det(xI+sum w A).

    Expands over ordered subset pairs (S, T):

        sum_{S,T} (prod_{S&T} c_i)(prod_{S\\T} a_i)(prod_{T\\S} b_i) D_S D_T,

    monic of degree 2d.  The pair weight is the Kronecker product of the
    per-index kernels K_i = [[1, b_i], [a_i, c_i]] (row: i in S, column:
    i in T).  ``_apply_kernels`` applies K_i along bit i of the rank-graded
    table V[|T|, T] = c_T, rows 0..min(n, d), giving V[k, S] = sum_{|T|=k}
    K[S, T] c_T; the polynomial is then sum_{S,k} c_S V[k, S] x^(2d-|S|-k).
    O(n 2^n d).
    """
    table = _table_for(E, table)
    if len(spec) != len(E):
        raise ValueError(f"spec length {len(spec)} != ensemble size {len(E)}")
    rows = min(table.n, table.dim) + 1
    V = np.zeros((rows, 1 << table.n))
    V[np.minimum(table.sizes, rows - 1), np.arange(1 << table.n)] = table.coeffs
    _apply_kernels(V, zip(spec.a, spec.b, spec.c))
    deg = 2 * table.dim
    sums = np.bincount((table.sizes + np.arange(rows)[:, None]).ravel(), weights=(table.coeffs * V).ravel())
    top = min(len(sums) - 1, deg)
    coeffs = np.zeros(deg + 1)
    coeffs[deg - top :] = sums[top::-1]
    return RealPolynomial.from_coeffs(coeffs)


def subset_convolve(tables: Sequence[np.ndarray], n: int) -> np.ndarray:
    """h(S) = sum over ordered disjoint decompositions S_1 | ... | S_r = S
    of prod_k tables[k][S_k].

    The direct sum over submasks: each table t turns h into the sum over
    T subset S of t[T] h[S ^ T], at most 3^n terms, added per nonzero T into
    its supersets S, which one pass over the 2^n masks finds.  A table whose
    length is not 2^n raises ValueError.
    """
    masks = np.arange(1 << n)
    h = (masks == 0).astype(np.float64)
    for k, t in enumerate(tables):
        t = np.asarray(t, dtype=np.float64)
        if t.shape != masks.shape:
            raise ValueError(f"tables[{k}] has shape {t.shape}, not ({1 << n},) for n = {n}")
        out = t[0] * h
        for T in np.flatnonzero(t[1:]) + 1:
            S = masks[(masks & T) == T]
            out[S] += t[T] * h[S ^ T]
        h = out
    return h


# Truncated-ring oracle: independent symbolic evaluation for small instances.

ORACLE_MAX_DIM = 4
ORACLE_MAX_INDICES = 4


def _accumulate(out: dict[int, np.ndarray], mask: int, poly: np.ndarray) -> None:
    """out[mask] += poly, the shorter coefficient array added into a copy of the longer."""
    cur = out.get(mask)
    if cur is None:
        out[mask] = poly
        return
    if len(cur) < len(poly):
        cur, poly = poly, cur
    total = cur.copy()
    total[: len(poly)] += poly
    out[mask] = total


class _Multilinear:
    """Element of R[x][z_1..z_n] / (z_i^2), terms keyed by variable bitmask."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, np.ndarray] | None = None):
        self.terms = terms if terms is not None else {}

    def add(self, other: "_Multilinear") -> "_Multilinear":
        out = dict(self.terms)
        for mask, poly in other.terms.items():
            _accumulate(out, mask, poly)
        return _Multilinear(out)

    def neg(self) -> "_Multilinear":
        return _Multilinear({m: -p for m, p in self.terms.items()})

    def mul(self, other: "_Multilinear") -> "_Multilinear":
        out: dict[int, np.ndarray] = {}
        for m1, p1 in self.terms.items():
            for m2, p2 in other.terms.items():
                if m1 & m2:
                    continue  # z_i^2 truncates to zero
                _accumulate(out, m1 | m2, np.convolve(p1, p2))
        return _Multilinear(out)


def _ring_det(M: list[list[_Multilinear]]) -> _Multilinear:
    """Division-free determinant by Laplace expansion along the first row."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = _Multilinear({})
    for j in range(n):
        minor = [[M[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = M[0][j].mul(_ring_det(minor))
        total = total.add(term if j % 2 == 0 else term.neg())
    return total


def _ring_determinant(matrices: list[np.ndarray], d: int, bit_offset: int) -> _Multilinear:
    """det(xI + sum_i z_{i+offset} A_i) over the truncated ring."""
    n = len(matrices)
    M: list[list[_Multilinear]] = []
    for r in range(d):
        row = []
        for c in range(d):
            terms: dict[int, np.ndarray] = {}
            if r == c:
                terms[0] = np.array([0.0 + 0.0j, 1.0 + 0.0j])
            for i in range(n):
                v = matrices[i][r, c]
                if v != 0:
                    terms[1 << (i + bit_offset)] = np.array([v], dtype=np.complex128)
            row.append(_Multilinear(terms))
        M.append(row)
    return _ring_det(M)


def _real_poly_from_ring(poly: np.ndarray) -> RealPolynomial:
    if float(np.max(np.abs(poly.imag), initial=0.0)) > 1e-8 * (
        1.0 + float(np.max(np.abs(poly.real), initial=0.0))
    ):
        raise ValueError("oracle produced a non-real polynomial")
    return RealPolynomial.from_coeffs(poly.real)


def truncated_ring_oracle(E: MatrixEnsemble, scalars=None, spec: DerivativeSpec | None = None) -> RealPolynomial:
    """Symbolic evaluation of the linear or product operator (d, m <= 4).

    Exactly one of ``scalars`` (linear mode, scalars folded into the
    matrices) or ``spec`` (product mode) must be given, with one entry per
    matrix, else ValueError.  Serves as an independent check of the fast
    subset-table path.
    """
    if (scalars is None) == (spec is None):
        raise ValueError("give exactly one of scalars= or spec=")
    d, m = E.dim, len(E)
    if d > ORACLE_MAX_DIM or m > ORACLE_MAX_INDICES:
        raise SizeGuard(f"oracle limited to d <= {ORACLE_MAX_DIM}, m <= {ORACLE_MAX_INDICES}")
    deg = d if spec is None else 2 * d
    if scalars is not None:
        scalars = np.asarray(scalars, dtype=np.float64)
        if scalars.shape != (m,):
            raise ValueError(f"expected {m} scalars")
        mats = [float(scalars[i]) * E[i].entries for i in range(m)]
        det = _ring_determinant(mats, d, 0)
        out = np.zeros(deg + 1, dtype=np.complex128)
        for mask, poly in det.terms.items():
            sign = -1.0 if bin(mask).count("1") % 2 else 1.0
            out[: len(poly)] += sign * poly
        return _real_poly_from_ring(out)
    if len(spec) != m:
        raise ValueError(f"spec length {len(spec)} != ensemble size {m}")
    mats = [E[i].entries for i in range(m)]
    dz = _ring_determinant(mats, d, 0)
    dw = _ring_determinant(mats, d, m)
    F = dz.mul(dw)
    zfull = (1 << m) - 1
    out = np.zeros(deg + 1, dtype=np.complex128)
    for mask, poly in F.terms.items():
        S = mask & zfull
        T = mask >> m
        w = 1.0
        for i in range(m):
            bit = 1 << i
            in_s, in_t = bool(S & bit), bool(T & bit)
            if in_s and in_t:
                w *= spec.c[i]
            elif in_s:
                w *= spec.a[i]
            elif in_t:
                w *= spec.b[i]
        if w != 0.0:
            out[: len(poly)] += w * poly
    return _real_poly_from_ring(out)
