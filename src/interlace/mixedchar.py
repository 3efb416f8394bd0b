"""Mixed characteristic polynomials and expected product polynomials.

The mixed characteristic polynomial of matrices A_1..A_m applies the
operator prod_i (1 - d/dz_i) to det(xI + sum_i z_i A_i) and sets z = 0.
Because each variable is differentiated at most once, only the multilinear
part of the determinant matters.  Writing

    D_S(x) = (prod_{i in S} d/dz_i) det(xI + sum z_i A_i) |_{z=0}
           = c_S * x^(d - |S|),

every evaluation in this module is a weighted sum over the scalar table
{c_S}.  The product variant applies prod_i (1 + a_i d/dz_i + b_i d/dw_i +
c_i d/dz_i d/dw_i) to a product of two such determinants.  Its weight on a
subset pair (S, T) factors over indices into 2x2 kernels, so one Kronecker
pass per index over the rank-graded table replaces the sum over pairs.

The table is built once per ensemble by polarization: c_S is the
squarefree coefficient of e_{|S|}(sum_{i in S} z_i A_i), so

    c_S = sum_{U subset S} (-1)^(|S|-|U|) e_{|S|}(sum_{i in U} A_i).

One batched eigensolve over the subset sums, the elementary-symmetric
recurrence on their eigenvalues and one ranked Moebius pass give every c_S.
Signs, scalar multiples and operator coefficients enter only through
per-subset weights, since c_S is multilinear in the matrix arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeGuard
from .linalg import MatrixEnsemble, as_hermitian
from .polynomials import RealPolynomial

MAX_INDICES = 14
MAX_DIM = 10


def popcounts(n: int) -> np.ndarray:
    """Bit-count table for all masks below 2^n."""
    pc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        pc[1 << i : 1 << (i + 1)] = pc[: 1 << i] + 1
    return pc


def subset_products(weights) -> np.ndarray:
    """w[mask] = prod_{i in mask} weights[i], for all masks."""
    weights = np.asarray(weights, dtype=np.float64)
    n = len(weights)
    out = np.ones(1 << n)
    for i in range(n):
        step = 1 << i
        out[step : 2 * step] = out[:step] * weights[i]
    return out


def _ranked_mobius_collapse(R: np.ndarray, n: int, pc: np.ndarray) -> np.ndarray:
    """In-place Moebius transform of every rank row of R; row pc[S] at mask S."""
    for b in range(n):
        view = R.reshape(len(R), 1 << (n - b - 1), 2, 1 << b)
        view[:, :, 1, :] -= view[:, :, 0, :]
    return R[pc, np.arange(1 << n)]


@dataclass(frozen=True)
class SubsetTable:
    """Scalar coefficients c_S indexed by subset bitmask (bit i <-> index i)."""

    dim: int
    n: int
    coeffs: np.ndarray
    sizes: np.ndarray

    @classmethod
    def build(cls, matrices) -> "SubsetTable":
        mats = [as_hermitian(M).entries for M in matrices]
        dim = mats[0].shape[0]
        n = len(mats)
        if n > MAX_INDICES or dim > MAX_DIM:
            raise SizeGuard(
                f"fast path limited to {MAX_INDICES} indices and dim {MAX_DIM}; "
                f"got n={n}, d={dim}"
            )
        sizes = popcounts(n)
        top = min(n, dim)
        # Only subsets U with |U| <= d enter an alternating sum that the
        # table reads.  Their sums are formed by doubling, each from the sum
        # without its highest index, and freed once the eigenvalues are taken.
        A = np.stack(mats)
        keep = np.flatnonzero(sizes <= top)
        sums = np.zeros((len(keep),) + A.shape[1:], dtype=A.dtype)
        for i in range(n):
            lo, hi = np.searchsorted(keep, (1 << i, 2 << i))
            parents = np.searchsorted(keep, keep[lo:hi] - (1 << i))
            np.add(sums[parents], A[i], out=sums[lo:hi])
        lam = np.linalg.eigvalsh(sums)
        del sums
        # E[k, U] = e_k(eigenvalues of sum_{i in U} A_i) for k <= min(n, d);
        # the table reads rank |S| at S, and c_S = 0 for |S| > d.
        low = np.zeros((top + 1, len(keep)))
        low[0] = 1.0
        for j, col in enumerate(lam.T):
            for k in range(min(j + 1, top), 0, -1):
                low[k] += col * low[k - 1]
        E = np.zeros((top + 1, 1 << n))
        E[:, keep] = low
        coeffs = np.where(sizes <= top, _ranked_mobius_collapse(E, n, np.minimum(sizes, top)), 0.0)
        return cls(dim=dim, n=n, coeffs=coeffs, sizes=sizes)


@dataclass(frozen=True)
class DerivativeSpec:
    """Coefficients of prod_i (1 + a_i d/dz_i + b_i d/dw_i + c_i d/dz_i d/dw_i).

    A fixed value s corresponds to (-s, s, -s^2); an undecided variable with
    mean mu and second moment m2 to (-mu, mu, -m2).
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

    @property
    def stability_safe(self) -> tuple[bool, ...]:
        """Per index: the factor matches (1 + t dz - t dw - s^2 dz dw), t^2 <= s^2."""
        out = []
        for ai, bi, ci in zip(self.a, self.b, self.c):
            out.append(ai == -bi and ci <= 0.0 and ai * ai <= -ci + 1e-15)
        return tuple(out)


def _graded_poly(sizes: np.ndarray, weights: np.ndarray, deg: int) -> RealPolynomial:
    """sum_S weights[S] x^(deg - sizes[S]) over masks S with sizes[S] <= deg."""
    sums = np.bincount(sizes, weights=weights)
    top = min(len(sums) - 1, deg)
    coeffs = np.zeros(deg + 1)
    coeffs[deg - top :] = sums[top::-1]
    return RealPolynomial.from_coeffs(coeffs)


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


def expected_product_poly(
    E: MatrixEnsemble, spec: DerivativeSpec, table: SubsetTable | None = None
) -> RealPolynomial:
    """Apply a product differential operator to det(xI+sum z A) det(xI+sum w A).

    Expands over ordered subset pairs (S, T):

        sum_{S,T} (prod_{S&T} c_i)(prod_{S\\T} a_i)(prod_{T\\S} b_i) D_S D_T,

    monic of degree 2d.  The pair weight is the Kronecker product of the
    per-index kernels K_i = [[1, b_i], [a_i, c_i]] (row: i in S, column:
    i in T).  One pass per index applies K_i along bit i of the rank-graded
    table V[|T|, T] = c_T, giving V[k, S] = sum_{|T|=k} K[S, T] c_T; the
    polynomial is then sum_{S,k} c_S V[k, S] x^(2d-|S|-k).  O(n 2^n d).
    """
    table = _require_table(E, table)
    if len(spec) != len(E):
        raise ValueError(f"spec length {len(spec)} != ensemble size {len(E)}")
    n, d = table.n, table.dim
    top = min(n, d)
    c, sizes = table.coeffs, table.sizes
    V = np.zeros((top + 1, 1 << n))
    V[np.minimum(sizes, top), np.arange(1 << n)] = c
    for i, (ai, bi, ci) in enumerate(zip(spec.a, spec.b, spec.c)):
        view = V.reshape(top + 1, 1 << (n - i - 1), 2, 1 << i)
        lo, hi = view[:, :, 0, :], view[:, :, 1, :]
        lo[...], hi[...] = lo + bi * hi, ai * lo + ci * hi
    ranks = sizes + np.arange(top + 1)[:, None]
    return _graded_poly(ranks.ravel(), (c * V).ravel(), 2 * d)


def quadratic_mixed_char_poly(
    E: MatrixEnsemble, table: SubsetTable | None = None
) -> RealPolynomial:
    """Quadratic mixed characteristic polynomial: spec (0, 0, -1) everywhere.

    Collapses to sum_S (-1)^|S| c_S^2 x^(2(d-|S|)).
    """
    m = len(E)
    spec = DerivativeSpec((0.0,) * m, (0.0,) * m, (-1.0,) * m)
    return expected_product_poly(E, spec, table)


# ---------------------------------------------------------------------------
# Truncated-ring oracle: independent symbolic evaluation for small instances.
# ---------------------------------------------------------------------------

ORACLE_MAX_DIM = 4
ORACLE_MAX_INDICES = 4


class _Multilinear:
    """Element of R[x][z_1..z_n] / (z_i^2), terms keyed by variable bitmask."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, np.ndarray] | None = None):
        self.terms = terms if terms is not None else {}

    def add(self, other: "_Multilinear") -> "_Multilinear":
        out = dict(self.terms)
        for mask, poly in other.terms.items():
            if mask in out:
                a, b = out[mask], poly
                if len(a) < len(b):
                    a, b = b, a
                s = a.copy()
                s[: len(b)] += b
                out[mask] = s
            else:
                out[mask] = poly
        return _Multilinear(out)

    def neg(self) -> "_Multilinear":
        return _Multilinear({m: -p for m, p in self.terms.items()})

    def mul(self, other: "_Multilinear") -> "_Multilinear":
        out: dict[int, np.ndarray] = {}
        for m1, p1 in self.terms.items():
            for m2, p2 in other.terms.items():
                if m1 & m2:
                    continue  # z_i^2 truncates to zero
                prod = np.convolve(p1, p2)
                mask = m1 | m2
                if mask in out:
                    cur = out[mask]
                    if len(cur) < len(prod):
                        cur, prod = prod, cur
                    s = cur.copy()
                    s[: len(prod)] += prod
                    out[mask] = s
                else:
                    out[mask] = prod
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


def truncated_ring_oracle(
    E: MatrixEnsemble,
    scalars=None,
    spec: DerivativeSpec | None = None,
) -> RealPolynomial:
    """Symbolic evaluation of the linear or product operator (d, m <= 4).

    Exactly one of ``scalars`` (linear mode, scalars folded into the
    matrices) or ``spec`` (product mode) must be given.  Serves as an
    independent check of the fast subset-table path.
    """
    if (scalars is None) == (spec is None):
        raise ValueError("give exactly one of scalars= or spec=")
    d, m = E.dim, len(E)
    if d > ORACLE_MAX_DIM or m > ORACLE_MAX_INDICES:
        raise SizeGuard(f"oracle limited to d <= {ORACLE_MAX_DIM}, m <= {ORACLE_MAX_INDICES}")
    deg = d if spec is None else 2 * d
    if scalars is not None:
        scalars = np.asarray(scalars, dtype=np.float64)
        mats = [float(scalars[i]) * E[i].entries for i in range(m)]
        det = _ring_determinant(mats, d, 0)
        out = np.zeros(deg + 1, dtype=np.complex128)
        for mask, poly in det.terms.items():
            sign = -1.0 if bin(mask).count("1") % 2 else 1.0
            out[: len(poly)] += sign * poly
        return _real_poly_from_ring(out)
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
