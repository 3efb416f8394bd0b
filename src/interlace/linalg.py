"""Dense hermitian matrices, spectral primitives, and ensemble constructions."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import (
    EmptyMatrix,
    NotContraction,
    NotHermitian,
    NotPSD,
    NumericalFailure,
    SizeGuard,
)

# Slack for PSD / contraction checks on floating-point inputs.
PSD_SLACK = 1e-10
# The most indices a subset table holds, so the most completion pieces any
# table can index.
MAX_INDICES = 14
# Parts this large overflow in the M + M* of make_hermitian.
_HALF_OVERFLOW = 2.0**1023


@dataclass(frozen=True)
class HermitianMatrix:
    """Validated dense d x d complex hermitian matrix.

    Construct through :func:`make_hermitian`, or :func:`exact_hermitian` for
    a sum that is exactly hermitian already; the stored array is hermitian
    and marked read-only, so the PSD verdict is computed once.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise NotHermitian(f"expected a square matrix, got shape {self.entries.shape}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(self.entries.trace().real)

    @functools.cached_property
    def psd(self) -> bool:
        return _psd_spectrum(eigenvalues(self))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def make_hermitian(entries, tol: float | None = None) -> HermitianMatrix:
    """Validate and symmetrize a matrix as (M + M*) / 2.

    Inputs whose asymmetry exceeds ``tol`` (default 1e-12 * (1 + max|entry|))
    are rejected rather than silently projected.
    """
    M = np.array(entries, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {M.shape}")
    d = M.shape[0]
    if d == 0:
        raise EmptyMatrix("matrix dimension must be at least 1")
    scale = 1.0 + (float(np.max(np.abs(M))) if M.size else 0.0)
    if tol is None:
        tol = 1e-12 * scale
    asym = float(np.max(np.abs(M - M.conj().T)))
    if not asym <= tol:  # also rejects NaN entries
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
    H = (M + M.conj().T) / 2
    H.flags.writeable = False
    return HermitianMatrix(H)


def as_hermitian(M, tol: float | None = None) -> HermitianMatrix:
    """Pass through a HermitianMatrix, or validate an array-like."""
    if isinstance(M, HermitianMatrix):
        return M
    return make_hermitian(M, tol)


def eigenvalues(H) -> np.ndarray:
    """Real eigenvalues in ascending order."""
    H = as_hermitian(H)
    try:
        return np.linalg.eigvalsh(H.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc


def eigh(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and an orthonormal eigenbasis."""
    H = as_hermitian(H)
    try:
        return np.linalg.eigh(H.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc


def operator_norm(H) -> float:
    """Spectral norm: max |eigenvalue|."""
    w = eigenvalues(H)
    return float(np.max(np.abs(w))) if w.size else 0.0


def _psd_spectrum(w: np.ndarray) -> bool:
    """PSD verdict on ascending eigenvalues: relative slack on the lowest."""
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    return bool(w[0] >= -PSD_SLACK * (1.0 + norm))


def is_psd(H) -> bool:
    """PSD test with relative slack on the most negative eigenvalue."""
    return as_hermitian(H).psd


def positive_negative_parts(H) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Spectral split H = H+ - H- with both parts PSD and H+ H- = 0."""
    H = as_hermitian(H)
    w, V = eigh(H)
    pos = (V * np.maximum(w, 0.0)) @ V.conj().T
    neg = (V * np.maximum(-w, 0.0)) @ V.conj().T
    return make_hermitian(pos, tol=np.inf), make_hermitian(neg, tol=np.inf)


def absolute_value(H) -> HermitianMatrix:
    """|H| = H+ + H-."""
    pos, neg = positive_negative_parts(H)
    return exact_hermitian(pos.entries + neg.entries)


def rank_one_completion(A, epsilon: float) -> list[HermitianMatrix]:
    """Split I - A into PSD rank-one pieces with trace at most ``epsilon``.

    Requires 0 <= A <= I. Each eigenvalue lam of I - A is divided into
    max(1, ceil(lam / epsilon)) equal multiples of its eigenprojector, so the
    output length never exceeds d * ceil(1 / epsilon).  The pieces are
    counted before any is built: more than ``MAX_INDICES`` raise
    ``SizeGuard``.
    """
    return _completion_from_spectrum(*eigh(A), epsilon)


def _completion_from_spectrum(w: np.ndarray, V: np.ndarray, epsilon: float) -> list[HermitianMatrix]:
    """``rank_one_completion`` of the A with ``eigh(A) == (w, V)``, for a
    caller that holds the spectrum already."""
    if not epsilon > 0:  # also rejects a NaN epsilon
        raise ValueError(f"epsilon must be positive; got {epsilon}")
    if not _psd_spectrum(w):
        raise NotPSD("completion requires A >= 0")
    if w[-1] > 1.0 + PSD_SLACK:
        raise NotContraction(f"completion requires A <= I, max eigenvalue {w[-1]:.12g}")
    out: list[HermitianMatrix] = []
    resid_w = 1.0 - w
    floor = PSD_SLACK * (1.0 + float(np.max(np.abs(resid_w))))
    with np.errstate(over="ignore"):  # a count that overflows is refused below
        counts = np.where(resid_w > floor, np.maximum(1.0, np.ceil(resid_w / epsilon - 1e-12)), 0.0)
    if counts.sum() > MAX_INDICES:
        raise SizeGuard(
            f"the completion at trace cap {epsilon:.6g} needs {counts.sum():.6g} pieces;"
            f" a table holds at most {MAX_INDICES} indices"
        )
    for j in np.flatnonzero(counts):
        lam, pieces = float(resid_w[j]), int(counts[j])
        v = V[:, j]
        proj = np.outer(v, v.conj())
        share = lam / pieces
        for _ in range(pieces):
            out.append(make_hermitian(share * proj, tol=np.inf))
    return out


@dataclass(frozen=True)
class MatrixEnsemble:
    """Nonempty ordered collection of hermitian matrices of one dimension."""

    matrices: tuple[HermitianMatrix, ...]

    def __post_init__(self) -> None:
        if not self.matrices:
            raise ValueError("ensemble must be nonempty")
        d = self.matrices[0].dim
        for k, H in enumerate(self.matrices):
            if H.dim != d:
                raise ValueError(f"matrix {k} has dim {H.dim}, expected {d}")

    @classmethod
    def from_arrays(cls, arrays: Iterable, tol: float | None = None) -> "MatrixEnsemble":
        return cls(tuple(as_hermitian(a, tol) for a in arrays))

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, k: int) -> HermitianMatrix:
        return self.matrices[k]

    def __iter__(self):
        return iter(self.matrices)

    def sum(self) -> HermitianMatrix:
        total = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for H in self.matrices:
            total += H.entries
        return exact_hermitian(total)

    def traces(self) -> np.ndarray:
        return np.array([H.trace() for H in self.matrices])


def ensemble(arrays: Iterable, tol: float | None = None) -> MatrixEnsemble:
    """Pass through a MatrixEnsemble, or validate a sequence of matrices."""
    if isinstance(arrays, MatrixEnsemble):
        return arrays
    return MatrixEnsemble.from_arrays(arrays, tol)


def exact_hermitian(total: np.ndarray) -> HermitianMatrix:
    """Wrap, as it is, a sum of exactly hermitian matrices with real coefficients.

    Each term c H has its (j, i) entry exactly the conjugate of its (i, j)
    entry, because negation is exact and rounding is symmetric, and so has
    the sum.  (M + M*) / 2 therefore returns it unchanged: bit for bit when
    the sum was accumulated from +0, which leaves no -0 in it, and in value
    otherwise (a zero may change sign).  A part that is NaN, infinite or at
    least 2^1023, where M + M* overflows, goes through
    ``make_hermitian(total, tol=np.inf)``, which raises NotHermitian on a
    NaN or infinite entry.
    """
    if not np.abs(total.view(np.float64)).max() < _HALF_OVERFLOW:  # NaN fails
        return make_hermitian(total, tol=np.inf)
    total.flags.writeable = False
    return HermitianMatrix(total)


def weighted_sum(matrices, coeffs) -> HermitianMatrix:
    """sum_i coeffs[i] H_i, accumulated from zero in index order.

    With real coefficients the sum is kept as it is (``exact_hermitian``);
    a complex coefficient takes the symmetrising pass of ``make_hermitian``.
    """
    total = np.zeros((matrices[0].dim, matrices[0].dim), dtype=np.complex128)
    real = True
    for H, c in zip(matrices, coeffs):
        total += c * H.entries
        real = real and not isinstance(c, (complex, np.complexfloating))
    return exact_hermitian(total) if real else make_hermitian(total, tol=np.inf)


@dataclass(frozen=True)
class EnsembleStats:
    """Summary used by the trace-capped hypotheses: max trace, sum norm, flags.

    ``total`` is the sum and ``spectrum`` its one ``eigh``, which the
    ``<= I`` flag reads and a partition's rank-one completion reuses; they
    take no part in comparison or repr.
    """

    epsilon: float
    sum_norm: float
    sum_leq_identity: bool
    all_psd: bool
    total: HermitianMatrix | None = field(default=None, compare=False, repr=False)
    spectrum: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)


def ensemble_stats(E: MatrixEnsemble) -> EnsembleStats:
    total = E.sum()
    w, V = eigh(total)
    return EnsembleStats(
        epsilon=float(np.max(E.traces())),
        sum_norm=float(np.max(np.abs(w))),
        sum_leq_identity=bool(w[-1] <= 1.0 + PSD_SLACK),
        all_psd=all(is_psd(H) for H in E),
        total=total,
        spectrum=(w, V),
    )
