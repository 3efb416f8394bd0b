"""Seeded instance generators realizing the trace-capped hypotheses."""

from __future__ import annotations

import numpy as np

from .descent import FiniteDistribution
from .errors import SizeGuard
from .linalg import MAX_INDICES, MatrixEnsemble, make_hermitian, operator_norm
from .mixedchar import MAX_DIM


def random_psd(rng: np.random.Generator, d: int, rank: int | None = None, trace: float | None = None) -> np.ndarray:
    """Random complex PSD matrix, optionally rank-capped and trace-normalized."""
    k = d if rank is None else min(rank, d)
    R = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    G = R @ R.conj().T
    if trace is not None:
        tr = float(np.trace(G).real)
        if tr > 0:
            G = G * (trace / tr)
    return (G + G.conj().T) / 2


def trace_capped_ensemble(
    rng: np.random.Generator,
    d: int,
    m: int,
    eps: float,
    rank: int | None = None,
) -> MatrixEnsemble:
    """PSD matrices with tr(A_i) <= eps and sum A_i <= I (exact normalization)."""
    mats = [random_psd(rng, d, rank, trace=eps * rng.uniform(0.3, 1.0)) for _ in range(m)]
    total = sum(mats[1:], mats[0].copy())
    norm = operator_norm(make_hermitian(total, tol=np.inf))
    scale = max(1.0, norm)
    return MatrixEnsemble.from_arrays([M / scale for M in mats], tol=np.inf)


def qx_normalized_ensemble(rng: np.random.Generator, d: int, m: int) -> MatrixEnsemble:
    """PSD matrices with max tr(B_i) <= 1 and sum tr(B_i) B_i <= I."""
    mats = [random_psd(rng, d, trace=rng.uniform(0.2, 1.0)) for _ in range(m)]
    mats = [M / max(1.0, float(np.trace(M).real)) for M in mats]
    weighted = sum((float(np.trace(M).real) * M for M in mats), np.zeros((d, d), dtype=np.complex128))
    norm = operator_norm(make_hermitian(weighted, tol=np.inf))
    scale = max(1.0, float(np.sqrt(norm)))
    return MatrixEnsemble.from_arrays([M / scale for M in mats], tol=np.inf)


def covering_ensemble(rng: np.random.Generator, d: int, m: int, coverage: float) -> MatrixEnsemble:
    """PSD matrices with sum A_i = coverage * I exactly (balanced traces).

    Keeps the rank-one completion of I - sum A_i small: every residual
    eigenvalue equals 1 - coverage.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must lie in (0, 1]")
    raws = [random_psd(rng, d) for _ in range(m)]
    total = sum(raws[1:], raws[0].copy())
    w, V = np.linalg.eigh((total + total.conj().T) / 2)
    isqrt = (V * (1.0 / np.sqrt(np.maximum(w, 1e-12)))) @ V.conj().T
    mats = [coverage * (isqrt @ M @ isqrt) for M in raws]
    return MatrixEnsemble.from_arrays(mats, tol=np.inf)


def random_two_valued(rng: np.random.Generator) -> FiniteDistribution:
    a = float(rng.uniform(-2.0, 0.5))
    b = a + float(rng.uniform(0.3, 2.5))
    p = float(rng.uniform(0.1, 0.9))
    return FiniteDistribution.make([a, b], [p, 1.0 - p])


def random_distribution(rng: np.random.Generator, max_values: int = 4) -> FiniteDistribution:
    k = int(rng.integers(1, max_values + 1))
    vals = np.sort(rng.uniform(-2.0, 2.0, size=k))
    while len(set(vals.tolist())) != k:
        vals = np.sort(rng.uniform(-2.0, 2.0, size=k))
    probs = rng.uniform(0.05, 1.0, size=k)
    probs = probs / probs.sum()
    # renormalize exactly against float drift
    probs[-1] = 1.0 - float(np.sum(probs[:-1]))
    return FiniteDistribution.make(vals.tolist(), probs.tolist())


def gen_instance(kind: str, d: int, m: int, epsilon: float, seed: int) -> "EnsembleFile":
    """Deterministic instance file for the CLI (kinds: psd-trace-capped,
    rank-one, lyapunov, ksr)."""
    from .files import EnsembleFile

    if d < 1 or m < 1:
        raise ValueError(f"sizes must be at least 1; got d={d}, m={m}")
    if d > MAX_DIM or m > MAX_INDICES:
        raise SizeGuard(f"generator limited to d <= {MAX_DIM}, m <= {MAX_INDICES}")
    if not 0.0 < epsilon < np.inf:  # also rejects NaN
        raise ValueError(f"epsilon must be positive and finite; got {epsilon}")
    rng = np.random.default_rng(seed)
    weights = None
    distributions = None
    proportions = None
    if kind == "psd-trace-capped":
        ens = trace_capped_ensemble(rng, d, m, epsilon)
        distributions = [random_two_valued(rng) for _ in range(m)]
    elif kind == "rank-one":
        ens = trace_capped_ensemble(rng, d, m, epsilon, rank=1)
        distributions = [random_two_valued(rng) for _ in range(m)]
    elif kind == "lyapunov":
        ens = trace_capped_ensemble(rng, d, m, epsilon)
        weights = [float(rng.uniform(0.0, 1.0)) for _ in range(m)]
    elif kind == "ksr":
        coverage = float(rng.uniform(0.75, 0.95))
        ens = covering_ensemble(rng, d, m, coverage)
        proportions = [0.5, 0.5]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return EnsembleFile(
        schema_version="1",
        dim=d,
        matrices=list(ens),
        weights=weights,
        distributions=(
            [{"values": list(dd.values), "probs": list(dd.probs)} for dd in distributions]
            if distributions
            else None
        ),
        proportions=proportions,
        epsilon_override=None,
    )
