"""Seeded workloads for the solve benchmark: inputs, solve call, re-verification.

Inputs come from numpy's default generator seeded by ``--seed`` and from
nothing in ``interlace.generate``, so a change to the program cannot change
a workload.  Each workload is a fixed list of instance shapes ("cells").
One pass solves one instance of every cell, so every pass carries the same
mix of sizes and a run's timings depend on the seed only through matrix
values.  The pool holds ``passes`` passes of distinct instances; a timed run
cycles through it for as long as it measures.

Every solve is re-checked here with plain numpy eigensolves, independently
of the program's own post-hoc verification.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from interlace import discrepancy, lyapunov
from interlace.descent import FiniteDistribution
from interlace.linalg import MatrixEnsemble

# Slack on every re-checked inequality (bounds, certificate residuals,
# recomputed norms).
CHECK_TOL = 1e-7


class VerificationError(Exception):
    """A returned solve that fails its re-verification."""


@dataclass(frozen=True)
class Case:
    """One validated input for a public solver call."""

    solver: str  # "kls", "select", "hermitian" or "partition"
    shape: tuple
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple  # (solver, shape) pairs, cheapest first
    passes: int  # pool size in passes; bound_ratio and digest cover them all


# ---------------------------------------------------------------------------
# Seeded generators (self-contained on purpose).
# ---------------------------------------------------------------------------


def _psd(rng: np.random.Generator, d: int, trace: float) -> np.ndarray:
    R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    G = R @ R.conj().T
    G = G * (trace / float(np.trace(G).real))
    return (G + G.conj().T) / 2


def _trace_capped(rng, d: int, n: int, eps: float) -> list[np.ndarray]:
    """PSD matrices with traces in [eps/2, eps] and sum of norm at most 1."""
    mats = [_psd(rng, d, eps * rng.uniform(0.5, 1.0)) for _ in range(n)]
    scale = max(1.0, float(np.linalg.eigvalsh(sum(mats))[-1]))
    return [M / scale for M in mats]


def _covering(rng, d: int, m: int, coverage: float) -> list[np.ndarray]:
    """PSD matrices summing to coverage * I exactly."""
    raws = [_psd(rng, d, 1.0) for _ in range(m)]
    w, V = np.linalg.eigh(sum(raws))
    isqrt = (V / np.sqrt(w)) @ V.conj().T
    return [coverage * (isqrt @ M @ isqrt) for M in raws]


def _indefinite(rng, d: int) -> np.ndarray:
    R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (R + R.conj().T) / 2
    return H / float(np.max(np.abs(np.linalg.eigvalsh(H))))


def _two_valued(rng) -> FiniteDistribution:
    a = float(rng.uniform(-1.5, 0.5))
    b = a + float(rng.uniform(0.5, 2.0))
    p = float(rng.uniform(0.2, 0.8))
    return FiniteDistribution.make([a, b], [p, 1.0 - p])


def _make_case(rng, solver: str, shape: tuple) -> Case:
    """Draw one instance and validate it through the public constructors."""
    if solver == "kls":
        d, n = shape
        mats = _trace_capped(rng, d, n, 2.0 / n)
        inst = discrepancy.DiscrepancyInstance.make(mats, [FiniteDistribution.fair_signs()] * n)
        return Case(solver, shape, (inst,))
    if solver == "hermitian":
        d, n = shape
        mats = MatrixEnsemble.from_arrays([_indefinite(rng, d) for _ in range(n)])
        return Case(solver, shape, (mats, tuple(_two_valued(rng) for _ in range(n))))
    if solver == "select":
        d, n, eps = shape
        mats = _trace_capped(rng, d, n, eps)
        weights = rng.uniform(0.1, 0.9, size=n).tolist()
        return Case(solver, shape, (lyapunov.LyapunovInstance.make(mats, weights),))
    if solver == "partition":
        d, m, r = shape
        # coverage >= m / (m + d) keeps 1 - coverage below the mean trace, so
        # the completion adds exactly one piece per direction and every seed
        # solves with n = m + d indices.
        mats = MatrixEnsemble.from_arrays(_covering(rng, d, m, float(rng.uniform(0.85, 0.95))))
        raw = np.linspace(1.0, 2.0, r)  # uneven proportions
        props = (raw / raw.sum()).tolist()
        props[-1] = 1.0 - sum(props[:-1])
        return Case(solver, shape, (mats, props))
    raise ValueError(f"unknown solver {solver!r}")


def build_pool(workload: Workload, seed: int) -> list[list[Case]]:
    """``workload.passes`` passes of fresh instances, one per cell, from ``seed``."""
    rng = np.random.default_rng(seed)
    return [[_make_case(rng, s, shape) for s, shape in workload.cells] for _ in range(workload.passes)]


# ---------------------------------------------------------------------------
# Solve and re-verify.
# ---------------------------------------------------------------------------

# Calls go through the module attributes at call time, so a traced run sees
# the rebound public names.
_SOLVERS: dict[str, Callable] = {
    "kls": lambda inst: discrepancy.solve_kls(inst),
    "hermitian": lambda mats, dists: discrepancy.solve_hermitian(mats, dists),
    "select": lambda inst: lyapunov.lyapunov_select(inst),
    "partition": lambda mats, props: lyapunov.ks_r_partition(mats, props),
}


def solve(case: Case):
    return _SOLVERS[case.solver](*case.args)


def _norm(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


def _abs(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(M)
    return (V * np.abs(w)) @ V.conj().T


def _sigma(mats, dists) -> float:
    d = mats[0].shape[0]
    term1, total = 0.0, np.zeros((d, d), dtype=np.complex128)
    for A, dist in zip(mats, dists):
        tr = float(np.trace(A).real)
        term1 = max(term1, dist.variance() * tr * tr)
        total += dist.variance() * tr * A
    return math.sqrt(max(term1, _norm(total)))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise VerificationError(what)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CHECK_TOL * (1.0 + abs(a))


def _check_chain(cert) -> None:
    worst = max(cert.residuals, default=0.0)
    _require(worst <= CHECK_TOL, f"certificate residual {worst:.3e}")


def _check_signs(mats, dists, res, bound: float) -> float:
    for s, dist in zip(res.outcome, dists):
        _require(s in dist.support(), f"outcome value {s} outside the support")
    achieved = _norm(sum((s - dist.mean()) * A for A, dist, s in zip(mats, dists, res.outcome)))
    _require(_close(achieved, res.achieved), "reported norm differs")
    _require(_close(bound, res.bound), "reported bound differs")
    _require(achieved <= bound + CHECK_TOL, f"norm {achieved:.6g} above bound {bound:.6g}")
    _check_chain(res.certificate)
    return achieved / bound


def verify(case: Case, res) -> tuple[float, object]:
    """Re-check one solve; returns (achieved / bound, digest key)."""
    if case.solver == "kls":
        inst = case.args[0]
        mats = [H.entries for H in inst.ensemble]
        return _check_signs(mats, inst.dists, res, 4.0 * _sigma(mats, inst.dists)), res.outcome
    if case.solver == "hermitian":
        mats, dists = [H.entries for H in case.args[0]], case.args[1]
        bound = 8.0 * _sigma([_abs(A) for A in mats], dists)
        return _check_signs(mats, dists, res, bound), res.outcome
    if case.solver == "select":
        inst = case.args[0]
        mats = [H.entries for H in inst.ensemble]
        _require(all(0 <= i < len(mats) for i in res.indices), "index out of range")
        chosen = set(res.indices)
        dev = sum(((i in chosen) - t) * A for i, (A, t) in enumerate(zip(mats, inst.weights)))
        achieved = _norm(dev)
        bound = 2.0 * math.sqrt(max(float(np.trace(A).real) for A in mats))
        _require(_close(achieved, res.achieved), "reported norm differs")
        _require(_close(bound, res.bound), "reported bound differs")
        _require(achieved <= bound + CHECK_TOL, f"deviation {achieved:.6g} above 2 sqrt(eps) {bound:.6g}")
        _check_chain(res.solver.certificate)
        return achieved / bound, res.indices
    mats = [H.entries for H in case.args[0]]
    props = case.args[1]
    m, r, d = len(mats), len(props), mats[0].shape[0]
    _require(len(res.blocks) == r, "wrong number of blocks")
    members = sorted(i for block in res.blocks for i in block)
    _require(members == list(range(m)), "blocks do not partition [m]")
    _require(all(res.upper_cert), "upper_cert has a false entry")
    _check_chain(res.certificate)
    eps = max(float(np.trace(A).real) for A in mats)
    total = sum(mats)
    spread = 2.0 * math.sqrt(r * eps) + r * eps
    ratios = []
    for k, block in enumerate(res.blocks):
        block_sum = sum((mats[i] for i in block), np.zeros((d, d), dtype=np.complex128))
        norm = _norm(block_sum)
        bound = props[k] * (1.0 + math.sqrt(r * eps)) ** 2
        gap = props[k] * (total + spread * np.eye(d)) - block_sum
        _require(np.linalg.eigvalsh(gap)[0] >= -CHECK_TOL, f"block {k} fails its PSD certificate")
        _require(_close(norm, res.block_norms[k]), "reported block norm differs")
        _require(_close(bound, res.bounds[k]), "reported block bound differs")
        _require(norm <= bound + CHECK_TOL, f"block {k} norm {norm:.6g} above {bound:.6g}")
        ratios.append(norm / bound)
    return float(np.mean(ratios)), res.blocks


def digest(keys) -> str:
    """Short hash of the outcomes and blocks, in solve order."""
    return hashlib.sha256(repr(list(keys)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

_SMALL_MIX = (
    ("kls", (2, 4)), ("select", (2, 6, 0.25)), ("hermitian", (2, 4)),
    ("kls", (3, 5)), ("select", (3, 6, 0.1)), ("hermitian", (3, 4)),
    ("kls", (4, 5)), ("select", (4, 6, 0.05)), ("hermitian", (2, 6)),
    ("kls", (6, 4)), ("kls", (5, 6)), ("hermitian", (4, 3)),
)

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("kls-deep", (("kls", (6, 9)), ("kls", (7, 8)), ("kls", (7, 9))), passes=6),
        Workload("kls-wide", (("kls", (3, 12)), ("kls", (4, 12)), ("kls", (3, 13))), passes=10),
        Workload(
            "partition",
            tuple(("partition", s) for s in ((2, 8, 4), (2, 10, 3), (3, 9, 3), (3, 8, 4), (4, 10, 2))),
            passes=6,
        ),
        Workload("small-mix", _SMALL_MIX, passes=20),
    )
}

# Smallest useful sizes, for the smoke test.
TINY = {
    "kls-deep": (("kls", (3, 4)),),
    "kls-wide": (("kls", (2, 5)),),
    "partition": (("partition", (2, 5, 2)),),
    "small-mix": (("kls", (2, 3)), ("select", (2, 4, 0.25)), ("hermitian", (2, 3))),
}
