"""Acceptance gate: one check per criterion, each printed as a PASS/FAIL line.

Criteria run the randomized suites at their full instance counts and fixed
seeds, assert every bound at its stated tolerance, and enforce the runtime
ceilings.  Criterion 9 also marks where max-root monotonicity stops: the
reversed inequality on a negated slot is false, and its check asserts the
refutation, by a hand counterexample and by the seeded search.  Every
criterion is expected to pass.
"""

import math
import time

import numpy as np
import pytest

from interlace import ensemble, maxroot_certified, mixed_char_poly, root_report, truncated_ring_oracle
from interlace.verification import (
    TOL_COEFF,
    TOL_ROOT,
    TOL_ROOTED,
    CheckResult,
    reversed_slot_monotonicity,
    suite_barriers,
    suite_bounds,
    suite_descent,
    suite_discrepancy,
    suite_hermitian,
    suite_lyapunov,
    suite_oracle,
    suite_partition,
    suite_polynomials,
    suite_structural,
)

SEED = 20260808


def _report(num, label, results: list[CheckResult], elapsed: float, limit_s: float):
    ok = all(r.passed for r in results) and elapsed < limit_s
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} ({elapsed:.3f}s / limit {limit_s:g}s)")
    for r in results:
        if not r.passed:
            print(f"         failed check: {r.name}: {r.detail}")
    if elapsed >= limit_s:
        print(f"         runtime {elapsed:.2f}s exceeded {limit_s:.0f}s")
    assert ok, f"criterion {num} failed"


def _timed(fn, **kw):
    t0 = time.perf_counter()
    out = fn(**kw)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bounds_results():
    return _timed(suite_bounds, seed=SEED, count=100)


def test_criterion_01_exact_small_cases():
    E_pair = ensemble([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
    E_single = ensemble([np.diag([2.0])])
    E_single3 = ensemble([np.diag([0.7, 0.2, 0.6])])
    mixed_char_poly(E_pair, [1.0, 1.0])  # warm-up outside the timed region
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        p = mixed_char_poly(E_pair, [1.0, 1.0])
        q = mixed_char_poly(E_single, [1.0])
        best = min(best, time.perf_counter() - t0)
    r = mixed_char_poly(E_single3, [1.0])
    checks = [
        CheckResult("pair-gives-x2-plus-2", max(abs(a - b) for a, b in zip(p.coeffs, (2.0, 0.0, 1.0))) <= 1e-9, str(p.coeffs)),
        CheckResult("pair-not-real-rooted", not root_report([p])[0].real_rooted, ""),
        CheckResult("single-gives-x-minus-trace", max(abs(a - b) for a, b in zip(q.coeffs, (-2.0, 1.0))) <= 1e-9, str(q.coeffs)),
        CheckResult("single-3x3-trace-factor", max(abs(a - b) for a, b in zip(r.coeffs, (0.0, 0.0, -1.5, 1.0))) <= 1e-9, str(r.coeffs)),
    ]
    _report(1, "exact small-case polynomials", checks, best, 1e-3)


def test_criterion_02_oracle_equivalence():
    results, dt = _timed(suite_oracle, seed=SEED, count=200)
    _report(2, "fast path matches the symbolic oracle on 200 instances", results, dt, 30)


def test_criterion_03_discrepancy_four_sigma():
    results, dt = _timed(suite_discrepancy, seed=SEED, count=50)
    wanted = [r for r in results if r.name in ("discrepancy-within-four-sigma", "discrepancy-certificate-monotone")]
    _report(3, "50 outcomes within four sigma with monotone certificates", wanted, dt, 300)


def test_criterion_04_quadratic_maxroot_cap(bounds_results):
    results, dt = bounds_results
    wanted = [r for r in results if r.name == "quadratic-maxroot-cap-4"]
    _report(4, "quadratic polynomial max roots capped at 4 on 100 ensembles", wanted, dt, 120)


def test_criterion_05_trace_and_rank_capped_bounds(bounds_results):
    results, dt = bounds_results
    wanted = [r for r in results if r.name in ("trace-capped-maxroot", "rank-2-capped-maxroot", "rank-3-capped-maxroot")]
    _report(5, "trace-capped and rank-capped max-root bounds on 100 instances", wanted, dt, 120)


def test_criterion_06_selection_two_sqrt_eps():
    results, dt = _timed(suite_lyapunov, seed=SEED, count=51)
    _report(6, "subset selection within 2 sqrt(eps) across three trace caps", results, dt, 300)


def test_criterion_07_partition_certificates():
    results, dt = _timed(suite_partition, seed=SEED, count=30)
    _report(7, "30 r-block partitions with PSD and norm certificates", results, dt, 600)


def test_criterion_08_hermitian_eight_sigma():
    results, dt = _timed(suite_hermitian, seed=SEED, count=30)
    _report(8, "30 hermitian outcomes within eight sigma", results, dt, 180)


def test_criterion_09_structural_suite():
    results, dt = _timed(suite_structural, seed=SEED, count=100)
    poly_results, dt2 = _timed(suite_polynomials, seed=SEED, count=100)
    results = results + [
        r for r in poly_results if r.name in ("reflect-minroot-relation", "root-scaling-maxroot")
    ]
    _report(9, "structural identities and norm bounds on 100+ instances", results, dt + dt2, 300)


def test_criterion_09_reversed_slot_monotonicity():
    """The reversed inequality on a negated slot is refuted.

    For A1 <= B1 it would read maxroot mu[-A1, rest] >= maxroot mu[-B1, rest].
    By hand, diag(0,1) <= diag(1,1) against diag(0,1) at signs (-1, +1) gives
    x^2 and x^2 + x - 1: the max root rises from 0 to (sqrt(5) - 1)/2.  Both
    polynomial paths must give these polynomials, and the seeded search must
    find a violation well above the root tolerance.
    """
    t0 = time.perf_counter()
    signs = [-1.0, 1.0]
    rest = np.diag([0.0, 1.0])
    cases = (
        ("A1", np.diag([0.0, 1.0]), (0.0, 0.0, 1.0), 0.0),
        ("B1", np.diag([1.0, 1.0]), (-1.0, 1.0, 1.0), (math.sqrt(5.0) - 1.0) / 2.0),
    )
    checks = []
    for label, first, want, want_root in cases:
        E = ensemble([first, rest])
        fast = mixed_char_poly(E, signs)
        for path, p in (("fast-path", fast), ("oracle", truncated_ring_oracle(E, signs))):
            ok = len(p.coeffs) == len(want) and max(abs(a - b) for a, b in zip(p.coeffs, want)) <= TOL_COEFF
            checks.append(CheckResult(f"counterexample-{label}-{path}-coeffs", ok, str(p.coeffs)))
        root = maxroot_certified([fast], rootedness_tol=TOL_ROOTED)[0].hi
        checks.append(CheckResult(f"counterexample-{label}-maxroot", abs(root - want_root) <= TOL_ROOT, f"{root:.10g}"))
    res = reversed_slot_monotonicity(seed=SEED, count=100)
    checks.append(CheckResult("seeded-search-finds-violation", not res.passed and res.worst >= 1e-3, res.detail))
    _report(9, "reversed-slot max-root monotonicity refuted", checks, time.perf_counter() - t0, 300)


def test_criterion_10_barrier_suite():
    results, dt = _timed(suite_barriers, seed=SEED, count=100)
    _report(10, "barrier values, shapes, transfers, corner certificates", results, dt, 120)


def test_criterion_11_exhaustive_greedy_optimality():
    results, dt = _timed(suite_descent, seed=SEED, count=60)
    wanted = [r for r in results if r.name in ("greedy-leaf-vs-root", "some-leaf-meets-bound")]
    _report(11, "greedy leaf meets the root bound under full enumeration", wanted, dt, 60)
