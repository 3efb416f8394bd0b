"""Randomized invariant suites shared by the CLI verifier and the test suite.

Every suite draws from a seeded generator, checks a family of inequalities
or identities at fixed tolerances, and reports one result per named check
with the worst observed violation.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .barriers import BarrierPoint, barrier_shape_check, barrier_value, qx_certificate
from .descent import MatrixDistribution, greedy_descent_linear, greedy_descent_quadratic
from .discrepancy import DiscrepancyInstance, sigma_bound, solve_hermitian, solve_kls, two_point_reduction
from .generate import (
    covering_ensemble,
    qx_normalized_ensemble,
    random_distribution,
    random_psd,
    random_two_valued,
    trace_capped_ensemble,
)
from .linalg import (
    MatrixEnsemble,
    make_hermitian,
    operator_norm,
)
from .lyapunov import (
    LyapunovInstance,
    ks_r_partition,
    lyapunov_select,
    mixed_bound_reference,
)
from .mixedchar import SubsetTable, mixed_char_poly, quadratic_mixed_char_poly
from .polynomials import RealPolynomial, maxroot_certified, root_report, root_scaling
from .reference import DerivativeSpec, conditional_spec_quadratic, expected_product_poly, truncated_ring_oracle

TOL_COEFF = 1e-8
TOL_ROOT = 1e-7
TOL_ROOTED = 1e-7


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    worst: float = math.nan


def _result(name: str, worst: float, limit: float, extra: str = "") -> CheckResult:
    ok = worst <= limit
    detail = f"worst {worst:.3e} vs limit {limit:.3e}"
    if extra:
        detail += f" ({extra})"
    return CheckResult(name, ok, detail, float(worst))


def _coeff_gap(p: RealPolynomial, q: RealPolynomial) -> float:
    a = np.zeros(max(len(p.coeffs), len(q.coeffs)))
    b = a.copy()
    a[: len(p.coeffs)] = p.coeffs
    b[: len(q.coeffs)] = q.coeffs
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _psd_ensemble(rng, d: int, m: int, hi: float = 1.0) -> MatrixEnsemble:
    """m random d x d PSD matrices with traces drawn from U(0.2, hi)."""
    return MatrixEnsemble.from_arrays(
        [random_psd(rng, d, trace=float(rng.uniform(0.2, hi))) for _ in range(m)], tol=np.inf
    )


def _random_real_rooted(rng, deg: int, separated: bool = False) -> RealPolynomial:
    if separated:
        roots = rng.choice(np.arange(-6, 7), size=deg, replace=False)
        roots = roots + rng.uniform(-0.2, 0.2, size=deg)
    else:
        roots = rng.uniform(-3.0, 3.0, size=deg)
    return RealPolynomial.from_coeffs(np.poly(roots)[::-1])


def _shift_transfer(rng, count: int) -> float:
    """Worst violation of: x0 above the roots of p + c p' puts x0 + c above the roots of p."""
    worst = -np.inf
    for _ in range(count):
        p = _random_real_rooted(rng, int(rng.integers(2, 7)))
        dp = p.derivative()
        for c in (-0.5, 0.5, 1.0):
            shifted = p + dp.scale(c)
            if shifted.degree < 1:
                continue
            top_shifted, top = (rep.maxroot for rep in root_report([shifted, p], TOL_ROOTED))
            worst = max(worst, top - (top_shifted + 1e-6 + c))
    return worst


# ---------------------------------------------------------------------------


def suite_polynomials(seed: int = 0, count: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for _ in range(count):
        p = RealPolynomial.from_coeffs(rng.uniform(-2, 2, size=int(rng.integers(2, 8))))
        if p.is_zero:
            continue
        back = p.reflect().reflect()
        worst = max(worst, max(abs(a - b) for a, b in zip(p.coeffs, back.coeffs)))
    out.append(_result("reflect-involution", worst, 0.0))

    worst = 0.0
    for _ in range(count):
        p = _random_real_rooted(rng, int(rng.integers(1, 7)))
        scales = (0.1, 2.0, 10.0)
        stack = [p] + [root_scaling(p, t) for t in scales]
        mr, *scaled = (root.hi for root in maxroot_certified(stack, rootedness_tol=1e-6))
        for t, mrs in zip(scales, scaled):
            worst = max(worst, abs(mrs - t * mr) / max(1.0, abs(t * mr)))
    out.append(_result("root-scaling-maxroot", worst, 1e-8))

    worst = 0.0
    for _ in range(count):
        p = _random_real_rooted(rng, int(rng.integers(2, 7)))
        rep, rep2 = root_report([p, p.reflect()], TOL_ROOTED)
        worst = max(worst, abs(rep2.maxroot + rep.minroot))
    out.append(_result("reflect-minroot-relation", worst, 1e-7))

    out.append(_result("derivative-shift-transfer", _shift_transfer(rng, count), 1e-9))

    worst = 0.0
    for _ in range(count):
        p = _random_real_rooted(rng, int(rng.integers(1, 7)), separated=True)
        worst = max(
            worst,
            abs(maxroot_certified([p], rootedness_tol=1e-6)[0].hi - root_report([p], 1e-6)[0].maxroot),
        )
    out.append(_result("certified-vs-companion-maxroot", worst, 1e-9))
    return out


def suite_oracle(seed: int = 0, count: int = 200) -> list[CheckResult]:
    """Fast subset-table path versus the truncated-ring determinant."""
    rng = np.random.default_rng(seed)
    worst_lin = 0.0
    worst_prod = 0.0
    for it in range(count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        ens = _psd_ensemble(rng, d, m, hi=1.5)
        table = SubsetTable.build(ens)
        if it % 2 == 0:
            scalars = rng.uniform(-1.5, 1.5, size=m)
            fast = mixed_char_poly(ens, scalars, table)
            slow = truncated_ring_oracle(ens, scalars=scalars)
            worst_lin = max(worst_lin, _coeff_gap(fast, slow))
        else:
            triples = []
            for _ in range(m):
                kind = rng.integers(0, 3)
                if kind == 0:
                    s = float(rng.uniform(-1.5, 1.5))
                    triples.append((-s, s, -s * s))
                elif kind == 1:
                    dd = random_distribution(rng)
                    triples.append((-dd.mean(), dd.mean(), -dd.second_moment()))
                else:
                    triples.append(tuple(rng.uniform(-1.0, 1.0, size=3)))
            spec = DerivativeSpec.from_triples(triples)
            fast = expected_product_poly(ens, spec, table)
            slow = truncated_ring_oracle(ens, spec=spec)
            worst_prod = max(worst_prod, _coeff_gap(fast, slow))
    return [
        _result("oracle-linear-mode", worst_lin, TOL_COEFF),
        _result("oracle-product-mode", worst_prod, TOL_COEFF),
    ]


# ---------------------------------------------------------------------------


def _slot_growth_maxroots(rng, sign: float) -> tuple[float, float]:
    """Max roots of mu[A1, rest] and mu[A1 + inc, rest] under random signs,
    with slot 1 signed ``sign``: the draw behind both slot-monotonicity checks."""
    d = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    ens = _psd_ensemble(rng, d, m)
    inc = random_psd(rng, d, trace=float(rng.uniform(0.1, 0.6)))
    eps = rng.choice([-1.0, 1.0], size=m)
    eps[0] = sign
    grown = MatrixEnsemble.from_arrays([ens[0].entries + inc, *ens.matrices[1:]], tol=np.inf)
    polys = [mixed_char_poly(e, eps) for e in (ens, grown)]
    return tuple(root.hi for root in maxroot_certified(polys, rootedness_tol=TOL_ROOTED))


def suite_structural(seed: int = 0, count: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # multi-affinity plus permutation symmetry
    worst_aff = 0.0
    worst_perm = 0.0
    for _ in range(count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 4))
        mats = [random_psd(rng, d, trace=float(rng.uniform(0.2, 1.0))) for _ in range(m + 1)]
        lam = float(rng.uniform(0, 1))
        mix = lam * mats[0] + (1 - lam) * mats[1]
        scalars = np.ones(m)
        ens_mix = MatrixEnsemble.from_arrays([mix] + mats[2:], tol=np.inf)
        ens_a = MatrixEnsemble.from_arrays([mats[0]] + mats[2:], tol=np.inf)
        ens_b = MatrixEnsemble.from_arrays([mats[1]] + mats[2:], tol=np.inf)
        lhs = mixed_char_poly(ens_mix, scalars)
        rhs = mixed_char_poly(ens_a, scalars).scale(lam) + mixed_char_poly(ens_b, scalars).scale(1 - lam)
        worst_aff = max(worst_aff, _coeff_gap(lhs, rhs))
        perm = rng.permutation(m)
        ens_p = MatrixEnsemble(tuple(ens_mix.matrices[i] for i in perm))
        worst_perm = max(worst_perm, _coeff_gap(lhs, mixed_char_poly(ens_p, scalars[perm])))
    out.append(_result("multi-affinity", worst_aff, TOL_COEFF))
    out.append(_result("argument-permutation-symmetry", worst_perm, TOL_COEFF))

    # expectation commutes with the polynomial (joint support enumeration)
    worst = 0.0
    for _ in range(max(10, count // 4)):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        choices = []
        for _ in range(m):
            nv = int(rng.integers(1, 4))
            vals = [random_psd(rng, d, trace=float(rng.uniform(0.1, 0.8))) for _ in range(nv)]
            probs = rng.uniform(0.1, 1.0, size=nv)
            probs /= probs.sum()
            choices.append((vals, probs))
        avg = None
        for combo in itertools.product(*[range(len(v)) for v, _ in choices]):
            w = 1.0
            mats = []
            for (vals, probs), k in zip(choices, combo):
                w *= float(probs[k])
                mats.append(vals[k])
            p = mixed_char_poly(MatrixEnsemble.from_arrays(mats, tol=np.inf), np.ones(m)).scale(w)
            avg = p if avg is None else avg + p
        means = [sum(pr * v for v, pr in zip(vals, probs)) for vals, probs in choices]
        mean_poly = mixed_char_poly(MatrixEnsemble.from_arrays(means, tol=np.inf), np.ones(m))
        worst = max(worst, _coeff_gap(avg, mean_poly))
    out.append(_result("expectation-multilinearization", worst, TOL_COEFF))

    # uniform rescaling moves roots linearly
    worst = 0.0
    for _ in range(count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        ens = _psd_ensemble(rng, d, m)
        t = float(rng.uniform(0.2, 3.0))
        base = mixed_char_poly(ens, np.ones(m))
        scaled = mixed_char_poly(
            MatrixEnsemble.from_arrays([t * H.entries for H in ens], tol=np.inf), np.ones(m)
        )
        worst = max(worst, _coeff_gap(scaled, root_scaling(base, t)))
    out.append(_result("uniform-scaling-identity", worst, TOL_COEFF))

    # single-argument polynomial is x^(d-1)(x - tr)
    worst = 0.0
    for _ in range(count):
        d = int(rng.integers(1, 6))
        M = random_psd(rng, d, trace=float(rng.uniform(0.1, 3.0)))
        p = mixed_char_poly(MatrixEnsemble.from_arrays([M], tol=np.inf), [1.0])
        mr = root_report([p], TOL_ROOTED)[0].maxroot
        worst = max(worst, abs(mr - float(np.trace(M).real)))
    out.append(_result("single-argument-trace-root", worst, TOL_COEFF))

    # negated ensemble equals the reflected polynomial
    worst = 0.0
    for _ in range(count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        ens = _psd_ensemble(rng, d, m)
        eps = rng.choice([-1.0, 1.0], size=m)
        table = SubsetTable.build(ens)
        worst = max(
            worst,
            _coeff_gap(mixed_char_poly(ens, -eps, table), mixed_char_poly(ens, eps, table).reflect()),
        )
    out.append(_result("negation-reflection-identity", worst, 1e-12))

    # real-rootedness for scalar multiples of PSD matrices
    worst = 0.0
    for _ in range(2 * count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        ens = _psd_ensemble(rng, d, m)
        eps = rng.choice([-1.0, 1.0], size=m)
        rep = root_report([mixed_char_poly(ens, eps)], TOL_ROOTED)[0]
        if not rep.real_rooted:
            worst = max(worst, rep.max_imag_residual)
    out.append(_result("signed-ensemble-real-rootedness", worst, TOL_ROOTED))

    # real-rootedness of expected product polynomials
    worst = 0.0
    for _ in range(2 * count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        ens = _psd_ensemble(rng, d, m)
        dists = [random_distribution(rng) for _ in range(m)]
        nfix = int(rng.integers(0, m + 1))
        fixed = {i: dists[i].support()[0] for i in range(nfix)}
        spec = conditional_spec_quadratic(dists, fixed)
        rep = root_report([expected_product_poly(ens, spec)], TOL_ROOTED)[0]
        if not rep.real_rooted:
            worst = max(worst, rep.max_imag_residual)
    out.append(_result("expected-product-real-rootedness", worst, TOL_ROOTED))

    # max-root monotone in the PSD order (positive slot)
    worst = -np.inf
    for _ in range(count):
        mA, mB = _slot_growth_maxroots(rng, 1.0)
        worst = max(worst, mA - mB)
    out.append(_result("maxroot-psd-monotonicity", worst, TOL_ROOT))

    # all-negative ensembles have no positive roots (minroot of the PSD
    # polynomial is nonnegative); this is the consequence the norm chain uses
    worst = -np.inf
    for _ in range(count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        ens = _psd_ensemble(rng, d, m)
        worst = max(worst, maxroot_certified([mixed_char_poly(ens, -np.ones(m))], rootedness_tol=TOL_ROOTED)[0].hi)
    out.append(_result("negative-ensemble-maxroot-nonpositive", worst, TOL_ROOT))

    # signed-sum norm bound through the product polynomial, and the plain sum
    worst_signed = -np.inf
    worst_sum = -np.inf
    for _ in range(2 * count):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        ens = _psd_ensemble(rng, d, m)
        eps = rng.choice([-1.0, 1.0], size=m)
        table = SubsetTable.build(ens)
        f = mixed_char_poly(ens, eps, table) * mixed_char_poly(ens, -eps, table)
        mr = maxroot_certified([f], rootedness_tol=TOL_ROOTED)[0].hi
        total = sum(e * H.entries for e, H in zip(eps, ens))
        worst_signed = max(worst_signed, operator_norm(make_hermitian(total, tol=np.inf)) - mr)
        mr_sum = maxroot_certified([mixed_char_poly(ens, np.ones(m), table)], rootedness_tol=TOL_ROOTED)[0].hi
        worst_sum = max(worst_sum, operator_norm(ens.sum()) - mr_sum)
    out.append(_result("signed-sum-norm-bound", worst_signed, TOL_ROOT))
    out.append(_result("plain-sum-norm-bound", worst_sum, TOL_ROOT))
    return out


def reversed_slot_monotonicity(seed: int = 0, count: int = 100) -> CheckResult:
    """Reversed inequality on the negated slot: maxroot mu[-A1, rest] >=
    maxroot mu[-B1, rest] for A1 <= B1.

    This inequality is false in general; diag(0,1) <= diag(1,1) against
    diag(0,1) already violates it (x^2 versus x^2 + x - 1).  The check
    measures the reversed inequality over random instances, and acceptance
    criterion 9 asserts that it is violated: a passing result here means the
    search no longer finds the known counterexamples.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    example = ""
    for it in range(count):
        mA, mB = _slot_growth_maxroots(rng, -1.0)
        if mB - mA > worst:
            worst = mB - mA
            moved = "rose" if mB > mA else "fell"
            example = f"instance {it}: maxroot {moved} {mA:.6g} -> {mB:.6g}"
    return _result("reversed-slot-monotonicity", worst, TOL_ROOT, example)


# ---------------------------------------------------------------------------


def suite_bounds(seed: int = 0, count: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst = -np.inf
    for _ in range(count):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(2, 9))
        ens = trace_capped_ensemble(rng, d, m, float(rng.uniform(0.05, 0.6)))
        mr = maxroot_certified([mixed_char_poly(ens, np.ones(m))], rootedness_tol=TOL_ROOTED)[0].hi
        worst = max(worst, mr - mixed_bound_reference(ens))
    out.append(_result("trace-capped-maxroot", worst, TOL_ROOT))

    for k in (2, 3):
        worst = -np.inf
        for _ in range(count // 2):
            d = int(rng.integers(k, 7))
            m = int(rng.integers(2, 9))
            cap = (k - 1) ** 2 / k
            ens = trace_capped_ensemble(rng, d, m, float(rng.uniform(0.05, 0.9)) * cap, rank=k)
            mr = maxroot_certified([mixed_char_poly(ens, np.ones(m))], rootedness_tol=TOL_ROOTED)[0].hi
            worst = max(worst, mr - mixed_bound_reference(ens, k))
        out.append(_result(f"rank-{k}-capped-maxroot", worst, TOL_ROOT))

    worst = -np.inf
    for _ in range(count):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        ens = qx_normalized_ensemble(rng, d, m)
        mr = maxroot_certified([quadratic_mixed_char_poly(ens)], rootedness_tol=TOL_ROOTED)[0].hi
        worst = max(worst, mr - 4.0)
    out.append(_result("quadratic-maxroot-cap-4", worst, TOL_ROOT))
    return out


def suite_descent(seed: int = 0, count: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for _ in range(count):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(2, 9))
        ens = trace_capped_ensemble(rng, d, m, 1.0)
        dists = [random_two_valued(rng) for _ in range(m)]
        cert = greedy_descent_quadratic(SubsetTable.build(ens), dists)
        worst = max(worst, max(cert.residuals))
    out.append(_result("descent-maxroot-monotone", worst, TOL_ROOT))

    # full leaf enumeration at small scale: greedy matches the guarantee
    worst = -np.inf
    worst_leaf = -np.inf
    for _ in range(max(10, count // 3)):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        ens = trace_capped_ensemble(rng, d, m, 1.0)
        dists = [random_two_valued(rng) for _ in range(m)]
        table = SubsetTable.build(ens)
        root_mr = maxroot_certified(
            [expected_product_poly(ens, conditional_spec_quadratic(dists, {}), table)],
            rootedness_tol=TOL_ROOTED,
        )[0].hi
        cert = greedy_descent_quadratic(table, dists)
        worst = max(worst, cert.maxroots[-1] - root_mr)
        leaves = [
            expected_product_poly(ens, conditional_spec_quadratic(dists, dict(enumerate(combo))), table)
            for combo in itertools.product(*[dd.support() for dd in dists])
        ]
        lowest = min(leaf.hi for leaf in maxroot_certified(leaves, rootedness_tol=TOL_ROOTED))
        worst_leaf = max(worst_leaf, lowest - root_mr)
    out.append(_result("greedy-leaf-vs-root", worst, TOL_ROOT))
    out.append(_result("some-leaf-meets-bound", worst_leaf, TOL_ROOT))

    # index order changes the path, never the certificate validity
    worst = 0.0
    for _ in range(count // 5):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        ens = trace_capped_ensemble(rng, d, m, 1.0)
        dists = [random_two_valued(rng) for _ in range(m)]
        perm = rng.permutation(m)
        ens_p = MatrixEnsemble(tuple(ens.matrices[i] for i in perm))
        cert = greedy_descent_quadratic(SubsetTable.build(ens_p), [dists[i] for i in perm])
        worst = max(worst, max(cert.residuals))
    out.append(_result("descent-permuted-indices", worst, TOL_ROOT))

    # linear-mode descent over random matrix choices
    worst = 0.0
    for _ in range(count // 2):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        choices = []
        for _ in range(m):
            nv = int(rng.integers(1, 4))
            vals = [random_psd(rng, d, trace=float(rng.uniform(0.05, 0.5))) for _ in range(nv)]
            probs = rng.uniform(0.1, 1.0, size=nv)
            probs /= probs.sum()
            choices.append(MatrixDistribution.make(vals, probs))
        cert = greedy_descent_linear(choices)
        worst = max(worst, max(cert.residuals))
    out.append(_result("linear-descent-monotone", worst, TOL_ROOT))
    return out


def suite_discrepancy(seed: int = 0, count: int = 50) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst_gap = -np.inf
    worst_res = 0.0
    for _ in range(count):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(2, 9))
        ens = trace_capped_ensemble(rng, d, m, float(rng.uniform(0.3, 1.0)))
        dists = [random_two_valued(rng) for _ in range(m)]
        res = solve_kls(DiscrepancyInstance(ens, tuple(dists)))
        worst_gap = max(worst_gap, res.achieved - res.bound)
        worst_res = max(worst_res, max(res.certificate.residuals))
    out.append(_result("discrepancy-within-four-sigma", worst_gap, TOL_ROOT))
    out.append(_result("discrepancy-certificate-monotone", worst_res, TOL_ROOT))

    # rank-one sigma collapses to the squared-matrix form
    worst = 0.0
    for _ in range(count):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 8))
        ens = trace_capped_ensemble(rng, d, m, 1.0, rank=1)
        dists = [random_two_valued(rng) for _ in range(m)]
        inst = DiscrepancyInstance(ens, tuple(dists))
        s2 = sigma_bound(inst) ** 2
        total = sum(
            dd.variance() * (H.entries @ H.entries) for dd, H in zip(dists, ens)
        )
        alt = operator_norm(make_hermitian(total, tol=np.inf))
        worst = max(worst, abs(s2 - alt) / max(1.0, alt))
    out.append(_result("rank-one-sigma-identity", worst, 1e-10))

    # two-point reduction: mean exact, variance and sigma not increased
    worst_mean = 0.0
    worst_var = -np.inf
    worst_sig = -np.inf
    for _ in range(count):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        ens = trace_capped_ensemble(rng, d, m, 1.0)
        dists = [random_distribution(rng) for _ in range(m)]
        red = [two_point_reduction(dd) for dd in dists]
        for a, b in zip(dists, red):
            worst_mean = max(worst_mean, abs(a.mean() - b.mean()))
            worst_var = max(worst_var, b.variance() - a.variance())
        worst_sig = max(
            worst_sig,
            sigma_bound(DiscrepancyInstance(ens, tuple(red)))
            - sigma_bound(DiscrepancyInstance(ens, tuple(dists))),
        )
    out.append(_result("two-point-mean-preserved", worst_mean, 1e-12))
    out.append(_result("two-point-variance-nonincreasing", worst_var, 1e-12))
    out.append(_result("two-point-sigma-nonincreasing", worst_sig, 1e-12))

    # shifting any variable by a constant changes nothing that matters
    worst = 0.0
    for _ in range(count // 2):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        ens = trace_capped_ensemble(rng, d, m, 1.0)
        dists = [random_two_valued(rng) for _ in range(m)]
        res = solve_kls(DiscrepancyInstance(ens, tuple(dists)))
        shifts = rng.uniform(-2.0, 2.0, size=m)
        shifted = tuple(dd.shift(float(c)) for dd, c in zip(dists, shifts))
        res2 = solve_kls(DiscrepancyInstance(ens, shifted))
        worst = max(worst, abs(res.sigma - res2.sigma), abs(res.achieved - res2.achieved))
        worst = max(
            worst, max(abs(a - b) for a, b in zip(res.certificate.maxroots, res2.certificate.maxroots))
        )
    out.append(_result("centering-invariance", worst, 1e-9))

    worst = 0.0
    for _ in range(count // 2):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        ens = trace_capped_ensemble(rng, d, m, 1.0)
        dists = [random_two_valued(rng) for _ in range(m)]
        lam = float(rng.uniform(0.3, 3.0))
        res = solve_kls(DiscrepancyInstance(ens, tuple(dists)))
        res2 = solve_kls(DiscrepancyInstance(ens, tuple(dd.rescale(lam) for dd in dists)))
        scale = max(1.0, res.sigma, res.achieved)
        worst = max(
            worst,
            abs(res2.sigma - lam * res.sigma) / scale,
            abs(res2.achieved - lam * res.achieved) / scale,
        )
    out.append(_result("scale-equivariance", worst, 1e-9))
    return out


def suite_hermitian(seed: int = 0, count: int = 30) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(count):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        mats = [
            random_psd(rng, d, trace=float(rng.uniform(0.2, 1.0)))
            - random_psd(rng, d, trace=float(rng.uniform(0.2, 1.0)))
            for _ in range(m)
        ]
        dists = [random_two_valued(rng) for _ in range(m)]
        res = solve_hermitian(mats, dists)
        worst = max(worst, res.achieved - res.bound)
    return [_result("hermitian-within-eight-sigma", worst, TOL_ROOT)]


def suite_lyapunov(seed: int = 0, count: int = 50) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for eps in (0.05, 0.1, 0.25):
        worst = -np.inf
        for _ in range(max(1, count // 3)):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(2, 9))
            ens = trace_capped_ensemble(rng, d, m, eps)
            weights = [float(x) for x in rng.uniform(0.0, 1.0, size=m)]
            sel = lyapunov_select(LyapunovInstance.make(ens, weights))
            worst = max(worst, sel.achieved - sel.bound)
        out.append(_result(f"selection-deviation-eps-{eps}", worst, TOL_ROOT))
    return out


def suite_partition(seed: int = 0, count: int = 30) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_norm = -np.inf
    worst_psd = -np.inf
    worst_two = -np.inf
    bad_cover = 0
    for it in range(count):
        r = 2 if it % 2 == 0 else 3
        d = int(rng.integers(2, 7 if r == 2 else 6))
        m = int(rng.integers(3, 9))
        ens = covering_ensemble(rng, d, m, float(rng.uniform(0.75, 0.95)))
        props = rng.uniform(0.5, 1.5, size=r)
        props = props / props.sum()
        props = list(props[:-1]) + [1.0 - float(np.sum(props[:-1]))]
        res = ks_r_partition(ens, props)
        if sorted(i for b in res.blocks for i in b) != list(range(m)):
            bad_cover += 1
        worst_norm = max(
            worst_norm, max(nm - b for nm, b in zip(res.block_norms, res.bounds))
        )
        worst_psd = max(worst_psd, 0.0 if all(res.upper_cert) else 1.0)
        spread = 2.0 * math.sqrt(r * res.epsilon) + r * res.epsilon
        worst_two = max(worst_two, max(x - spread for x in res.deviations))
    return [
        _result("partition-blocks-cover", float(bad_cover), 0.0),
        _result("partition-norm-bounds", worst_norm, TOL_ROOT),
        _result("partition-psd-certificates", worst_psd, 0.5),
        _result("partition-two-sided-deviation", worst_two, TOL_ROOT),
    ]


def suite_barriers(seed: int = 0, count: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for _ in range(count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        ens = _psd_ensemble(rng, d, m)
        shifts = rng.uniform(0.0, 1.0, size=m)
        x = float(rng.uniform(0.5, 3.0))
        pt = BarrierPoint.make(ens, x, shifts)
        j = int(rng.integers(0, m))
        phi = barrier_value(pt, j)
        h = 1e-6

        def logq(t):
            M = x * np.eye(d, dtype=complex)
            for k, H in enumerate(ens):
                M = M + (shifts[k] + (t if k == j else 0.0)) * H.entries
            sign, val = np.linalg.slogdet(M)
            return val

        fd = (logq(h) - logq(-h)) / (2 * h)
        worst = max(worst, abs(phi - fd) / max(1.0, abs(fd)))
    out.append(_result("barrier-vs-finite-difference", worst, 1e-4))

    bad = 0
    for _ in range(count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        ens = _psd_ensemble(rng, d, m)
        pt = BarrierPoint.make(ens, float(rng.uniform(0.5, 3.0)), rng.uniform(0.0, 1.0, size=m))
        if not barrier_shape_check(pt, int(rng.integers(0, m))).passed:
            bad += 1
    out.append(_result("barrier-shape-checks", float(bad), 0.0))

    out.append(_result("univariate-shift-transfer", _shift_transfer(rng, count), 1e-9))

    bad = 0
    for _ in range(count):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        if not qx_certificate(qx_normalized_ensemble(rng, d, m)).passed:
            bad += 1
    out.append(_result("quadratic-corner-certificates", float(bad), 0.0))
    return out


SUITES = {
    "polynomials": suite_polynomials,
    "oracle": suite_oracle,
    "structural": suite_structural,
    "bounds": suite_bounds,
    "descent": suite_descent,
    "discrepancy": suite_discrepancy,
    "hermitian": suite_hermitian,
    "lyapunov": suite_lyapunov,
    "partition": suite_partition,
    "barriers": suite_barriers,
}


def run_suites(names, seed: int = 0, scale: float = 1.0) -> list[tuple[str, CheckResult]]:
    out = []
    for name in names:
        fn = SUITES[name]
        default = inspect.signature(fn).parameters["count"].default
        count = max(2, int(default * scale))
        for res in fn(seed=seed, count=count):
            out.append((name, res))
    return out
