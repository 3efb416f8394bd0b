import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    NotMonic,
    NotRealRooted,
    RealPolynomial,
    SubsetTable,
    maxroot_certified,
    rank_one_completion,
    root_report,
    root_scaling,
)
from interlace.descent import FiniteDistribution
from interlace.generate import random_psd
from interlace.mixedchar import ProductLevels
from interlace.polynomials import _newton_polish, evaluate_bounded


def P(*coeffs):
    return RealPolynomial.from_coeffs(coeffs)


def test_mul_difference_of_squares():
    assert (P(-1, 1) * P(1, 1)).coeffs == (-1.0, 0.0, 1.0)


def test_scale():
    assert P(-1, 0, 1).scale(2).coeffs == (-2.0, 0.0, 2.0)


def test_add_sub_zero():
    p = P(1, 2, 3)
    assert (p - p).is_zero
    assert (p + P()).coeffs == p.coeffs


def test_reflect_examples():
    assert P(-2, 1).reflect().coeffs == (2.0, 1.0)
    assert P(-1, 0, 1).reflect().coeffs == (-1.0, 0.0, 1.0)
    assert P(3, -4, 1).reflect().coeffs == (3.0, 4.0, 1.0)


def test_reflect_involution_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = RealPolynomial.from_coeffs(rng.uniform(-3, 3, size=int(rng.integers(1, 9))))
        if p.is_zero:
            continue
        assert p.reflect().reflect().coeffs == p.coeffs


def test_root_scaling_examples():
    assert root_scaling(P(-1, 1), 3.0).coeffs == (-3.0, 1.0)
    assert root_scaling(P(-1, 0, 1), 2.0).coeffs == (-4.0, 0.0, 1.0)
    assert root_scaling(P(0, 0, 1), 5.0).coeffs == (0.0, 0.0, 1.0)
    with pytest.raises(NotMonic):
        root_scaling(P(1, 2), 2.0)


# an infinite trace cap is allowed: it gives one piece per eigenvalue
HELPERS = {
    "root_scaling": (lambda t: root_scaling(P(-1, 0, 1), t), (0.0, -1.0, math.nan, math.inf, -math.inf)),
    "rank_one_completion": (lambda eps: rank_one_completion(np.diag([0.5, 0.25]), eps), (0.0, -1.0, math.nan, -math.inf)),
}


@pytest.mark.parametrize("helper, value", [(name, v) for name, (_, bad) in HELPERS.items() for v in bad])
def test_public_helpers_reject_a_non_finite_or_non_positive_argument(helper, value):
    # a NaN once passed both guards: root_scaling returned NaN coefficients
    # (and (-inf, nan, 1) at t = inf), rank_one_completion failed converting NaN to an integer
    with pytest.raises(ValueError, match="must be"):
        HELPERS[helper][0](value)


def test_root_scaling_maxroot_property():
    rng = np.random.default_rng(1)
    for _ in range(100):
        roots = rng.uniform(-3, 3, size=int(rng.integers(1, 7)))
        p = RealPolynomial.from_coeffs(np.poly(roots)[::-1])
        mr = root_report([p], 1e-6)[0].maxroot
        for t in (0.1, 2.0, 10.0):
            got = root_report([root_scaling(p, t)], 1e-6)[0].maxroot
            assert got == pytest.approx(t * mr, rel=1e-8, abs=1e-8)


def test_root_report_repeated_root():
    rep = root_report([P(1, -2, 1)])[0]
    assert rep.real_rooted
    assert rep.maxroot == pytest.approx(1.0, abs=1e-9)


def test_root_report_complex_case():
    rep = root_report([P(2, 0, 1)])[0]  # roots +-i sqrt(2)
    assert not rep.real_rooted
    assert rep.max_imag_residual == pytest.approx(np.sqrt(2), abs=1e-9)


def test_root_report_trace_monomial_case():
    # x^(d-1) (x - tau), d = 3, tau = 2
    p = P(0, 0, -2, 1)
    rep = root_report([p])[0]
    assert rep.real_rooted
    assert rep.maxroot == pytest.approx(2.0, abs=1e-9)
    assert rep.minroot == pytest.approx(0.0, abs=1e-12)


def test_root_report_rejects_constants():
    with pytest.raises(ValueError):
        root_report([P(3.0)])


def test_maxroot_certified_examples():
    # a double root bounds the certified upper end at about sqrt(eps) above
    lo, hi = maxroot_certified([P(1, -2, 1)])[0]
    assert lo <= 1.0 <= hi <= 1.0 + 2e-7
    lo, hi = maxroot_certified([P(-4, 0, 1)])[0]
    assert lo <= 2.0 <= hi <= lo + 1e-10
    with pytest.raises(NotRealRooted):
        maxroot_certified([P(2, 0, 1)])


def test_maxroot_certified_matches_companion():
    # separated roots: agreement at 1e-9 is not achievable for companion
    # methods at near-multiple roots, which is why certification exists
    rng = np.random.default_rng(2)
    for _ in range(100):
        deg = int(rng.integers(1, 8))
        roots = rng.choice(np.arange(-6, 7), size=deg, replace=False) + rng.uniform(-0.2, 0.2, deg)
        p = RealPolynomial.from_coeffs(np.poly(roots)[::-1])
        a = maxroot_certified([p], rootedness_tol=1e-6)[0]
        b = root_report([p], 1e-6)[0].maxroot
        assert a.hi == pytest.approx(b, abs=1e-9)
        assert a.lo == pytest.approx(b, abs=1e-9)


def test_maxroot_certified_multiple_root_cluster():
    # (x-1)^3 (x+2): companion roots of the triple cluster spread, the
    # enclosure still holds the root; its upper end sits about eps^(1/3) above
    p = RealPolynomial.from_coeffs(np.poly([1.0, 1.0, 1.0, -2.0])[::-1])
    lo, hi = maxroot_certified([p], rootedness_tol=1e-6)[0]
    assert lo <= 1.0 <= hi <= 1.0 + 1e-4
    rep = root_report([p], 1e-7)[0]
    assert rep.real_rooted  # realness rescue covers the noisy triple root


def test_derivative_shift_property():
    # x0 above the roots of p + c p' implies x0 + c above the roots of p
    rng = np.random.default_rng(3)
    for _ in range(100):
        roots = rng.uniform(-3, 3, size=int(rng.integers(2, 7)))
        p = RealPolynomial.from_coeffs(np.poly(roots)[::-1])
        c = float(rng.choice([-0.5, 0.5, 1.0]))
        q = p + p.derivative().scale(c)
        x0 = root_report([q], 1e-6)[0].maxroot + 1e-6
        assert root_report([p], 1e-6)[0].maxroot <= x0 + c + 1e-9


def _exact_taylor(p, x):
    """p^(j)(x) / j! for j = 0..deg, from the float coefficients at 60 digits."""
    with mpmath.workdps(60):
        a = [mpmath.mpf(c) for c in reversed(p.coeffs)]
        x = mpmath.mpf(x)
        n = len(a) - 1
        for j in range(n):
            for i in range(1, n + 1 - j):
                a[i] += a[i - 1] * x
        return a[::-1]


def _exact_enclosure_holds(p, lo, hi):
    """Exact signs behind lo <= max root <= hi.

    Every Taylor coefficient of p positive at hi (leading sign normalised)
    puts hi above every real root; a negative one at lo puts lo below the
    max root, since the derivatives' roots interlace.
    """
    sign = 1 if p.leading() > 0 else -1
    above = all(sign * t > 0 for t in _exact_taylor(p, hi))
    below = any(sign * t < 0 for t in _exact_taylor(p, lo))
    return above and below


def _top_roots(kind, rng):
    if kind == "spread":
        return rng.uniform(-1.0, 2.0, 8)
    if kind == "clustered":
        return np.concatenate([1.5 + 1e-4 * rng.standard_normal(3), rng.uniform(-1.0, 1.0, 5)])
    values = rng.choice([-1.0, -0.5, 0.5, 1.0, 1.5, 2.0], 3, replace=False)
    return values.repeat(rng.integers(1, 4, 3))  # exact multiples, exact coefficients


@pytest.mark.parametrize("kind", ["spread", "clustered", "multiple"])
def test_maxroot_enclosure_holds_the_exact_root(kind):
    # the nonzero roots sit on an exact zero root of rising multiplicity, so
    # the degree reaches 48 while the polynomial stays real-rooted in float
    rng = np.random.default_rng(11)
    for degree in (2, 5, 8, 12, 16, 24, 32, 40, 48):
        top = _top_roots(kind, rng)[:degree]
        roots = np.concatenate([top, np.zeros(degree - len(top))])
        scale = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
        p = RealPolynomial.from_coeffs(np.poly(roots)[::-1] * scale)
        lo, hi = maxroot_certified([p], rootedness_tol=1e-6)[0]
        assert lo < hi
        assert _exact_enclosure_holds(p, lo, hi), (kind, degree, lo, hi)
        if kind == "multiple":
            assert lo <= roots.max() <= hi


def test_maxroot_enclosure_degree_20_spread_roots():
    # roots uniform on [-1, 2]: the Horner-undecided band is 2.4e-6 wide,
    # and its lower edge lies 1.1e-6 below the exact max root
    roots = np.random.default_rng(0).uniform(-1.0, 2.0, 20)
    p = RealPolynomial.from_coeffs(np.poly(roots)[::-1])
    with mpmath.workdps(60):
        exact = max(
            mpmath.re(z)
            for z in mpmath.polyroots([mpmath.mpf(c) for c in reversed(p.coeffs)], maxsteps=200, extraprec=200)
        )
    lo, hi = maxroot_certified([p], rootedness_tol=1e-6)[0]
    assert lo <= exact <= hi
    assert hi - lo < 1e-5


def _per_root_newton(desc, r):
    p = np.polyval(desc, r)
    dp = np.polyval(np.polyder(desc), r)
    if abs(dp) <= 1e-300 or abs(dp) * 1e12 < abs(p):
        return r
    step = p / dp
    if abs(step) > 1.0 + abs(r):
        return r
    return r - step


def test_root_report_polish_matches_per_root_newton_bit_for_bit():
    # An exactly even p = q(x^2) is solved through q: its reference is
    # per-root Newton on q's np.roots, mapped to +-sqrt(y).
    rng = np.random.default_rng(4)
    cases = [P(1, -2, 1), P(2, 0, 1), P(0, 0, -2, 1), P(-1, 0, 0, 0, 1)]
    for _ in range(60):
        degree = int(rng.integers(1, 25))
        roots = rng.uniform(-2.0, 2.0, degree)
        roots[: degree // 3] = roots[0]  # a multiple root
        cases.append(RealPolynomial.from_coeffs(np.poly(roots)[::-1] * rng.uniform(-3.0, 3.0)))
        cases.append(RealPolynomial.from_coeffs(rng.standard_normal(degree + 1)))
    even_cases = []
    for p in cases:
        rep = root_report([p], 1e-7)[0]
        asc = list(p.coeffs)
        zeros = 0
        while asc[0] == 0.0:
            asc.pop(0)
            zeros += 1
        if not any(p.coeffs[1::2]):
            even_cases.append(p)
            desc = np.array(asc[::2][::-1])
            ys = [complex(_per_root_newton(desc, r)) for r in np.roots(desc)]
            want = [0j] * zeros + [cmath.sqrt(y) for y in ys] + [-cmath.sqrt(y) for y in ys]
        else:
            desc = np.array(asc[::-1])
            want = [0j] * zeros + [complex(_per_root_newton(desc, r)) for r in np.roots(desc)]
        if rep.max_imag_residual == max(abs(z.imag) for z in want):
            assert rep.roots == tuple(want)
        else:  # accepted through the realness rescue, which keeps real parts
            assert rep.roots == tuple(complex(z.real) for z in want)
        assert rep.maxroot == max(z.real for z in want)
        assert rep.minroot == min(z.real for z in want)
    assert even_cases == [P(2, 0, 1), P(-1, 0, 0, 0, 1)]


def test_newton_polish_rules_match_per_root_newton_bit_for_bit():
    # points chosen to reach every rule and its threshold: a critical point
    # (p' = 0), p/p' above 1e12, steps just over 1 + |r| (x = 0.3 on x^2 - 1)
    # and far from the root (x = 1e12, where p/p' = 5e11 < |r|), and plain
    # Newton steps
    rng = np.random.default_rng(6)
    moved = []
    for desc in (np.array([1.0, 0.0, -1.0]), np.array([1.0, 0.0, 1e13]), rng.standard_normal(9)):
        crit = np.roots(np.polyder(desc))
        raw = np.concatenate([crit, [0.0, 1e-3, 0.01, 0.3, 3.0, 1e12, 1e13], rng.uniform(-2, 2, 8) + 1j * rng.uniform(-1, 1, 8)])
        want = [_per_root_newton(desc, r) for r in raw]
        got = _newton_polish(desc[None], raw[None])[0]
        assert [complex(z) for z in got] == [complex(z) for z in want]
        moved.extend(got != raw)
    assert any(moved) and not all(moved)


def _classify_passes(monkeypatch):
    """Row count of every stacked _classify pass, recorded as they run."""
    from interlace import polynomials

    passes = []
    original = polynomials._classify

    def counting(chain, *args):
        passes.append(chain.shape[0])
        return original(chain, *args)

    monkeypatch.setattr(polynomials, "_classify", counting)
    return passes


def _mp_roots(p):
    """Roots of p's float coefficients, taken as exact, at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.polyroots([mpmath.mpf(c) for c in reversed(p.coeffs)], maxsteps=500, extraprec=500)


def _bits(results):
    return [tuple(x.hex() for x in result) for result in results]


# (roots, scale) per row.  Dyadic roots keep np.poly's coefficients exact,
# so the near-double pairs stay real in exact arithmetic.
STACK_ROWS = {
    "two zero roots, negative lead": ([1.5, -0.5, 0.25, 0.0, 0.0], -2.5),
    "near-double, rescued": ([0.75, 0.75 + 2.0**-28, -1.0], 1.0),
    "near-double, four tightening passes": ([2.25, 2.25 + 2.0**-22, -1.0], 1.0),
    "degree 8, one zero root": ([-1.0, -0.625, -0.25, 0.0, 0.375, 0.875, 1.375, 1.875], 0.5),
    "monomial": ([0.0] * 4, 3.0),
    "degree 5, negative lead": ([-2.0, -1.0, 0.5, 1.0, 2.5], -1.0),
}


def _stack_polys():
    return [RealPolynomial.from_coeffs(np.poly(roots)[::-1] * scale) for roots, scale in STACK_ROWS.values()]


def test_stacked_certifier_encloses_the_50_digit_max_root_of_every_row(monkeypatch):
    polys = _stack_polys()
    passes = _classify_passes(monkeypatch)
    stacked = maxroot_certified(polys)
    # rows of one degree share each pass: degrees 5, 3, 3, 8, 4 and 5 make
    # four groups, and the largest holds two rows
    assert max(passes) == 2
    for name, p, (lo, hi) in zip(STACK_ROWS, polys, stacked):
        roots = _mp_roots(p)
        assert max(abs(mpmath.im(z)) for z in roots) < 1e-30, name
        top = max(mpmath.re(z) for z in roots)
        assert lo < top < hi, name
        assert hi - lo < 1e-6, name


def test_stacked_certifier_rows_match_one_row_calls_bit_for_bit(monkeypatch):
    polys = _stack_polys()
    stacked = maxroot_certified(polys)
    reports = root_report(polys)
    for p, root, report in zip(polys, stacked, reports):
        assert _bits(maxroot_certified([p])) == _bits([root])
        assert root_report([p]) == [report]
    names = list(STACK_ROWS)
    # zero roots are stripped before the eigensolve and reported exactly
    assert reports[names.index("two zero roots, negative lead")].roots[:2] == (0j, 0j)
    assert reports[names.index("monomial")].roots == (0j,) * 4
    rescued = polys[names.index("near-double, rescued")]
    companion = np.roots(rescued.coeffs[::-1])
    assert np.abs(companion.imag).max() > 1e-9 * (1.0 + np.abs(companion).max())  # strict test fails
    assert reports[names.index("near-double, rescued")].real_rooted  # and the rescue accepts it
    # the seeded pass and four tightening passes for this row alone, fewer
    # for its degree-3 neighbour, which leaves the shared stack early
    passes = _classify_passes(monkeypatch)
    maxroot_certified([polys[names.index("near-double, four tightening passes")]])
    assert len(passes) == 5
    passes.clear()
    maxroot_certified([rescued])
    assert len(passes) < 5


def test_root_report_rows_of_a_mixed_stack_match_one_row_calls():
    # one eigensolve returns complex values for the whole stack when any
    # row has a complex pair; every row still reports what it reports alone
    rng = np.random.default_rng(8)
    polys = []
    for k in range(40):
        roots = rng.uniform(-2.0, 2.0, 7)
        if k % 2:
            roots[1] = roots[0]  # a double root: usually a complex companion pair
        polys.append(RealPolynomial.from_coeffs(np.poly(roots)[::-1]))
    kinds = {np.iscomplexobj(np.roots(p.coeffs[::-1])) for p in polys}
    assert kinds == {False, True}
    assert root_report(polys, 1e-7) == [root_report([p], 1e-7)[0] for p in polys]


def test_stacked_certifier_names_the_first_non_real_row():
    polys = _stack_polys()
    complex_pair = P(2, 0, 1)  # roots +-i sqrt(2)
    with pytest.raises(NotRealRooted, match="residual") as exc:
        maxroot_certified(polys[:2] + [complex_pair] + polys[2:] + [complex_pair])
    assert exc.value.row == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True),
            st.integers(0, 2),
            st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_stacked_certifier_matches_one_row_calls_on_integer_roots(rows):
    # integer roots (at most one repeated) keep the coefficients exact, so
    # max(roots) is the exact max root of every row
    polys, tops = [], []
    for roots, extra_zeros, scale in rows:
        roots = roots + roots[:1] + [0] * extra_zeros
        polys.append(RealPolynomial.from_coeffs(np.poly(roots)[::-1] * scale))
        tops.append(max(roots))
    singles = []
    for p in polys:
        try:
            singles.append(maxroot_certified([p])[0])
        except NotRealRooted:
            singles.append(None)
    if None in singles:
        with pytest.raises(NotRealRooted) as exc:
            maxroot_certified(polys)
        assert exc.value.row == singles.index(None)
        return
    stacked = maxroot_certified(polys)
    assert _bits(stacked) == _bits(singles)
    for (lo, hi), top in zip(stacked, tops):
        assert lo < top < hi


def _even(pairs, zero_pairs=0, scale=1.0):
    """scale x^(2 zero_pairs) prod (x^2 - r^2): exact for dyadic r."""
    roots = [s * r for r in pairs for s in (1.0, -1.0)] + [0.0] * (2 * zero_pairs)
    return RealPolynomial.from_coeffs(np.poly(roots)[::-1] * scale)


def _eigvals_shapes(monkeypatch):
    """Shapes of the stacks passed to np.linalg.eigvals, as they are solved."""
    shapes = []
    real = np.linalg.eigvals

    def recording(a):
        shapes.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    return shapes


def test_root_report_solves_an_even_degree_14_row_as_7x7(monkeypatch):
    shapes = _eigvals_shapes(monkeypatch)
    p = _even([0.25 * k for k in range(1, 8)])
    assert p.degree == 14 and not any(p.coeffs[1::2])
    rep = root_report([p])[0]
    assert shapes == [(1, 7, 7)]
    assert rep.real_rooted and rep.maxroot == -rep.minroot == pytest.approx(1.75, abs=1e-12)
    # one odd coefficient of 2^-60 is not exactly even: the row keeps its degree
    shapes.clear()
    root_report([RealPolynomial.from_coeffs(p.coeffs[:1] + (2.0**-60,) + p.coeffs[2:])])
    assert shapes == [(1, 14, 14)]
    # an engine branch at d = 7 is one such row
    shapes.clear()
    rng = np.random.default_rng(3)
    dist = FiniteDistribution.make([-1.0, 2.0], [0.6, 0.4])
    table = SubsetTable.build([random_psd(rng, 7) for _ in range(8)])
    branch = RealPolynomial.from_coeffs(ProductLevels(table, [dist.deviations()] * 8, [dist.variance()] * 8).branch(2.0))
    root_report([branch])
    assert branch.degree == 14 and shapes == [(1, 7, 7)]


def test_root_report_pairs_near_zero_come_out_as_exact_pairs():
    # a pair +-sqrt(y) down to y = 2^-40 is one root of q, not a cluster
    for k in range(0, 41, 4):
        y = 2.0**-k
        p = _even([math.sqrt(y), 1.5])
        rep = root_report([p])[0]
        assert rep.real_rooted and rep.max_imag_residual == 0.0
        roots = sorted(z.real for z in rep.roots)
        assert roots == [-z for z in roots[::-1]]  # exact +- pairs
        assert roots[2] == pytest.approx(math.sqrt(y), rel=1e-12)
        assert rep.maxroot == pytest.approx(1.5, rel=1e-15)


def test_root_report_strips_even_zero_factors_exactly():
    for k in range(1, 5):
        p = _even([0.5, 1.25], zero_pairs=k, scale=-3.0)
        rep = root_report([p])[0]
        assert rep.roots[: 2 * k] == (0j,) * (2 * k)
        assert sorted(z.real for z in rep.roots[2 * k :]) == [-1.25, -0.5, 0.5, 1.25]
        assert (rep.maxroot, rep.minroot) == (1.25, -1.25)


def test_a_negative_y_is_not_real_rooted_and_names_its_row():
    # (x^2 + 2)(x^2 - 1): y = -2 gives the pair +-i sqrt(2)
    bad = P(-2, 0, 1, 0, 1)
    rep = root_report([bad])[0]
    assert not rep.real_rooted
    assert rep.max_imag_residual == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert sorted(rep.roots, key=lambda z: (z.real, z.imag)) == pytest.approx(
        [-1.0, -1j * math.sqrt(2.0), 1j * math.sqrt(2.0), 1.0], abs=1e-12
    )
    odd = RealPolynomial.from_coeffs(np.poly([0.5, -1.0, 1.0, 1.5])[::-1])
    stack = [_even([0.5, 1.0]), odd, bad, _even([0.25, 2.0]), bad]
    with pytest.raises(NotRealRooted, match="residual") as exc:
        maxroot_certified(stack)
    assert exc.value.row == 2


def test_even_rows_of_a_mixed_stack_match_one_row_calls_bit_for_bit():
    # even and non-even rows of one degree and zero count form two groups
    polys = [
        _even([0.5, 1.0]),
        RealPolynomial.from_coeffs(np.poly([0.5, -1.0, 1.0, 1.5])[::-1]),
        _even([0.25, 2.0], scale=-2.0),
        _even([2.0**-20, 0.75]),
        _even([0.5, 0.5]),  # a double y, rescued
        _even([1.5], zero_pairs=1),
        RealPolynomial.from_coeffs(np.poly([0.0, 0.0, 1.0, 2.0])[::-1]),
    ]
    stacked = maxroot_certified(polys)
    reports = root_report(polys)
    for p, root, report in zip(polys, stacked, reports):
        assert root_report([p]) == [report]
        assert _bits(maxroot_certified([p])) == _bits([root])


@pytest.mark.parametrize("zero_pairs", [0, 1, 3])
def test_even_rows_enclose_the_50_digit_max_root(zero_pairs):
    pairs = [2.0**-20, 0.375, 0.75, 0.75 + 2.0**-24, 1.625]
    p = _even(pairs, zero_pairs=zero_pairs, scale=-1.5)
    (lo, hi), = maxroot_certified([p])
    top = max(mpmath.re(z) for z in _mp_roots(p))
    assert lo < top < hi
    assert hi - lo < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 32), min_size=1, max_size=5, unique=True),
    st.integers(0, 2),
    st.sampled_from([-2.0, -0.5, 1.0, 4.0]),
)
def test_even_rows_of_dyadic_pairs_are_certified(numerators, zero_pairs, scale):
    # dyadic pairs r = k / 16 keep q's coefficients exact: its roots are
    # exactly r^2, and the report gives them back as +-r
    pairs = [k / 16.0 for k in numerators]
    p = _even(pairs, zero_pairs=zero_pairs, scale=scale)
    rep = root_report([p])[0]
    assert rep.real_rooted
    nonzero = sorted(z.real for z in rep.roots[2 * zero_pairs :])
    assert nonzero == [-z for z in nonzero[::-1]]
    assert nonzero == pytest.approx(sorted(s * r for r in pairs for s in (1.0, -1.0)), abs=1e-9)
    lo, hi = maxroot_certified([p])[0]
    assert lo < max(pairs) < hi
    stacked = maxroot_certified([p, P(-1, 0, 1), p])
    assert _bits([stacked[0], stacked[2]]) == _bits([(lo, hi)] * 2)


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=16),
    at=st.integers(0, 15),
    offset=st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, 0.5]),
    exponent=st.sampled_from([-1070, -1000, -300, 0, 300]),
)
def test_horner_value_stays_inside_its_error_bound(roots, at, offset, exponent):
    # clustered and repeated roots, points on and next to a root where the
    # value cancels to nothing, and coefficients scaled down to subnormal
    # values or up near overflow: the value of the float coefficients at the
    # float point, in 50-digit mpmath, is never farther than the bound
    coeffs = [math.ldexp(c, exponent) for c in np.poly(roots)[::-1]]
    x = roots[at % len(roots)] + offset
    value, bound = evaluate_bounded(coeffs, x)
    assert math.isfinite(value) and bound >= 0.0
    with mpmath.workdps(50):
        exact = mpmath.polyval([mpmath.mpf(c) for c in coeffs[::-1]], mpmath.mpf(x))
        assert abs(mpmath.mpf(value) - exact) <= bound
