"""Guard for the benchmark's tracer hooks inside the tier-1 suite.

perfbench/test_smoke.py lies outside this suite's testpaths, so a rename of
a hooked name would otherwise pass here and silently zero the per-layer
metrics.  This file only reads perfbench: it loads its tracer and its
workloads by path.
"""

import ast
import dataclasses
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from interlace import DiscrepancyInstance, SizeGuard, discrepancy, lyapunov
from interlace.descent import TIE_TOL, FiniteDistribution, _run_descent
from interlace.generate import covering_ensemble, random_psd, random_two_valued, trace_capped_ensemble

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "interlace"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_checker_accepts_every_tiny_workload(monkeypatch):
    # the benchmark re-checks each solve itself, reading dist.variance() for
    # sigma, so a change that makes it reject outputs fails here first; and
    # every level past 0 of these pools is decided at its parent's max root,
    # so a tie rule that sends pool traffic to a root report of its own
    # fails here too
    module = _workloads(monkeypatch)
    solves = 0
    for name, cells in module.TINY.items():
        workload = dataclasses.replace(module.WORKLOADS[name], cells=cells, passes=2)
        for seed in (7, 21):
            for case in [case for cases in module.build_pool(workload, seed) for case in cases]:
                res = module.solve(case)
                ratio, _ = module.verify(case, res)
                assert 0.0 <= ratio <= 1.0
                cert = res.solver.certificate if case.solver == "select" else res.certificate
                assert cert.fallback_levels == (), (name, seed, case.shape)
                solves += 1
    assert solves == 24


@pytest.mark.parametrize("d, n", [(6, 10), (8, 11), (10, 12)])
def test_benchmark_checker_accepts_hermitian_solves_up_to_the_block_guard(monkeypatch, d, n):
    # The lift's table is built from its d x d parts, so MAX_DIM bounds d
    # itself: these sizes raised SizeGuard while the 2d x 2d lift was built.
    # At d = 10 the branches have degree 40 and are solved as degree 20.
    module = _workloads(monkeypatch)
    case = module._make_case(np.random.default_rng(d), "hermitian", (d, n))
    res = module.solve(case)
    ratio, _ = module.verify(case, res)
    assert 0.0 < ratio <= 1.0
    assert max(res.certificate.bands) < TIE_TOL


def test_hermitian_past_the_block_guard_names_its_dimension(monkeypatch):
    case = _workloads(monkeypatch)._make_case(np.random.default_rng(11), "hermitian", (11, 4))
    with pytest.raises(SizeGuard, match=r"d=11\b"):
        discrepancy.solve_hermitian(*case.args)


def _skewed(rng, offset, count):
    values = offset + np.sort(rng.uniform(-2.0, 2.0, count))
    probs = rng.dirichlet(np.full(count, 0.5))
    return FiniteDistribution.make(values, probs / probs.sum())


def _skewed_inputs() -> dict:
    # every kls workload draws two-point signs, so the reduction and the
    # centering far from 0 run only here
    signs = FiniteDistribution.fair_signs()
    inputs = {
        "collapse": (
            trace_capped_ensemble(np.random.default_rng(1), 3, 2, 1.0),
            [FiniteDistribution.make([1e8 - 1.0, 1e8 + 5e-5, 1e8 + 1.0], [0.25, 0.5, 0.25])] * 2,
        ),
        "adjacent": (
            trace_capped_ensemble(np.random.default_rng(1), 3, 3, 1.0),
            [FiniteDistribution.make([-0.7015088565858767, -0.7015088565858766, 1.0], [0.3, 0.3, 0.4]), signs, signs],
        ),
    }
    rng = np.random.default_rng(29)
    for label, offset in (("0", 0.0), ("1e4", 1e4), ("1e8", 1e8)):
        dists = [_skewed(rng, offset, int(rng.integers(3, 5))) for _ in range(4)]
        inputs[f"offset-{label}"] = (trace_capped_ensemble(rng, 3, 4, 1.0), dists)
    return inputs


@pytest.mark.parametrize("name", _skewed_inputs())
def test_benchmark_checker_accepts_skewed_variables(monkeypatch, name):
    # The checker's bound is 4 sigma of the variables in its case, so the
    # solve on the given values is checked against them, and the reduced
    # solve against the reduced variables, which must keep the given means.
    module = _workloads(monkeypatch)
    E, dists = _skewed_inputs()[name]
    given = DiscrepancyInstance(E, tuple(dists))
    reduced = DiscrepancyInstance(E, tuple(discrepancy.two_point_reduction(dist) for dist in dists))
    solves = ((given, discrepancy.solve_kls(given, reduce=False)), (reduced, discrepancy.solve_kls(given)))
    for case_inst, res in solves:
        ratio, _ = module.verify(module.Case("kls", (E.dim, len(E)), (case_inst,)), res)
        assert 0.0 < ratio <= 1.0


def test_every_tracer_hook_resolves():
    assert _tracing().Tracer().absent_hooks == []


def _unused_package_imports(path: Path) -> set[str]:
    """Names a module imports from the package and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("interlace")):
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_package_import_is_used_or_hooked():
    # A name imported from the package and never used is dead, unless the
    # tracer rebinds it in that namespace.  __init__ imports only to export.
    hooked = {(module, attr.split(".")[0]) for _, module, attr in _tracing().HOOKS}
    dead = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in sorted(_unused_package_imports(path))
        if (f"interlace.{path.stem}", name) not in hooked
    ]
    assert dead == []


def test_run_descent_keeps_the_parameters_the_tracer_binds():
    assert {"num_levels", "branch_poly"} <= inspect.signature(_run_descent).parameters.keys()


def test_every_max_root_is_certified_inside_the_hooked_names():
    # one root_report per descent, after the last level (level 0's branches,
    # the root polynomial as one more row, then every later level's rows;
    # level 0 is decided at a bound on its max roots and every later level
    # at its parent's max root, with no fallback here) and one
    # maxroot_certified, seeded from that report and running none of its
    # own: certification work moved out of these names would show here
    # rather than as a drop in their self time
    rng = np.random.default_rng(5)
    inst = DiscrepancyInstance(trace_capped_ensemble(rng, 3, 4, 1.0), tuple(random_two_valued(rng) for _ in range(4)))
    tracer = _tracing().Tracer()
    with tracer.installed():
        res = discrepancy.solve_kls(inst)
    spans = Counter(span[0] for span in tracer.spans)
    assert tracer.counts["descent.levels"] == 4
    assert res.certificate.fallback_levels == ()
    assert spans["polynomials.maxroot"] == 1
    assert spans["polynomials.root_report"] == 1
    # no full kernel pass: the branches are read from the level engine inside
    # the descent, and the root polynomial is their level-0 mixture
    assert spans["mixedchar.assemble"] == 0


def test_partition_convolves_every_branch_inside_the_hooked_name():
    # one table build per partition, through the name the tracer rebinds,
    # and no subset convolution: the branches are read from the level
    # engine, which contracts each committed index out of its zeta
    # transforms, and the root polynomial is their level-0 mixture
    rng = np.random.default_rng(5)
    tracer = _tracing().Tracer()
    with tracer.installed():
        lyapunov.ks_r_partition(covering_ensemble(rng, 2, 5, 0.9), [0.4, 0.6])
    spans = Counter(span[0] for span in tracer.spans)
    assert tracer.counts["descent.levels"] == 5
    assert tracer.counts["descent.branches"] == 10
    assert spans["lyapunov.convolve"] == 0
    assert spans["mixedchar.table_build"] == 1
    # per block, one eigensolve for the norm and one for D_k = sum_{I_k} A - t_k sum A,
    # which gives both the deviation and the PSD certificate: 2r in all
    assert spans["linalg.eigensolve"] == 4


def _lyapunov_select(rng):
    # weights 0 and 1 are point masses: one branch each
    weights = [0.3, 1.0, 0.5, 0.0, 0.7]
    inst = lyapunov.LyapunovInstance.make(trace_capped_ensemble(rng, 2, 5, 0.25), weights)
    return lambda: lyapunov.lyapunov_select(inst).solver.certificate, [FiniteDistribution.bernoulli(t) for t in weights]


def _solve_hermitian(rng):
    mats = [random_psd(rng, 2) - random_psd(rng, 2) for _ in range(4)]
    dists = [random_two_valued(rng), FiniteDistribution.point_mass(0.5), random_two_valued(rng), random_two_valued(rng)]
    return lambda: discrepancy.solve_hermitian(mats, dists).certificate, dists


@pytest.mark.parametrize("make", [_lyapunov_select, _solve_hermitian], ids=["lyapunov_select", "solve_hermitian"])
def test_small_mix_solvers_count_every_level_and_branch(make):
    # the two small-mix solvers besides solve_kls: one level per variable,
    # one branch per support value, one root report per descent after the
    # last level (level 0's rows with the root polynomial as one more row,
    # then the rows of every later level, none of which falls back to a
    # report of its own here) and one enclosure per descent
    solve, dists = make(np.random.default_rng(5))
    tracer = _tracing().Tracer()
    with tracer.installed():
        cert = solve()
    spans = Counter(span[0] for span in tracer.spans)
    assert tracer.counts["descent.levels"] == len(dists)
    assert tracer.counts["descent.branches"] == sum(len(dist.support()) for dist in dists)
    assert cert.fallback_levels == ()
    assert spans["polynomials.maxroot"] == 1
    assert spans["polynomials.root_report"] == 1
