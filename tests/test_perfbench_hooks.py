"""Guard for the benchmark's tracer hooks inside the tier-1 suite.

perfbench/test_smoke.py lies outside this suite's testpaths, so a rename of
a hooked name would otherwise pass here and silently zero the per-layer
metrics.  This file only reads perfbench: it loads its tracer by path.
"""

import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from interlace import DiscrepancyInstance, discrepancy, lyapunov
from interlace.descent import FiniteDistribution, _run_descent
from interlace.generate import covering_ensemble, random_psd, random_two_valued, trace_capped_ensemble

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves():
    assert _tracing().Tracer().absent_hooks == []


def test_run_descent_keeps_the_parameters_the_tracer_binds():
    assert {"num_levels", "branch_poly"} <= inspect.signature(_run_descent).parameters.keys()


def test_every_max_root_is_certified_inside_the_hooked_names():
    # one maxroot_certified call, with one root_report inside it, per level
    # (the level's branches certified as one stack, level 0's with the root
    # polynomial as one more row): certification work moved out of these
    # names would show here rather than as a drop in their self time
    rng = np.random.default_rng(5)
    inst = DiscrepancyInstance(trace_capped_ensemble(rng, 3, 4, 1.0), tuple(random_two_valued(rng) for _ in range(4)))
    tracer = _tracing().Tracer()
    with tracer.installed():
        discrepancy.solve_kls(inst)
    spans = Counter(span[0] for span in tracer.spans)
    assert tracer.counts["descent.levels"] == 4
    assert spans["polynomials.maxroot"] == tracer.counts["descent.levels"]
    assert spans["polynomials.root_report"] == tracer.counts["descent.levels"]
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
    return lambda: lyapunov.lyapunov_select(inst), [FiniteDistribution.bernoulli(t) for t in weights]


def _solve_hermitian(rng):
    mats = [random_psd(rng, 2) - random_psd(rng, 2) for _ in range(4)]
    dists = [random_two_valued(rng), FiniteDistribution.point_mass(0.5), random_two_valued(rng), random_two_valued(rng)]
    return lambda: discrepancy.solve_hermitian(mats, dists), dists


@pytest.mark.parametrize("make", [_lyapunov_select, _solve_hermitian], ids=["lyapunov_select", "solve_hermitian"])
def test_small_mix_solvers_count_every_level_and_branch(make):
    # the two small-mix solvers besides solve_kls: one level per variable,
    # one branch per support value, and one certified stack per level, the
    # root polynomial being one more row of level 0's
    solve, dists = make(np.random.default_rng(5))
    tracer = _tracing().Tracer()
    with tracer.installed():
        solve()
    spans = Counter(span[0] for span in tracer.spans)
    assert tracer.counts["descent.levels"] == len(dists)
    assert tracer.counts["descent.branches"] == sum(len(dist.support()) for dist in dists)
    assert spans["polynomials.maxroot"] == tracer.counts["descent.levels"]
    assert spans["polynomials.root_report"] == tracer.counts["descent.levels"]
