"""Seeded solve benchmark for interlace.

Run from the repository root:

    python3 perfbench/run.py --workload kls-deep --seed 1 --seconds 20 --trace 0

One process and one caller in a closed loop: the next solve starts when the
previous one returns.  Every solve is re-verified.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The lines before it record the environment, the run (failure
classes, output digest, tail latency) and, when tracing, the layer shares.
See perfbench/README.md for what each metric should move.
"""

import os

# Pinned before numpy loads: the benchmark measures one single-threaded caller.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing

ROOT = Path.cwd()
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
# p90 is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "solve_ref.mean": "ref",
    "solve_ref.p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bound_ratio.mean": "ratio",
}
PER_LAYER_UNITS = {
    "mixedchar.table_build.calls": "count",
    "mixedchar.table_build.self_s": "s",
    "mixedchar.assemble.calls": "count",
    "mixedchar.assemble.self_s": "s",
    "lyapunov.convolve.calls": "count",
    "lyapunov.convolve.self_s": "s",
    "lyapunov.self_s": "s",
    "polynomials.companion_solves": "count",
    "polynomials.root_report.self_s": "s",
    "polynomials.maxroot.self_s": "s",
    "descent.branches": "count",
    "descent.levels": "count",
    "descent.self_s": "s",
    "discrepancy.self_s": "s",
    "linalg.eigensolve.calls": "count",
    "linalg.eigensolve.self_s": "s",
    "linalg.validate.self_s": "s",
    "linalg.validate.setup_s": "s",
    "trace.solve_s.mean": "s",
    "trace.overhead_frac": "ratio",
}
# Layer (or group of layers) predicted to take the largest share of a solve.
PREDICTED_DOMINANT = {
    "kls-deep": ("mixedchar.table_build",),
    "kls-wide": ("mixedchar.assemble",),
    "partition": ("lyapunov.convolve",),
    "small-mix": ("polynomials.root_report", "polynomials.maxroot", "descent"),
}


def _import_program():
    """Import interlace from ./src and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import interlace
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import interlace from {src}: {exc}")
    if not Path(interlace.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: interlace was imported from {interlace.__file__}, not {src}")


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _per_layer(tracer, out: "Measurement") -> tuple[dict, dict]:
    """Per-solve layer metrics over the traced solves, and the layer shares."""
    time, calls = tracing.layer_totals(tracer.spans, out.traced_ids)
    setup_time, _ = tracing.layer_totals(tracer.spans, {-1})
    n = len(out.traced_ids)
    mean_solve = out.busy[True] / n
    values = {
        "mixedchar.table_build.calls": calls["mixedchar.table_build"] / n,
        "mixedchar.table_build.self_s": time["mixedchar.table_build"] / n,
        "mixedchar.assemble.calls": calls["mixedchar.assemble"] / n,
        "mixedchar.assemble.self_s": time["mixedchar.assemble"] / n,
        "lyapunov.convolve.calls": calls["lyapunov.convolve"] / n,
        "lyapunov.convolve.self_s": time["lyapunov.convolve"] / n,
        "lyapunov.self_s": time["lyapunov"] / n,
        "polynomials.companion_solves": calls["polynomials.root_report"] / n,
        "polynomials.root_report.self_s": time["polynomials.root_report"] / n,
        "polynomials.maxroot.self_s": time["polynomials.maxroot"] / n,
        "descent.branches": tracer.counts["descent.branches"] / n,
        "descent.levels": tracer.counts["descent.levels"] / n,
        "descent.self_s": time["descent"] / n,
        "discrepancy.self_s": time["discrepancy"] / n,
        "linalg.eigensolve.calls": calls["linalg.eigensolve"] / n,
        "linalg.eigensolve.self_s": time["linalg.eigensolve"] / n,
        "linalg.validate.self_s": time["linalg.validate"] / n,
        "linalg.validate.setup_s": setup_time["linalg.validate"],
        "trace.solve_s.mean": mean_solve,
        "trace.overhead_frac": statistics.fmean(out.traced_costs) / statistics.fmean(out.costs()) - 1.0,
    }
    shares = {name: t / out.busy[True] for name, t in sorted(time.items(), key=lambda kv: -kv[1])}
    return values, shares


def _dominant(workload: str, shares: dict) -> dict:
    predicted = PREDICTED_DOMINANT[workload]
    group = sum(shares.get(name, 0.0) for name in predicted)
    rivals = {k: v for k, v in shares.items() if k not in predicted and k != "solve"}
    top = max(rivals, key=rivals.get, default=None)
    return {
        "predicted": "+".join(predicted),
        "predicted_share": group,
        "largest_other": top,
        "largest_other_share": rivals.get(top, 0.0),
        "match": group > rivals.get(top, 0.0),
    }


@dataclasses.dataclass
class Measurement:
    """What the timed loop observed."""

    latencies: list = dataclasses.field(default_factory=list)  # untraced solves, s
    refs: list = dataclasses.field(default_factory=list)  # reference kernel time after each, s
    traced_costs: list = dataclasses.field(default_factory=list)  # traced solve / reference kernel
    cell_times: dict = dataclasses.field(default_factory=dict)  # cell index -> untraced solve times
    ratios: list = dataclasses.field(default_factory=list)  # achieved / bound, first cycle
    keys: list = dataclasses.field(default_factory=list)  # digest keys, first cycle
    failures: Counter = dataclasses.field(default_factory=Counter)
    wrong: int = 0  # returned outputs that failed re-verification
    attempted: int = 0
    passes: int = 0
    busy: dict = dataclasses.field(default_factory=lambda: {False: 0.0, True: 0.0})  # by traced
    setup_times: list = dataclasses.field(default_factory=list)  # repeated set-ups, s
    traced_ids: set = dataclasses.field(default_factory=set)

    def costs(self) -> list:
        """Untraced solve times in reference-kernel units."""
        return [d / r for d, r in zip(self.latencies, self.refs)]


_REF_MATRIX = np.arange(1600, dtype=np.float64).reshape(40, 40) % 7.0
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T
_REF_COEFFS = [((k * 37) % 11) - 5.0 for k in range(12)]
_REF_MASKS = np.arange(1 << 13)
_REF_WEIGHTS = np.linspace(0.5, 1.5, 1 << 13)
# One reference kernel per this much solve time (and at least one per solve).
REF_EVERY_S = 0.05


def _reference_kernel() -> float:
    """Wall time of a fixed mix of the program's kinds of work.

    Small LAPACK eigensolves, an interpreted Horner loop, and gathers over
    2^13-entry subset tables.  Timed next to each solve, it shows how fast
    the machine ran just then.  On a shared host whose speed swings by a
    fifth over minutes, solve time divided by it is about twice as steady
    as raw seconds.
    """
    t0 = perf_counter()
    for _ in range(10):
        np.linalg.eigvalsh(_REF_MATRIX)
    for _ in range(300):
        v = 0.0
        for c in _REF_COEFFS:
            v = v * 0.999 + c
    full = len(_REF_MASKS) - 1
    for S in range(15):
        vals = _REF_WEIGHTS[_REF_MASKS & S] * _REF_WEIGHTS[_REF_MASKS & (full ^ S)]
        np.bincount(_REF_MASKS & 15, weights=vals, minlength=16)
    return perf_counter() - t0


def _reference_after(dt: float) -> float:
    """Mean reference kernel time, sampled in proportion to the solve time."""
    return statistics.fmean(_reference_kernel() for _ in range(max(1, round(dt / REF_EVERY_S))))


def _solve_and_check(wl, case, out: Measurement, first_cycle: bool, tracer) -> float:
    """One timed solve, then its re-verification; returns the solve time."""
    t0 = perf_counter()
    try:
        if tracer is None:
            res = wl.solve(case)
        else:
            with tracer.span("solve"):
                res = wl.solve(case)
    except Exception as exc:  # counted by class, never dropped
        dt = perf_counter() - t0
        if not out.failures:
            traceback.print_exc()
        out.failures[type(exc).__name__] += 1
        key = "raised"
    else:
        dt = perf_counter() - t0
        try:
            ratio, key = wl.verify(case, res)
        except Exception as exc:  # a returned output that fails its check
            print(f"verification failed on {case.solver} {case.shape}: {exc!r}", file=sys.stderr)
            out.failures[f"verify:{type(exc).__name__}"] += 1
            out.wrong += 1
            key = "wrong"
        else:
            if first_cycle:
                out.ratios.append(ratio)
    if first_cycle:
        out.keys.append(key)
    return dt


def _set_up(wl, workload, seed: int, tracer=None) -> tuple[list, float]:
    """Draw and validate the pool, then one warm-up solve; returns (pool, seconds)."""
    t0 = perf_counter()
    with tracer.installed() if tracer is not None else nullcontext():
        pool = wl.build_pool(workload, seed)
    try:
        wl.solve(pool[0][0])
    except Exception:  # counted when the first pass solves the same instance
        pass
    return pool, perf_counter() - t0


def _measure(wl, pool, seconds: float, tracer, set_up) -> Measurement:
    """Closed loop over whole passes until ``seconds`` of solve time.

    Whole passes, and at least one cycle through the pool, so every run has
    the same size mix and bound_ratio and the digest cover the whole pool.
    A traced run traces every second pass and leaves the others untraced,
    which gives the tracing overhead.  The set-up is repeated between passes
    at even steps of the measured time, so its median, like the solve
    figures, spans the whole run rather than its first second.
    """
    out = Measurement()
    setups_due = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    while out.passes < len(pool) or out.busy[False] + out.busy[True] < seconds:
        traced = tracer is not None and out.passes % 2 == 1
        first_cycle = out.passes < len(pool)
        with tracer.installed() if traced else nullcontext():
            for j, case in enumerate(pool[out.passes % len(pool)]):
                if traced:
                    tracer.solve_id += 1
                    out.traced_ids.add(tracer.solve_id)
                dt = _solve_and_check(wl, case, out, first_cycle, tracer if traced else None)
                out.attempted += 1
                out.busy[traced] += dt
                ref = _reference_after(dt)
                if traced:
                    out.traced_costs.append(dt / ref)
                else:
                    out.latencies.append(dt)
                    out.refs.append(ref)
                    out.cell_times.setdefault(j, []).append(dt)
        out.passes += 1
        while setups_due and out.busy[False] + out.busy[True] >= setups_due[0]:
            setups_due.pop(0)
            out.setup_times.append(set_up())
    out.setup_times.extend(set_up() for _ in setups_due)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)

    _import_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    if args.tiny:
        workload = dataclasses.replace(workload, cells=wl.TINY[workload.name], passes=2)
    tracer = tracing.Tracer() if args.trace else None
    print("env: " + json.dumps(_environment()), flush=True)

    # The first set-up makes the pool; a traced run traces its validation
    # (solve id -1).  _measure repeats the set-up SETUP_REPEATS - 1 times.
    pool, first_setup = _set_up(wl, workload, args.seed, tracer)
    out = _measure(wl, pool, args.seconds, tracer, lambda: _set_up(wl, workload, args.seed)[1])
    setup_times = [first_setup] + out.setup_times
    failed = sum(out.failures.values())
    run_info = {
        "workload": workload.name,
        "seed": args.seed,
        "cells": [list(c) for c in workload.cells],
        "passes": out.passes,
        "attempted": out.attempted,
        "failed": failed,
        "failed_frac": failed / out.attempted,
        "failures": dict(out.failures),
        "digest": wl.digest(out.keys),
        "digest_solves": len(out.keys),
        "setup_s": setup_times,
        "samples": len(out.latencies),
        "cell_p50_s": [statistics.median(t) for t in out.cell_times.values()],
        "ref_s": statistics.fmean(out.refs),
        "solves_per_s": (out.attempted - failed) / out.busy[False] if tracer is None else None,
        "solve_s.p50": statistics.median(out.latencies),
    }
    if len(out.latencies) >= P90_MIN_SAMPLES:
        run_info["solve_s.p90"] = statistics.quantiles(out.latencies, n=10)[-1]
    print("run: " + json.dumps(run_info), flush=True)

    if tracer is None:
        completed = out.attempted - failed
        values = {
            "solve_ref.mean": sum(out.costs()) / max(completed, 1),
            "solve_ref.p50": statistics.median(out.costs()),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bound_ratio.mean": statistics.fmean(out.ratios) if out.ratios else 0.0,
        }
        units = END_TO_END_UNITS
    else:
        values, shares = _per_layer(tracer, out)
        units = PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(spans_file)
        print("trace: " + json.dumps({
            "spans": len(tracer.spans),
            "spans_file": os.path.relpath(spans_file, ROOT),
            "absent_hooks": tracer.absent_hooks,
            "absent_layers": tracer.absent_layers,
            "shares": shares,
            "dominant": _dominant(workload.name, shares),
        }), flush=True)
    result = {
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
