"""Guard for the benchmark's tracer hooks inside the tier-1 suite.

perfbench/test_smoke.py lies outside this suite's testpaths, so a rename of
a hooked name would otherwise pass here and silently zero the per-layer
metrics.  This file only reads perfbench: it loads its tracer by path.
"""

import importlib.util
import inspect
from pathlib import Path

from interlace.descent import _run_descent

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
