"""Spans around the program's layer boundaries, recorded from outside it.

While installed, a ``Tracer`` rebinds the public names that interlace's
modules import from one another, so every call across a layer boundary
opens a span (name, start, end, parent, solve id).  Uninstalling restores
the original objects.  Spans stay in memory until the run writes them out.

A hook whose target no longer exists (a later refactor moved it) is skipped
and reported; a layer all of whose hooks are missing is reported absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer, module, attribute).  Functions are rebound in the namespace that
# calls them; ``SubsetTable.build`` is rebound on the class.
HOOKS = (
    ("discrepancy", "interlace.discrepancy", "solve_kls"),
    ("discrepancy", "interlace.lyapunov", "solve_kls"),
    ("discrepancy", "interlace.discrepancy", "solve_hermitian"),
    ("lyapunov", "interlace.lyapunov", "lyapunov_select"),
    ("lyapunov", "interlace.lyapunov", "ks_r_partition"),
    ("descent", "interlace.discrepancy", "greedy_descent_quadratic"),
    ("descent", "interlace.descent", "_run_descent"),
    ("descent", "interlace.lyapunov", "_run_descent"),
    ("mixedchar.table_build", "interlace.mixedchar", "SubsetTable.build"),
    ("mixedchar.assemble", "interlace.descent", "expected_product_poly"),
    ("polynomials.root_report", "interlace.descent", "root_report"),
    ("polynomials.root_report", "interlace.polynomials", "root_report"),
    ("polynomials.maxroot", "interlace.descent", "maxroot_certified"),
    ("lyapunov.convolve", "interlace.lyapunov", "subset_convolve"),
    ("linalg.eigensolve", "interlace.discrepancy", "operator_norm"),
    ("linalg.eigensolve", "interlace.lyapunov", "operator_norm"),
    ("linalg.eigensolve", "interlace.lyapunov", "eigenvalues"),
    ("linalg.validate", "interlace.discrepancy", "is_psd"),
    ("linalg.validate", "interlace.descent", "is_psd"),
    ("linalg.validate", "interlace.lyapunov", "ensemble_stats"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))

# Span fields, in the order each span list holds them.
FIELDS = ("name", "start", "end", "parent", "solve")
NAME, START, END, PARENT, SOLVE = range(5)


def _resolve(module: str, attr: str):
    """(owner, attribute name, raw attribute), or None when the hook is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    raw = vars(owner).get(name)
    return None if raw is None else (owner, name, raw)


class Tracer:
    """Records spans and the descent's level and branch counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.solve_id = -1
        self._stack: list[int] = []
        self._targets = []
        self.absent_hooks = []
        for layer, module, attr in HOOKS:
            found = _resolve(module, attr)
            if found is None:
                self.absent_hooks.append(f"{module}.{attr}")
            else:
                self._targets.append((layer, *found))
        present = {layer for layer, *_ in self._targets}
        self.absent_layers = [layer for layer in LAYERS if layer not in present]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.solve_id]
        self.spans.append(record)
        self._stack.append(idx)
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn) if name == "_run_descent" else None
        counted = signature is not None and {"num_levels", "branch_poly"} <= signature.parameters.keys()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                bound = signature.bind(*args, **kwargs)
                self.counts["descent.levels"] += bound.arguments["num_levels"]
                branch_poly = bound.arguments["branch_poly"]

                def counting(*a, **kw):
                    self.counts["descent.branches"] += 1
                    return branch_poly(*a, **kw)

                bound.arguments["branch_poly"] = counting
                args, kwargs = bound.args, bound.kwargs
            with self.span(layer):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every present hook; restore the originals on exit."""
        done = []
        try:
            for layer, owner, name, raw in self._targets:
                if isinstance(raw, classmethod):
                    setattr(owner, name, classmethod(self._wrap(layer, name, raw.__func__)))
                else:
                    setattr(owner, name, self._wrap(layer, name, raw))
                done.append((owner, name, raw))
            yield self
        finally:
            for owner, name, raw in reversed(done):
                setattr(owner, name, raw)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Per span: duration minus the time its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_totals(spans, solves: set[int]) -> tuple[dict, dict]:
    """Summed self time and call count per span name, over the given solves."""
    own = self_times(spans)
    time, calls = defaultdict(float), defaultdict(int)
    for s, t in zip(spans, own):
        if s[SOLVE] in solves:
            time[s[NAME]] += t
            calls[s[NAME]] += 1
    return time, calls
