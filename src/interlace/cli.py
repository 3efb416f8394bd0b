"""Command-line surface: evaluate polynomials, run solvers, verify invariants.

Exit codes: 0 all asserted bounds hold, 1 input error, 2 bound violation
(the violated inequality is printed with both sides).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .discrepancy import DiscrepancyInstance, _recompute_achieved, solve_hermitian, solve_kls
from .errors import InterlaceError
from .files import parse_ensemble, serialize_ensemble
from .generate import gen_instance
from .lyapunov import RESULT_SLACK, LyapunovInstance, ks_r_partition, lyapunov_select
from .mixedchar import mixed_char_poly, quadratic_mixed_char_poly
from .polynomials import MACROSCOPIC_IMAG, maxroot_certified, root_report
from .verification import SUITES, run_suites


def _require_at_least(flag: str, value: float, low: float) -> None:
    """Reject a command-line number below ``low``, infinite or NaN."""
    if not low <= value < math.inf:
        raise InterlaceError(f"{flag} must be finite and at least {low}; got {value}")


def _fail_line(name: str, lhs: float, rhs: float) -> str:
    return f"VIOLATED: {name}: {lhs:.12g} <= {rhs:.12g} is false"


class _Report:
    """Collects key/value lines plus asserted inequalities for one command."""

    def __init__(self, command: str, seed=None):
        self.data: dict = {"command": command, "seed": seed}
        self.failures: list[str] = []
        self.t0 = time.perf_counter()

    def set(self, key: str, value) -> None:
        self.data[key] = value

    def check(self, name: str, lhs: float, rhs: float) -> None:
        self.data[f"check[{name}]"] = f"{lhs:.12g} <= {rhs:.12g}"
        if not lhs <= rhs:
            self.failures.append(_fail_line(name, lhs, rhs))

    def finish(self, json_path: str | None) -> int:
        self.data["wall_time_s"] = round(time.perf_counter() - self.t0, 6)
        width = max(len(k) for k in self.data)
        for k, v in self.data.items():
            print(f"{k:<{width}}  {v}")
        for line in self.failures:
            print(line)
        if json_path:
            with open(json_path, "w") as fh:
                json.dump({**self.data, "failures": self.failures}, fh, indent=2, default=str)
                fh.write("\n")
        return 2 if self.failures else 0


def _fmt_poly(coeffs) -> str:
    return "[" + ", ".join(f"{c:.12g}" for c in coeffs) + "]"


def _set_certificate(rep: _Report, cert) -> None:
    """The max-root chain, its widest enclosure, its closest branch decision
    and the levels that fell back to a root report of their own."""
    rep.set("certificate_maxroots", _fmt_poly(cert.maxroots))
    rep.set("certificate_max_band", max(cert.bands, default=0.0))
    rep.set("certificate_min_margin", min(cert.margins, default=math.inf))
    rep.set("certificate_fallback_levels", list(cert.fallback_levels))


def cmd_mcp_eval(args) -> int:
    # a tolerance above a macroscopic imaginary part would certify a
    # polynomial with no real root as real-rooted
    if not 0.0 <= args.tol <= MACROSCOPIC_IMAG:
        raise InterlaceError(f"--tol must lie in [0, {MACROSCOPIC_IMAG:g}]; got {args.tol}")
    ef = parse_ensemble(args.input)
    ens = ef.ensemble()
    rep = _Report("mcp-eval")
    rep.set("dim", ens.dim)
    rep.set("count", len(ens))
    if args.quadratic:
        poly = quadratic_mixed_char_poly(ens)
        rep.set("polynomial", "quadratic mixed characteristic")
    else:
        signs = (
            [float(s) for s in args.signs.split(",")]
            if args.signs
            else [1.0] * len(ens)
        )
        if len(signs) != len(ens):
            raise InterlaceError(f"need {len(ens)} signs, got {len(signs)}")
        if not all(math.isfinite(s) for s in signs):
            raise InterlaceError(f"--signs must be finite numbers; got {args.signs}")
        poly = mixed_char_poly(ens, signs)
        rep.set("polynomial", "mixed characteristic")
        rep.set("signs", signs)
    report = root_report([poly], args.tol)[0]
    rep.set("coefficients_ascending", _fmt_poly(poly.coeffs))
    rep.set("real_rooted", report.real_rooted)
    if report.real_rooted:
        rep.set("maxroot", maxroot_certified([poly], reports=[report])[0].hi)
        rep.set("minroot", report.minroot)
    return rep.finish(args.json)


def cmd_discrepancy(args) -> int:
    _require_at_least("--compare-random", args.compare_random, 0)
    _require_at_least("--seed", args.seed, 0)
    ef = parse_ensemble(args.input)
    ens = ef.ensemble()
    dists = ef.finite_distributions()
    inst = DiscrepancyInstance(ens, tuple(dists))
    rep = _Report("discrepancy", seed=args.seed)
    res = solve_kls(inst, reduce=not args.no_reduce)
    rep.set("dim", ens.dim)
    rep.set("count", len(ens))
    rep.set("epsilon_max_trace", float(np.max(ens.traces())))
    rep.set("sigma", res.sigma)
    rep.set("outcome", list(res.outcome))
    rep.set("achieved_recomputed", res.achieved)
    rep.set("bound", res.bound)
    _set_certificate(rep, res.certificate)
    rep.check("achieved <= bound", res.achieved, res.bound + RESULT_SLACK)
    worst = max(res.certificate.residuals) if res.certificate.residuals else 0.0
    rep.check("certificate monotone", worst, RESULT_SLACK)
    if args.compare_random:
        rng = np.random.default_rng(args.seed)
        samples = []
        for _ in range(args.compare_random):
            outcome = [
                float(rng.choice(dd.values, p=dd.probs)) for dd in dists
            ]
            samples.append(_recompute_achieved(ens, dists, outcome))
        rep.set(
            "random_outcomes_norms",
            f"min {min(samples):.6g} / median {float(np.median(samples)):.6g} / max {max(samples):.6g}"
            f" over {args.compare_random} samples (informational)",
        )
    return rep.finish(args.json)


def cmd_hermitian(args) -> int:
    ef = parse_ensemble(args.input)
    dists = ef.finite_distributions()
    rep = _Report("hermitian")
    res = solve_hermitian(ef.matrices, dists, reduce=not args.no_reduce)
    rep.set("dim", ef.dim)
    rep.set("count", len(ef.matrices))
    rep.set("sigma", res.sigma)
    rep.set("outcome", list(res.outcome))
    rep.set("achieved_recomputed", res.achieved)
    rep.set("bound", res.bound)
    _set_certificate(rep, res.certificate)
    rep.check("achieved <= bound", res.achieved, res.bound + RESULT_SLACK)
    return rep.finish(args.json)


def cmd_lyapunov(args) -> int:
    ef = parse_ensemble(args.input)
    ens = ef.ensemble()
    if ef.weights is None:
        raise InterlaceError("lyapunov requires a weights section")
    inst = LyapunovInstance.make(ens, ef.weights, epsilon=ef.epsilon_override)
    rep = _Report("lyapunov")
    sel = lyapunov_select(inst)
    rep.set("dim", ens.dim)
    rep.set("count", len(ens))
    rep.set("epsilon_max_trace", inst.epsilon)
    rep.set("sigma", sel.solver.sigma)
    rep.set("selected_indices", list(sel.indices))
    rep.set("achieved_recomputed", sel.achieved)
    rep.set("bound_two_sqrt_eps", sel.bound)
    _set_certificate(rep, sel.solver.certificate)
    rep.check("achieved <= 2 sqrt(eps)", sel.achieved, sel.bound + RESULT_SLACK)
    return rep.finish(args.json)


def cmd_partition(args) -> int:
    ef = parse_ensemble(args.input)
    ens = ef.ensemble()
    props = ef.proportions if args.proportions is None else [
        float(x) for x in args.proportions.split(",")
    ]
    if props is None:
        raise InterlaceError("partition requires proportions (file section or --proportions)")
    rep = _Report("partition")
    res = ks_r_partition(ens, props, epsilon=ef.epsilon_override)
    rep.set("dim", ens.dim)
    rep.set("count", len(ens))
    rep.set("epsilon_max_trace", res.epsilon)
    rep.set("proportions", list(res.proportions))
    r = len(props)
    spread = 2.0 * math.sqrt(r * res.epsilon) + r * res.epsilon
    for k, block in enumerate(res.blocks):
        rep.set(f"block[{k}]", list(block))
        rep.set(f"block[{k}]_norm", res.block_norms[k])
        rep.check(f"block {k} norm bound", res.block_norms[k], res.bounds[k] + RESULT_SLACK)
        rep.check(
            f"block {k} psd certificate", 0.0, 1.0 if res.upper_cert[k] else -1.0
        )
        rep.check(f"block {k} two-sided deviation", res.deviations[k], spread + RESULT_SLACK)
        sharper = max(res.proportions[k], 1.0 - res.proportions[k]) * spread
        rep.set(f"block[{k}]_sharper_deviation_bound", f"{sharper:.12g} (informational)")
    _set_certificate(rep, res.certificate)
    return rep.finish(args.json)


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise InterlaceError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    _require_at_least("--scale", args.scale, 0.0)
    _require_at_least("--seed", args.seed, 0)
    print(f"seed {args.seed}  scale {args.scale}")
    failures = 0
    t0 = time.perf_counter()
    for suite, res in run_suites(names, seed=args.seed, scale=args.scale):
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {suite}/{res.name}: {res.detail}")
        failures += 0 if res.passed else 1
    print(f"{failures} failures; wall time {time.perf_counter() - t0:.1f}s")
    return 2 if failures else 0


def cmd_gen(args) -> int:
    _require_at_least("--dim", args.dim, 1)
    _require_at_least("--count", args.count, 1)
    _require_at_least("--seed", args.seed, 0)
    ef = gen_instance(args.kind, args.dim, args.count, args.epsilon, args.seed)
    text = serialize_ensemble(ef)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} (kind {args.kind}, d={args.dim}, m={args.count}, seed {args.seed})")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="interlace",
        description="Mixed characteristic polynomials, discrepancy and partition solvers",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("mcp-eval", help="evaluate a mixed characteristic polynomial")
    p.add_argument("--input", required=True)
    p.add_argument("--signs", help="comma-separated scalars, default all 1")
    p.add_argument("--quadratic", action="store_true", help="evaluate the quadratic variant")
    p.add_argument("--tol", type=float, default=1e-9, help="real-rootedness tolerance, in [0, 1e-3]")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_mcp_eval)

    p = sub.add_parser("discrepancy", help="signed-combination discrepancy within 4 sigma")
    p.add_argument("--input", required=True)
    p.add_argument("--no-reduce", action="store_true", help="skip the two-point reduction")
    p.add_argument(
        "--compare-random", type=int, default=0, metavar="N", help="sample N random outcomes for contrast"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")
    p.set_defaults(fn=cmd_discrepancy)

    p = sub.add_parser("hermitian", help="hermitian discrepancy within 8 sigma")
    p.add_argument("--input", required=True)
    p.add_argument("--no-reduce", action="store_true")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_hermitian)

    p = sub.add_parser("lyapunov", help="round fractional weights to a subset")
    p.add_argument("--input", required=True)
    p.add_argument("--json")
    p.set_defaults(fn=cmd_lyapunov)

    p = sub.add_parser("partition", help="spectrally balanced r-block partition")
    p.add_argument("--input", required=True)
    p.add_argument("--proportions", help="comma-separated block proportions (overrides file)")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("verify", help="run randomized invariant suites")
    p.add_argument("--suite", default="all", help=f"all or one of: {', '.join(SUITES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0, help="multiplier on instance counts")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate a deterministic instance file")
    p.add_argument("--kind", required=True, choices=["psd-trace-capped", "rank-one", "lyapunov", "ksr"])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True, help="number of matrices")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InterlaceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
