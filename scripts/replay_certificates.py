"""Replay every pool solve of the benchmark workloads and hash their certificates.

Run from the repository root:

    python3 scripts/replay_certificates.py --seeds 7 21
    python3 scripts/replay_certificates.py --seeds 3 --tiny

The pools come from ``perfbench/workloads.py``, imported unchanged, so a
change to the program cannot change an instance.  Each instance of each
pass is solved once.  One line per workload and seed gives the number of
solves and two sha256 digests, each over every solve in solve order:

- ``sha256``: the outcome (values, selected indices or blocks), the
  certificate's assignment, every enclosure's ends and every margin as
  ``float.hex``, and the fallback levels;
- ``outcomes``: the outcome, the assignment and the fallback levels only.

Two trees that print the same ``sha256`` returned bit-identical
certificates.  A change that moves only the bits of enclosures and margins
prints a new ``sha256`` and the same ``outcomes``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def _outcome(case: wl.Case, res):
    """The solve's outcome (values, selected indices or blocks) and its certificate."""
    if case.solver == "select":
        return res.indices, res.solver.certificate
    if case.solver == "partition":
        return res.blocks, res.certificate
    return res.outcome, res.certificate


def certificate_key(case: wl.Case, res) -> str:
    """One line naming everything a solve returned that a change must keep."""
    outcome, cert = _outcome(case, res)
    ends = [(e.lo.hex(), e.hi.hex()) for e in cert.enclosures]
    margins = [float(m).hex() for m in cert.margins]
    return repr((outcome, cert.assignment, ends, margins, cert.fallback_levels))


def outcome_key(case: wl.Case, res) -> str:
    """One line naming what a solve decided: no enclosure end or margin."""
    outcome, cert = _outcome(case, res)
    return repr((outcome, cert.assignment, cert.fallback_levels))


def replay(workload: wl.Workload, seed: int) -> tuple[int, str, str]:
    """(solves, certificate sha256, outcome sha256) over every pool instance
    of one workload and seed."""
    digests = hashlib.sha256(), hashlib.sha256()
    solves = 0
    for row in wl.build_pool(workload, seed):
        for case in row:
            res = wl.solve(case)
            for digest, key in zip(digests, (certificate_key, outcome_key)):
                digest.update(key(case, res).encode())
                digest.update(b"\n")
            solves += 1
    return solves, digests[0].hexdigest(), digests[1].hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=sorted(wl.WORKLOADS), choices=sorted(wl.WORKLOADS))
    parser.add_argument("--tiny", action="store_true", help="the smoke test's smallest cells, two passes")
    args = parser.parse_args(argv)
    for name in args.workloads:
        workload = wl.WORKLOADS[name]
        if args.tiny:
            workload = dataclasses.replace(workload, cells=wl.TINY[name], passes=2)
        for seed in args.seeds:
            solves, digest, outcomes = replay(workload, seed)
            print(f"{name} seed {seed}: {solves} solves sha256 {digest} outcomes {outcomes}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
