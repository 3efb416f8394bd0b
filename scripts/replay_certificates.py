"""Replay every pool solve of the benchmark workloads and hash their certificates.

Run from the repository root:

    python3 scripts/replay_certificates.py --seeds 7 21
    python3 scripts/replay_certificates.py --seeds 3 --tiny

The pools come from ``perfbench/workloads.py``, imported unchanged, so a
change to the program cannot change an instance.  Each instance of each
pass is solved once.  One line per workload and seed gives the number of
solves and a sha256 over, in solve order, the outcome (values, selected
indices or blocks), the certificate's assignment, every enclosure's ends
and every margin as ``float.hex``, and the fallback levels.  Two trees that
print the same lines returned bit-identical certificates.
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


def certificate_key(case: wl.Case, res) -> str:
    """One line naming everything a solve returned that a change must keep."""
    if case.solver == "select":
        outcome, cert = res.indices, res.solver.certificate
    elif case.solver == "partition":
        outcome, cert = res.blocks, res.certificate
    else:
        outcome, cert = res.outcome, res.certificate
    ends = [(e.lo.hex(), e.hi.hex()) for e in cert.enclosures]
    margins = [float(m).hex() for m in cert.margins]
    return repr((outcome, cert.assignment, ends, margins, cert.fallback_levels))


def replay(workload: wl.Workload, seed: int) -> tuple[int, str]:
    """(solves, sha256) over every pool instance of one workload and seed."""
    digest = hashlib.sha256()
    solves = 0
    for row in wl.build_pool(workload, seed):
        for case in row:
            digest.update(certificate_key(case, wl.solve(case)).encode())
            digest.update(b"\n")
            solves += 1
    return solves, digest.hexdigest()


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
            solves, digest = replay(workload, seed)
            print(f"{name} seed {seed}: {solves} solves sha256 {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
