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

``--against PATH`` replays the same seeds and workloads in the tree at
PATH as well, in a subprocess that imports that tree's ``src`` (the pools
still come from this tree's ``perfbench``), and ends each line with
whether its ``sha256`` and its ``outcomes`` match that tree's:

    python3 scripts/replay_certificates.py --seeds 7 21 31 41 --against ../parent
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import re
import subprocess
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


LINE = re.compile(r"^(?P<key>\S+ seed \d+): \d+ solves sha256 (?P<digest>[0-9a-f]{64}) outcomes (?P<outcomes>[0-9a-f]{64})$")
# Run in the other tree's subprocess: its src is imported before this
# script puts this tree's on the path, so every interlace module is its.
_BOOT = """
import runpy, sys
src, script = sys.argv[1:3]
sys.path.insert(0, src)
import interlace
sys.argv = sys.argv[2:]
runpy.run_path(script, run_name="__main__")
"""


def _start_against(tree: Path, args) -> subprocess.Popen:
    """The same replay over the tree at ``tree``'s src, started in a subprocess."""
    src = (tree / "src").resolve()
    if not (src / "interlace" / "__init__.py").is_file():
        raise SystemExit(f"--against {tree}: no src/interlace package there")
    argv = ["--seeds", *map(str, args.seeds), "--workloads", *args.workloads] + (["--tiny"] if args.tiny else [])
    return subprocess.Popen(
        [sys.executable, "-c", _BOOT, str(src), __file__, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _their_digests(proc: subprocess.Popen) -> dict[str, tuple[str, str]]:
    """key -> (sha256, outcomes) of every line the other tree printed."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"--against replay failed:\n{err}")
    return {m["key"]: (m["digest"], m["outcomes"]) for m in map(LINE.match, out.splitlines()) if m}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=sorted(wl.WORKLOADS), choices=sorted(wl.WORKLOADS))
    parser.add_argument("--tiny", action="store_true", help="the smoke test's smallest cells, two passes")
    parser.add_argument(
        "--against", type=Path, metavar="PATH", help="also replay in the tree at PATH and say per line whether the digests match"
    )
    args = parser.parse_args(argv)
    other = _start_against(args.against, args) if args.against else None
    lines = []
    for name in args.workloads:
        workload = wl.WORKLOADS[name]
        if args.tiny:
            workload = dataclasses.replace(workload, cells=wl.TINY[name], passes=2)
        for seed in args.seeds:
            solves, digest, outcomes = replay(workload, seed)
            line = f"{name} seed {seed}: {solves} solves sha256 {digest} outcomes {outcomes}"
            if other is None:
                print(line, flush=True)
            lines.append((f"{name} seed {seed}", line, (digest, outcomes)))
    if other is not None:
        theirs = _their_digests(other)
        for key, line, ours in lines:
            verdicts = ["match" if key in theirs and theirs[key][i] == ours[i] else "differs" for i in (0, 1)]
            print(f"{line} against: sha256 {verdicts[0]} outcomes {verdicts[1]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
