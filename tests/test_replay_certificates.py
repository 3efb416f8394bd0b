"""The certificate replay script on the benchmark's smallest cells.

scripts/replay_certificates.py hashes every certificate of the benchmark's
pool solves, so that two trees can be compared bit for bit.  This runs it
on ``workloads.TINY`` in a fresh process, as it is run by hand.
"""

import importlib.util
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "replay_certificates.py"
LINE = re.compile(r"^(?P<name>[a-z-]+) seed (?P<seed>\d+): (?P<solves>\d+) solves sha256 (?P<digest>[0-9a-f]{64})$")


def _replay(*args: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = [LINE.match(line) for line in proc.stdout.splitlines()]
    assert all(lines), proc.stdout
    return [m.groupdict() for m in lines]


def test_replay_hashes_every_tiny_pool_solve_the_same_way_twice():
    first = _replay("--seeds", "3", "4", "--tiny")
    # two passes of each tiny cell list: kls-deep, kls-wide and partition
    # have one cell, small-mix three
    solves = {"kls-deep": "2", "kls-wide": "2", "partition": "2", "small-mix": "6"}
    assert [(r["name"], r["seed"], r["solves"]) for r in first] == [
        (name, seed, count) for name, count in sorted(solves.items()) for seed in ("3", "4")
    ]
    assert len({r["digest"] for r in first}) == len(first)  # other seeds, other pools
    assert _replay("--seeds", "3", "4", "--tiny") == first


def _replay_module():
    """The script loaded by path; the search path it extends and the
    ``workloads`` module it imports from perfbench are taken back."""
    path, loaded = list(sys.path), "workloads" in sys.modules
    try:
        spec = importlib.util.spec_from_file_location("replay_certificates", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        if not loaded:
            sys.modules.pop("workloads", None)
    return module


def test_replay_key_reads_every_certificate_field():
    # a change to any recorded field of a certificate changes its key
    replay = _replay_module()
    wl = replay.wl
    case = wl.build_pool(replace(wl.WORKLOADS["kls-wide"], cells=wl.TINY["kls-wide"], passes=1), 3)[0][0]
    res = wl.solve(case)
    key = replay.certificate_key(case, res)
    cert = res.certificate
    moved = cert.enclosures[1]._replace(hi=math.nextafter(cert.enclosures[1].hi, math.inf))
    edits = [
        replace(res, outcome=tuple(-s for s in res.outcome)),
        replace(res, certificate=replace(cert, assignment=tuple(-s for s in cert.assignment))),
        replace(res, certificate=replace(cert, enclosures=(cert.enclosures[0], moved) + cert.enclosures[2:])),
        replace(res, certificate=replace(cert, margins=(math.nextafter(cert.margins[0], 1.0),) + cert.margins[1:])),
        replace(res, certificate=replace(cert, fallback_levels=(1,))),
    ]
    for edited in edits:
        assert replay.certificate_key(case, edited) != key


@pytest.mark.parametrize("bad", [["--seeds"], ["--seeds", "3", "--workloads", "no-such-workload"]])
def test_replay_rejects_bad_arguments(bad):
    proc = subprocess.run([sys.executable, str(SCRIPT), *bad], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
