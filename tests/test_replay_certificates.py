"""The certificate replay script on the benchmark's smallest cells.

scripts/replay_certificates.py hashes every certificate of the benchmark's
pool solves, so that two trees can be compared bit for bit, by hand or
with ``--against``.  This runs it on ``workloads.TINY`` in a fresh
process, as it is run by hand.
"""

import importlib.util
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "replay_certificates.py"
LINE = re.compile(
    r"^(?P<name>[a-z-]+) seed (?P<seed>\d+): (?P<solves>\d+) solves"
    r" sha256 (?P<digest>[0-9a-f]{64}) outcomes (?P<outcomes>[0-9a-f]{64})$"
)


AGAINST = re.compile(LINE.pattern[:-1] + r" against: sha256 (?P<same_digest>match|differs) outcomes (?P<same_outcomes>match|differs)$")


def _replay(*args: str, line=LINE) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.match(text) for text in proc.stdout.splitlines()]
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


def test_replay_against_its_own_tree_matches_every_line():
    # the other tree's replay runs in a subprocess over that tree's src:
    # this tree against itself prints its own digests, and every line
    # matches on both
    lines = _replay("--seeds", "3", "--tiny", "--against", str(ROOT), line=AGAINST)
    alone = _replay("--seeds", "3", "--tiny")
    assert [{k: r[k] for k in alone[0]} for r in lines] == alone
    assert {(r["same_digest"], r["same_outcomes"]) for r in lines} == {("match", "match")}


def test_replay_against_a_tree_with_other_bits_says_which_digest_differs(tmp_path):
    # a copy of src whose enclosures stop tightening at 1e-12 instead of
    # 1e-10: enclosure ends move, so some sha256 differs, while every
    # outcome, assignment and fallback level matches; the copy is what the
    # other replay imports
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    polynomials = tmp_path / "src" / "interlace" / "polynomials.py"
    text = polynomials.read_text()
    assert text.count("\nMAXROOT_TOL = 1e-10\n") == 1
    polynomials.write_text(text.replace("\nMAXROOT_TOL = 1e-10\n", "\nMAXROOT_TOL = 1e-12\n"))
    lines = _replay("--seeds", "3", "--tiny", "--against", str(tmp_path), line=AGAINST)
    assert "differs" in {r["same_digest"] for r in lines}
    assert {r["same_outcomes"] for r in lines} == {"match"}


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


def _tiny_kls_wide_solve(replay):
    wl = replay.wl
    case = wl.build_pool(replace(wl.WORKLOADS["kls-wide"], cells=wl.TINY["kls-wide"], passes=1), 3)[0][0]
    return case, wl.solve(case)


def _decision_edits(res):
    """The solve with its outcome, its assignment or its fallback levels changed."""
    cert = res.certificate
    return [
        replace(res, outcome=tuple(-s for s in res.outcome)),
        replace(res, certificate=replace(cert, assignment=tuple(-s for s in cert.assignment))),
        replace(res, certificate=replace(cert, fallback_levels=(1,))),
    ]


def _bit_edits(res):
    """The solve with one enclosure end or one margin nudged by an ulp."""
    cert = res.certificate
    moved = cert.enclosures[1]._replace(hi=math.nextafter(cert.enclosures[1].hi, math.inf))
    return [
        replace(res, certificate=replace(cert, enclosures=(cert.enclosures[0], moved) + cert.enclosures[2:])),
        replace(res, certificate=replace(cert, margins=(math.nextafter(cert.margins[0], 1.0),) + cert.margins[1:])),
    ]


def test_replay_key_reads_every_certificate_field():
    # a change to any recorded field of a certificate changes its key
    replay = _replay_module()
    case, res = _tiny_kls_wide_solve(replay)
    key = replay.certificate_key(case, res)
    for edited in _decision_edits(res) + _bit_edits(res):
        assert replay.certificate_key(case, edited) != key


def test_outcome_key_reads_the_decisions_and_not_the_bits():
    # a nudged enclosure end or margin moves the certificate key but not the
    # outcome key; a changed outcome, assignment or fallback list moves both
    replay = _replay_module()
    case, res = _tiny_kls_wide_solve(replay)
    key, outcome = replay.certificate_key(case, res), replay.outcome_key(case, res)
    for edited in _bit_edits(res):
        assert replay.certificate_key(case, edited) != key
        assert replay.outcome_key(case, edited) == outcome
    for edited in _decision_edits(res):
        assert replay.outcome_key(case, edited) != outcome


@pytest.mark.parametrize(
    "bad", [["--seeds"], ["--seeds", "3", "--workloads", "no-such-workload"], ["--seeds", "3", "--against"]]
)
def test_replay_rejects_bad_arguments(bad):
    proc = subprocess.run([sys.executable, str(SCRIPT), *bad], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
