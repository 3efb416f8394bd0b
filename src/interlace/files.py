"""JSON interchange format for ensembles, weights, and distributions.

Complex entries are serialized as [re, im] pairs, matrices in row-major
order.  Serialization is canonical so identical data yields identical bytes.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .descent import FiniteDistribution
from .errors import NotHermitian, ParseError, ValidationError
from .linalg import MatrixEnsemble, make_hermitian

SCHEMA_VERSION = "1"


@dataclass
class EnsembleFile:
    """Parsed instance file: matrices plus optional per-command sections."""

    schema_version: str
    dim: int
    matrices: list[np.ndarray]
    weights: list[float] | None = None
    distributions: list[dict] | None = None
    proportions: list[float] | None = None
    epsilon_override: float | None = None

    def ensemble(self, tol: float | None = None) -> MatrixEnsemble:
        try:
            return MatrixEnsemble.from_arrays(self.matrices, tol)
        except NotHermitian as exc:
            raise ValidationError(f"NotHermitian: {exc}") from exc

    def finite_distributions(self) -> list[FiniteDistribution]:
        if self.distributions is None:
            raise ValidationError("file has no distributions section")
        out = []
        for k, dd in enumerate(self.distributions):
            try:
                out.append(FiniteDistribution.make(dd["values"], dd["probs"]))
            except (KeyError, ValueError) as exc:
                raise ValidationError(f"distribution {k}: {exc}") from exc
        return out


def _entry_to_complex(e, where: str) -> complex:
    if not (isinstance(e, (list, tuple)) and len(e) == 2):
        raise ParseError(f"{where}: entry must be a [re, im] pair, got {e!r}")
    # bool is a subclass of int, but JSON true and false are not numbers
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in e):
        raise ParseError(f"{where}: entry components must be numbers")
    try:
        z = complex(*e)
        finite = cmath.isfinite(z)
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    if not finite:
        raise ParseError(f"{where}: entry components must be finite, got {e!r}")
    return z


def parse_ensemble(path: str) -> EnsembleFile:
    """Read and validate an instance file; hermiticity is enforced here,
    PSD requirements are per target command."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("dim", "matrices"):
        if key not in raw:
            raise ParseError(f"{path}: missing required key {key!r}")
    dim = raw["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{path}: dim must be a positive integer")
    mats = []
    for mi, M in enumerate(raw["matrices"]):
        where = f"{path}: matrix {mi}"
        if not isinstance(M, list) or len(M) != dim:
            raise ValidationError(f"{where}: expected {dim} rows")
        A = np.zeros((dim, dim), dtype=np.complex128)
        for ri, row in enumerate(M):
            if not isinstance(row, list) or len(row) != dim:
                raise ValidationError(f"{where}: row {ri} must have {dim} entries")
            for ci, e in enumerate(row):
                A[ri, ci] = _entry_to_complex(e, f"{where}[{ri}][{ci}]")
        try:
            make_hermitian(A)
        except NotHermitian as exc:
            raise ValidationError(f"{where}: NotHermitian: {exc}") from exc
        mats.append(A)
    if not mats:
        raise ValidationError(f"{path}: matrices section is empty")
    ef = EnsembleFile(
        schema_version=str(raw.get("schema_version", SCHEMA_VERSION)),
        dim=dim,
        matrices=mats,
        weights=raw.get("weights"),
        distributions=raw.get("distributions"),
        proportions=raw.get("proportions"),
        epsilon_override=raw.get("epsilon_override"),
    )
    for name in ("weights", "distributions"):
        sec = getattr(ef, name)
        if sec is not None and len(sec) != len(mats):
            raise ValidationError(
                f"{path}: {name} has {len(sec)} entries for {len(mats)} matrices"
            )
    return ef


def _matrix_to_json(M: np.ndarray) -> list:
    return [[[float(M[r, c].real), float(M[r, c].imag)] for c in range(M.shape[1])] for r in range(M.shape[0])]


def serialize_ensemble(ef: EnsembleFile) -> str:
    """Canonical JSON text (stable key order, two-space indent)."""
    doc: dict[str, Any] = {
        "schema_version": ef.schema_version,
        "dim": ef.dim,
        "matrices": [_matrix_to_json(np.asarray(M)) for M in ef.matrices],
    }
    if ef.weights is not None:
        doc["weights"] = [float(t) for t in ef.weights]
    if ef.distributions is not None:
        doc["distributions"] = [
            {"values": [float(v) for v in dd["values"]], "probs": [float(p) for p in dd["probs"]]}
            for dd in ef.distributions
        ]
    if ef.proportions is not None:
        doc["proportions"] = [float(t) for t in ef.proportions]
    if ef.epsilon_override is not None:
        doc["epsilon_override"] = float(ef.epsilon_override)
    return json.dumps(doc, indent=2) + "\n"


def write_ensemble(ef: EnsembleFile, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_ensemble(ef))
