"""The reference evaluators' argument checks, and the import boundary that
keeps them apart from the level engines."""

import ast
from pathlib import Path

import numpy as np
import pytest

import interlace
from interlace import (
    DerivativeSpec,
    FiniteDistribution,
    conditional_spec_quadratic,
    ensemble,
    expected_product_poly,
    mixed_char_poly,
    truncated_ring_oracle,
)
from interlace.reference import subset_convolve

PACKAGE = Path(interlace.__file__).parent


@pytest.mark.parametrize("scalars", [[1.0], [1.0, -1.0, 1.0], [[1.0, -1.0]]])
def test_oracle_rejects_scalars_of_the_wrong_shape(scalars):
    # two matrices: one scalar too few or too many, or a row of two, which
    # the table path refuses too
    E = ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 2.0])])
    for evaluate in (truncated_ring_oracle, mixed_char_poly):
        with pytest.raises(ValueError, match="^expected 2 scalars$"):
            evaluate(E, scalars=scalars)


@pytest.mark.parametrize("m", [1, 3])
def test_oracle_rejects_a_spec_of_the_wrong_length(m):
    E = ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 2.0])])
    spec = DerivativeSpec((0.0,) * m, (0.0,) * m, (-1.0,) * m)
    for evaluate in (truncated_ring_oracle, expected_product_poly):
        with pytest.raises(ValueError, match=rf"^spec length {m} != ensemble size 2$"):
            evaluate(E, spec=spec)


@pytest.mark.parametrize("index", [3, 7, -1])
def test_conditional_spec_rejects_a_fixed_index_out_of_range(index):
    dists = [FiniteDistribution.fair_signs()] * 3
    with pytest.raises(ValueError, match=rf"^fixed indices \[{index}\] outside 0\.\.2$"):
        conditional_spec_quadratic(dists, {index: 1.0})
    with pytest.raises(ValueError, match=r"^fixed indices \[-2, 5\] outside 0\.\.2$"):
        conditional_spec_quadratic(dists, {5: 1.0, 0: 1.0, -2: -1.0})


@pytest.mark.parametrize("lengths, bad", [((16, 8), 1), ((15,), 0), ((16, 16, 32), 2)])
def test_subset_convolve_rejects_a_table_of_the_wrong_length(lengths, bad):
    tables = [np.ones(k) for k in lengths]
    with pytest.raises(ValueError, match=rf"^tables\[{bad}\] has shape \({lengths[bad]},\), not \(16,\) for n = 4$"):
        subset_convolve(tables, 4)


def test_subset_convolve_of_no_tables_is_the_empty_set_indicator():
    assert subset_convolve([], 3).tolist() == [1.0] + [0.0] * 7


def _imports(module):
    """(source module, imported name) of every ``from . import`` or
    ``from interlace.x import`` in the module (name None for an
    ``import interlace.x``), and the module's AST."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("interlace")):
            source = (node.module or "").removeprefix("interlace").lstrip(".")
            found += [(source, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.startswith("interlace")]
    return found, tree


def test_reference_imports_public_names_only_and_not_descent():
    found, _ = _imports("reference")
    assert found  # the walk sees the relative imports
    assert [(source, name) for source, name in found if name is None or name.startswith("_")] == []
    assert {source for source, _ in found} <= {"errors", "linalg", "mixedchar", "polynomials"}


# Unused names that perfbench's tracer hooks in these namespaces.
HOOKED = {("descent", "expected_product_poly"), ("lyapunov", "subset_convolve")}


@pytest.mark.parametrize("module", ["mixedchar", "descent", "discrepancy", "lyapunov", "polynomials"])
def test_solve_modules_use_nothing_from_reference(module):
    found, tree = _imports(module)
    taken = {name for source, name in found if source == "reference" or name == "reference"}
    assert {(module, name) for name in taken} <= HOOKED
    assert ("interlace.reference", None) not in found
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert taken.isdisjoint(used), taken & used
