"""The package's public surface, and its standard-library-only, all-used imports."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import polyphi
from polyphi import cli, combinatorics, duality, errors, lengths, relations

# The modules whose `__all__` the package re-exports.
EXPORTING = (combinatorics, duality, errors, lengths, relations)

PUBLIC = {
    # combinatorics
    "IndexSet",
    "GeeParams",
    "Profile",
    "binom_parity",
    "block_counts",
    "is_subgee_profile",
    "compositions",
    "subgee_profiles",
    # duality
    "TopMonomial",
    "pairing_set",
    "pairing_by_profile",
    "pairing_table",
    "closed_form_k3",
    "count_disjoint_subgees",
    "admissible_summands",
    # errors
    "PolyphiError",
    "InvalidLengthError",
    "TooFewSidesError",
    "NotGenericError",
    "OutOfRangeError",
    "EmptySpaceError",
    "NotMonogenicError",
    "RealizationNotFoundError",
    "SizeLimitError",
    "InfeasibleProfileError",
    # lengths
    "LengthVector",
    "GeneticCode",
    "normalize",
    "is_generic",
    "genetic_code",
    "monogenic_gee",
    "enumerate_subgees",
    "realize_gee",
    # relations
    "RelationMatrix",
    "DualityReport",
    "subgee_count",
    "build_matrix",
    "nullspace_functional",
    "annihilation_failures",
    "cross_validate",
    # package
    "__version__",
}


def test_package_exports_exactly_the_public_names():
    assert set(polyphi.__all__) == PUBLIC
    assert len(polyphi.__all__) == len(PUBLIC)


def test_star_import_binds_exactly_all():
    namespace: dict[str, object] = {}
    exec("from polyphi import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(polyphi.__all__)


def test_each_export_is_its_defining_modules_object():
    for name in sorted(PUBLIC - {"__version__"}):
        homes = [m for m in EXPORTING if name in m.__all__]
        assert len(homes) == 1, (name, [m.__name__ for m in homes])
        assert getattr(polyphi, name) is getattr(homes[0], name), name


def test_every_module_all_resolves():
    for module in (*EXPORTING, cli):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_package_imports_only_the_standard_library():
    for path in sorted(Path(polyphi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_package_modules_use_every_name_they_import():
    for path in sorted(Path(polyphi.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_benchmark_traced_names_resolve():
    """Every `module.attr` the benchmark tracer wraps exists in the package.

    The tuples are read from the tracer's source, not imported, so a tracer
    without them (or no tracer at all) skips this test instead of failing it.
    """
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    if not path.is_file():
        pytest.skip("no perfbench/tracing.py")
    tuples = {
        target.id: node.value
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("TIMED", "COUNTED")
    }
    if len(tuples) < 2:
        pytest.skip("perfbench/tracing.py defines no TIMED or no COUNTED tuple")
    for value in tuples.values():
        for name in ast.literal_eval(value):
            module, attr = name.split(".")
            assert hasattr(importlib.import_module(f"polyphi.{module}"), attr), name
