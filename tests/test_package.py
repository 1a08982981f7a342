"""The package's public surface, its standard-library-only, all-used imports,
and the value semantics of its record classes."""

from __future__ import annotations

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polyphi
from polyphi import (
    DualityReport,
    GeeParams,
    GeneticCode,
    IndexSet,
    LengthVector,
    RelationMatrix,
    TopMonomial,
    cli,
    combinatorics,
    duality,
    errors,
    lengths,
    relations,
)

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


def test_every_private_definition_has_a_caller():
    """Each module-level function or class outside its module's `__all__`
    is named somewhere in the package other than its own definition."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(polyphi.__file__).parent.glob("*.py"))
    }
    for name, tree in trees.items():
        module = importlib.import_module(f"polyphi.{name[:-3]}")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in getattr(module, "__all__", ()):
                continue
            referenced = any(
                (isinstance(ref, ast.Name) and ref.id == node.name)
                or (isinstance(ref, ast.Attribute) and ref.attr == node.name)
                for other in trees.values()
                for statement in other.body
                if statement is not node
                for ref in ast.walk(statement)
            )
            assert referenced, (name, node.name)


def test_every_oracle_is_named_in_a_test():
    """Each top-level function of `tests/brute.py` is named in some test
    module other than by its import, so an oracle outlives no comparison."""
    here = Path(__file__).parent
    named = {
        ref.id if isinstance(ref, ast.Name) else ref.attr
        for path in sorted(here.glob("test_*.py"))
        for ref in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(ref, (ast.Name, ast.Attribute))
    }
    path = here / "brute.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef):
            assert node.name in named, node.name


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


def test_importing_the_cli_skips_dataclasses_and_inspect():
    """The CLI's cold start stays clear of the heavy introspection modules."""
    src = Path(polyphi.__file__).parent.parent
    code = (
        "import sys, polyphi.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []


# One case per value class: positional arguments, the same by keyword, its
# exact repr, whether it is frozen, and field values that make it unequal.
VALUE_CASES = [
    (GeeParams, ((2, 2),), {"a": [2, 2]}, "GeeParams(a=(2, 2))", True, ((2, 1),)),
    (
        TopMonomial,
        (IndexSet([1, 2]), 6),
        {"subscripts": IndexSet([2, 1]), "n": 6},
        "TopMonomial(subscripts=IndexSet({1, 2}), n=6)",
        True,
        (IndexSet([1, 2]), 7),
    ),
    (
        LengthVector,
        ((Fraction(1), Fraction(3, 2), Fraction(2)),),
        {"lengths": [Fraction(1), Fraction(3, 2), Fraction(2)]},
        "LengthVector(lengths=(Fraction(1, 1), Fraction(3, 2), Fraction(2, 1)))",
        True,
        ((Fraction(1), Fraction(1), Fraction(1)),),
    ),
    (
        GeneticCode,
        ((IndexSet([1, 4]),), 4),
        {"genes": (IndexSet([4, 1]),), "n": 4},
        "GeneticCode(genes=(IndexSet({1, 4}),), n=4)",
        True,
        ((IndexSet([2, 4]),), 4),
    ),
    (
        RelationMatrix,
        ((IndexSet(), IndexSet([1])), (IndexSet([1]),), (1,)),
        {"columns": (IndexSet(), IndexSet([1])), "rows": (IndexSet([1]),), "bits": (1,)},
        "RelationMatrix(columns=(IndexSet({}), IndexSet({1})), rows=(IndexSet({1}),), bits=(1,))",
        True,
        ((IndexSet(), IndexSet([1])), (IndexSet([1]),), (0,)),
    ),
    (
        DualityReport,
        (GeeParams((1,)), 2, 1, 1, None, {IndexSet([1]): 1}, True),
        {
            "gee": GeeParams((1,)),
            "basis_size": 2,
            "rank": 1,
            "nullspace_dim": 1,
            "oracle": None,
            "formula": {IndexSet([1]): 1},
            "agree": True,
        },
        "DualityReport(gee=GeeParams(a=(1,)), basis_size=2, rank=1, nullspace_dim=1,"
        " oracle=None, formula={IndexSet({1}): 1}, agree=True)",
        False,
        (GeeParams((1,)), 2, 1, 1, None, {IndexSet([1]): 1}, False),
    ),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, text, frozen, other_args",
    VALUE_CASES,
    ids=[case[0].__name__ for case in VALUE_CASES],
)
def test_value_class_semantics(cls, args, kwargs, text, frozen, other_args):
    value, same, other = cls(*args), cls(**kwargs), cls(*other_args)
    assert value == same and not value != same
    assert value != other and not value == other
    assert repr(value) == text == repr(same)
    assert value != args and value != tuple(kwargs.values())
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value
    for case in VALUE_CASES:
        if case[0] is not cls:
            assert value.__eq__(case[0](*case[1])) is NotImplemented
    name = next(iter(kwargs))
    if frozen:
        assert hash(value) == hash(same)
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value == same
    else:
        with pytest.raises(TypeError):
            hash(value)
        for field in kwargs:
            setattr(value, field, getattr(other, field))
        assert value == other and value != same


def test_gee_params_defaults_to_the_empty_gee():
    assert GeeParams() == GeeParams(()) == GeeParams(a=[])
    assert repr(GeeParams()) == "GeeParams(a=())"
