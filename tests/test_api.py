"""The package's public names, frozen so that a change to them is deliberate
and each documented in the README, the names the benchmark's tracer binds,
and the package's promise of exact arithmetic, with no floats."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import unaryperfect

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
PACKAGE = ROOT / "src" / "unaryperfect"
README = (ROOT / "README.md").read_text()

PUBLIC = [
    "DClass",
    "FamilyParams",
    "FamilyScan",
    "FieldDesc",
    "FieldElem",
    "FundamentalUnit",
    "InvariantError",
    "MinData",
    "PerfectForm",
    "QuadFieldError",
    "SizeLimitError",
    "WalkResult",
    "brute_force_min",
    "classes_equal",
    "classify",
    "construct_a1_a2",
    "construct_a3",
    "fundamental_unit",
    "generate_family",
    "min_data",
    "predicted_a3_minimum",
    "predicted_minimal_set",
    "primitive_normalize",
    "walk_classes",
]


def test_public_names_are_frozen():
    assert sorted(unaryperfect.__all__) == PUBLIC


def test_public_names_are_in_the_readme_library_section():
    (library,) = re.findall(r"^## Library\n(.*?)^## ", README, re.M | re.S)
    missing = [
        name for name in unaryperfect.__all__ if not re.search(rf"\b{name}\b", library)
    ]
    assert missing == []


def test_public_names_resolve():
    missing = [name for name in unaryperfect.__all__ if not hasattr(unaryperfect, name)]
    assert missing == []


def test_traced_names_are_bound():
    # bench/tracing.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def module(layer):
        return importlib.import_module(f"unaryperfect.{layer}")

    missing = [
        f"{layer}.{attr}"
        for layer, attr in tracing.SPANS
        if not hasattr(module(layer), attr)
    ]
    # a counter replaces the binding in its own module only, so the name
    # must be bound there, not just reachable from it
    missing += [
        f"{layer}.{attr}"
        for layer, attr, _ in tracing.COUNTERS
        if attr not in vars(module(layer))
    ]
    assert missing == []


MATH_ALLOWED = {"isqrt", "gcd", "lcm"}
INEXACT_MODULES = {"cmath", "random", "statistics"}


def _inexact_nodes(tree):
    """Float or complex literals, float() and complex() calls, inexact imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # an alias of math would hide its names from the check below
                if alias.name in INEXACT_MODULES or (alias.name == "math" and alias.asname):
                    yield node, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if node.module in INEXACT_MODULES:
                yield node, f"from {node.module} import"
            elif node.module == "math":
                for alias in node.names:
                    if alias.name not in MATH_ALLOWED:
                        yield node, f"math.{alias.name}"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr not in MATH_ALLOWED:
                yield node, f"math.{node.attr}"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, repr(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("float", "complex"):
                yield node, f"{node.func.id}()"


def test_no_floats_in_the_package():
    found = [
        f"{path.name}:{node.lineno}: {what}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node, what in _inexact_nodes(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
