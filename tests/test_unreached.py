"""Code that only tests reach belongs in the tests, not in ``src/trifree``.

A function or class counts as reached when some package code reads it: as
a name or an attribute that is loaded, not assigned, or in an import outside
``__init__.py``, whose re-exports alone reach nothing.  What no package code names is pinned
below, each with why it stays.
"""
import ast
from pathlib import Path

import trifree
from trifree import extremal

SRC = Path(__file__).resolve().parent.parent / "src" / "trifree"

UNREACHED = {
    "c5_to_c2": "public: ``reduce`` refuses C5 and names this conversion; the tracer wraps it",
    "disk_subgraph": "the benchmark tracer wraps it by name",
    "embed_edges": "public constructor from an edge list; the tracer wraps it",
    "golden_expectations": "public; the benchmark workloads read the golden corpus with it",
    "golden_graphs": "public; the benchmark workloads read the golden corpus with it",
    "is_independent_set": "public predicate; the tracer wraps it",
    "lift": "public copying form of a step's ``lift_into``",
}

MOVED = ("avoiding_independent_set", "diamond_project", "diamond_reduce")


def unreached():
    """The functions and classes of ``src/trifree`` that no package code
    reads, dunder methods aside."""
    defined, named = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                named.update(alias.name for alias in node.names)
    return {name for name in defined - named
            if not (name.startswith("__") and name.endswith("__"))}


def test_only_pinned_code_is_unreached():
    assert unreached() == set(UNREACHED)


def test_test_only_diamond_code_left_the_package():
    # the face-avoiding set is the reference in the tests' oracles, and the
    # graph-level replacement and projection serve only the tests
    for name in MOVED:
        assert name not in trifree.__all__
        assert not hasattr(trifree, name) and not hasattr(extremal, name)
